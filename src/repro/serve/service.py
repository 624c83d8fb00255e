"""The batch service core: scheduler + persistent worker pool.

:class:`BatchService` owns the three moving parts:

* the **admission queue** (:class:`~repro.serve.queue.AdmissionQueue`) —
  bounded, priority-ordered, rejecting when full;
* the **scheduler thread** — pops the best queued job whenever a worker
  slot is free, resolves queue-deadline expiry, and hands the job to the
  pool (so a late-arriving high-priority job overtakes queued bulk work
  right up to the moment of dispatch);
* the **worker pool** — persistent worker threads that execute jobs via
  :func:`repro.serve.executors.execute_job`.  With ``mode="process"``
  each execution is proxied, as a one-chunk map polled for
  cancel/timeout, to long-lived :class:`repro.pool.Workers` processes
  (plain JSON payloads, the same worker start as every campaign pool).

Telemetry lands in the shared registry under ``serve.*``: queue-depth /
running gauges, submitted/rejected/completed counters, queue-wait and
job-duration histograms, and per-job ``job`` spans that export to Chrome
trace.  :meth:`BatchService.shutdown` drains by default: admission stops,
queued and in-flight jobs complete, then the workers exit.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional
from queue import SimpleQueue

from ..pool import Workers, resolve_jobs
from ..telemetry.session import resolve as _resolve_telemetry
from .executors import (ExecutorError, _EXECUTORS, execute_job,
                        execute_job_traced)
from .jobs import (FINAL_STATES, Job, JobCancelled, JobContext, JobSpec,
                   JobTimeout, STATES, STATE_PENDING, STATE_RUNNING)
from .queue import AdmissionQueue, QueueClosed, QueueFull

__all__ = ["BatchService", "ServiceClosed"]


class ServiceClosed(Exception):
    """Submission rejected: the service is shutting down."""


def _apply(state, call) -> Any:
    """Run one ``(function, args)`` job execution in a worker process."""
    function, args = call
    return function(*args)


def _trace_fields(trace: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The non-None entries of a serialized trace context (event tags)."""
    if not trace:
        return {}
    return {key: value for key, value in trace.items() if value is not None}


class BatchService:
    """A long-lived scheduler + worker pool over the simulation workloads.

    ::

        service = BatchService(workers=8, queue_limit=64)
        service.start()
        job = service.submit(JobSpec(kind="vp_run", payload={...}))
        job.wait()
        service.shutdown()          # drains queued + in-flight jobs
    """

    def __init__(self, workers: Optional[int] = None, queue_limit: int = 64,
                 mode: str = "thread", telemetry=None) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.workers = resolve_jobs(workers or 0)
        self.mode = mode
        self.queue = AdmissionQueue(queue_limit)
        self.jobs: Dict[str, Job] = {}
        # A service is long-lived and observable by design: when the
        # ambient session is disabled, run on a private enabled session
        # so /v1/stats and queue gauges are always live.  An explicit
        # or CLI-installed session (``repro serve --stats``) is reused,
        # which is what routes service runs into ``repro stats`` and
        # Chrome-trace export.
        resolved = _resolve_telemetry(telemetry)
        if not resolved.enabled:
            from ..telemetry import Telemetry
            resolved = Telemetry()
        self.telemetry = resolved
        self._metrics = self.telemetry.metrics.namespace("serve")
        self._lock = threading.Lock()
        self._accepting = False
        self._started = False
        self._stopped = False
        self._running = 0
        self._feed: SimpleQueue = SimpleQueue()
        self._slots = threading.Semaphore(self.workers)
        self._threads: List[threading.Thread] = []
        self._scheduler: Optional[threading.Thread] = None
        self._pool = None
        self._idle = threading.Condition(self._lock)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "BatchService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._accepting = True
        if self.mode == "process":
            self._pool = Workers(self.workers)
        self._metrics.gauge("workers").set(self.workers)
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "serve.started", workers=self.workers, mode=self.mode,
                queue_limit=self.queue.limit)
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      args=(f"worker-{index}",),
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        self._scheduler = threading.Thread(target=self._scheduler_loop,
                                           name="serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        return self

    def __enter__(self) -> "BatchService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` (the default) stops admission, lets every queued
        job dispatch and every in-flight job finish, then retires the
        workers.  ``drain=False`` cancels queued jobs immediately and
        waits only for the in-flight ones.  ``timeout`` bounds the total
        wait per joined thread.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._accepting = False
        if not drain:
            for job in self.queue.drain():
                job.mark_cancelled("service shutdown")
                self._job_finished(job)
        # Closing the queue stops get() from blocking but still hands out
        # whatever is queued — the scheduler keeps dispatching until the
        # backlog is empty, then retires the workers with sentinels.
        self.queue.close()
        if self._scheduler is not None:
            self._scheduler.join(timeout)
        for thread in self._threads:
            thread.join(timeout)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self.telemetry.enabled:
            self.telemetry.events.emit("serve.stopped",
                                       drained=drain,
                                       jobs_total=len(self.jobs))

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; True when idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while any(not job.done for job in list(self.jobs.values())):
                remaining = 0.2
                if deadline is not None:
                    remaining = min(0.2, deadline - time.monotonic())
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    # -- submission / inspection ----------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job; raises :class:`QueueFull` under backpressure,
        :class:`ServiceClosed` after shutdown began, and
        :class:`~repro.serve.executors.ExecutorError` for unknown kinds."""
        if not self._started:
            raise RuntimeError("service not started")
        spec.validate()
        if spec.kind not in _EXECUTORS:
            raise ExecutorError(
                f"unknown job kind {spec.kind!r}; known kinds: "
                f"{sorted(_EXECUTORS)}")
        job = Job(spec)
        with self._lock:
            if not self._accepting:
                raise ServiceClosed("service is shutting down")
            try:
                self.queue.put(job)
            except QueueFull:
                self._metrics.counter("rejected").inc()
                if self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "job.rejected", kind=spec.kind,
                        queue_depth=self.queue.limit)
                raise
            except QueueClosed:
                raise ServiceClosed("service is shutting down") from None
            self.jobs[job.id] = job
        self._metrics.counter("submitted").inc()
        self._metrics.gauge("queue_depth").set(self.queue.depth())
        if self.telemetry.enabled:
            self.telemetry.events.emit("job.submitted", id=job.id,
                                       kind=spec.kind,
                                       priority=spec.priority,
                                       **_trace_fields(spec.trace))
        return job

    def get_job(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; running jobs stop at their next checkpoint."""
        job = self.jobs.get(job_id)
        if job is None:
            return False
        changed = job.cancel()
        if changed and job.done:
            self._job_finished(job)
        return changed

    def stats(self) -> Dict[str, Any]:
        tally = {state: 0 for state in STATES}
        for job in list(self.jobs.values()):
            tally[job.state] += 1
        return {
            "workers": self.workers,
            "mode": self.mode,
            "accepting": self._accepting,
            "queue_depth": self.queue.depth(),
            "queue_limit": self.queue.limit,
            "running": self._running,
            "jobs": tally,
            "events": self.telemetry.events.stats(),
        }

    # -- scheduler ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        dispatch_timer = self._metrics.timer("queue_wait_seconds")
        while True:
            # Claim a worker slot *first* so the job popped next is the
            # best choice at the moment a worker is actually free.
            self._slots.acquire()
            job = self.queue.get(timeout=None)
            if job is None:  # closed and drained: retire the workers
                self._slots.release()
                for _ in self._threads:
                    self._feed.put(None)
                return
            if job.deadline_expired():
                job.mark_timeout("deadline expired before dispatch")
                self._job_finished(job)
                self._slots.release()
                continue
            wait = time.monotonic() - job.submitted_at
            dispatch_timer.observe(wait)
            self._metrics.gauge("queue_depth").set(self.queue.depth())
            if self.telemetry.enabled:
                self.telemetry.events.emit(
                    "job.dispatched", id=job.id, kind=job.spec.kind,
                    queue_seconds=round(wait, 6))
            self._feed.put(job)

    # -- workers --------------------------------------------------------

    def _worker_loop(self, name: str) -> None:
        while True:
            job = self._feed.get()
            if job is None:
                return
            try:
                self._execute(job, name)
            finally:
                self._slots.release()

    def _execute(self, job: Job, worker: str) -> None:
        if not job.mark_running(worker):
            # Resolved (cancelled) between dispatch and pickup.
            self._job_finished(job)
            return
        with self._lock:
            self._running += 1
        self._metrics.gauge("running").set(self._running)
        ctx = JobContext(job)
        job_timer = self._metrics.timer("job_seconds")
        started = time.monotonic()
        exec_trace = None
        if job.spec.trace is not None:
            from ..observe.trace import TraceContext

            root = TraceContext.from_dict(job.spec.trace)
            self._emit_queue_span(job, root)
            exec_trace = root.child()
        span_fields: Dict[str, Any] = dict(
            id=job.id, kind=job.spec.kind, worker=worker,
            attempt=job.attempts)
        if exec_trace is not None:
            span_fields.update(exec_trace.fields())
        span = self.telemetry.events.span("job", **span_fields)
        retried = False
        try:
            with span:
                if exec_trace is not None:
                    result = self._execute_traced(job, ctx, exec_trace)
                else:
                    result = self._call(ctx, execute_job, job.spec.kind,
                                        job.spec.payload)
        except JobCancelled:
            job.mark_cancelled("cancelled while running")
        except JobTimeout:
            job.mark_timeout(
                f"run timeout after {job.spec.timeout_seconds}s")
        except ExecutorError as exc:
            # Deterministic payload problem: retrying cannot help.
            job.mark_failed(str(exc))
        except Exception as exc:  # noqa: BLE001 — worker must survive
            error = f"attempt {job.attempts} failed: {exc!r}"
            if job.mark_retrying(error):
                retried = True
                self._metrics.counter("retries").inc()
                if self.telemetry.enabled:
                    self.telemetry.events.emit("job.retrying", id=job.id,
                                               attempt=job.attempts,
                                               error=str(exc))
                try:
                    self.queue.put(job)
                except (QueueFull, QueueClosed) as requeue_exc:
                    retried = False
                    job.mark_failed(f"{error}; requeue failed: "
                                    f"{requeue_exc}")
            else:
                job.mark_failed(error)
        else:
            job.mark_succeeded(result)
        finally:
            finished = time.monotonic()
            job_timer.observe(finished - started)
            if exec_trace is not None:
                # Mirror the worker span into the job's own trace so
                # ``GET /v1/jobs/<id>/events`` is self-contained even
                # after the service ring evicts old records.
                log = self.telemetry.events
                job.trace_events.append({
                    "type": "job",
                    "ts_us": int((started - log.origin) * 1_000_000),
                    "dur_us": int((finished - started) * 1_000_000),
                    "id": job.id, "kind": job.spec.kind, "worker": worker,
                    "state": job.state, "attempt": job.attempts,
                    **exec_trace.fields(),
                })
            with self._lock:
                self._running -= 1
            self._metrics.gauge("running").set(self._running)
            if not retried:
                self._job_finished(job)
            with self._idle:
                self._idle.notify_all()

    def _call(self, ctx: JobContext, function, *args) -> Any:
        """Run ``function(*args, ctx)`` here, or in process mode as
        ``function(*args)`` on the persistent process pool.

        The parent polls so cooperative cancel/timeout still resolve the
        job promptly; the worker process finishes its (budget-bounded)
        task in the background and stays warm for the next job.
        """
        if self._pool is None:
            return function(*args, ctx)
        [(_, result, _, _)] = self._pool.map(
            _apply, [((0,), (function, args))], poll=ctx.check)
        return result

    # -- trace propagation ----------------------------------------------

    def _emit_queue_span(self, job: Job, root) -> None:
        """Record the already-elapsed queue wait as a complete span.

        ``submitted_at``/``started_at`` and the event log share the
        monotonic clock, so the span is placed at the true submission
        time relative to the log's origin.
        """
        queue_ctx = root.child()
        log = self.telemetry.events
        started_at = job.started_at or job.submitted_at
        record = {
            "type": "job.queue_wait",
            "ts_us": int((job.submitted_at - log.origin) * 1_000_000),
            "dur_us": int((started_at - job.submitted_at) * 1_000_000),
            "id": job.id,
            "kind": job.spec.kind,
            **queue_ctx.fields(),
        }
        log.extend([record])
        job.trace_events.append(record)

    def _execute_traced(self, job: Job, ctx: JobContext,
                        exec_trace) -> Dict[str, Any]:
        """Run one traced job, collecting its events onto the trace.

        Thread mode runs :func:`execute_job_traced` in-process (a
        thread-local telemetry session isolates the job's events from
        sibling workers); process mode ships it to the pool and polls
        (:meth:`_call`).  Either way the worker's
        events come back with their own monotonic origin and are rebased
        onto this service's event log before merging.
        """
        run_ctx = exec_trace.child()
        bundle = self._call(ctx, execute_job_traced, job.spec.kind,
                            job.spec.payload, run_ctx.to_dict(), job.id)
        self._merge_worker_events(job, bundle)
        return bundle["result"]

    def _merge_worker_events(self, job: Job, bundle: Dict[str, Any]) -> None:
        events = bundle.get("events") or []
        if not events:
            return
        # CLOCK_MONOTONIC is system-wide on Linux, so the worker's log
        # origin and ours are directly comparable readings.
        shift_us = int((bundle.get("origin", 0.0)
                        - self.telemetry.events.origin) * 1_000_000)
        merged = [{**event, "ts_us": event.get("ts_us", 0) + shift_us}
                  for event in events]
        job.trace_events.extend(merged)
        self.telemetry.events.extend(merged)

    def _job_finished(self, job: Job) -> None:
        if not job.finalize_once():
            return
        self._metrics.counter(f"completed.{job.state}").inc()
        if self.telemetry.enabled:
            record = {"id": job.id, "kind": job.spec.kind,
                      "state": job.state, "attempts": job.attempts}
            run_seconds = job.run_seconds()
            if run_seconds is not None:
                record["run_seconds"] = round(run_seconds, 6)
            if job.error:
                record["error"] = job.error
            self.telemetry.events.emit("job.finished", **record)
