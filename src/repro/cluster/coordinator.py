"""The cluster coordinator: job queue, shard dispatch, result merge.

One coordinator owns the client-facing API (the same ``/v1/*`` routes as
``repro serve``, so :class:`~repro.serve.client.ServiceClient`,
``repro submit`` and ``repro top`` work unchanged) plus the node-facing
pull protocol::

    POST /v1/nodes/register          -> {"id", "heartbeat_interval", ...}
    POST /v1/nodes/<id>/heartbeat    {"stats": {...}}   renews leases
    POST /v1/nodes/<id>/lease        {"max_items": N}  -> {"work": [...]}
    POST /v1/work/<id>/complete      {"result": ...} | {"error", "retryable"}
    POST /v1/nodes/<id>/drain
    GET  /v1/cluster/nodes           node rows (repro cluster-status / top)
    GET  /v1/cluster/work            work-item table summary

Execution model: jobs are admitted through the same bounded
:class:`~repro.serve.queue.AdmissionQueue` (429 + Retry-After when
full), optionally gated by per-tenant quotas; the scheduler plans each
job into work items (:mod:`.shards` — spec-pure, so byte-identical
results whatever the cluster shape), nodes pull and execute them via the
stock :func:`~repro.serve.executors.execute_job` registry, and the
coordinator order-restores and merges shard results into the exact
single-process envelope.  Sharded fuzz jobs run their feedback loop on
the coordinator (:mod:`.fuzzdriver`), farming out batch evaluation.
Heartbeat loss re-queues a dead node's leases; a JSONL
:class:`~repro.cluster.store.JobStore` makes jobs survive coordinator
restarts.
"""

from __future__ import annotations

import signal
import threading
import time
from queue import SimpleQueue
from typing import Any, Dict, List, Optional, Tuple

from ..pool import merge, ranges
from ..serve.executors import _EXECUTORS, ExecutorError
from ..serve.jobs import (Job, JobCancelled, JobContext, JobSpec, JobTimeout,
                          STATES)
from ..serve.queue import AdmissionQueue, QueueClosed, QueueFull
from ..serve.service import ServiceClosed
from ..telemetry.session import resolve as _resolve_telemetry
from .fuzzdriver import DistributedFuzzEngine
from .leases import LeaseTable, NodeRegistry, WORK_DONE, WORK_FAILED
from .quotas import QuotaExceeded, TenantQuotas
from .shards import FUZZ_DRIVER, SHARDABLE_KINDS, plan_shards
from .store import JobStore

__all__ = ["ClusterCoordinator"]


class ClusterCoordinator:
    """Coordinator node: admission, shard dispatch, lease recovery, merge.

    ::

        coord = ClusterCoordinator(port=0, store_path="jobs.jsonl")
        coord.start()
        # attach WorkerNode(coord.url) instances, submit via ServiceClient
        coord.shutdown()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8973,
                 store_path: Optional[str] = None,
                 queue_limit: int = 64,
                 lease_timeout: float = 30.0,
                 node_timeout: float = 10.0,
                 max_attempts: int = 3,
                 quotas: Optional[TenantQuotas] = None,
                 telemetry=None) -> None:
        from .frontend import SelectorHttpServer

        resolved = _resolve_telemetry(telemetry)
        if not resolved.enabled:
            from ..telemetry import Telemetry
            resolved = Telemetry()
        self.telemetry = resolved
        self._metrics = self.telemetry.metrics.namespace("cluster")
        self.queue = AdmissionQueue(queue_limit)
        self.work = LeaseTable(max_attempts=max_attempts)
        self.nodes = NodeRegistry()
        self.quotas = quotas or TenantQuotas()
        self.lease_timeout = lease_timeout
        self.node_timeout = node_timeout
        self.heartbeat_interval = max(0.05, node_timeout / 3.0)
        self.jobs: Dict[str, Job] = {}
        self._job_items: Dict[str, List[str]] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._accepting = False
        self._started = False
        self._stopped = False
        self._node_drain = threading.Event()
        self._stop_loop = threading.Event()
        self._finalize_feed: SimpleQueue = SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._driver_threads: List[threading.Thread] = []
        self._next_job_number = 1
        self.store: Optional[JobStore] = None
        self._replayed: List[Tuple[str, JobSpec]] = []
        if store_path is not None:
            self._recover(store_path)
        self.frontend = SelectorHttpServer(self._route, host=host,
                                           port=port)

    # -- persistence ----------------------------------------------------

    def _recover(self, store_path: str) -> None:
        """Replay the JSONL log: finished jobs stay fetchable, unfinished
        ones re-queue when the coordinator starts."""
        recovered = JobStore.replay(store_path)
        self._next_job_number = recovered.max_job_number + 1
        for job_id, data in recovered.resolved.items():
            try:
                spec = JobSpec.from_dict(data["spec"])
            except (ValueError, TypeError, KeyError):
                continue
            job = Job(spec, job_id=job_id)
            state = data.get("state")
            if state == "succeeded":
                job.mark_succeeded(data.get("result") or {})
            elif state == "timeout":
                job.mark_timeout(data.get("error") or "timeout")
            elif state == "cancelled":
                job.mark_cancelled(data.get("error") or "cancelled")
            else:
                job.mark_failed(data.get("error") or "failed")
            job.finalize_once()
            self.jobs[job.id] = job
        for job_id, spec_dict in recovered.unresolved:
            try:
                spec = JobSpec.from_dict(spec_dict)
            except (ValueError, TypeError, KeyError):
                continue
            self._replayed.append((job_id, spec))
        self.store = JobStore(store_path)

    # -- lifecycle ------------------------------------------------------

    @property
    def url(self) -> str:
        return self.frontend.url

    def start(self) -> "ClusterCoordinator":
        if self._started:
            raise RuntimeError("coordinator already started")
        self._started = True
        self._accepting = True
        self.frontend.start()
        for target, name in ((self._scheduler_loop, "cluster-scheduler"),
                             (self._finalizer_loop, "cluster-finalizer"),
                             (self._reaper_loop, "cluster-reaper")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "cluster.started", queue_limit=self.queue.limit,
                lease_timeout=self.lease_timeout,
                node_timeout=self.node_timeout,
                replayed_jobs=len(self._replayed),
                resolved_jobs=len(self.jobs))
        # Re-queue replayed unresolved jobs under their original IDs:
        # shard plans are spec-pure, so the re-run produces the bytes
        # the interrupted run would have.
        replayed, self._replayed = self._replayed, []
        for job_id, spec in replayed:
            job = Job(spec, job_id=job_id)
            with self._lock:
                self.jobs[job.id] = job
            # Replay must never strand a persisted job; the quota still
            # counts it so new submissions see the true active load.
            self.quotas.acquire(spec.tenant, force=True)
            try:
                self.queue.put(job)
            except (QueueFull, QueueClosed):
                job.mark_failed("queue full during replay")
                self._job_finished(job)
        return self

    def __enter__(self) -> "ClusterCoordinator":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def serve_forever(self) -> None:
        """Run in the foreground (the ``repro coordinator`` entry point)."""
        try:
            while not self._stop_loop.wait(0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.shutdown()

    def install_signal_handlers(self) -> None:
        """SIGTERM and SIGINT both drain gracefully (containers send
        SIGTERM); mirrors ``ServiceServer.install_signal_handlers``."""
        def handle(signum, frame):  # pragma: no cover - signal path
            self._stop_loop.set()

        signal.signal(signal.SIGTERM, handle)
        signal.signal(signal.SIGINT, handle)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the coordinator.

        ``drain=True`` stops admission, waits for every queued and
        in-flight job to resolve (nodes keep pulling), then tells nodes
        to drain and closes.  ``drain=False`` cancels queued jobs and
        closes immediately.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._accepting = False
        if not drain:
            for job in self.queue.drain():
                job.mark_cancelled("coordinator shutdown")
                self._job_finished(job)
        self.queue.close()
        if drain:
            self.join(timeout=timeout)
        self._node_drain.set()
        self._stop_loop.set()
        self._finalize_feed.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        for thread in list(self._driver_threads):
            thread.join(timeout=5)
        self.frontend.close()
        if self.telemetry.enabled:
            counts = self.work.counts()
            self.telemetry.events.emit(
                "cluster.stopped", drained=drain,
                jobs_total=len(self.jobs),
                work_completed=self.work.completed_total,
                work_requeued=self.work.requeued_total,
                work_failed=counts[WORK_FAILED],
                nodes_lost=self.nodes.lost_total)
        if self.store is not None:
            self.store.close()

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

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job; raises :class:`QueueFull`,
        :class:`QuotaExceeded`, :class:`ServiceClosed`, or
        :class:`ExecutorError` exactly like the single-process service."""
        if not self._started:
            raise RuntimeError("coordinator not started")
        spec.validate()
        if spec.kind not in _EXECUTORS:
            raise ExecutorError(
                f"unknown job kind {spec.kind!r}; known kinds: "
                f"{sorted(_EXECUTORS)}")
        if spec.shards > 1 and spec.kind not in SHARDABLE_KINDS:
            raise ExecutorError(
                f"kind {spec.kind!r} cannot shard; shards > 1 applies to "
                f"{sorted(SHARDABLE_KINDS)}")
        with self._lock:
            if not self._accepting:
                raise ServiceClosed("coordinator is shutting down")
            job = Job(spec, job_id=f"job-{self._next_job_number}")
            self.quotas.acquire(spec.tenant)
            try:
                self.queue.put(job)
            except QueueFull:
                self.quotas.release(spec.tenant)
                self._metrics.counter("rejected").inc()
                if self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "job.rejected", kind=spec.kind,
                        queue_depth=self.queue.limit)
                raise
            except QueueClosed:
                self.quotas.release(spec.tenant)
                raise ServiceClosed(
                    "coordinator is shutting down") from None
            self._next_job_number += 1
            self.jobs[job.id] = job
        if self.store is not None:
            self.store.append_job(job.id, spec.to_dict())
        self._metrics.counter("submitted").inc()
        self._metrics.gauge("queue_depth").set(self.queue.depth())
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "job.submitted", id=job.id, kind=spec.kind,
                shards=spec.shards, tenant=spec.tenant or "")
        return job

    def get_job(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        job = self.jobs.get(job_id)
        if job is None:
            return False
        changed = job.cancel()
        if changed:
            self.work.drop_job(job_id)
            with self._lock:
                static = job_id in self._job_items
            if not job.done and static:
                # Statically-sharded jobs have no cooperative executor
                # on the coordinator — dropping their work items *is*
                # the cancellation, so resolve the job here.  (Fuzz
                # driver jobs resolve themselves via ctx.check.)
                job.mark_cancelled("cancelled while running")
            if job.done:
                self._job_finished(job)
        return changed

    # -- scheduling -----------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            job = self.queue.get(timeout=None)
            if job is None:
                return
            if job.deadline_expired():
                job.mark_timeout("deadline expired before dispatch")
                self._job_finished(job)
                continue
            self._metrics.gauge("queue_depth").set(self.queue.depth())
            plans = plan_shards(job.spec)
            if plans[0]["kind"] == FUZZ_DRIVER:
                self._start_fuzz_driver(job, plans[0]["shard_count"])
                continue
            if not job.mark_running("cluster"):
                self._job_finished(job)
                continue
            items = self.work.add(job.id, plans)
            with self._lock:
                self._job_items[job.id] = [item.id for item in items]
            self._update_work_gauges()
            if self.telemetry.enabled:
                self.telemetry.events.emit(
                    "job.dispatched", id=job.id, kind=job.spec.kind,
                    shards=len(items))

    def _start_fuzz_driver(self, job: Job, shard_count: int) -> None:
        thread = threading.Thread(
            target=self._drive_fuzz, args=(job, shard_count),
            name=f"fuzz-driver-{job.id}", daemon=True)
        self._driver_threads.append(thread)
        thread.start()

    def _drive_fuzz(self, job: Job, shard_count: int) -> None:
        """Run a sharded fuzz job's loop, evaluating batches remotely."""
        from ..serve.executors import fuzz_session_from_payload

        if not job.mark_running("cluster"):
            self._job_finished(job)
            return
        ctx = JobContext(job)
        try:
            isa, config, seeds = fuzz_session_from_payload(
                job.spec.payload)
            base = {
                "isa": isa.name,
                "max_instructions": config.max_instructions,
                "backend": config.backend,
            }

            def evaluate_remote(batch):
                return self._eval_batch_on_cluster(job, ctx, base, batch,
                                                   shard_count)

            engine = DistributedFuzzEngine(isa, config, evaluate_remote,
                                           telemetry=self.telemetry)
            result = engine.run(seeds,
                                on_progress=lambda progress: ctx.check(),
                                progress_interval=0.2)
        except JobCancelled:
            job.mark_cancelled("cancelled while running")
        except JobTimeout:
            job.mark_timeout(
                f"run timeout after {job.spec.timeout_seconds}s")
        except ExecutorError as exc:
            job.mark_failed(str(exc))
        except Exception as exc:  # noqa: BLE001 — driver must resolve job
            job.mark_failed(f"fuzz driver failed: {exc!r}")
        else:
            job.mark_succeeded(result.to_dict())
        finally:
            # Abandoned batch items (cancel/timeout/failure) must not
            # keep dispatching to nodes; on success everything is done
            # already and the drop is a no-op.
            self.work.drop_job(job.id)
            self._job_finished(job)
            self._driver_threads.remove(threading.current_thread())

    def _eval_batch_on_cluster(self, job: Job, ctx: JobContext,
                               base: Dict[str, Any], batch,
                               shard_count: int):
        """One fuzz batch as ``fuzz_eval`` work items, order-restored."""
        from ..fuzz.executor import EvalResult

        plans = [{"kind": "fuzz_eval",
                  "payload": {**base, "inputs": [list(words) for words
                                                 in batch[lo:hi]]},
                  "shard_index": index,
                  "shard_count": shard_count}
                 for index, (lo, hi)
                 in enumerate(ranges(len(batch), shard_count))]
        items = self.work.add(job.id, plans)
        self._update_work_gauges()
        done = self.work.wait([item.id for item in items],
                              should_abort=lambda: job.done
                              or ctx.cancelled or ctx.timed_out
                              or self._stop_loop.is_set())
        ctx.check()
        if not done:
            raise RuntimeError("batch evaluation aborted")
        items = [self.work.get(item.id) for item in items]
        for item in items:
            if item.state != WORK_DONE:
                raise RuntimeError(
                    f"work item {item.id} failed: {item.error}")
        chunks = merge((item.shard_index, item.result["results"])
                       for item in items)
        return [EvalResult.from_dict(data) for chunk in chunks
                for data in chunk]

    # -- finalization ---------------------------------------------------

    def _finalizer_loop(self) -> None:
        while True:
            job_id = self._finalize_feed.get()
            if job_id is None:
                return
            try:
                self._maybe_finalize(job_id)
            except Exception as exc:  # noqa: BLE001 — loop must survive
                job = self.jobs.get(job_id)
                if job is not None and not job.done:
                    job.mark_failed(f"finalize failed: {exc!r}")
                    self._job_finished(job)

    def _maybe_finalize(self, job_id: str) -> None:
        """Resolve a statically-sharded job once all its items landed."""
        from .shards import merge_job_shards

        job = self.jobs.get(job_id)
        with self._lock:
            item_ids = self._job_items.get(job_id)
        if job is None or job.done or not item_ids:
            return
        items = [self.work.get(item_id) for item_id in item_ids]
        failed = [item for item in items if item.state == WORK_FAILED]
        if failed:
            job.mark_failed(
                f"work item {failed[0].id} failed: {failed[0].error}")
            self.work.drop_job(job_id)
            self._job_finished(job)
            return
        if not all(item.state == WORK_DONE for item in items):
            return
        if len(items) == 1 and items[0].kind == job.spec.kind:
            job.mark_succeeded(items[0].result)
        else:
            job.mark_succeeded(merge_job_shards(
                job.spec.kind, [item.result for item in items]))
        self._job_finished(job)

    def _job_finished(self, job: Job) -> None:
        if not job.finalize_once():
            return
        self.quotas.release(job.spec.tenant)
        with self._lock:
            self._job_items.pop(job.id, None)
        if self.store is not None:
            self.store.append_resolved(job.id, job.state,
                                       result=job.result, error=job.error)
        self._metrics.counter(f"completed.{job.state}").inc()
        self._update_work_gauges()
        if self.telemetry.enabled:
            record = {"id": job.id, "kind": job.spec.kind,
                      "state": job.state, "attempts": job.attempts}
            if job.error:
                record["error"] = job.error
            self.telemetry.events.emit("job.finished", **record)
        with self._idle:
            self._idle.notify_all()

    # -- liveness -------------------------------------------------------

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(self.node_timeout,
                                 self.lease_timeout) / 4.0)
        while not self._stop_loop.wait(interval):
            for info in self.nodes.expire(self.node_timeout):
                released = self.work.release_node(info.id)
                self._metrics.counter("nodes_lost").inc()
                if self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "node.lost", id=info.id, name=info.name,
                        requeued=len(released))
                self._after_requeue(released)
            expired = self.work.expire(self.lease_timeout)
            if expired:
                self._metrics.counter("leases_expired").inc(len(expired))
                self._after_requeue(expired)

    def _after_requeue(self, items) -> None:
        """Account re-queues; exhausted items may finalize their job."""
        self._update_work_gauges()
        for item in items:
            if item.state == WORK_FAILED:
                self._finalize_feed.put(item.job_id)
            elif self.telemetry.enabled:
                self.telemetry.events.emit(
                    "work.requeued", id=item.id, job_id=item.job_id,
                    attempts=item.attempts, reason=item.error or "")

    def _update_work_gauges(self) -> None:
        counts = self.work.counts()
        self._metrics.gauge("work_pending").set(counts["pending"])
        self._metrics.gauge("work_leased").set(counts["leased"])
        self._metrics.gauge("nodes").set(len(self.nodes))

    # -- stats ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serve-compatible stats plus a ``cluster`` section."""
        tally = {state: 0 for state in STATES}
        for job in list(self.jobs.values()):
            tally[job.state] += 1
        node_rows = self.nodes.rows()
        counts = self.work.counts()
        return {
            "workers": sum(row["capacity"] for row in node_rows),
            "mode": "cluster",
            "accepting": self._accepting,
            "queue_depth": self.queue.depth(),
            "queue_limit": self.queue.limit,
            "running": counts["leased"],
            "jobs": tally,
            "events": self.telemetry.events.stats(),
            "cluster": {
                "nodes": node_rows,
                "work": counts,
                "work_completed": self.work.completed_total,
                "work_requeued": self.work.requeued_total,
                "nodes_lost": self.nodes.lost_total,
                "lease_timeout": self.lease_timeout,
                "node_timeout": self.node_timeout,
                "tenants": self.quotas.active(),
            },
        }

    # -- node protocol handlers -----------------------------------------

    def _register_node(self, body: dict) -> dict:
        info = self.nodes.register(name=body.get("name"),
                                   capacity=int(body.get("capacity", 1)))
        self._update_work_gauges()
        if self.telemetry.enabled:
            self.telemetry.events.emit("node.registered", id=info.id,
                                       name=info.name,
                                       capacity=info.capacity)
        return {"id": info.id, "name": info.name,
                "heartbeat_interval": self.heartbeat_interval,
                "lease_timeout": self.lease_timeout}

    def _node_heartbeat(self, node_id: str, body: dict) -> Optional[dict]:
        stats = body.get("stats")
        if not self.nodes.heartbeat(
                node_id, stats if isinstance(stats, dict) else None):
            return None
        self.work.renew(node_id)
        return {"id": node_id, "ok": True,
                "drain": self._node_drain.is_set()}

    def _node_lease(self, node_id: str, body: dict) -> Optional[dict]:
        info = self.nodes.get(node_id)
        if info is None:
            return None
        self.nodes.heartbeat(node_id)
        if self._node_drain.is_set() or info.draining:
            return {"work": [], "drain": True}
        max_items = max(1, int(body.get("max_items", 1)))
        leased = self.work.lease(node_id, max_items=max_items)
        self._update_work_gauges()
        return {"work": [item.wire_dict() for item in leased],
                "drain": False}

    def _complete_work(self, item_id: str, body: dict) -> Optional[dict]:
        error = body.get("error")
        if error is not None:
            item = self.work.fail(item_id, str(error),
                                  retryable=bool(body.get("retryable",
                                                          True)))
        else:
            result = body.get("result")
            if not isinstance(result, dict):
                raise ValueError("complete body needs a 'result' object "
                                 "or an 'error' string")
            item = self.work.complete(item_id, result)
            if item is not None:
                self._metrics.counter("work_completed").inc()
        if item is None:
            known = self.work.get(item_id)
            if known is None:
                return None
            return {"id": item_id, "state": known.state, "stale": True}
        self._update_work_gauges()
        if error is not None:
            self._after_requeue([item])
        # Statically-sharded jobs finalize off the event loop.
        if item.state in (WORK_DONE, WORK_FAILED):
            self._finalize_feed.put(item.job_id)
        return {"id": item_id, "state": item.state, "stale": False}

    # -- HTTP router -----------------------------------------------------

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Optional[dict]) -> tuple:
        """The frontend router; mirrors :mod:`repro.serve.api` routes."""
        body = body or {}
        route = tuple(part for part in path.strip("/").split("/") if part)
        try:
            if method == "GET":
                return self._route_get(route, query)
            if method == "POST":
                return self._route_post(route, body)
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        return 405, {"error": f"method {method} not allowed"}

    def _route_get(self, route: tuple, query: Dict[str, str]) -> tuple:
        if route == ("metrics",):
            from ..telemetry.prometheus import (CONTENT_TYPE,
                                                render_prometheus)

            counts = self.work.counts()
            extra = {
                "repro_cluster_nodes_live": len(self.nodes),
                "repro_cluster_work_pending_live": counts["pending"],
                "repro_cluster_work_leased_live": counts["leased"],
                "repro_cluster_work_done_live": counts["done"],
                "repro_cluster_queue_depth_live": self.queue.depth(),
            }
            # Aggregate node-reported execution counters so one scrape
            # of the coordinator sees the whole cluster's throughput.
            executed = failed = 0
            for row in self.nodes.rows():
                stats = row.get("stats") or {}
                executed += int(stats.get("executed", 0) or 0)
                failed += int(stats.get("failed", 0) or 0)
            extra["repro_cluster_node_executed_total"] = executed
            extra["repro_cluster_node_failed_total"] = failed
            text = render_prometheus(self.telemetry.metrics.to_dict(),
                                     extra_gauges=extra)
            return 200, text, {"Content-Type": CONTENT_TYPE}
        if route == ("v1", "events"):
            since = int(query.get("since", "0"))
            return 200, self.telemetry.events.tail(since)
        if route == ("v1", "fuzz", "frontier"):
            from ..observe.frontier import frontier_from_events

            events = list(self.telemetry.events)
            return 200, frontier_from_events(events)
        if route == ("v1", "health"):
            stats = self.stats()
            status = "ok" if stats["accepting"] else "draining"
            return 200, {"status": status, **stats}
        if route == ("v1", "stats"):
            return 200, {"service": self.stats(),
                         "metrics": self.telemetry.metrics.to_dict()}
        if route == ("v1", "kinds"):
            from ..serve.executors import job_kinds

            return 200, {"kinds": job_kinds()}
        if route == ("v1", "cluster", "nodes"):
            return 200, {"nodes": self.nodes.rows(),
                         "total": len(self.nodes)}
        if route == ("v1", "cluster", "work"):
            counts = self.work.counts()
            return 200, {"counts": counts,
                         "completed_total": self.work.completed_total,
                         "requeued_total": self.work.requeued_total}
        if route == ("v1", "jobs"):
            state = query.get("state")
            jobs = [job.to_dict() for job in list(self.jobs.values())
                    if state is None or job.state == state]
            return 200, {"jobs": jobs, "total": len(jobs)}
        if len(route) == 3 and route[:2] == ("v1", "jobs"):
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            return 200, job.to_dict()
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "result":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            if not job.done:
                return (409, {"error": f"job {job.id} is {job.state}; "
                              "result not available yet"},
                        {"Retry-After": "1"})
            return 200, job.to_dict(with_result=True)
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "events":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            return 200, {"id": job.id, "state": job.state,
                         "traced": job.spec.trace is not None,
                         "events": list(job.trace_events)}
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}

    def _route_post(self, route: tuple, body: dict) -> tuple:
        if route == ("v1", "jobs"):
            try:
                spec = JobSpec.from_dict(body)
                job = self.submit(spec)
            except QueueFull as exc:
                return 429, {"error": str(exc)}, {"Retry-After": "1"}
            except QuotaExceeded as exc:
                self._metrics.counter("quota_rejected").inc()
                return 429, {"error": str(exc)}, {"Retry-After": "2"}
            except ServiceClosed as exc:
                return 503, {"error": str(exc)}
            except (ExecutorError, ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 202, job.to_dict()
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "cancel":
            job = self.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            changed = self.cancel(job.id)
            return 200, {"id": job.id, "cancelled": changed,
                         "state": job.state}
        if route == ("v1", "shutdown"):
            drain = bool(body.get("drain", True))

            def stop():
                self.shutdown(drain=drain)

            threading.Thread(target=stop, daemon=True).start()
            return 202, {"status": "shutting down", "drain": drain}
        if route == ("v1", "nodes", "register"):
            return 200, self._register_node(body)
        if len(route) == 4 and route[:2] == ("v1", "nodes"):
            node_id, action = route[2], route[3]
            if action == "heartbeat":
                reply = self._node_heartbeat(node_id, body)
            elif action == "lease":
                reply = self._node_lease(node_id, body)
            elif action == "drain":
                reply = ({"id": node_id, "draining": True}
                         if self.nodes.set_draining(node_id) else None)
            else:
                return 404, {"error": f"unknown node action: {action}"}
            if reply is None:
                return 404, {"error": f"unknown node: {node_id}"}
            return 200, reply
        if len(route) == 4 and route[:2] == ("v1", "work") \
                and route[3] == "complete":
            reply = self._complete_work(route[2], body)
            if reply is None:
                return 404, {"error": f"unknown work item: {route[2]}"}
            return 200, reply
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}
