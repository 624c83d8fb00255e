"""The ``/v1/*`` client API and the lifecycle of both HTTP front doors.

Endpoints (all JSON; no third-party dependencies)::

    GET  /v1/health            liveness + queue/worker stats
    GET  /v1/stats             service stats + telemetry metrics snapshot
    GET  /v1/kinds             registered job kinds
    GET  /metrics              Prometheus text exposition (0.0.4)
    GET  /v1/events?since=N    incremental event tail (cursor = "next")
    GET  /v1/fuzz/frontier     live fuzz coverage-frontier snapshot
    POST /v1/jobs              submit a job  -> 202 (429 when queue full)
    GET  /v1/jobs              list job statuses (?state= filter)
    GET  /v1/jobs/<id>         one job's status
    GET  /v1/jobs/<id>/result  the result     -> 409 until resolved
    GET  /v1/jobs/<id>/events  a traced job's merged event records
    POST /v1/jobs/<id>/cancel  cooperative cancel
    POST /v1/shutdown          graceful shutdown (body: {"drain": bool})

:class:`FrontDoor` holds this one route table and the one foreground
lifecycle for both doors: :class:`ServiceServer` (``repro serve``, over a
:class:`~repro.serve.service.BatchService`) and
:class:`~repro.cluster.coordinator.ClusterCoordinator` (which adds its
node and cluster routes).  Both answer on the selector transport of
:mod:`repro.serve.http`.  The table reads from the object that owns the
jobs: ``submit``, ``get_job``, ``cancel``, ``jobs``, ``stats()``,
``telemetry`` and ``live_gauges()`` (the door's extra ``/metrics``
gauges).

Backpressure is surfaced exactly as web services do it: a full admission
queue answers **429 Too Many Requests** with a ``Retry-After`` hint, and
a draining service answers **503**.  A malformed request is a **400**,
an oversized body a **413**, a method other than GET/POST a **405**.
``POST /v1/shutdown`` answers 202 and then shuts the door down; the
foreground :meth:`FrontDoor.serve_forever` returns only once that
shutdown has finished and the reply has been written.
"""

from __future__ import annotations

import signal
import threading
from typing import Dict, Optional, Tuple

from .executors import ExecutorError, job_kinds
from .http import SelectorHttpServer
from .jobs import JobSpec
from .queue import QueueFull
from .service import BatchService, ServiceClosed

__all__ = ["FrontDoor", "ServiceServer"]


class FrontDoor:
    """One HTTP front door: the client route table, the selector
    frontend, a foreground loop, signal handlers and an idempotent
    :meth:`shutdown`.

    A subclass provides ``_stop(drain, timeout)``, may extend
    ``start()`` and may answer more routes in ``_door_route``;
    ``backend`` is the object that owns the jobs (see the module
    docstring).
    """

    def __init__(self, backend, host: str, port: int) -> None:
        self._backend = backend
        self._stopped = False
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = threading.Event()
        self._stop_requested = threading.Event()
        self.frontend = SelectorHttpServer(self._route, host=host,
                                           port=port)

    @property
    def host(self) -> str:
        return self.frontend.host

    @property
    def port(self) -> int:
        return self.frontend.port

    @property
    def url(self) -> str:
        return self.frontend.url

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "FrontDoor":
        self.frontend.start()
        return self

    def serve_forever(self) -> None:
        """Run in the foreground (the ``repro serve`` and ``repro
        coordinator`` entry points) until a signal or ``POST
        /v1/shutdown``; returns once the shutdown has finished."""
        if not self.frontend.started:
            self.start()
        try:
            while not self._stop_requested.wait(0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.shutdown()

    def install_signal_handlers(self) -> None:
        """SIGTERM and SIGINT both drain gracefully.

        Containerized shutdowns send SIGTERM; without this handler the
        process dies mid-job and in-flight work is lost.  The handler
        only wakes :meth:`serve_forever`, whose ``finally`` then drains
        exactly as a ``KeyboardInterrupt`` would.  Must be called from
        the main thread.
        """
        def handle(signum, frame):  # pragma: no cover - signal path
            self._stop_requested.set()

        signal.signal(signal.SIGTERM, handle)
        signal.signal(signal.SIGINT, handle)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the door: ``drain=True`` lets queued and in-flight jobs
        finish, ``drain=False`` cancels the queued ones.

        Signal handlers, ``POST /v1/shutdown``, ``serve_forever``'s
        cleanup and explicit calls may race: the first caller shuts
        down, and every later caller blocks until it has finished.
        """
        with self._shutdown_lock:
            first = not self._stopped
            self._stopped = True
        if not first:
            self._shutdown_done.wait()
            return
        try:
            self._stop(drain, timeout)
        finally:
            self._shutdown_done.set()
            self._stop_requested.set()

    def __enter__(self) -> "FrontDoor":
        if not self.frontend.started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- routes ---------------------------------------------------------

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Optional[dict]) -> tuple:
        """The frontend router: the door's own routes, then the client
        table."""
        route = tuple(part for part in path.strip("/").split("/") if part)
        body = body or {}
        try:
            reply = self._door_route(method, route, body)
            if reply is not None:
                return reply
            if method == "GET":
                return self._get(route, query)
            if method == "POST":
                return self._post(route, body)
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        return 405, {"error": f"method {method} not allowed"}

    def _door_route(self, method: str, route: Tuple[str, ...],
                    body: dict) -> Optional[tuple]:
        """Routes only this door answers; ``None`` falls through."""
        return None

    def _get(self, route: Tuple[str, ...], query: Dict[str, str]) -> tuple:
        backend = self._backend
        if route == ("metrics",):
            from ..telemetry.prometheus import (CONTENT_TYPE,
                                                render_prometheus)

            text = render_prometheus(backend.telemetry.metrics.to_dict(),
                                     extra_gauges=backend.live_gauges())
            return 200, text, {"Content-Type": CONTENT_TYPE}
        if route == ("v1", "events"):
            since = int(query.get("since", "0"))
            return 200, backend.telemetry.events.tail(since)
        if route == ("v1", "fuzz", "frontier"):
            from ..observe.frontier import frontier_from_events

            return 200, frontier_from_events(list(backend.telemetry.events))
        if route == ("v1", "health"):
            stats = backend.stats()
            status = "ok" if stats["accepting"] else "draining"
            return 200, {"status": status, **stats}
        if route == ("v1", "stats"):
            return 200, {"service": backend.stats(),
                         "metrics": backend.telemetry.metrics.to_dict()}
        if route == ("v1", "kinds"):
            return 200, {"kinds": job_kinds()}
        if route == ("v1", "jobs"):
            state = query.get("state")
            jobs = [job.to_dict() for job in list(backend.jobs.values())
                    if state is None or job.state == state]
            return 200, {"jobs": jobs, "total": len(jobs)}
        if route[:2] == ("v1", "jobs") and (
                len(route) == 3
                or len(route) == 4 and route[3] in ("result", "events")):
            job = backend.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            if len(route) == 3:
                return 200, job.to_dict()
            if route[3] == "events":
                events = sorted(list(job.trace_events),
                                key=lambda event: event.get("ts_us", 0))
                return 200, {"id": job.id, "state": job.state,
                             "traced": job.spec.trace is not None,
                             "events": events}
            if not job.done:
                return 409, {"error": f"job {job.id} is {job.state}; result "
                             "not available yet"}, {"Retry-After": "1"}
            return 200, job.to_dict(with_result=True)
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}

    def _post(self, route: Tuple[str, ...], body: dict) -> tuple:
        backend = self._backend
        if route == ("v1", "jobs"):
            try:
                job = backend.submit(JobSpec.from_dict(body))
            except QueueFull as exc:
                return 429, {"error": str(exc)}, {
                    "Retry-After": str(exc.retry_after)}
            except ServiceClosed as exc:
                return 503, {"error": str(exc)}
            except ExecutorError as exc:
                return 400, {"error": str(exc)}
            return 202, job.to_dict()
        if len(route) == 4 and route[:2] == ("v1", "jobs") \
                and route[3] == "cancel":
            job = backend.get_job(route[2])
            if job is None:
                return 404, {"error": f"no such job: {route[2]}"}
            changed = backend.cancel(job.id)
            return 200, {"id": job.id, "cancelled": changed,
                         "state": job.state}
        if route == ("v1", "shutdown"):
            drain = bool(body.get("drain", True))
            threading.Thread(target=self.shutdown, kwargs={"drain": drain},
                             name="http-shutdown", daemon=True).start()
            return 202, {"status": "shutting down", "drain": drain}
        return 404, {"error": f"unknown endpoint: /{'/'.join(route)}"}


class ServiceServer(FrontDoor):
    """``repro serve``: the client API over one :class:`BatchService`.

    ::

        server = ServiceServer(service, port=0)   # 0 = ephemeral port
        server.start()
        ...  # submit via repro.serve.client.ServiceClient(server.url)
        server.close()                            # drains by default
    """

    def __init__(self, service: BatchService, host: str = "127.0.0.1",
                 port: int = 8972) -> None:
        super().__init__(service, host, port)
        self.service = service

    def close(self, drain: bool = True) -> None:
        """Shut the service down, then stop the HTTP frontend."""
        self.shutdown(drain=drain)

    def _stop(self, drain: bool, timeout: Optional[float]) -> None:
        # The frontend stays up while the service drains, so clients see
        # 503 and "draining" rather than a refused connection.
        self.service.shutdown(drain=drain, timeout=timeout)
        self.frontend.close()
