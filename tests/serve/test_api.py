"""HTTP/JSON API + client: endpoints, error mapping, backpressure.

The endpoint tests run against both front doors that share the one
``/v1/*`` route table: ``repro serve`` (:class:`TestEndpoints`) and a
cluster coordinator with an in-process worker node
(:class:`TestClusterEndpoints`).
"""

import http.client
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterCoordinator, WorkerNode
from repro.serve import BatchService, register_executor
from repro.serve.api import ServiceServer
from repro.serve.client import BackpressureError, ServiceClient, ServiceError
from repro.serve.executors import _EXECUTORS
from repro.serve.http import MAX_BODY_BYTES, SelectorHttpServer

EXIT_OK = """
_start:
    li a0, 5
    li a7, 93
    ecall
"""


def _serve_door():
    service = BatchService(workers=2, queue_limit=8)
    service.start()
    srv = ServiceServer(service, port=0)  # ephemeral port
    srv.start()
    return srv, service, srv.close


def _cluster_door():
    coordinator = ClusterCoordinator(port=0, queue_limit=8).start()
    node = WorkerNode(coordinator.url, capacity=2,
                      poll_interval=0.02).start()
    deadline = time.monotonic() + 10
    while len(coordinator.nodes) == 0:
        assert time.monotonic() < deadline
        time.sleep(0.02)

    def close():
        node.stop()
        coordinator.shutdown(drain=False)

    return coordinator, coordinator, close


DOORS = {"serve": _serve_door, "cluster": _cluster_door}


@pytest.fixture
def door(request):
    """``(front door, object owning its jobs)``; the test class's
    ``door`` attribute picks which."""
    front, backend, close = DOORS[getattr(request.cls, "door", "serve")]()
    yield front, backend
    close()


@pytest.fixture
def server(door):
    return door[0]


@pytest.fixture
def backend(door):
    return door[1]


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=10)


class TestEndpoints:
    door = "serve"
    metrics_namespace = "serve"

    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_limit"] == 8

    def test_kinds(self, client):
        kinds = client.kinds()
        assert {"vp_run", "fault_campaign", "coverage", "wcet",
                "fuzz"} <= set(kinds)

    def test_submit_status_result(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        assert job["state"] in ("pending", "running")
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "succeeded"
        assert done["result"]["exit_code"] == 5
        # Status endpoint never carries the result payload.
        assert "result" not in client.status(job["id"])

    def test_list_jobs_with_state_filter(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        listed = client.list_jobs(state="succeeded")
        assert any(item["id"] == job["id"] for item in listed)
        assert client.list_jobs(state="failed") == []

    def test_stats_exposes_metrics(self, client):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        stats = client.stats()
        assert stats["service"]["workers"] == 2
        submitted = f"{self.metrics_namespace}.submitted"
        assert stats["metrics"][submitted]["value"] >= 1

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-does-not-exist")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nonsense")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, client, server):
        gate = threading.Event()
        register_executor("test.api_gate")(
            lambda payload, ctx: (gate.wait(10), {})[1])
        try:
            job = client.submit("test.api_gate", {})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{server.url}/v1/jobs/{job['id']}/result", timeout=10)
            assert excinfo.value.code == 409
            assert excinfo.value.headers["Retry-After"] == "1"
            gate.set()
            assert client.wait(job["id"], timeout=30)["state"] == "succeeded"
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_gate", None)

    def test_bad_request_400(self, client):
        for body in ({"kind": "no_such_kind", "payload": {}},
                     {"payload": {}},
                     {"kind": "vp_run", "payload": {}, "bogus": 1}):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/jobs", body)
            assert excinfo.value.status == 400

    def test_cancel_endpoint(self, client):
        gate = threading.Event()
        register_executor("test.api_cancel")(
            lambda payload, ctx: (gate.wait(10), {})[1])
        try:
            # Two jobs on two workers; a third stays queued -> cancellable.
            client.submit("test.api_cancel", {})
            client.submit("test.api_cancel", {})
            queued = client.submit("test.api_cancel", {})
            reply = client.cancel(queued["id"])
            assert reply["cancelled"] is True
            gate.set()
            done = client.wait(queued["id"], timeout=30)
            assert done["state"] == "cancelled"
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_cancel", None)

    def test_job_events_sorted_by_timestamp(self, client, backend):
        job = client.submit("vp_run", {"source": EXIT_OK})
        client.wait(job["id"], timeout=30)
        # Merged worker and service records arrive out of order.
        backend.get_job(job["id"]).trace_events.extend(
            {"name": name, "ts_us": ts} for name, ts
            in (("late", 30), ("early", 10), ("middle", 20)))
        events = client.job_events(job["id"])["events"]
        stamps = [event.get("ts_us", 0) for event in events]
        assert stamps == sorted(stamps)
        assert [event["name"] for event in events
                if event["name"] in ("late", "early", "middle")] \
            == ["early", "middle", "late"]

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_other_methods_405(self, client, method):
        with pytest.raises(ServiceError) as excinfo:
            client._request(method, "/v1/jobs", {})
        assert excinfo.value.status == 405

    def test_oversized_body_413(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert response.headers["Connection"] == "close"
        finally:
            conn.close()

    def test_shutdown_replies_before_serve_forever_returns(
            self, server, monkeypatch):
        # Hold the 202 back on the event loop, so a foreground loop that
        # returned (in a real process: exited) before the frontend
        # closed would lose the reply.
        replied = threading.Event()
        respond = SelectorHttpServer._respond

        def slow_respond(self, conn, version, headers, status, payload,
                         extra=None):
            shutting_down = isinstance(payload, dict) \
                and payload.get("status") == "shutting down"
            if shutting_down:
                time.sleep(0.3)
            respond(self, conn, version, headers, status, payload, extra)
            if shutting_down:
                replied.set()

        monkeypatch.setattr(SelectorHttpServer, "_respond", slow_respond)
        outcome = {}

        def foreground():
            server.serve_forever()
            outcome["replied"] = replied.is_set()
            try:
                socket.create_connection((server.host, server.port),
                                         timeout=2).close()
                outcome["listening"] = True
            except OSError:
                outcome["listening"] = False

        thread = threading.Thread(target=foreground)
        thread.start()
        reply = ServiceClient(server.url, timeout=10,
                              retries=0).shutdown(drain=True)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert reply == {"status": "shutting down", "drain": True}
        assert outcome == {"replied": True, "listening": False}


class TestClusterEndpoints(TestEndpoints):
    """The same endpoint tests against the cluster coordinator."""

    door = "cluster"
    metrics_namespace = "cluster"


class TestBackpressureHTTP:
    def test_429_when_queue_full(self, server):
        client = ServiceClient(server.url, timeout=10)
        gate = threading.Event()
        register_executor("test.api_full")(
            lambda payload, ctx: (gate.wait(15), {})[1])
        try:
            # Fill both workers, then the whole queue (limit 8).
            for _ in range(2):
                client.submit("test.api_full", {})
            time.sleep(0.3)  # let them dispatch off the queue
            for _ in range(8):
                client.submit("test.api_full", {})
            with pytest.raises(BackpressureError) as excinfo:
                client.submit("test.api_full", {})
            assert excinfo.value.status == 429
            gate.set()
        finally:
            gate.set()
            _EXECUTORS.pop("test.api_full", None)


class TestShutdownHTTP:
    def test_shutdown_endpoint_drains(self):
        service = BatchService(workers=2, queue_limit=8)
        service.start()
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=10)
        job = client.submit("vp_run", {"source": EXIT_OK})
        reply = client.shutdown(drain=True)
        assert reply["status"] == "shutting down"
        # The service drains the submitted job before stopping.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            tracked = service.get_job(job["id"])
            if tracked is not None and tracked.done:
                break
            time.sleep(0.1)
        assert service.get_job(job["id"]).state == "succeeded"
        server.close()


def test_one_http_stack():
    """``repro.serve.http`` is the only module that opens sockets or
    runs an event loop, and nothing uses :mod:`http.server`."""
    import ast
    from pathlib import Path

    import repro
    import repro.serve.http

    root = Path(repro.__file__).parent
    transport = Path(repro.serve.http.__file__)
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            else:
                continue
            for name in names:
                if name.startswith("http.server") or (
                        name.split(".")[0] in ("selectors", "socket")
                        and path != transport):
                    offenders.append(
                        f"{path.relative_to(root)}:{node.lineno} {name}")
    assert offenders == []
