"""Selector-based HTTP frontend: routing, keep-alive, limits."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.http import SelectorHttpServer


def _router(method, path, query, body):
    if path == "/echo":
        return 200, {"method": method, "query": query, "body": body}
    if path == "/text":
        return 200, "plain text here"
    if path == "/custom":
        return 200, "metrics 1\n", {"Content-Type": "text/custom",
                                    "X-Extra": "yes"}
    if path == "/boom":
        raise RuntimeError("handler exploded")
    if path == "/retry":
        return 429, {"error": "busy"}, {"Retry-After": "2"}
    return 404, {"error": f"no route: {path}"}


@pytest.fixture
def server():
    srv = SelectorHttpServer(_router, port=0).start()
    yield srv
    srv.close()


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


class TestRequests:
    def test_get_json(self, server):
        status, blob = _get(f"{server.url}/echo?a=1&b=two")
        assert status == 200
        payload = json.loads(blob)
        assert payload["method"] == "GET"
        assert payload["query"] == {"a": "1", "b": "two"}
        assert payload["body"] is None

    def test_post_json_body(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=json.dumps({"x": 5}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["body"] == {"x": 5}

    def test_json_bytes_are_sorted_keys(self, server):
        _, blob = _get(f"{server.url}/echo")
        assert blob == json.dumps(json.loads(blob),
                                  sort_keys=True).encode()

    def test_text_payload(self, server):
        request = urllib.request.Request(f"{server.url}/text")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert response.read() == b"plain text here"

    def test_custom_content_type_and_header(self, server):
        request = urllib.request.Request(f"{server.url}/custom")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["Content-Type"] == "text/custom"
            assert response.headers["X-Extra"] == "yes"

    def test_extra_headers_on_error_status(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/retry")
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "2"

    def test_router_exception_becomes_500(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/boom")
        assert excinfo.value.code == 500
        assert "handler exploded" in excinfo.value.read().decode()

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_invalid_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_non_object_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/echo", data=b"[1, 2]",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_oversized_body_413(self, server):
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5)
        try:
            raw.sendall(f"POST /echo HTTP/1.1\r\nHost: {server.host}\r\n"
                        f"Content-Length: {9 * 1024 * 1024}\r\n"
                        "\r\n".encode())
            # The unread body cannot be skipped, so the server answers
            # once and closes the socket: reading runs into EOF.
            blob = b""
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                blob += chunk
        finally:
            raw.close()
        head = blob.split(b"\r\n\r\n", 1)[0].decode()
        assert head.startswith("HTTP/1.1 413")
        assert "Connection: close" in head.split("\r\n")
        assert blob.count(b"HTTP/1.1") == 1


class TestConnections:
    def test_keep_alive_reuses_one_connection(self, server):
        before = server.connections_total
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", "/echo")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()
        assert server.connections_total == before + 1

    def test_connection_close_honored(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.request("GET", "/echo", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.headers["Connection"] == "close"
            response.read()
        finally:
            conn.close()

    def test_many_concurrent_connections(self, server):
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    status, _ = _get(f"{server.url}/echo", timeout=10)
                    assert status == 200
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(25)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

    def test_close_is_idempotent(self):
        srv = SelectorHttpServer(_router, port=0).start()
        srv.close()
        srv.close()

    def test_close_unstarted_releases_port(self):
        srv = SelectorHttpServer(_router, port=0)
        port = srv.port
        srv.close()
        srv.close()
        SelectorHttpServer(_router, port=port).close()

    def test_pipelined_requests_in_one_buffer(self, server):
        # Two complete requests written back-to-back are both answered.
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5)
        try:
            request = (f"GET /echo HTTP/1.1\r\nHost: {server.host}\r\n"
                       "\r\n").encode()
            raw.sendall(request + request)
            blob = b""
            while blob.count(b"HTTP/1.1 200") < 2:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                blob += chunk
            assert blob.count(b"HTTP/1.1 200") == 2
        finally:
            raw.close()
