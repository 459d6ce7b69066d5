"""The serve transport: persistent HTTP/1.1 connections end to end.

The server answers on a kept-alive connection without waiting for the
client's delayed ACK, and closes every held connection when it closes.
The client keeps one connection per thread and re-sends a request once
when its reused connection turns out to be stale.  The long poll
(``GET /v1/jobs/<id>?wait=S``) rides on the same transport.
"""

import http.client
import json
import socket
import statistics
import struct
import threading
import time

import pytest

from repro.serve import CharacterizationService, ServeClient, ServeError
from repro.serve.api import LONG_POLL_CAP_S, ServeServer

PAYLOAD = {"builder": "bias", "corners": ["tt"], "temps_c": [25.0],
           "measurements": ["bias_current_ua"]}


class CountingServer(ServeServer):
    """A serve server that counts the connections it accepts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted = 0

    def process_request(self, request, client_address) -> None:
        self.accepted += 1
        super().process_request(request, client_address)


@pytest.fixture
def make_client():
    """``ServeClient`` factory whose clients close at teardown."""
    made = []

    def make(*args, **kwargs) -> ServeClient:
        made.append(ServeClient(*args, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture
def served():
    """``(server, service, base_url)`` on a counting server; workers run."""
    service = CharacterizationService(workers=1, watchdog_interval=0)
    service.start()
    server = CountingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.stop()


class TestKeepAliveLatency:
    def test_no_delayed_ack_stall(self, served):
        """Headers and body leave together: without ``TCP_NODELAY`` each
        response on a kept-alive connection waited ~40 ms for the
        client's delayed ACK."""
        server, _service, base = served
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=10)
        try:
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                times.append(time.perf_counter() - t0)
        finally:
            conn.close()
        assert server.accepted == 1
        assert statistics.median(times) < 0.02, times

    def test_accepted_sockets_have_nodelay(self, make_client, served):
        server, _service, base = served
        client = make_client(base)
        client.health()                     # the connection stays held
        (sock,) = server._connections
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestConnectionReuse:
    def test_one_thread_opens_one_connection(self, make_client, served):
        server, _service, base = served
        client = make_client(base)
        view = client.submit("campaign", PAYLOAD)
        client.wait(view["id"], timeout=60)
        client.result_bytes(view["id"])
        for _ in range(5):
            client.health()
        assert server.accepted == 1

    def test_close_releases_the_connection(self, make_client, served):
        server, _service, base = served
        client = make_client(base)
        client.health()
        client.close()
        deadline = time.monotonic() + 10
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections      # the server saw it close
        client.health()                     # and the client reconnects
        assert server.accepted == 2

    def test_two_threads_open_two_connections(self, make_client, served):
        server, _service, base = served
        client = make_client(base)
        barrier = threading.Barrier(2)
        errors = []

        def work():
            try:
                barrier.wait()
                for _ in range(5):
                    client.health()
            except Exception as exc:          # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert server.accepted == 2


class TestClientReset:
    def test_a_reset_keepalive_connection_is_not_an_error(self, served,
                                                          capfd):
        """A client that vanishes with a reset while its connection
        idles costs the server no traceback on stderr."""
        server, _service, _base = served
        sock = socket.create_connection(server.server_address[:2],
                                        timeout=10)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert sock.recv(65536).startswith(b"HTTP/1.1 200")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()                        # RST, not FIN
        deadline = time.monotonic() + 10
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections
        assert "Traceback" not in capfd.readouterr().err


class IdleClosingServer:
    """A raw HTTP/1.1 server that answers one request per connection and
    then closes it, as a server does with a connection left idle.  It
    records ``(connection, request line)`` for every request it reads."""

    def __init__(self) -> None:
        self.requests: list[tuple[int, str]] = []
        self.closed = threading.Semaphore(0)
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        n = 0
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            n += 1
            with conn:
                rfile = conn.makefile("rb")
                line = rfile.readline().decode().strip()
                length = 0
                while (header := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                rfile.read(length)
                self.requests.append((n, line))
                body = json.dumps({"status": "ok", "id": "j1",
                                   "state": "done"}).encode() + b"\n"
                conn.sendall(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: " + str(len(body)).encode()
                             + b"\r\n\r\n" + body)
                rfile.close()
            self.closed.release()

    def close(self) -> None:
        self._sock.close()


class TestStaleConnectionResend:
    def test_get_and_post_are_resent_once_on_a_fresh_connection(
            self, make_client):
        server = IdleClosingServer()
        try:
            # retries=0: the re-send is not the GET retry schedule
            client = make_client(f"http://127.0.0.1:{server.port}",
                                 retries=0)
            assert client.health()["status"] == "ok"
            assert server.closed.acquire(timeout=10)
            assert client.health()["status"] == "ok"
            assert server.closed.acquire(timeout=10)
            assert client.submit("campaign", PAYLOAD)["state"] == "done"
            assert server.requests == [(1, "GET /healthz HTTP/1.1"),
                                       (2, "GET /healthz HTTP/1.1"),
                                       (3, "POST /v1/campaigns HTTP/1.1")]
        finally:
            server.close()

    def test_a_fresh_connection_is_not_resent(self, make_client):
        """A failure on a connection just opened keeps the POST rule."""
        sock = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def slam():
            while True:
                try:
                    conn, _ = sock.accept()
                except OSError:
                    return
                accepted.append(conn)
                conn.close()

        threading.Thread(target=slam, daemon=True).start()
        try:
            client = make_client(
                f"http://127.0.0.1:{sock.getsockname()[1]}")
            with pytest.raises(ServeError) as excinfo:
                client.submit("campaign", PAYLOAD)
            assert excinfo.value.status == 0
            assert len(accepted) == 1
        finally:
            sock.close()


class TestServerClose:
    def test_held_connection_cannot_reach_a_closed_service(
            self, make_client, served):
        server, service, base = served
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=10)
        client = make_client(base, retries=0)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            client.health()
            before = service.metrics.get("http_requests")
            server.shutdown()
            server.server_close()
            with pytest.raises((http.client.RemoteDisconnected,
                                ConnectionError)):
                conn.request("GET", "/healthz")
                conn.getresponse()
            with pytest.raises(ServeError) as excinfo:
                client.health()
            assert excinfo.value.status == 0
            assert service.metrics.get("http_requests") == before
        finally:
            conn.close()

    def test_close_ends_a_pending_long_poll(self, make_client):
        service = CharacterizationService(workers=1)     # not started:
        server = ServeServer(("127.0.0.1", 0), service)  # the job stays
        threading.Thread(target=server.serve_forever,    # queued
                         daemon=True).start()
        client = make_client("http://%s:%d" % server.server_address[:2],
                             retries=0)
        view = client.submit("campaign", PAYLOAD)
        polled = threading.Thread(
            target=lambda: pytest.raises(ServeError, client.wait, view["id"],
                                         timeout=LONG_POLL_CAP_S),
            daemon=True)
        try:
            polled.start()
            time.sleep(0.2)
            server.shutdown()
            t0 = time.perf_counter()
            server.server_close()
            assert time.perf_counter() - t0 < 1.0
            polled.join(5)
            assert not polled.is_alive()
        finally:
            service.stop()


class TestLongPoll:
    def _status(self, base: str, path: str) -> tuple[int, dict]:
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_answers_when_the_job_is_terminal(self, make_client, served):
        _server, service, base = served
        view = make_client(base).submit("campaign", PAYLOAD)
        t0 = time.perf_counter()
        status, polled = self._status(base, f"/v1/jobs/{view['id']}?wait=30")
        assert status == 200 and polled["state"] == "done"
        assert time.perf_counter() - t0 < LONG_POLL_CAP_S

    def test_answers_after_the_wait_with_the_job_running(self, make_client):
        service = CharacterizationService(workers=1)     # not started
        server = ServeServer(("127.0.0.1", 0), service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = "http://%s:%d" % server.server_address[:2]
        try:
            view = make_client(base).submit("campaign", PAYLOAD)
            t0 = time.perf_counter()
            status, polled = self._status(
                base, f"/v1/jobs/{view['id']}?wait=0.3")
            elapsed = time.perf_counter() - t0
            assert status == 200 and polled["state"] == "queued"
            assert 0.3 <= elapsed < 2.0
            with pytest.raises(TimeoutError, match="still queued"):
                make_client(base).wait(view["id"], timeout=0.3)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_a_400(self, make_client, served, wait):
        _server, _service, base = served
        view = make_client(base).submit("campaign", PAYLOAD)
        status, body = self._status(base, f"/v1/jobs/{view['id']}?wait={wait}")
        assert status == 400 and "wait" in body["error"]

    def test_client_wait_is_one_long_poll(self, make_client, served):
        """``wait`` sees a job done one round trip after it finishes,
        not on a poll schedule."""
        _server, service, base = served
        client = make_client(base)
        view = client.submit("campaign", dict(PAYLOAD, temps_c=[30.0]))
        before = service.metrics.get("http_requests")
        assert client.wait(view["id"], timeout=60)["state"] == "done"
        assert service.metrics.get("http_requests") - before == 1
        # the held poll stays out of the status route's latencies; the
        # next request on the connection waits for it to be observed
        client.health()
        assert service.metrics.histogram("http.jobs_wait_s").count == 1
        assert service.metrics.histogram("http.jobs_s") is None
