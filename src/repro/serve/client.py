"""A tiny stdlib client for the serve API (``http.client``, no deps).

:class:`ServeClient` speaks the whole job lifecycle — submit, poll,
fetch — and is what ``repro client`` and ``perfbench/``'s
``serve_mixed`` workload drive.  Errors come back as :class:`ServeError` carrying the HTTP
status and the server's one-line message.

Each thread that uses a client keeps one persistent HTTP/1.1
connection to the server and reuses it for every request it sends;
:meth:`ServeClient.close` closes them all, and a thread's connection
also goes with the thread.
The client connects directly: it does not read ``HTTP_PROXY`` or the
other proxy variables.

A kept connection can go stale between requests: the server closed it
while idle, or restarted.  The failure then shows before any status
line is read (``RemoteDisconnected``, ``BrokenPipeError`` or
``ConnectionResetError``), so the server never answered, and the
request is sent once more on a fresh connection, GET and POST alike.

Transport failures on a fresh connection (connection refused/reset
mid-restart — a :class:`ServeError` with ``status == 0``) are retried
with capped exponential backoff, but **only for GETs**: status polls
and result fetches are idempotent, so a poll that dies while the
server restarts rides through instead of failing a long ``wait``.
POSTs are never retried — a resubmitted campaign is coalesced or
answered warm, but that is the caller's decision, not the transport's.
Tune with the ``retries=`` / ``backoff=`` constructor knobs
(``retries=0`` disables).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from urllib.parse import urlsplit

#: A reused connection failing this way was dropped by the server
#: before it read the request: safe to send again, whatever the method.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError,
          ConnectionResetError)


class ServeError(RuntimeError):
    """An HTTP-level failure, with the server's one-line explanation."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """One service endpoint, addressed by base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 4, backoff: float = 0.05) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"base_url must be an http:// URL, "
                             f"got {base_url!r}")
        self._netloc = split.netloc
        self._prefix = split.path
        self._local = threading.local()
        self._connections = weakref.WeakSet()   # every thread's, for close()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection the client holds; a later request
        opens a fresh one."""
        with self._connections_lock:
            held = list(self._connections)
        for conn in held:
            conn.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        """One HTTP exchange; idempotent GETs retry transport failures
        (``status == 0`` — the server was unreachable, nothing executed)
        up to ``retries`` times with doubling, 1 s-capped backoff."""
        attempts = 1 + (self.retries if method == "GET" else 0)
        delay = self.backoff
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload)
            except ServeError as exc:
                if exc.status != 0 or attempt == attempts - 1:
                    raise
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
        raise AssertionError("unreachable")

    def _request_once(self, method: str, path: str,
                      payload=None) -> tuple[int, bytes]:
        """Send on this thread's connection; a stale reused connection
        (see the module docstring) is replaced and the request sent once
        more."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        url = f"{self.base_url}{path}"
        conn = getattr(self._local, "conn", None)
        reused = conn is not None and conn.sock is not None
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout)
            with self._connections_lock:
                self._connections.add(conn)
        try:
            try:
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            except _STALE:
                if not reused:
                    raise
                conn.close()
                conn.request(method, self._prefix + path, body, headers)
                resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServeError(0, f"connection to {url} failed: "
                                f"{type(exc).__name__}: {exc}") from exc
        if not 200 <= resp.status < 300:
            try:
                message = json.loads(data).get("error", data.decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = data.decode(errors="replace")
            raise ServeError(resp.status, message)
        return resp.status, data

    def _get_json(self, path: str) -> dict:
        _status, body = self._request("GET", path)
        return json.loads(body)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._get_json("/healthz")

    def metrics(self) -> dict:
        return self._get_json("/v1/metrics")

    def job_trace(self, job_id: str) -> dict:
        """The job's collected spans (``{"trace_id", "spans"}``); raises
        :class:`ServeError` 404 while the recorder is disarmed server-side."""
        return self._get_json(f"/v1/jobs/{job_id}/trace")

    def jobs(self) -> list[dict]:
        return self._get_json("/v1/jobs")["jobs"]

    def submit(self, kind: str, payload: dict) -> dict:
        """Submit one request; returns the job's status view (already
        terminal for warm hits)."""
        route = {"campaign": "/v1/campaigns", "optimize": "/v1/optimize"}
        if kind not in route:
            raise ValueError(f"kind must be campaign or optimize, got {kind!r}")
        _status, body = self._request("POST", route[kind], payload)
        return json.loads(body)

    def job(self, job_id: str) -> dict:
        return self._get_json(f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Long-poll until the job is terminal; returns the final view.

        Each ``GET /v1/jobs/<id>?wait=S`` returns as soon as the job is
        terminal, so a job is seen done one round trip after it
        finishes.  ``S`` is at most half the socket timeout (the server
        caps it too), so a held poll never trips the client's own read
        timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            wait = max(0.0, min(remaining, self.timeout / 2))
            view = self._get_json(f"/v1/jobs/{job_id}?wait={wait:.3f}")
            if view["state"] in ("done", "failed"):
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after {timeout}s")

    def result_bytes(self, job_id: str) -> bytes:
        """The full result document, verbatim (for campaigns: the exact
        ``repro campaign --json`` bytes).

        A 202 (job still queued/running) is an error here, not a
        result — otherwise a premature fetch would silently hand back
        the status view as if it were the document.  Wait first.
        """
        status, body = self._request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            state = "unknown"
            try:
                state = json.loads(body).get("state", state)
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            raise ServeError(status,
                             f"job {job_id} has no result yet "
                             f"(state {state}); wait for it first")
        return body

    def result_page(self, job_id: str, offset: int = 0,
                    limit: int = 100) -> dict:
        return self._get_json(
            f"/v1/jobs/{job_id}/result?offset={offset}&limit={limit}")

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def run(self, kind: str, payload: dict, timeout: float = 600.0) -> dict:
        """Submit + wait in one call; returns the terminal job view."""
        view = self.submit(kind, payload)
        if view["state"] in ("done", "failed"):
            return view
        return self.wait(view["id"], timeout=timeout)

    def wait_until_up(self, timeout: float = 10.0,
                      interval: float = 0.1) -> dict:
        """Block until ``/healthz`` answers (server start-up races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)
