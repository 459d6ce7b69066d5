"""A tiny stdlib client for the serve API (``urllib``, no deps).

:class:`ServeClient` speaks the whole job lifecycle — submit, poll,
fetch — and is what ``repro client`` and ``benchmarks/bench_serve.py``
drive.  Errors come back as :class:`ServeError` carrying the HTTP
status and the server's one-line message.

Transient transport failures (connection refused/reset mid-restart — a
:class:`ServeError` with ``status == 0``) are retried with capped
exponential backoff, but **only for GETs**: status polls and result
fetches are idempotent, so a poll that dies while the server restarts
rides through instead of failing a long ``wait``.  POSTs are never
retried — a resubmitted campaign is coalesced or answered warm, but
that is the caller's decision, not the transport's.  Tune with the
``retries=`` / ``backoff=`` constructor knobs (``retries=0`` disables).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request


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
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                message = json.loads(body).get("error", body.decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = body.decode(errors="replace")
            raise ServeError(exc.code, message) from exc
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {url}: {exc.reason}") from exc
        except OSError as exc:
            # urllib only wraps errors raised while *sending*; a
            # connection torn down while reading the response (server
            # killed mid-restart) surfaces raw — same transport verdict.
            raise ServeError(0, f"connection to {url} failed: {exc}") from exc

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

    def metrics_text(self) -> str:
        """The Prometheus text exposition from ``GET /metrics``."""
        _status, body = self._request("GET", "/metrics")
        return body.decode("utf-8")

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

    def wait(self, job_id: str, timeout: float = 600.0,
             interval: float = 0.05) -> dict:
        """Poll until the job is terminal; returns the final view.

        The poll interval backs off geometrically to ~1 s so long jobs
        do not hammer the server while short ones finish in one or two
        round trips.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in ("done", "failed"):
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after {timeout}s")
            time.sleep(interval)
            interval = min(interval * 1.5, 1.0)

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
