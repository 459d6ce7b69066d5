"""The HTTP/JSON front door: stdlib ``ThreadingHTTPServer``, no deps.

Routes (all JSON in, JSON out)::

    POST /v1/campaigns          submit a campaign request       -> 202/200
    POST /v1/optimize           submit an optimize request      -> 202
    GET  /v1/jobs               list jobs, newest first         -> 200
    GET  /v1/jobs/<id>          one job's status view           -> 200
         ?wait=S                ... once terminal, or after S s -> 200
    GET  /v1/jobs/<id>/result   the result document             -> 200
         ?offset=N&limit=M      one page of campaign rows       -> 200
    GET  /v1/jobs/<id>/trace    the job's collected spans       -> 200/404
    GET  /v1/events             recent structured events        -> 200/404
         ?limit=N&severity=S    newest N, optionally filtered   -> 200
    GET  /v1/metrics            counters + gauges + latencies   -> 200
    GET  /metrics               Prometheus text exposition      -> 200
    GET  /healthz               liveness                        -> 200

Connections are persistent HTTP/1.1 with Nagle's algorithm off on
every accepted socket, so a response's headers and body never wait on
the client's delayed ACK.  ``server_close()`` shuts down every
connection still held open, so no kept-alive client reaches a stopped
service.  ``?wait=S`` makes the status route a long poll: it answers
as soon as the job is terminal, or after ``min(S, LONG_POLL_CAP_S)``
seconds with the job still running.

Every request's wall time lands in the service's latency histograms
(``http.request_s`` overall plus one per route class), so ``/metrics``
serves request p50/p99 without any external middleware.  The trace
and events routes answer 404 while the recorder is disarmed
(``REPRO_OBS=1`` arms it) — observability is opt-in and absent by
default.

Submissions answer ``202 Accepted`` while the job is queued/running and
``200`` when it is already terminal at submit time (a warm store hit —
coalescing only ever matches *in-flight* jobs).  A result poll
on an unfinished job answers ``202`` with the status view, a failed job
``500`` with its error, schema violations ``400`` with a one-line
message, unknown jobs and routes ``404`` — a client can drive the whole
lifecycle on status codes alone.

The unpaginated campaign result body is the exact
``CampaignResult.to_json()`` text (plus trailing newline): byte for
byte what ``repro campaign --json`` writes for the same spec.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve import jobs as J
from repro.serve.service import CharacterizationService
from repro.serve.validate import SpecValidationError

#: Request bodies above this size are rejected with 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest a ``GET /v1/jobs/<id>?wait=S`` long poll holds its response.
LONG_POLL_CAP_S = 10.0
#: How often a long poll looks up from the job to see the server closing.
_LONG_POLL_SLICE_S = 0.1


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> CharacterizationService:
        return self.server.service

    def log_message(self, fmt, *args):  # noqa: D102 — quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send(self, code: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload) -> None:
        self._send(code, (json.dumps(payload) + "\n").encode("utf-8"))

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _body_length(self) -> int:
        """Content-Length as an int; a garbage header is a 400, not a
        traceback, and poisons the (HTTP/1.1 persistent) connection so
        the undrainable body cannot desync the stream."""
        try:
            return int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            self.close_connection = True
            raise SpecValidationError(
                f"invalid Content-Length header: "
                f"{self.headers.get('Content-Length')!r}") from exc

    def _discard_body(self) -> None:
        """Drain an unwanted request body before an error response —
        on a keep-alive connection, unread body bytes would be parsed
        as the next request line.  Undrainable bodies (oversize, bad
        length) close the connection instead."""
        try:
            length = self._body_length()
        except SpecValidationError:
            return                      # close_connection already set
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)
        elif length > MAX_BODY_BYTES:
            self.close_connection = True

    def _read_json(self):
        length = self._body_length()
        if length > MAX_BODY_BYTES:
            self.close_connection = True    # not draining this
            raise SpecValidationError(
                f"request body too large ({length} bytes; "
                f"limit {MAX_BODY_BYTES})")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecValidationError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"invalid JSON body: {exc}") from exc

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_class(self) -> str:
        """A low-cardinality label for latency histograms — one series
        per route shape, never per job id."""
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        if path in ("/healthz",):
            return "healthz"
        if path in ("/metrics", "/v1/metrics"):
            return "metrics"
        if path == "/v1/campaigns":
            return "submit_campaign"
        if path == "/v1/optimize":
            return "submit_optimize"
        if path == "/v1/events":
            return "events"
        if path.startswith("/v1/jobs"):
            if path.endswith("/result"):
                return "result"
            if path.endswith("/trace"):
                return "trace"
            if "wait" in parse_qs(split.query):
                return "jobs_wait"
            return "jobs"
        return "other"

    def _guarded(self, handler) -> None:
        """Last-resort isolation: an unexpected exception in a route
        answers a JSON 500 (when the response has not started) instead
        of tearing down the connection with a half-written stream.
        Every request — including the failing ones — lands its wall time
        in the service latency histograms."""
        t0 = time.perf_counter()
        try:
            handler()
        except Exception as exc:
            self.service.metrics.incr("http_errors")
            self.close_connection = True
            try:
                self._error(500, f"internal error: {type(exc).__name__}: {exc}")
            except OSError:
                pass                    # response already underway / socket gone
        finally:
            dur = time.perf_counter() - t0
            metrics = self.service.metrics
            metrics.observe("http.request_s", dur)
            metrics.observe(f"http.{self._route_class()}_s", dur)

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        self._guarded(self._do_post)

    def do_GET(self) -> None:  # noqa: N802
        self._guarded(self._do_get)

    def _do_post(self) -> None:
        self.service.metrics.incr("http_requests")
        path = urlsplit(self.path).path.rstrip("/")
        kind = {"/v1/campaigns": "campaign", "/v1/optimize": "optimize"}.get(path)
        if kind is None:
            self.service.metrics.incr("http_errors")
            self._discard_body()
            return self._error(404, f"no such route: POST {path}")
        try:
            payload = self._read_json()
            job = self.service.submit(kind, payload)
        except SpecValidationError as exc:
            self.service.metrics.incr("http_errors")
            return self._error(400, str(exc))
        view = job.view()
        self._send_json(200 if job.terminal else 202, view)

    def _do_get(self) -> None:
        self.service.metrics.incr("http_requests")
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        if path == "/healthz":
            return self._send_json(200, self.service.health())
        if path == "/v1/metrics":
            return self._send_json(200, self.service.metrics_snapshot())
        if path == "/metrics":
            return self._send(
                200, self.service.prometheus_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        if path == "/v1/jobs":
            return self._send_json(
                200, {"jobs": [j.view() for j in self.service.queue.jobs()]})
        if path == "/v1/events":
            query = parse_qs(split.query)
            try:
                limit = int(query.get("limit", ["100"])[0])
            except ValueError:
                self.service.metrics.incr("http_errors")
                return self._error(400, "limit must be an integer")
            severity = query.get("severity", [None])[0]
            view = self.service.recent_events(limit, severity=severity)
            if view is None:
                self.service.metrics.incr("http_errors")
                return self._error(
                    404, "recorder disarmed (REPRO_OBS=1 arms it)")
            return self._send_json(200, view)
        parts = path.split("/")
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "jobs":
            job = self.service.queue.get(parts[3])
            if job is None:
                self.service.metrics.incr("http_errors")
                return self._error(404, f"no such job: {parts[3]}")
            if len(parts) == 4:
                query = parse_qs(split.query)
                if "wait" in query:
                    try:
                        wait = _wait_seconds(query["wait"][0])
                    except ValueError as exc:
                        self.service.metrics.incr("http_errors")
                        return self._error(400, str(exc))
                    self._long_poll(job, wait)
                return self._send_json(200, job.view())
            if len(parts) == 5 and parts[4] == "result":
                return self._result(job, parse_qs(split.query))
            if len(parts) == 5 and parts[4] == "trace":
                trace = self.service.job_trace(job)
                if trace is None:
                    self.service.metrics.incr("http_errors")
                    return self._error(
                        404, f"no trace for job {job.id} (recorder disarmed "
                             "or the job never executed in this process)")
                return self._send_json(200, trace)
        self.service.metrics.incr("http_errors")
        self._error(404, f"no such route: GET {path}")

    def _long_poll(self, job: J.Job, wait: float) -> None:
        """Hold the status response until ``job`` is terminal, ``wait``
        (at most :data:`LONG_POLL_CAP_S`) seconds pass, or the server
        closes."""
        deadline = time.monotonic() + min(wait, LONG_POLL_CAP_S)
        while not job.terminal and not self.server.closing.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            job.wait(min(remaining, _LONG_POLL_SLICE_S))

    def _result(self, job: J.Job, query: dict) -> None:
        if job.state == J.FAILED:
            self.service.metrics.incr("http_errors")
            return self._error(500, job.error or "job failed")
        if not job.terminal:
            return self._send_json(202, job.view())
        try:
            if "offset" in query or "limit" in query:
                offset = int(query.get("offset", ["0"])[0])
                limit = int(query.get("limit", ["100"])[0])
                return self._send_json(
                    200, self.service.result_page(job, offset, limit))
            text = self.service.result_text(job)
        except (SpecValidationError, ValueError) as exc:
            self.service.metrics.incr("http_errors")
            return self._error(400, str(exc))
        except LookupError as exc:
            self.service.metrics.incr("http_errors")
            return self._error(410, str(exc))
        self._send(200, text.encode("utf-8"))


def _wait_seconds(text: str) -> float:
    """The ``?wait=`` of a long poll: finite seconds, ``>= 0``."""
    try:
        wait = float(text)
    except ValueError:
        wait = math.nan
    if not math.isfinite(wait) or wait < 0:
        raise ValueError(f"wait must be a finite number of seconds >= 0, "
                         f"got {text!r}")
    return wait


class ServeServer(ThreadingHTTPServer):
    """One HTTP server bound to one service (thread-per-connection —
    polling is I/O-bound; the heavy lifting stays on the service's own
    worker pool).

    It keeps the set of open connections so :meth:`server_close` can
    shut each down: a kept-alive client then sees its connection closed
    instead of reaching a stopped service, and the handler threads the
    close joins are not left blocked reading a next request."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: CharacterizationService,
                 verbose: bool = False) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self.verbose = verbose
        self.closing = threading.Event()
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            if self.closing.is_set():
                self.shutdown_request(request)
                return
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """A client that resets its kept-alive connection while the
        handler waits for its next request is routine, not a fault."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        with self._connections_lock:
            self.closing.set()
            held = list(self._connections)
        for request in held:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass                    # already gone
        super().server_close()


def make_server(host: str = "127.0.0.1", port: int = 0,
                service: CharacterizationService | None = None,
                verbose: bool = False) -> ServeServer:
    """Bind (``port=0`` picks a free port) and start the service's
    workers; the caller owns ``serve_forever`` — inline for a CLI
    process, on a thread for tests and benchmarks."""
    service = service or CharacterizationService()
    service.start()
    return ServeServer((host, port), service, verbose=verbose)


def serve_background(service: CharacterizationService,
                     host: str = "127.0.0.1",
                     port: int = 0) -> tuple[ServeServer, threading.Thread]:
    """Spin the server on a daemon thread; returns ``(server, thread)``.
    ``server.server_address`` carries the bound port."""
    server = make_server(host, port, service)
    thread = threading.Thread(target=server.serve_forever,
                              name="serve-http", daemon=True)
    thread.start()
    return server, thread
