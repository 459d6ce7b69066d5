"""Structured events: the stack's degradation paths, recorded with cause.

Spans say *where the wall clock went*; events say *what went wrong and
why*.  Every silent fallback in the stack — a Newton ladder escalating
to gmin stepping, a sparse step latching to dense, a spectral solve
rejected on residual, a batched group dropping to serial, a store
payload quarantined, a serve worker replaced, a serve job timed out —
emits one :func:`event` with a name, a severity, and the fields a
post-mortem needs (the rejecting residual, the triggering exception,
the quarantine reason).

Disarmed (the default), :func:`event` is a single module-global
``None`` check — the same cost contract as ``span`` / ``prof_count`` /
``fault_point`` — so the hooks live permanently on degradation paths
without perturbing any byte-identity or overhead budget.  Armed
(:func:`activate`, :meth:`EventLog.activate`, or ``REPRO_OBS=events``),
each event lands in the active :class:`EventLog` as one plain dict::

    {"name": ..., "severity": "info"|"warn"|"error", "t": <wall epoch>,
     "trace_id": ..., "span_id": ..., "pid": ..., "fields": {...}}

``trace_id``/``span_id`` come from the thread's current span context
(:func:`repro.obs.trace.current_context`), so an event raised three
layers under a ``serve.job`` span is correlated to that job's trace
with no plumbing.  The log is a bounded ring — overflow evicts the
oldest and counts the drops — and severity tallies are monotonic
(they survive eviction), which is what the service surfaces as the
``events.*`` counters in ``/v1/metrics`` and the Prometheus
exposition.

Events record diagnosis only — never results — so arming cannot change
the bytes of any exported document (CI proves it with ``cmp``).
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs import trace as _trace

#: Recognised severities, mildest first.
SEVERITIES = ("info", "warn", "error")


class EventLog:
    """A bounded, thread-safe ring buffer of structured events.

    ``buffer`` caps retained events (oldest evicted first — a long-lived
    service must not grow without bound); eviction is counted in
    :attr:`dropped` so triage knows the window is partial.
    ``export_path`` additionally appends every event as one JSONL line
    the moment it is recorded (crash-safe flush per line).
    """

    def __init__(self, buffer: int = 65536, export_path=None) -> None:
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1, got {buffer}")
        self._lock = threading.Lock()
        self._buffer = buffer
        self._events: list[dict] = []
        self.export_path = export_path
        self._export_fh = None
        #: Total events recorded (monotonic, survives eviction).
        self.recorded = 0
        #: Events evicted by ring overflow (monotonic).
        self.dropped = 0
        self._severity_counts = {s: 0 for s in SEVERITIES}

    def record(self, event_dict: dict) -> None:
        with self._lock:
            self.recorded += 1
            sev = event_dict.get("severity")
            if sev in self._severity_counts:
                self._severity_counts[sev] += 1
            self._events.append(event_dict)
            overflow = len(self._events) - self._buffer
            if overflow > 0:
                del self._events[:overflow]
                self.dropped += overflow
            if self.export_path is not None:
                if self._export_fh is None:
                    self._export_fh = open(self.export_path, "a")
                self._export_fh.write(json.dumps(event_dict) + "\n")
                self._export_fh.flush()

    def events(self, name: str | None = None,
               severity: str | None = None) -> list[dict]:
        """Buffered events (a copy), optionally filtered by exact name
        and/or severity."""
        with self._lock:
            events = list(self._events)
        if name is not None:
            events = [e for e in events if e.get("name") == name]
        if severity is not None:
            events = [e for e in events if e.get("severity") == severity]
        return events

    def severity_counts(self) -> dict:
        """Monotonic per-severity tallies (survive ring eviction) —
        the ``events.*`` counters the service exposes."""
        with self._lock:
            return dict(self._severity_counts)

    def export_jsonl(self, path) -> int:
        """Write every buffered event to ``path`` as JSONL; returns the
        event count."""
        events = self.events()
        with open(path, "w") as fh:
            for e in events:
                fh.write(json.dumps(e) + "\n")
        return len(events)

    def close(self) -> None:
        with self._lock:
            if self._export_fh is not None:
                self._export_fh.close()
                self._export_fh = None

    def activate(self) -> "_ActiveEventLog":
        """Context manager arming this log (restores the previous one
        on exit) — the worker/test-scoped arming path."""
        return _ActiveEventLog(self)


class _ActiveEventLog:
    def __init__(self, log: EventLog) -> None:
        self.log = log
        self._previous: EventLog | None = None

    def __enter__(self) -> EventLog:
        self._previous = activate(self.log)
        return self.log

    def __exit__(self, *exc) -> None:
        _set_active(self._previous)


#: The single armed event log; ``None`` keeps every hook inert.
_ACTIVE: EventLog | None = None


def _set_active(log: EventLog | None) -> None:
    global _ACTIVE
    _ACTIVE = log


def activate(log: EventLog) -> EventLog | None:
    """Arm ``log`` globally; returns the previously armed log."""
    previous = _ACTIVE
    _set_active(log)
    return previous


def deactivate() -> None:
    """Disarm event logging entirely."""
    _set_active(None)


def active_event_log() -> EventLog | None:
    return _ACTIVE


def event(name: str, severity: str = "warn", **fields) -> None:
    """Record one structured event under the current trace context.
    Disarmed this is one global load and a falsy check — hot-path safe.

    Callers that must *compute* expensive fields (a condition estimate,
    a residual norm) should guard the computation on
    ``active_event_log() is not None`` so the disarmed path stays free.
    """
    log = _ACTIVE
    if log is None:
        return
    ctx = _trace.current_context()
    trace_id, span_id = ctx if ctx is not None else (None, None)
    log.record({
        "name": name,
        "severity": severity,
        "t": time.time(),
        "trace_id": trace_id,
        "span_id": span_id,
        "pid": os.getpid(),
        "fields": fields,
    })


# ----------------------------------------------------------------------
# Presentation / triage
# ----------------------------------------------------------------------
def format_events(events, limit: int = 50) -> str:
    """A flat, newest-last rendering of events for terminal triage."""
    lines = []
    for e in events[-limit:]:
        fields = e.get("fields") or {}
        shown = " ".join(f"{k}={fields[k]!r}" for k in fields)
        trace = e.get("trace_id") or "-"
        lines.append(f"[{e.get('severity', '?'):<5}] "
                     f"{e.get('name', '?'):<32} trace={trace} {shown}")
    return "\n".join(lines)


def load_jsonl(path) -> list[dict]:
    """Read events back from a JSONL export (inverse of the log's
    export); blank lines are ignored, corrupt lines raise."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
