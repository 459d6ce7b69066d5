"""Spans and trace IDs: who spent the wall clock, structured.

The stack is instrumented with **spans** — ``with span("campaign.batch_group",
n_units=12):`` around the phases worth attributing time to — and
**trace points**, zero-duration events inside a span.  Disarmed (the
default), both are a single module-global ``None`` check returning a
shared no-op handle, the same cost contract as
:func:`repro.faults.harness.fault_point`; nothing on a hot path changes
its bytes or its budget.

Armed (:func:`activate`, :meth:`Tracer.activate`, or ``REPRO_OBS=trace``
via :mod:`repro.obs.harness`), every finished span lands in the active
:class:`Tracer` as one plain dict::

    {"trace_id": ..., "span_id": ..., "parent_id": ..., "name": ...,
     "t0": <wall epoch>, "dur_s": ..., "attrs": {...}}

Parent/child nesting is tracked per thread: the innermost open span is
the parent of anything opened under it, so a serve worker's
``serve.job`` span automatically parents the campaign's
``campaign.run`` which parents each ``campaign.batch_group``.
:func:`current_context` exposes the thread's ``(trace_id, span_id)``
so other records (events) can correlate to the open span.

Spans record timing and metadata only — never results — so tracing
armed cannot perturb any byte-identity contract (CI proves it with
``cmp``).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid


def new_id() -> str:
    """A fresh 16-hex-char trace/span id (random, not deterministic —
    ids are telemetry, never part of any result)."""
    return uuid.uuid4().hex[:16]


_TLS = threading.local()    # .ctx = (trace_id, innermost open span_id)


class Tracer:
    """A bounded, thread-safe buffer of finished spans.

    ``buffer`` caps retained spans (oldest dropped first — a long-lived
    service must not grow without bound); ``export_path`` additionally
    appends every span as one JSONL line the moment it finishes (crash-
    safe flush per line), which is what ``repro trace`` reads back.
    """

    def __init__(self, buffer: int = 65536, export_path=None) -> None:
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1, got {buffer}")
        self._lock = threading.Lock()
        self._buffer = buffer
        self._spans: list[dict] = []
        self.export_path = export_path
        self._export_fh = None
        #: Total spans recorded (monotonic, survives buffer eviction).
        self.recorded = 0

    def record(self, span_dict: dict) -> None:
        with self._lock:
            self.recorded += 1
            self._spans.append(span_dict)
            if len(self._spans) > self._buffer:
                del self._spans[: len(self._spans) - self._buffer]
            if self.export_path is not None:
                if self._export_fh is None:
                    self._export_fh = open(self.export_path, "a")
                self._export_fh.write(json.dumps(span_dict) + "\n")
                self._export_fh.flush()

    def spans(self, trace_id: str | None = None) -> list[dict]:
        """Buffered spans (a copy), optionally only one trace's."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [s for s in spans if s.get("trace_id") == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the buffer, oldest first."""
        seen: dict[str, None] = {}
        for s in self.spans():
            seen.setdefault(s.get("trace_id"), None)
        return list(seen)

    def export_jsonl(self, path) -> int:
        """Write every buffered span to ``path`` as JSONL; returns the
        span count."""
        spans = self.spans()
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        return len(spans)

    def close(self) -> None:
        with self._lock:
            if self._export_fh is not None:
                self._export_fh.close()
                self._export_fh = None

    def activate(self) -> "_ActiveTracer":
        """Context manager arming this tracer (restores the previous
        one on exit) — the worker/test-scoped arming path."""
        return _ActiveTracer(self)


class _ActiveTracer:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = activate(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        _set_active(self._previous)


class _NullSpan:
    """The disarmed span handle: one shared instance, no state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """One armed, open span (context manager)."""

    __slots__ = ("tracer", "name", "attrs", "trace_id", "span_id",
                 "parent_id", "_prev_ctx", "_t0_wall", "_t0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        ctx = getattr(_TLS, "ctx", None)
        self._prev_ctx = ctx
        if ctx is None:
            self.trace_id = new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = ctx
        self.span_id = new_id()
        _TLS.ctx = (self.trace_id, self.span_id)
        self._t0_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. units executed)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        _TLS.ctx = self._prev_ctx
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer.record({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self._t0_wall,
            "dur_s": dur,
            "attrs": self.attrs,
            "pid": os.getpid(),
        })
        return False


#: The single armed tracer; ``None`` keeps every span/trace point inert.
_ACTIVE: Tracer | None = None


def _set_active(tracer: Tracer | None) -> None:
    global _ACTIVE
    _ACTIVE = tracer


def activate(tracer: Tracer) -> Tracer | None:
    """Arm ``tracer`` globally; returns the previously armed tracer."""
    previous = _ACTIVE
    _set_active(tracer)
    return previous


def deactivate() -> None:
    """Disarm tracing entirely."""
    _set_active(None)


def active_tracer() -> Tracer | None:
    return _ACTIVE


def span(name: str, **attrs):
    """Open a named span under the thread's current trace context.
    Disarmed this is one global load and a falsy check returning a
    shared no-op handle."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _SpanHandle(tracer, name, attrs)


def trace_point(name: str, **attrs) -> None:
    """Record a zero-duration event under the current span.  Disarmed
    this is one global load and a falsy check — hot-path safe."""
    tracer = _ACTIVE
    if tracer is None:
        return
    ctx = getattr(_TLS, "ctx", None)
    if ctx is None:
        trace_id, parent_id = new_id(), None
    else:
        trace_id, parent_id = ctx
    tracer.record({
        "trace_id": trace_id,
        "span_id": new_id(),
        "parent_id": parent_id,
        "name": name,
        "t0": time.time(),
        "dur_s": 0.0,
        "attrs": attrs,
        "pid": os.getpid(),
    })


def current_context() -> tuple[str, str] | None:
    """The thread's ``(trace_id, span_id)``; ``None`` outside any span."""
    return getattr(_TLS, "ctx", None)


# ----------------------------------------------------------------------
# Presentation
# ----------------------------------------------------------------------
def format_tree(spans, max_attrs: int = 4) -> str:
    """A per-trace indented tree of span names and durations — what
    ``repro trace`` prints.  Children sort by start time; orphaned
    parents (evicted from the buffer) surface their subtree at root."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None           # orphan: parent span not in this set
        children.setdefault(parent, []).append(s)
    for group in children.values():
        group.sort(key=lambda s: (s.get("t0", 0.0), s.get("span_id", "")))

    lines: list[str] = []

    def walk(parent_id, depth: int) -> None:
        for s in children.get(parent_id, []):
            attrs = s.get("attrs") or {}
            shown = {k: attrs[k] for k in list(attrs)[:max_attrs]}
            extra = f"  {shown}" if shown else ""
            lines.append(f"{'  ' * depth}{s['name']:<24} "
                         f"{1e3 * s.get('dur_s', 0.0):9.2f} ms{extra}")
            walk(s["span_id"], depth + 1)

    traces: dict[str, None] = {}
    for s in spans:
        traces.setdefault(s.get("trace_id"), None)
    for trace_id in traces:
        trace_spans = [s for s in children.get(None, [])
                       if s.get("trace_id") == trace_id]
        if not trace_spans:
            continue
        lines.append(f"trace {trace_id}")
        for root in trace_spans:
            attrs = root.get("attrs") or {}
            shown = {k: attrs[k] for k in list(attrs)[:max_attrs]}
            extra = f"  {shown}" if shown else ""
            lines.append(f"  {root['name']:<24} "
                         f"{1e3 * root.get('dur_s', 0.0):9.2f} ms{extra}")
            walk(root["span_id"], 2)
    return "\n".join(lines)


def slowest_spans(spans, top: int = 10) -> list[dict]:
    """The ``top`` spans by **self-time** (own duration minus the time
    covered by direct children, clamped at zero), slowest first.

    Self-time is what makes a hot *leaf* visible: a ``campaign.run``
    span covering the whole wall clock ranks below the one group that
    actually burned it.  Returns copies of the span dicts with a
    ``self_s`` key added — what ``repro trace --top`` prints.
    """
    child_time: dict[str, float] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + s.get("dur_s", 0.0))
    ranked = []
    for s in spans:
        self_s = max(0.0, s.get("dur_s", 0.0)
                     - child_time.get(s.get("span_id"), 0.0))
        entry = dict(s)
        entry["self_s"] = self_s
        ranked.append(entry)
    ranked.sort(key=lambda s: s["self_s"], reverse=True)
    return ranked[:max(0, top)]


def format_slowest(spans, top: int = 10) -> str:
    """Flat ``--top`` summary: name, self-time, total, trace id."""
    rows = slowest_spans(spans, top)
    if not rows:
        return ""
    lines = [f"slowest {len(rows)} spans by self-time:"]
    for s in rows:
        lines.append(f"  {s.get('name', '?'):<24} "
                     f"self {1e3 * s['self_s']:9.2f} ms   "
                     f"total {1e3 * s.get('dur_s', 0.0):9.2f} ms   "
                     f"trace {s.get('trace_id', '-')}")
    return "\n".join(lines)


def load_jsonl(path) -> list[dict]:
    """Read spans back from a JSONL export (inverse of the tracer's
    export); blank lines are ignored, corrupt lines raise."""
    spans = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
