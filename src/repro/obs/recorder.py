"""One observability collector: spans, events and counters in one ring.

The stack is instrumented with three hooks, each a single module-global
``None`` check while disarmed (the ``fault_point`` cost contract), so
they live permanently on hot and degradation paths:

* ``with span("campaign.batch_group", n_units=12):`` around a phase
  worth attributing time to;
* ``event("dc.dense_latch", "warn", resid=...)`` on every silent
  fallback, with the fields a post-mortem needs;
* ``prof_count("newton.iterations")`` inside inner loops.

Armed (``REPRO_OBS``, :func:`activate`, or :meth:`Recorder.activate`),
all three land in the one active :class:`Recorder`.  Finished spans and
events are typed records in one bounded ring::

    {"kind": "span", "trace_id", "span_id", "parent_id", "name",
     "t0": <wall epoch>, "dur_s", "attrs": {...}, "pid"}
    {"kind": "event", "name", "severity": "info"|"warn"|"error",
     "t": <wall epoch>, "trace_id", "span_id", "pid", "fields": {...}}

Nesting is tracked per thread: the innermost open span parents anything
opened under it and is the ``span_id`` of any event raised under it, so
a serve worker's ``serve.job`` span parents the campaign's
``campaign.run``, which parents each ``campaign.batch_group``.  The ring
evicts oldest first and counts the drops; ``recorded``, ``dropped`` and
the severity tallies are monotone (they survive eviction), which is what
the service surfaces as ``events.*`` in ``/v1/metrics``.  Counters are a
plain name -> int dict.  With ``export_path`` every record is also
appended to one JSONL file and flushed per line, which both ``repro
trace`` and ``repro doctor --events`` read back.

``--profile``'s timed phases are the recorded spans' self-times summed
per name (:func:`phase_seconds`); there is no second timing API.

Records hold timing and diagnosis only, never results, so arming cannot
change the bytes of any exported document (CI proves it with ``cmp``).

Arming grammar (parsed at import, so subprocesses inherit it)::

    REPRO_OBS="1"                              # arm the recorder
    REPRO_OBS="1:export=/tmp/obs.jsonl"        # + JSONL append per record
    REPRO_OBS="1:export=/tmp/obs.jsonl:buffer=100000"

A spec is ``<switch>[:export=PATH][:buffer=N]``.  The switches ``1``,
``all``, ``on`` and ``true`` arm the recorder; the legacy words
``trace``, ``profile``, ``events`` and ``metrics`` arm the same single
recorder, and parts may still be joined with ``;`` or ``,``.  Two
different ``export=`` (or ``buffer=``) values, an unknown switch or an
unknown option raise ``ValueError``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import uuid

#: Environment variable holding the arming spec.
OBS_ENV = "REPRO_OBS"

#: Recognised event severities, mildest first.
SEVERITIES = ("info", "warn", "error")

#: ``REPRO_OBS`` switches; every one arms the same single recorder.
SWITCHES = ("1", "all", "on", "true", "trace", "profile", "events",
            "metrics")


def new_id() -> str:
    """A fresh 16-hex-char trace/span id (random, not deterministic —
    ids are telemetry, never part of any result)."""
    return uuid.uuid4().hex[:16]


_TLS = threading.local()    # .ctx = (trace_id, innermost open span_id)


class Recorder:
    """A bounded, thread-safe ring of span/event records plus counters.

    ``buffer`` caps retained records (oldest evicted first — a
    long-lived service must not grow without bound); ``export_path``
    additionally appends every record as one JSONL line the moment it
    is recorded (crash-safe flush per line).
    """

    def __init__(self, buffer: int = 65536, export_path=None) -> None:
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1, got {buffer}")
        self._lock = threading.Lock()
        self._buffer = buffer
        self._records: list[dict] = []
        self.export_path = export_path
        self._export_fh = None
        #: Records ever recorded / evicted by ring overflow (monotone).
        self.recorded = 0
        self.dropped = 0
        self._severities = dict.fromkeys(SEVERITIES, 0)
        self._counts: dict[str, int] = {}

    def record(self, rec: dict) -> None:
        with self._lock:
            self.recorded += 1
            if rec["kind"] == "event":
                sev = rec["severity"]
                self._severities[sev] = self._severities.get(sev, 0) + 1
            self._records.append(rec)
            overflow = len(self._records) - self._buffer
            if overflow > 0:
                del self._records[:overflow]
                self.dropped += overflow
            if self.export_path is not None:
                if self._export_fh is None:
                    self._export_fh = open(self.export_path, "a")
                self._export_fh.write(json.dumps(rec) + "\n")
                self._export_fh.flush()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def records(self, kind: str | None = None, **match) -> list[dict]:
        """Buffered records (a copy), optionally only one ``kind`` and
        only those whose fields equal every non-``None`` ``match`` value
        (``trace_id=``, ``name=``, ``severity=``)."""
        with self._lock:
            records = list(self._records)
        match = {k: v for k, v in match.items() if v is not None}
        if kind is not None:
            match["kind"] = kind
        return [r for r in records
                if all(r.get(k) == v for k, v in match.items())]

    def spans(self, **match) -> list[dict]:
        return self.records("span", **match)

    def events(self, **match) -> list[dict]:
        return self.records("event", **match)

    def event_totals(self) -> dict:
        """``{"recorded", "dropped", "by_severity"}``: events recorded
        (the total of the per-severity tallies), records of any kind
        evicted from the ring, and the tallies — all monotone."""
        with self._lock:
            by_severity = dict(self._severities)
            dropped = self.dropped
        return {"recorded": sum(by_severity.values()), "dropped": dropped,
                "by_severity": by_severity}

    def profile(self, spans: list[dict] | None = None) -> dict:
        """``{"counts": {...}, "phases_s": {...}}`` with sorted keys:
        the counters, and the self-time per span name of ``spans``
        (default: every buffered span)."""
        with self._lock:
            counts = dict(sorted(self._counts.items()))
        phases = phase_seconds(self.spans() if spans is None else spans)
        return {"counts": counts, "phases_s": dict(sorted(phases.items()))}

    def close(self) -> None:
        with self._lock:
            if self._export_fh is not None:
                self._export_fh.close()
                self._export_fh = None

    @contextlib.contextmanager
    def activate(self):
        """Arm this recorder for the block, restoring the previous one
        on exit — the test- and command-scoped arming path."""
        previous = activate(self)
        try:
            yield self
        finally:
            activate(previous)


#: The single armed recorder; ``None`` keeps every hook inert.
_ACTIVE: Recorder | None = None


def activate(rec: Recorder | None) -> Recorder | None:
    """Arm ``rec`` globally (``None`` disarms); returns the previous
    recorder."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, rec
    return previous


def deactivate() -> None:
    """Disarm the recorder entirely."""
    activate(None)


def active() -> Recorder | None:
    """The armed recorder, or ``None``.  Callers that must *compute*
    expensive event fields guard on ``active() is not None``."""
    return _ACTIVE


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


class _Span:
    """One armed, open span (context manager)."""

    __slots__ = ("recorder", "name", "attrs", "trace_id", "span_id",
                 "parent_id", "_prev_ctx", "_t0_wall", "_t0")

    def __init__(self, recorder: Recorder, name: str, attrs: dict) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        ctx = self._prev_ctx = getattr(_TLS, "ctx", None)
        self.trace_id, self.parent_id = ctx or (new_id(), None)
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
        self.recorder.record({
            "kind": "span", "trace_id": self.trace_id,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "t0": self._t0_wall, "dur_s": dur,
            "attrs": self.attrs, "pid": os.getpid(),
        })
        return False


def span(name: str, **attrs):
    """Open a named span under the thread's current trace context.
    Disarmed: one global load and a falsy check returning a shared
    no-op handle."""
    rec = _ACTIVE
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, attrs)


def event(name: str, severity: str = "warn", **fields) -> None:
    """Record one structured event under the current span.  Disarmed:
    one global load and a falsy check — hot-path safe."""
    rec = _ACTIVE
    if rec is None:
        return
    trace_id, span_id = getattr(_TLS, "ctx", None) or (None, None)
    rec.record({
        "kind": "event", "name": name, "severity": severity,
        "t": time.time(), "trace_id": trace_id, "span_id": span_id,
        "pid": os.getpid(), "fields": fields,
    })


def prof_count(name: str, n: int = 1) -> None:
    """Bump a named counter.  Disarmed: one global load and a falsy
    check — safe inside Newton iterations and per-payload store reads."""
    rec = _ACTIVE
    if rec is None:
        return
    rec.count(name, n)


def current_context() -> tuple[str, str] | None:
    """The thread's ``(trace_id, span_id)``; ``None`` outside any span."""
    return getattr(_TLS, "ctx", None)


def subtree(records: list[dict], span_id: str) -> list[dict]:
    """The records of span ``span_id`` and of everything recorded under
    it (nested spans and their events), oldest first.

    A span is recorded after its children and events, so one backward
    pass sees every parent before what it encloses.
    """
    inside, out = {span_id}, []
    for r in reversed(records):
        if r.get("kind") == "span" and r.get("parent_id") in inside:
            inside.add(r["span_id"])
        if r.get("span_id") in inside:
            out.append(r)
    return out[::-1]


# ----------------------------------------------------------------------
# Presentation
# ----------------------------------------------------------------------
def format_tree(spans, max_attrs: int = 4) -> str:
    """A per-trace indented tree of span names and durations — what
    ``repro trace`` prints.  Children sort by start time; orphaned
    parents (evicted from the buffer) surface their subtree at root."""
    ids = {s["span_id"] for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        children.setdefault(parent if parent in ids else None, []).append(s)
    for group in children.values():
        group.sort(key=lambda s: (s.get("t0", 0.0), s.get("span_id", "")))
    lines: list[str] = []

    def walk(siblings, depth: int) -> None:
        for s in siblings:
            attrs = s.get("attrs") or {}
            shown = {k: attrs[k] for k in list(attrs)[:max_attrs]}
            extra = f"  {shown}" if shown else ""
            lines.append(f"{'  ' * depth}{s['name']:<24} "
                         f"{1e3 * s.get('dur_s', 0.0):9.2f} ms{extra}")
            walk(children.get(s["span_id"], []), depth + 1)

    roots = children.get(None, [])
    for trace_id in dict.fromkeys(s.get("trace_id") for s in spans):
        trace_roots = [s for s in roots if s.get("trace_id") == trace_id]
        if trace_roots:
            lines.append(f"trace {trace_id}")
            walk(trace_roots, 1)
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
        entry = dict(s)
        entry["self_s"] = max(0.0, s.get("dur_s", 0.0)
                              - child_time.get(s.get("span_id"), 0.0))
        ranked.append(entry)
    ranked.sort(key=lambda s: s["self_s"], reverse=True)
    return ranked[:max(0, top)]


def phase_seconds(spans) -> dict[str, float]:
    """Self-time summed per span name — ``--profile``'s timed phases."""
    phases: dict[str, float] = {}
    for s in slowest_spans(spans, top=len(spans)):
        phases[s["name"]] = phases.get(s["name"], 0.0) + s["self_s"]
    return phases


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


def format_profile(snapshot: dict) -> str:
    """Human-readable :meth:`Recorder.profile` for ``--profile``: timed
    phases first (descending seconds), then counters."""
    lines = []
    phases = snapshot.get("phases_s") or {}
    counts = snapshot.get("counts") or {}
    if phases:
        lines.append("profile — timed phases:")
        for name, s in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<32} {1e3 * s:10.2f} ms")
    if counts:
        lines.append("profile — counters:")
        for name, n in counts.items():
            lines.append(f"  {name:<32} {n:>10}")
    return "\n".join(lines) or "profile — empty (no instrumented work ran)"


def load_jsonl(path) -> list[dict]:
    """Read records back from a JSONL export; blank lines are ignored,
    corrupt lines raise."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# REPRO_OBS arming
# ----------------------------------------------------------------------
def config_from_env(spec: str) -> dict:
    """Parse a ``REPRO_OBS`` spec (see the module docstring) into
    :class:`Recorder` keyword arguments."""
    config: dict = {}
    for part in spec.replace(",", ";").split(";"):
        switch, *options = part.strip().split(":")
        if not switch:
            continue
        if switch.lower() not in SWITCHES:
            raise ValueError(f"unknown switch {switch!r} in {OBS_ENV}; "
                             f"one of {list(SWITCHES)}")
        for opt in options:
            key, _, value = opt.partition("=")
            kwarg = {"export": "export_path", "buffer": "buffer"}.get(key)
            if kwarg is None:
                raise ValueError(
                    f"unknown option {opt!r} in {OBS_ENV} part {part!r}")
            if kwarg == "buffer":
                value = int(value)
            if config.setdefault(kwarg, value) != value:
                raise ValueError(f"two different {key}= values in "
                                 f"{OBS_ENV}: {config[kwarg]!r}, {value!r}")
    return config


def arm_from_env(environ=None) -> Recorder | None:
    """Arm a recorder from ``$REPRO_OBS`` if set; returns it."""
    spec = (os.environ if environ is None else environ).get(OBS_ENV)
    if not spec:
        return None
    rec = Recorder(**config_from_env(spec))
    activate(rec)
    return rec


# CLI / subprocess / CI runs arm the moment any instrumented module
# imports repro.obs; with REPRO_OBS unset this is a no-op and every hook
# stays inert.
arm_from_env()
