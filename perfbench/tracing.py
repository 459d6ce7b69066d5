"""Out-of-program layer tracing for the traced benchmark run.

The program is timed from outside: :func:`layer_targets` names, for each
layer, the bindings its callers actually look up (a module-level name
such as ``repro.campaign.batchrun.newton_batch``, a class attribute
such as ``Circuit.compile``, or a registry entry such as
``MEASUREMENTS["gain_1khz_db"]``).  :meth:`Recorder.install` replaces
each with a wrapper that records one span — name, start, end, parent
span, thread — and :meth:`Recorder.uninstall` puts every original back
and reports any binding that did not come back.  Spans stay in memory
until the run ends.

**Self time.**  A span's self time is its duration minus the part its
child spans (same thread) cover.  With several threads busy at once
(the serve workload: HTTP handlers, two service workers, clients) the
per-thread self times of the layers add up to well over the wall time,
so the self-active intervals of all threads are swept together and each
instant is split evenly among the layer spans active at it; the
benchmark's own operation spans (tier 0, mostly clients waiting on a
job) only receive time no layer span claims.  Split this way, the
layers, the benchmark spans and the time no span covers add up to the
traced wall time by construction.

**Reconciliation.**  What the layers must explain is the traced wall
less the host probes: :func:`unexplained` is the share of the wall left
to the benchmark's own spans and to no span at all.  A top-level layer
left unwrapped moves its time there and fails the check; a nested layer
left unwrapped only moves its time into its parent's self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Tier of the benchmark's own operation spans (see module docstring).
BENCH = 0
#: Tier of wrapped program layers.
LAYER = 1
#: Name of the benchmark's own per-operation span.
BENCH_OP = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int
    thread: int
    tier: int


@dataclass
class Recorder:
    """Span store plus the wrapper bookkeeping of one traced run."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: ``CandidateEvaluator`` instances seen, for their hit/miss counters.
    evaluators: dict = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _patched: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + by

    def call(self, name: str, tier: int, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else (0, "")
        span_id = next(self._ids)
        stack.append((span_id, name))
        if name != parent[1]:
            self.count(f"{name}.calls")
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent[0],
                                   threading.get_ident(), tier))

    def wrapper(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, LAYER, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    # -- installation --------------------------------------------------
    def install(self, targets) -> None:
        for name, owner, attr, on_result in targets:
            original = _get(owner, attr)
            self._patched.append((owner, attr, original))
            _set(owner, attr, self.wrapper(name, original, on_result))

    def uninstall(self) -> list[str]:
        """Restore every binding; returns those that did not restore."""
        for owner, attr, original in reversed(self._patched):
            _set(owner, attr, original)
        bad = [f"{_label(owner)}.{attr}" for owner, attr, original
               in self._patched if _get(owner, attr) is not original]
        self._patched = []
        return bad

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "id": s.id, "parent": s.parent, "thread": s.thread,
                    "tier": s.tier}) + "\n")


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    return vars(owner)[attr]


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _label(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


# ----------------------------------------------------------------------
# Counters read off wrapped calls' arguments and results
# ----------------------------------------------------------------------
def _newton_batch_done(rec: Recorder, args, result) -> None:
    converged, _x, iterations = result
    rec.count("spice.newton_iterations", int(np.sum(iterations)))
    rec.count("campaign.batched_units", int(len(converged)))


def _dc_done(rec: Recorder, args, op) -> None:
    rec.count("spice.newton_iterations", int(op.iterations))


def _campaign_done(rec: Recorder, args, result) -> None:
    stats = result.store_stats
    reused = stats["reused_units"] if stats else 0
    rec.count("campaign.units_run", len(result) - reused)


def _serialized(rec: Recorder, args, text) -> None:
    rec.count("campaign.serialized_bytes", len(text))


def _evaluator_seen(rec: Recorder, args, result) -> None:
    rec.evaluators[id(args[0])] = args[0]


def layer_targets() -> list[tuple]:
    """``(layer, owner, attribute, on_result)`` for every wrapped binding."""
    import repro.campaign
    import repro.cli
    import repro.ingest
    import repro.serve.service
    import repro.spice.noise
    from repro.campaign import batchrun, runner
    from repro.campaign.measurements import MEASUREMENTS
    from repro.campaign.result import CampaignResult
    from repro.optimize import evaluate, optimizers
    from repro.serve.validate import VALIDATORS
    from repro.spice.batch import BatchedSystem
    from repro.spice.linsolve import BatchedSmallSignalContext, SmallSignalContext
    from repro.spice.netlist import Circuit
    from repro.store import ResultStore

    targets = [
        ("campaign.build", runner, "build_unit_circuit", None),
        ("spice.compile", Circuit, "compile", None),
        ("spice.stamp", BatchedSystem, "__init__", None),
        ("spice.stamp", BatchedSystem, "linearize", None),
        ("spice.newton", batchrun, "newton_batch", _newton_batch_done),
        ("spice.newton", runner, "dc_operating_point", _dc_done),
        ("spice.newton", batchrun, "dc_operating_point", _dc_done),
        ("spice.smallsignal", SmallSignalContext, "solve", None),
        ("spice.smallsignal", BatchedSmallSignalContext, "solve", None),
        ("spice.smallsignal", BatchedSmallSignalContext, "solve_checked", None),
        ("spice.noise", repro.spice.noise, "noise_analysis", None),
        ("campaign.run", repro.campaign, "run_campaign", _campaign_done),
        ("campaign.run", runner, "run_campaign", _campaign_done),
        ("campaign.run", evaluate, "run_campaign", _campaign_done),
        ("campaign.serialize", CampaignResult, "to_json", _serialized),
        ("campaign.reduce", CampaignResult, "summary", None),
        ("campaign.reduce", CampaignResult, "worst_by", None),
        ("store.read", ResultStore, "get", None),
        ("store.read", ResultStore, "get_many", None),
        ("store.write", ResultStore, "put", None),
        ("store.write", ResultStore, "put_many", None),
        ("store.probe", ResultStore, "contains_many", None),
        ("serve.validate", repro.serve.service, "campaign_spec_from_dict", None),
        ("serve.validate", VALIDATORS, "campaign", None),
        ("ingest.canonicalize", repro.ingest, "canonicalize_deck", None),
        ("optimize.evaluate", evaluate.CandidateEvaluator, "evaluate",
         _evaluator_seen),
        ("optimize.search", optimizers, "optimize", None),
        ("cli.parse", repro.cli, "build_parser", None),
    ]
    # Per-unit measurements and their batched counterparts (the tensor
    # path measures through its own registry).
    targets += [("campaign.measure", MEASUREMENTS, key, None)
                for key in sorted(MEASUREMENTS)]
    targets += [("campaign.measure", batchrun._BATCHED, key, None)
                for key in sorted(batchrun._BATCHED)]
    return targets


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def _self_segments(spans: list[Span]) -> list[tuple]:
    """``(start, end, name, tier)`` intervals where a span is the
    innermost open span of its thread."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    segs = []
    for s in spans:
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            if c.start > cursor:
                segs.append((cursor, c.start, s.name, s.tier))
            cursor = max(cursor, c.end)
        if s.end > cursor:
            segs.append((cursor, s.end, s.name, s.tier))
    return segs


def attribute(spans: list[Span], t0: float, t1: float) -> tuple[dict, float]:
    """Split the window ``[t0, t1]`` among span names.

    Returns ``(seconds_by_name, unattributed_seconds)``; each instant
    goes evenly to the layer spans self-active at it, else evenly to the
    benchmark spans, else to *unattributed*.
    """
    events = []
    for start, end, name, tier in _self_segments(spans):
        start, end = max(start, t0), min(end, t1)
        if end > start:
            events.append((start, 1, name, tier))
            events.append((end, -1, name, tier))
    events.sort(key=lambda e: (e[0], e[1]))
    active = ({}, {})            # per tier: name -> open segment count
    n_active = [0, 0]
    out: dict[str, float] = {}
    unattributed = 0.0
    now = t0
    for when, delta, name, tier in events:
        dt = when - now
        if dt > 0:
            tier_on = LAYER if n_active[LAYER] else BENCH
            if n_active[tier_on]:
                share = dt / n_active[tier_on]
                for key, c in active[tier_on].items():
                    if c:
                        out[key] = out.get(key, 0.0) + share * c
            else:
                unattributed += dt
            now = when
        active[tier][name] = active[tier].get(name, 0) + delta
        n_active[tier] += delta
    unattributed += max(0.0, t1 - now)
    return out, unattributed


def unexplained(self_s: dict, wall_s: float, idle_s: float) -> float:
    """Share of the traced wall ``wall_s`` that no program layer explains.

    ``self_s`` comes from :func:`attribute`; ``idle_s`` is the time the
    program was measured to be idle (the host probes).  What is left
    over is the benchmark's own span time plus time no span covers.
    """
    layers = sum(t for name, t in self_s.items() if name != BENCH_OP)
    return (wall_s - idle_s - layers) / wall_s
