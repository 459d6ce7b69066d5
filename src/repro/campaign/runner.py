"""Campaign execution: chunk caches, unit runtimes, the `run_campaign` door.

The runner turns expanded :class:`~repro.campaign.spec.WorkUnit`\\ s into
metric records.  Two levels of sharing keep it fast without ever making
the numbers depend on how work was grouped:

* **Within a unit** — one DC operating point is solved per unit and its
  cached :class:`~repro.spice.linsolve.SmallSignalContext` serves every
  measurement (gain probe, PSRR/CMRR injections, noise adjoints): one
  linearisation + factorization per (corner, temp, supply, seed, code).
* **Within a run** — skewed technologies are cached per corner and
  built circuits per :meth:`WorkUnit.circuit_key` (which excludes
  temperature), so the spec's temperature-innermost expansion order
  means each physical circuit is built once and re-solved per
  temperature.

Determinism: every unit is a cold, self-contained computation (fresh
mismatch generator seeded from the unit's own seed, cold Newton solve),
so grouping cannot change any value.  :func:`run_campaign` executes
through :func:`repro.campaign.batchrun.run_chunk_batched`, and its
export is byte-identical to the per-unit oracle :func:`run_chunk`
(``tests/campaign/test_executor_equivalence.py`` pins it for every
registered builder).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.builders import BuiltUnit, build_unit_circuit
from repro.campaign.measurements import MEASUREMENTS
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.obs.events import active_event_log, event
from repro.obs.profile import active_profiler, prof_count
from repro.obs.trace import span
from repro.process.corners import apply_corner
from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice.dc import OperatingPoint, dc_operating_point


@dataclass
class UnitRuntime:
    """Everything a measurement may touch for one work unit."""

    spec: CampaignSpec
    unit: WorkUnit
    tech: Technology
    built: BuiltUnit
    op: OperatingPoint

    def ctx(self):
        """The unit's shared small-signal context (cached on the op)."""
        return self.op.small_signal()


@dataclass
class ChunkCache:
    """Per-run reuse of techs and built circuits.

    The circuit cache holds a *single* entry: the expansion order is
    temperature-innermost, so once the circuit key changes the previous
    circuit is never needed again — a one-slot cache gives the same hit
    rate as an unbounded one while keeping memory at O(1) circuits even
    for thousand-seed campaigns.
    """

    spec: CampaignSpec
    techs: dict[str, Technology] = field(default_factory=dict)
    _circuit_key: tuple | None = None
    _circuit: BuiltUnit | None = None

    def tech(self, corner: str) -> Technology:
        t = self.techs.get(corner)
        if t is None:
            t = self.techs[corner] = apply_corner(self.spec.tech, corner)
        return t

    def built(self, unit: WorkUnit) -> BuiltUnit:
        key = unit.circuit_key()
        if key != self._circuit_key:
            tech = self.tech(unit.corner)
            if unit.seed is None:
                sampler = MismatchSampler.nominal(tech)
            else:
                sampler = MismatchSampler(tech, np.random.default_rng(unit.seed))
            self._circuit = build_unit_circuit(self.spec.builder, tech, sampler,
                                               unit.supply, unit.gain_code,
                                               self.spec.builder_kwargs)
            self._circuit_key = key
        return self._circuit


def emit_unit_health(unit: WorkUnit, health: dict) -> None:
    """Emit one ``unit.solver_health`` event for an executed unit.

    These info-severity events are the raw material of the campaign's
    solver-health sidecar (``result.stats["solver_health"]``), emitted
    by the per-unit and the tensor path alike.  Only called while an
    event log is armed.
    """
    event("unit.solver_health", "info", corner=unit.corner,
          temp_c=unit.temp_c, supply=unit.supply, seed=unit.seed,
          gain_code=unit.gain_code, **health)


def run_unit(spec: CampaignSpec, unit: WorkUnit, cache: ChunkCache,
             built: BuiltUnit | None = None) -> dict[str, float]:
    """Execute one work unit: build (or reuse), solve DC once, measure.

    ``built`` is the unit's already-built circuit when the caller holds
    it (a grouped walk has moved the one-slot cache past it); ``None``
    builds or reuses through ``cache``.
    """
    prof_count("campaign.units_run")
    if built is None:
        built = cache.built(unit)
    op = dc_operating_point(built.circuit, temp_c=unit.temp_c)
    rt = UnitRuntime(spec=spec, unit=unit, tech=cache.tech(unit.corner),
                     built=built, op=op)
    record: dict[str, float] = {}
    for name in spec.measurements:
        record.update(MEASUREMENTS[name](rt))
    if active_event_log() is not None:
        emit_unit_health(unit, op.health())
    return record


def run_chunk(spec: CampaignSpec,
              units: list[WorkUnit]) -> list[dict[str, float]]:
    """Execute ``units`` one by one with a shared cache.

    The per-unit reference path: the oracle the equivalence tests
    compare :func:`run_campaign` exports against.
    """
    cache = ChunkCache(spec)
    return [run_unit(spec, unit, cache) for unit in units]


def run_campaign(spec: CampaignSpec, store=None,
                 units: list[WorkUnit] | None = None, progress=None):
    """Expand, execute and collect a campaign into a ``CampaignResult``.

    Execution has one path: :func:`~repro.campaign.batchrun.
    run_chunk_batched` over every unit to compute, with one shared
    :class:`ChunkCache`.  It picks per structure group between the tensor
    engine and :func:`run_unit` from the input alone (see
    :data:`~repro.campaign.batchrun.MIN_BATCH_UNITS`); either way the
    export is byte-identical to the per-unit oracle :func:`run_chunk`.

    ``store`` (a :class:`repro.store.ResultStore`) makes the run
    **incremental**: units whose content-addressed key is already stored
    are read back instead of executed, freshly executed records are
    written back, and the merged result is byte-identical to a
    store-less run — only the missing units are executed, and record
    floats round-trip the store exactly.  The partition is reported on
    ``result.store_stats``.

    ``units`` restricts execution to an explicit subset of the
    expansion (the result then covers exactly those units, in the given
    order).  An empty subset is legal and yields a well-formed
    zero-row result.

    ``progress`` is an optional ``(units_done, units_total)`` callback,
    fired once per executed group (at most ``DEFAULT_BATCH_SIZE`` units)
    and never inside a group's fallback handler, so an exception it
    raises — a serve job's deadline check — ends the run after the
    current group.  Store-backed runs count reused units as done up
    front (the first call reports the warm coverage).  The callback
    observes execution only — results are identical with or without it.

    An **unavailable store degrades, never fails, the run**: if the
    store cannot be read (after its own internal retries) every unit
    executes through the engine, and if it cannot be written the
    computed records are still returned — persistence is best-effort.
    Either event is surfaced on ``result.store_stats["store_errors"]``;
    the records themselves are identical either way.
    """
    import sqlite3

    from repro.campaign.batchrun import run_chunk_batched
    from repro.campaign.result import CampaignResult

    units = spec.expand() if units is None else list(units)

    with span("campaign.run", builder=spec.builder,
              n_units=len(units)) as run_span:
        if store is None:
            records = run_chunk_batched(spec, units, progress=progress)
            result = CampaignResult.from_units(spec, units, records)
        else:
            from repro.store import UnitKeyer

            keyer = UnitKeyer(spec)
            keys = [keyer.key(unit) for unit in units]
            store_errors = 0
            try:
                cached = store.get_many(keys)
            except (sqlite3.OperationalError, OSError):
                cached = {}
                store_errors += 1
            missing = [(u, k) for u, k in zip(units, keys) if k not in cached]
            reused = len(units) - len(missing)
            prof_count("campaign.store_reused", reused)
            inner = None
            if progress is not None:
                progress(reused, len(units))
                inner = lambda done, _total: progress(reused + done, len(units))
            fresh = run_chunk_batched(spec, [u for u, _ in missing],
                                      progress=inner)
            fresh_by_key = {}
            entries = []
            for (unit, key), record in zip(missing, fresh):
                entries.append((key, record, "campaign-unit", {
                    "builder": spec.builder,
                    "corner": unit.corner,
                    "temp_c": unit.temp_c,
                    "supply": unit.supply,
                    "seed": unit.seed,
                    "gain_code": unit.gain_code,
                    "measurements": list(spec.measurements),
                }))
                fresh_by_key[key] = record
            try:
                store.put_many(entries)
            except (sqlite3.OperationalError, OSError):
                store_errors += 1  # computed records outlive the write-back
            records = [cached[k] if k in cached else fresh_by_key[k]
                       for k in keys]
            result = CampaignResult.from_units(spec, units, records)
            result.store_stats = {
                "reused_units": reused,
                "executed_units": len(missing),
                "store_root": str(store.root),
                "store_errors": store_errors,
            }

    stats: dict = {}
    profiler = active_profiler()
    if profiler is not None:
        stats["profile"] = profiler.snapshot()
    log = active_event_log()
    if log is not None:
        stats["solver_health"] = solver_health_sidecar(
            log, trace_id=getattr(run_span, "trace_id", None))
        stats["events"] = {"recorded": log.recorded,
                           "dropped": log.dropped,
                           "by_severity": log.severity_counts()}
    if stats:
        result.stats = stats
    return result


def solver_health_sidecar(log, trace_id: str | None = None) -> dict:
    """Aggregate buffered ``unit.solver_health`` events into the
    per-campaign sidecar dict.

    ``trace_id`` scopes the aggregation to one campaign's trace when
    tracing is armed alongside events (a long-lived serve process logs
    many campaigns into one ring); without tracing every buffered
    health event is folded in.  Telemetry only — the dict lives on
    ``CampaignResult.stats`` and is never serialised.
    """
    health_events = log.events(name="unit.solver_health")
    if trace_id is not None:
        health_events = [e for e in health_events
                         if e.get("trace_id") == trace_id]
    units = [dict(e.get("fields") or {}) for e in health_events]
    resids = [u["worst_resid"] for u in units
              if isinstance(u.get("worst_resid"), (int, float))]
    strategies: dict[str, int] = {}
    fallback_units = 0
    for u in units:
        s = str(u.get("strategy"))
        strategies[s] = strategies.get(s, 0) + 1
        if u.get("latch_reason") or u.get("small_signal_latches") \
                or u.get("strategy") not in (None, "newton"):
            fallback_units += 1
    return {
        "n_units": len(units),
        "units": units,
        "strategies": strategies,
        "fallback_units": fallback_units,
        "worst_resid": max(resids) if resids else None,
    }
