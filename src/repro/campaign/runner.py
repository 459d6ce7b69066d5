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
registered builder).  :func:`run_campaigns` runs several specs that
differ only in ``builder_kwargs`` (an optimizer generation's candidate
sizings) through the same grouping walk, each with the records its own
:func:`run_campaign` would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.builders import BuiltUnit, build_unit_circuit
from repro.campaign.measurements import MEASUREMENTS
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.obs.recorder import active, event, prof_count, span, subtree
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

    ``techs`` maps corner names to ``spec.tech`` skewed to that corner;
    a caller that runs many campaigns on one technology (the optimizer's
    evaluator) passes one dict to all of them, so each corner is
    derived once.

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
    by the per-unit and the tensor path alike.  Only called while the
    recorder is armed.
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
    if active() is not None:
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
                 units: list[WorkUnit] | None = None, progress=None,
                 techs: dict | None = None):
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

    ``techs`` is a caller's cache of ``spec.tech``'s corner technologies
    (see :class:`ChunkCache`), filled on demand.
    """
    units = spec.expand() if units is None else list(units)
    keys = None
    if store is not None:
        from repro.store import UnitKeyer

        keyer = UnitKeyer(spec)
        keys = [keyer.key(unit) for unit in units]
    return _run_keyed(spec, units, store, keys, progress, techs)


def _run_keyed(spec: CampaignSpec, units: list[WorkUnit], store,
               keys: list[str] | None, progress=None,
               techs: dict | None = None):
    """:func:`run_campaign` over expanded ``units`` whose store ``keys``
    (one per unit; ``None`` without a store) the caller already derived
    — the serve warm path, which probes the store with them first."""
    import sqlite3

    from repro.campaign.batchrun import run_chunk_batched
    from repro.campaign.result import CampaignResult

    with span("campaign.run", builder=spec.builder,
              n_units=len(units)) as run_span:
        if store is None:
            records = run_chunk_batched(spec, units, progress=progress,
                                        techs=techs)
            result = CampaignResult.from_units(spec, units, records)
        else:
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
                                      progress=inner, techs=techs)
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

    rec = getattr(run_span, "recorder", None)     # None while disarmed
    if rec is not None:
        mine = subtree(rec.records(trace_id=run_span.trace_id),
                       run_span.span_id)
        result.stats = {
            "profile": rec.profile([r for r in mine if r["kind"] == "span"]),
            "solver_health": solver_health_sidecar(mine),
            "events": rec.event_totals(),
        }
    return result


def run_campaigns(specs: list[CampaignSpec],
                  techs: dict | None = None) -> list:
    """Every spec's campaign through one grouping walk
    (:func:`~repro.campaign.batchrun.run_jobs`): a ``CampaignResult``
    per spec, in order, or the exception that ended that spec's
    campaign, where :func:`run_campaign` would have raised it (its
    traceback dropped).

    The specs may differ only in ``builder_kwargs`` — the candidate
    sizings of an optimizer generation — so same-structure units of
    different specs share one tensor group.  Each result's records are
    byte-identical to its own :func:`run_campaign`.  ``techs`` is shared
    by every spec (see :class:`ChunkCache`).
    """
    from repro.campaign.batchrun import CampaignJob, run_jobs
    from repro.campaign.result import CampaignResult

    techs = {} if techs is None else techs
    jobs = [CampaignJob(ChunkCache(spec, techs), spec.expand()) for spec in specs]
    run_jobs(jobs)
    out: list = []
    for job in jobs:
        # Exceptions go out without their tracebacks: this frame, an
        # ancestor of the frames a traceback holds, keeps them in
        # ``out`` — a cycle that would hold the failed units' arrays.
        if job.error is not None:
            out.append(job.take_error().with_traceback(None))
            continue
        try:
            out.append(CampaignResult.from_units(job.spec, job.units, job.records))
        except Exception as exc:
            out.append(exc.with_traceback(None))
    return out


def solver_health_sidecar(records: list[dict]) -> dict:
    """Aggregate the ``unit.solver_health`` events among one campaign's
    records (the ``campaign.run`` span's subtree) into the per-campaign
    sidecar dict.

    Scoping by the run span keeps the sidecar to this campaign's units
    when one ring holds many campaigns (a long-lived serve process, an
    optimizer job).  Telemetry only — the dict lives on
    ``CampaignResult.stats`` and is never serialised.
    """
    units = [dict(r.get("fields") or {}) for r in records
             if r["kind"] == "event" and r["name"] == "unit.solver_health"]
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
