"""Batched campaign execution: the one path ``run_campaign`` takes.

Turns a list of :class:`~repro.campaign.spec.WorkUnit`\\ s into records
through the tensor engine of :mod:`repro.spice.batch`: consecutive units
whose built circuits share one MNA structure (mismatch-seed and
gain-code siblings across the temperature axis) form a *group*, the
group is stamped into one ``(N, dim, dim)`` tensor, DC-solved by one
lockstep Newton iteration and measured through one unit-batched
factorization per probe frequency.

Every path is anchored to the serial reference:

* circuits are built through the same :class:`~repro.campaign.runner.
  ChunkCache` walk as :func:`~repro.campaign.runner.run_chunk`, so
  sampler draws and build order are untouched;
* measurements are the per-unit definitions of
  :mod:`repro.campaign.measurements`, not copies: an operating-point
  read runs on unit ``u``'s row of the batch solution, a probed
  measurement's probes go through one residual-checked unit-axis solve
  and then its own reduction per unit.  Plain ``fn(rt)`` measurements
  — and units the batch cannot carry (plain-Newton non-convergence,
  residual-check rejections) — run per unit on an operating point
  wrapped around the batch's bit-identical solution (or, for a unit
  whose lockstep plain Newton failed, the serial ladder entered at gmin
  stepping);
* any exception while batch-processing a group (a structure surprise,
  a measurement's precondition error, a fault injected at
  ``campaign.batch_group``) falls back to plain
  :func:`~repro.campaign.runner.run_unit` semantics for the whole
  group, so injected chaos degrades speed, never results.

Each group picks its path from the input alone: units of a
non-batchable builder (ingested decks) and structure groups smaller
than :data:`MIN_BATCH_UNITS` run :func:`~repro.campaign.runner.run_unit`
directly; every other group takes the tensor path.

The result: records byte-identical to the per-unit oracle
:func:`~repro.campaign.runner.run_chunk`, several times faster on
mismatch campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.campaign.builders import BUILDERS
from repro.campaign.measurements import MEASUREMENTS, UnitMeasurement, UnitReads
from repro.campaign.runner import (
    ChunkCache,
    UnitRuntime,
    emit_unit_health,
    run_unit,
)
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.faults.harness import fault_point
from repro.obs.recorder import active, event, prof_count, span
from repro.spice.batch import BatchedSystem, circuit_signature, newton_batch
from repro.spice.dc import OperatingPoint, PlainFailure, dc_operating_point
from repro.spice.linsolve import BatchedSmallSignalContext, SmallSignalContext
from repro.spice.mna import MnaSystem

#: Units per tensor group.  Large enough to amortise the Python-side
#: stamping, small enough that the (N, dim, dim) tensors of the paper's
#: circuits stay comfortably in cache.
DEFAULT_BATCH_SIZE = 64

#: Smallest structure group worth a tensor solve; smaller groups run
#: ``run_unit``.  Tensor-path CPU time over ``run_unit`` for healthy
#: micamp Table-1 groups (2-CPU host, 1 BLAS thread, median of 12
#: paired runs, byte-equal records): 1 unit 1.40x, 2 units 0.84x,
#: 3 units 0.66x, 4 units 0.59x, 12 units 0.48x.  The robust
#: optimizer's 3-unit groups are a different input: many DE candidates
#: fail lockstep Newton.  While such a unit re-ran the plain stage from
#: scratch those groups cost 1.22x on the tensor path; entering the
#: ladder at gmin stepping they cost 1.00x (IQR 0.88-1.09; 12 paired
#: robust searches, budget 150, seeds 101-112; the same searches took
#: 1.21x before, on the same host), no clear win, so the threshold
#: stays above 3.
MIN_BATCH_UNITS = 4


@dataclass
class _GroupRun:
    """Shared state for one batched group during measurement."""

    spec: CampaignSpec
    units: list[WorkUnit]
    builts: list
    techs: list
    pattern: MnaSystem
    bs: BatchedSystem
    x: np.ndarray
    iterations: np.ndarray
    rts: dict[int, UnitRuntime] = field(default_factory=dict)

    @cached_property
    def ctx(self) -> BatchedSmallSignalContext:
        n = self.pattern.size
        g = np.ascontiguousarray(self.bs.linearize(self.x)[:, :n, :n])
        c = np.ascontiguousarray(self.bs.c_t[:, :n, :n])
        return BatchedSmallSignalContext(g, c)

    @cached_property
    def reads(self) -> list[UnitReads]:
        """Each unit's reads, through the group pattern (no compile)."""
        return [UnitReads(self.spec, built, tech, self.pattern, x)
                for built, tech, x in zip(self.builts, self.techs, self.x)]

    def rt(self, u: int) -> UnitRuntime:
        """Serial per-unit runtime around the batch's (bit-identical) DC
        solution — for plain ``fn(rt)`` measurements and rejected units.
        A unit that failed lockstep Newton has its ladder solve here."""
        rt = self.rts.get(u)
        if rt is None:
            system = self.builts[u].circuit.compile(temp_c=self.units[u].temp_c)
            op = OperatingPoint(system, self.x[u].copy(),
                                int(self.iterations[u]), "newton")
            rt = UnitRuntime(spec=self.spec, unit=self.units[u],
                             tech=self.techs[u], built=self.builts[u], op=op)
            self.rts[u] = rt
        return rt


def _serial_measure(gr: _GroupRun, name: str, u: int, records: list) -> None:
    records[u].update(MEASUREMENTS[name](gr.rt(u)))


def _measure_group(name: str, meas: UnitMeasurement, gr: _GroupRun,
                   live: list[int], records: list) -> None:
    """``meas`` over the group's live units: the probes of all units as
    one residual-checked unit-axis solve; a rejected unit is re-measured
    per unit."""
    if meas.probe is None:
        for u in live:
            records[u].update(meas.fn(gr.reads[u]))
        return
    if not live:
        return
    reads = gr.reads
    probes = {u: meas.probe(reads[u]) for u in live}
    first = probes[live[0]]  # every unit's probe: same freq, same column count
    ctx = gr.ctx
    fwd, ok = ctx.solve_checked(first.freq, gr.bs.probe_rhs(probes))
    for u in live:
        if not ok[u]:
            event("campaign.unit_fallback", "warn",
                  corner=gr.units[u].corner, temp_c=gr.units[u].temp_c,
                  seed=gr.units[u].seed, measurement=name,
                  reason="batched small-signal residual rejection")
            _serial_measure(gr, name, u, records)
            continue
        # The per-unit read (SmallSignalContext.probe) on unit u's
        # solution, through the pattern's node map.
        values = SmallSignalContext.probe(reads[u], fwd[u:u + 1],
                                          probes[u].out_p, probes[u].out_n)[0]
        records[u].update(meas.fn(reads[u], values))


# A name -> callable dict, not a type test per call: perfbench wraps each entry.
_BATCHED: dict = {name: partial(_measure_group, name, meas)
                  for name, meas in MEASUREMENTS.items()
                  if isinstance(meas, UnitMeasurement)}


# ----------------------------------------------------------------------
# Group execution
# ----------------------------------------------------------------------
def _run_group(spec: CampaignSpec, units: list[WorkUnit], builts: list,
               techs: list) -> list[dict]:
    circuits = [b.circuit for b in builts]
    temps = [u.temp_c for u in units]
    pattern = circuits[0].compile(temp_c=temps[0])
    # Structure was already grouped by signature in run_chunk_batched;
    # the unit-0 replay guard inside BatchedSystem still applies.
    bs = BatchedSystem(pattern, circuits, temps, check_structure=False)
    diags: list[dict] = [{} for _ in units]
    converged, x, iterations = newton_batch(bs, bs.initial_guess(), bs.rhs_dc(),
                                            diags=diags)
    gr = _GroupRun(spec, units, builts, techs, pattern, bs, x, iterations)

    records: list[dict] = [{} for _ in units]
    live = [u for u in range(len(units)) if converged[u]]
    prof_count("campaign.batched_units", len(live))
    prof_count("campaign.fallback_units", len(units) - len(live))

    # A unit the lockstep plain-Newton pass could not converge has failed
    # the serial plain stage exactly (same iterate, same stall rule), so
    # it enters the serial ladder at gmin stepping with that failure
    # record; its operating point, iteration count included, is the
    # per-unit solve's.
    for u in range(len(units)):
        if converged[u]:
            continue
        event("campaign.unit_fallback", "warn", corner=units[u].corner,
              temp_c=units[u].temp_c, seed=units[u].seed,
              gain_code=units[u].gain_code,
              reason=f"lockstep newton {diags[u]['reason']}; serial ladder "
                     "entered at gmin stepping")
        op = dc_operating_point(
            builts[u].circuit, temp_c=units[u].temp_c,
            plain_failure=PlainFailure(x[u], int(iterations[u]), diags[u]))
        gr.rts[u] = UnitRuntime(spec=spec, unit=units[u], tech=techs[u],
                                built=builts[u], op=op)

    for name in spec.measurements:
        impl = _BATCHED.get(name)
        if impl is not None:
            impl(gr, live, records)
        for u in range(len(units)):
            if impl is None or not converged[u]:
                _serial_measure(gr, name, u, records)

    # Health events only after the whole group succeeded — a later
    # measurement exception downgrades the group to run_unit, which
    # emits its own health, and the sidecar must not double-count.
    if active() is not None:
        for u in range(len(units)):
            if converged[u]:
                emit_unit_health(units[u],
                                 {"iterations": int(iterations[u]),
                                  "strategy": "newton",
                                  "worst_resid": None, "batched": True})
            else:
                emit_unit_health(units[u], gr.rts[u].op.health())
    return records


def _run_tensor_group(spec: CampaignSpec, members: list,
                      cache: ChunkCache) -> list[dict]:
    """One structure group through the tensor engine; any exception
    (structure surprise, injected fault) re-runs the whole group through
    :func:`run_unit` on the circuits already built."""
    units = [m[0] for m in members]
    builts = [m[1] for m in members]
    with span("campaign.batch_group", n_units=len(members)) as sp:
        try:
            fault_point("campaign.batch_group", n_units=len(members))
            records = _run_group(spec, units, builts, [m[2] for m in members])
            prof_count("campaign.batch_groups")
        except Exception as exc:
            prof_count("campaign.fallback_units", len(members))
            prof_count("campaign.batch_group_fallbacks")
            event("campaign.batch_group_fallback", "warn",
                  builder=spec.builder, n_units=len(members),
                  error=f"{type(exc).__name__}: {exc}")
            sp.annotate(fallback=True)
            records = [run_unit(spec, unit, cache, built)
                       for unit, built in zip(units, builts)]
    return records


def run_chunk_batched(spec: CampaignSpec, units: list[WorkUnit],
                      batch_size: int = DEFAULT_BATCH_SIZE,
                      progress=None) -> list[dict]:
    """Records for ``units``, byte-identical to :func:`~repro.campaign.
    runner.run_chunk`.

    Builds circuits through the same cache walk as the per-unit runner
    and groups consecutive structure-sharing units up to ``batch_size``.
    Groups of at least :data:`MIN_BATCH_UNITS` run through the tensor
    engine, smaller ones through :func:`run_unit`.  A non-batchable
    builder, or a unit list too short to form one such group, skips the
    grouping walk and runs every unit through :func:`run_unit`,
    ``batch_size`` at a time.  ``progress(units_done, units_total)``
    fires after each group, outside its fallback handler, so an
    exception it raises propagates and no later group runs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    cache = ChunkCache(spec)
    records: list[dict] = []

    def done() -> None:
        if progress is not None:
            progress(len(records), len(units))

    if len(units) < MIN_BATCH_UNITS or \
            not getattr(BUILDERS.get(spec.builder), "batchable", True):
        # No tensor group possible, or ingested/foreign structure the
        # tensor engine must not stack (see register_builder).
        for start in range(0, len(units), batch_size):
            records.extend(run_unit(spec, unit, cache)
                           for unit in units[start:start + batch_size])
            done()
        return records

    def flush(members: list) -> None:
        if len(members) >= MIN_BATCH_UNITS:
            records.extend(_run_tensor_group(spec, members, cache))
        else:
            records.extend(run_unit(spec, unit, cache, built)
                           for unit, built, _tech in members)
        done()

    members: list = []
    group_sig = None
    last_built = None
    last_sig = None
    for unit in units:
        built = cache.built(unit)
        tech = cache.tech(unit.corner)
        if built is not last_built:
            last_sig = circuit_signature(built.circuit)
            last_built = built
        if members and (last_sig != group_sig or len(members) >= batch_size):
            flush(members)
            members = []
        if not members:
            group_sig = last_sig
        members.append((unit, built, tech))
    if members:
        flush(members)
    return records
