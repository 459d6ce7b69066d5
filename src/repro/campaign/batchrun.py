"""Batched campaign execution: the one grouping walk campaigns take.

Turns :class:`~repro.campaign.spec.WorkUnit`\\ s into records through
the tensor engine of :mod:`repro.spice.batch`: consecutive units whose
built circuits share one MNA structure (mismatch-seed and gain-code
siblings across the temperature axis) form a *group*, the group is
stamped into one ``(N, dim, dim)`` tensor, DC-solved by one lockstep
Newton iteration and measured through one unit-batched factorization
per probe frequency.

The walk (:func:`run_jobs`) takes a list of *jobs*, each one spec's
units.  One ``run_campaign`` is the one-job case
(:func:`run_chunk_batched`); the optimizer's generations are the
many-job case, the jobs' specs differing only in ``builder_kwargs``
(the candidate sizings), so same-structure units of different
candidates share a group.  Any exception while building or running a
job's unit ends that job alone.

Every path is anchored to the serial reference:

* circuits are built through the same :class:`~repro.campaign.runner.
  ChunkCache` walk as :func:`~repro.campaign.runner.run_chunk`, so
  sampler draws and build order are untouched;
* measurements are the per-unit definitions of
  :mod:`repro.campaign.measurements`, not copies: an operating-point
  read runs on unit ``u``'s row of the batch solution, a probed
  measurement's probes go through one residual-checked unit-axis solve
  and then its own reduction per unit, and ``noise_voice`` runs its
  adjoint sweep for all units in one unit-axis Schur pass on the
  batch's own ``G``/``C`` (:func:`~repro.spice.noise.noise_units`)
  before the per-unit reduction.  Plain ``fn(rt)`` measurements
  — and units the batch cannot carry (plain-Newton non-convergence,
  residual-check rejections) — run per unit on an operating point
  wrapped around the batch's bit-identical solution (or, for a unit
  whose lockstep plain Newton failed, the serial ladder entered at gmin
  stepping);
* any exception while batch-processing a group (a structure surprise,
  a measurement's precondition error, a fault injected at
  ``campaign.batch_group``) falls back to plain
  :func:`~repro.campaign.runner.run_unit` semantics for the whole
  group, member by member, so injected chaos degrades speed, never
  results.

Each group picks its path from the input alone: units of a
non-batchable builder (ingested decks) and structure groups smaller
than :data:`MIN_BATCH_UNITS` run :func:`~repro.campaign.runner.run_unit`
directly; every other group takes the tensor path.

The result: records byte-identical to the per-unit oracle
:func:`~repro.campaign.runner.run_chunk`, several times faster on
mismatch campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from repro.campaign.builders import BUILDERS, BuiltUnit
from repro.campaign.measurements import (
    MEASUREMENTS,
    UnitMeasurement,
    UnitReads,
    noise_voice_freqs,
    noise_voice_values,
)
from repro.campaign.runner import (
    ChunkCache,
    UnitRuntime,
    emit_unit_health,
    run_unit,
)
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.faults.harness import fault_point
from repro.obs.recorder import active, event, prof_count, span
from repro.process.technology import Technology
from repro.spice.batch import BatchedSystem, circuit_signature, newton_batch
from repro.spice.dc import OperatingPoint, PlainFailure, dc_operating_point
from repro.spice.linsolve import BatchedSmallSignalContext, SmallSignalContext
from repro.spice.mna import MnaSystem
from repro.spice.noise import noise_units

#: Units per tensor group.  Large enough to amortise the Python-side
#: stamping, small enough that the (N, dim, dim) tensors of the paper's
#: circuits stay comfortably in cache.
DEFAULT_BATCH_SIZE = 64

#: Smallest structure group worth a tensor solve; smaller groups run
#: ``run_unit``.  Tensor-path CPU time over ``run_unit`` (2-CPU host,
#: 1 BLAS thread, byte-equal records):
#:
#: ==========================================  ======  =====================
#: input                                       ratio   spread
#: ==========================================  ======  =====================
#: healthy micamp Table-1 groups, 1 unit       1.40x   median of 12 pairs
#: ... 2 units                                 0.84x
#: ... 3 units                                 0.66x
#: ... 4 units                                 0.59x
#: ... 12 units                                0.48x
#: robust 3-unit (tt/ss/ff) DE candidates,     1.04x   IQR 1.01-1.09
#: ``noise_voice`` solved unit by unit
#: the same, ``noise_voice`` on the unit axis  0.74x   IQR 0.70-0.76
#: a DE generation's candidates in one walk,   0.72x   IQR 0.65-0.90
#: typical (1 unit each)
#: ... robust (3 units each)                   0.77x   IQR 0.72-0.80
#: ==========================================  ======  =====================
#:
#: The robust rows time the 124 successful candidates of four robust
#: searches (budget 60, seeds 301-304) as 3-unit groups, serial and
#: tensor passes alternating, 8 pairs.  Until the noise solve had a
#: unit axis each unit re-compiled and re-linearised for it, which ate
#: the group's gain; now 3-unit groups pay, so the threshold is 3.  The
#: generation rows replay the distinct misses of 36 generations of 12
#: ``optimize_de`` searches as one walk against one campaign per
#: candidate (best of 3 alternating repeats; 2 of 24 typical
#: generations were slower, at most 1.11x).
MIN_BATCH_UNITS = 3


@dataclass
class CampaignJob:
    """One spec's units in a grouping walk, and what came of them:
    ``records`` in unit order, or the ``error`` that ended the job."""

    cache: ChunkCache
    units: list[WorkUnit]
    records: list = field(init=False)
    error: Exception | None = None

    def __post_init__(self) -> None:
        self.records = [None] * len(self.units)

    @property
    def spec(self) -> CampaignSpec:
        return self.cache.spec

    def take_error(self) -> Exception:
        """The error, handed over: its traceback holds the walk's frames,
        which hold this job, so keeping it here too would make a
        reference cycle that keeps those frames' arrays alive until the
        cyclic garbage collector runs."""
        error, self.error = self.error, None
        return error


class _Member(NamedTuple):
    """One walked unit: its job, its index there, and (on the grouped
    walk) its built circuit and technology."""

    job: CampaignJob
    index: int
    unit: WorkUnit
    built: BuiltUnit | None = None
    tech: Technology | None = None


@dataclass
class _GroupRun:
    """Shared state for one batched group during measurement."""

    specs: list[CampaignSpec]
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
        bs, n = self.bs, self.pattern.size
        g = np.ascontiguousarray(bs.linearize(self.x)[:, :n, :n])
        c = np.ascontiguousarray(bs.c_t[:, :n, :n])
        # Nothing assembles after the linearisation: free the stamp
        # tensors, a large group's largest arrays, for the measurements.
        bs.g_t = bs.c_t = None
        return BatchedSmallSignalContext(g, c)

    @cached_property
    def reads(self) -> list[UnitReads]:
        """Each unit's reads, through the group pattern (no compile)."""
        return [UnitReads(spec, built, tech, self.pattern, x)
                for spec, built, tech, x
                in zip(self.specs, self.builts, self.techs, self.x)]

    def rt(self, u: int) -> UnitRuntime:
        """Serial per-unit runtime around the batch's (bit-identical) DC
        solution — for plain ``fn(rt)`` measurements and rejected units.
        A unit that failed lockstep Newton has its ladder solve here."""
        rt = self.rts.get(u)
        if rt is None:
            system = self.builts[u].circuit.compile(temp_c=self.units[u].temp_c)
            op = OperatingPoint(system, self.x[u].copy(),
                                int(self.iterations[u]), "newton")
            rt = UnitRuntime(spec=self.specs[u], unit=self.units[u],
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


def _measure_noise(gr: _GroupRun, live: list[int], records: list) -> None:
    """``noise_voice`` over the group's live units: one unit-axis Schur
    sweep on the batch's own ``G``/``C`` (no per-unit compile); a unit
    the residual gate rejects is measured per unit, as is every unit of
    a group above the sparse threshold (whose serial sweep is sparse)."""
    if not live:
        return
    if gr.pattern.prefer_sparse:
        results = dict.fromkeys(live)
    else:
        built = gr.builts[live[0]]   # one builder, one structure: one port pair
        results = noise_units(gr.bs, gr.x, gr.ctx.g, gr.ctx.c, live,
                              noise_voice_freqs(), built.out_p, built.out_n)
    for u in live:
        if results[u] is not None:
            records[u].update(noise_voice_values(results[u]))
            continue
        if not gr.pattern.prefer_sparse:
            event("campaign.unit_fallback", "warn",
                  corner=gr.units[u].corner, temp_c=gr.units[u].temp_c,
                  seed=gr.units[u].seed, measurement="noise_voice",
                  reason="batched noise residual rejection")
        _serial_measure(gr, "noise_voice", u, records)


# A name -> callable dict, not a type test per call: perfbench wraps each entry.
_BATCHED: dict = {name: partial(_measure_group, name, meas)
                  for name, meas in MEASUREMENTS.items()
                  if isinstance(meas, UnitMeasurement)}
_BATCHED["noise_voice"] = _measure_noise


def _batched(name: str):
    """The tensor-group executor of measurement ``name``, or ``None``
    (a plain ``fn(rt)`` measurement).  Resolved per group, so a
    :class:`UnitMeasurement` registered after import runs batched too."""
    impl = _BATCHED.get(name)
    if impl is None:
        meas = MEASUREMENTS[name]
        if isinstance(meas, UnitMeasurement):
            impl = partial(_measure_group, name, meas)
    return impl


# ----------------------------------------------------------------------
# Group execution
# ----------------------------------------------------------------------
def _run_group(members: list[_Member]) -> list[dict]:
    specs = [m.job.spec for m in members]
    units = [m.unit for m in members]
    builts = [m.built for m in members]
    techs = [m.tech for m in members]
    circuits = [b.circuit for b in builts]
    temps = [u.temp_c for u in units]
    pattern = circuits[0].compile(temp_c=temps[0])
    # Structure was already grouped by signature in the walk; the
    # unit-0 replay guard inside BatchedSystem still applies.
    bs = BatchedSystem(pattern, circuits, temps, check_structure=False)
    diags: list[dict] = [{} for _ in units]
    converged, x, iterations = newton_batch(bs, bs.initial_guess(), bs.rhs_dc(),
                                            diags=diags)
    gr = _GroupRun(specs, units, builts, techs, pattern, bs, x, iterations)

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
        gr.rts[u] = UnitRuntime(spec=specs[u], unit=units[u], tech=techs[u],
                                built=builts[u], op=op)

    # Every spec of a walk measures the same names (see run_jobs).
    for name in specs[0].measurements:
        impl = _batched(name)
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


def _run_units(members: list[_Member]) -> None:
    """:func:`run_unit` per member, in order.  An exception ends the
    member's job: its later members are skipped, other jobs run on."""
    for m in members:
        job = m.job
        if job.error is not None:
            continue
        try:
            job.records[m.index] = run_unit(job.spec, m.unit, job.cache, m.built)
        except Exception as exc:
            job.error = exc


def _run_tensor_group(members: list[_Member]) -> None:
    """One structure group through the tensor engine; any exception
    (structure surprise, injected fault) re-runs the whole group through
    :func:`run_unit` on the circuits already built, member by member."""
    with span("campaign.batch_group", n_units=len(members)) as sp:
        try:
            fault_point("campaign.batch_group", n_units=len(members))
            records = _run_group(members)
            prof_count("campaign.batch_groups")
        except Exception as exc:
            prof_count("campaign.fallback_units", len(members))
            prof_count("campaign.batch_group_fallbacks")
            event("campaign.batch_group_fallback", "warn",
                  builder=members[0].job.spec.builder, n_units=len(members),
                  error=f"{type(exc).__name__}: {exc}")
            sp.annotate(fallback=True)
            _run_units(members)
            return
    for m, record in zip(members, records):
        m.job.records[m.index] = record


def _shared_fields(spec: CampaignSpec) -> list:
    return [getattr(spec, f.name) for f in fields(spec)
            if f.name != "builder_kwargs"]


def run_jobs(jobs: list[CampaignJob], batch_size: int = DEFAULT_BATCH_SIZE,
             progress=None) -> None:
    """Fill each job's ``records`` (or its ``error``) through one
    grouping walk over the jobs' units, in order.

    The jobs' specs may differ only in ``builder_kwargs`` (a
    ``ValueError`` otherwise), so units of different jobs — the
    candidates of an optimizer generation — share a tensor group when
    their circuits share a structure.  Builds run through each job's
    :class:`ChunkCache`, and consecutive structure-sharing units form
    groups of up to ``batch_size``.  Groups of at least
    :data:`MIN_BATCH_UNITS` run through the tensor engine, smaller ones
    through :func:`run_unit`.  A non-batchable builder, or fewer units
    than one such group, skips the grouping walk and runs every unit
    through :func:`run_unit`, ``batch_size`` at a time.

    An exception while building or running one of a job's units ends
    that job (its first exception in unit order, as a walk of that job
    alone would raise it) and never another job; the walk stops once
    every job has ended so.  ``progress(units_done, units_total)``
    fires after each group, outside its fallback handler, so an
    exception it raises propagates and no later group runs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not jobs:
        return
    spec = jobs[0].spec
    if any(_shared_fields(job.spec) != _shared_fields(spec) for job in jobs[1:]):
        raise ValueError("the jobs of one walk may differ only in builder_kwargs")
    total = sum(len(job.units) for job in jobs)
    done = 0

    def ran(members: list[_Member]) -> bool:
        """Report ``members`` done; False once every job has failed."""
        nonlocal done
        if all(job.error is not None for job in jobs):
            return False
        done += len(members)
        if progress is not None:
            progress(done, total)
        return True

    if total < MIN_BATCH_UNITS or \
            not getattr(BUILDERS.get(spec.builder), "batchable", True):
        # No tensor group possible, or ingested/foreign structure the
        # tensor engine must not stack (see register_builder).
        flat = [_Member(job, i, unit)
                for job in jobs for i, unit in enumerate(job.units)]
        for start in range(0, total, batch_size):
            _run_units(flat[start:start + batch_size])
            if not ran(flat[start:start + batch_size]):
                return
        return

    def flush(members: list[_Member]) -> bool:
        if len(members) >= MIN_BATCH_UNITS:
            _run_tensor_group(members)
        else:
            _run_units(members)
        return ran(members)

    members: list[_Member] = []
    group_sig = None
    last_built = None
    last_sig = None
    for job in jobs:
        for i, unit in enumerate(job.units):
            if job.error is not None:
                break
            try:
                built = job.cache.built(unit)
                tech = job.cache.tech(unit.corner)
            except Exception as exc:
                # A walk of this job alone raises here, before running
                # its pending units: drop them.
                job.error = exc
                members = [m for m in members if m.job is not job]
                if all(j.error is not None for j in jobs):
                    return
                break
            if built is not last_built:
                last_sig = circuit_signature(built.circuit)
                last_built = built
            if members and (last_sig != group_sig or len(members) >= batch_size):
                if not flush(members):
                    return
                members = []
                if job.error is not None:
                    break
            if not members:
                group_sig = last_sig
            members.append(_Member(job, i, unit, built, tech))
    if members:
        flush(members)


def run_chunk_batched(spec: CampaignSpec, units: list[WorkUnit],
                      batch_size: int = DEFAULT_BATCH_SIZE,
                      progress=None, techs: dict | None = None) -> list[dict]:
    """Records for ``units``, byte-identical to :func:`~repro.campaign.
    runner.run_chunk`: the one-job case of :func:`run_jobs`, which
    raises the exception that ended the job.  ``techs`` is a cache of
    ``spec.tech``'s corner technologies to share (see :class:`ChunkCache`).
    """
    job = CampaignJob(ChunkCache(spec, {} if techs is None else techs),
                      list(units))
    run_jobs([job], batch_size, progress)
    if job.error is not None:
        raise job.take_error()
    return job.records
