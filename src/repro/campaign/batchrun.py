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
* batched measurements replay the serial scalar math per unit (same
  ``math.log10``/``np.log10`` split, same guards, same record key
  order); measurements without a batched implementation — and units the
  batch cannot carry (structure surprises, plain-Newton non-convergence,
  residual-check rejections, precondition errors) — run the *serial*
  implementation on a per-unit operating point wrapped around the
  batch's bit-identical solution (or a from-scratch serial solve when
  the batch has no solution to offer);
* any exception while batch-processing a group (including faults
  injected at ``campaign.batch_group``) falls back to plain
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

import math

import numpy as np

from repro.campaign.builders import BUILDERS
from repro.campaign.measurements import MEASUREMENTS
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
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.elements import VoltageSource
from repro.spice.linsolve import BatchedSmallSignalContext
from repro.spice.netlist import is_ground

#: Units per tensor group.  Large enough to amortise the Python-side
#: stamping, small enough that the (N, dim, dim) tensors of the paper's
#: circuits stay comfortably in cache.
DEFAULT_BATCH_SIZE = 64

#: Smallest structure group worth a tensor solve; smaller groups run
#: ``run_unit``.  Tensor-path CPU time over ``run_unit`` for healthy
#: micamp Table-1 groups (2-CPU host, 1 BLAS thread, median of 12
#: paired runs, byte-equal records): 1 unit 1.40x, 2 units 0.84x,
#: 3 units 0.66x, 4 units 0.59x, 12 units 0.48x.  The threshold sits
#: above 3 because the robust optimizer's 3-unit groups are a different
#: input: many DE candidates fail lockstep Newton and re-run the serial
#: ladder from scratch, which made those groups 1.22x slower on the
#: tensor path (median of 12 paired searches).
MIN_BATCH_UNITS = 4


class _GroupRun:
    """Shared state for one batched group during measurement."""

    def __init__(self, spec: CampaignSpec, units: list[WorkUnit], builts: list,
                 techs: list, pattern, bs: BatchedSystem, converged: np.ndarray,
                 x: np.ndarray, iterations: np.ndarray) -> None:
        self.spec = spec
        self.units = units
        self.builts = builts
        self.techs = techs
        self.pattern = pattern
        self.bs = bs
        self.converged = converged
        self.x = x
        self.iterations = iterations
        self.n_units = len(units)
        self._ctx: BatchedSmallSignalContext | None = None
        self._rts: dict[int, UnitRuntime] = {}

    def ctx(self) -> BatchedSmallSignalContext:
        if self._ctx is None:
            n = self.pattern.size
            g = np.ascontiguousarray(self.bs.linearize(self.x)[:, :n, :n])
            c = np.ascontiguousarray(self.bs.c_t[:, :n, :n])
            self._ctx = BatchedSmallSignalContext(g, c)
        return self._ctx

    def rt(self, u: int) -> UnitRuntime:
        """Serial per-unit runtime around the batch's (bit-identical) DC
        solution — the escape hatch for non-batched measurements."""
        rt = self._rts.get(u)
        if rt is None:
            system = self.builts[u].circuit.compile(temp_c=self.units[u].temp_c)
            op = OperatingPoint(system, self.x[u].copy(),
                                int(self.iterations[u]), "newton")
            rt = UnitRuntime(spec=self.spec, unit=self.units[u],
                             tech=self.techs[u], built=self.builts[u], op=op)
            self._rts[u] = rt
        return rt

    # ---- serial-faithful scalar reads -------------------------------
    def v(self, u: int, node: str) -> float:
        if is_ground(node):
            return 0.0
        return float(self.x[u, self.pattern.node(node)])

    def vdiff(self, u: int, node_p: str, node_n: str) -> float:
        return self.v(u, node_p) - self.v(u, node_n)

    def i(self, u: int, element_name: str) -> float:
        return float(self.x[u, self.pattern.branch(element_name)])

    def unit_rhs_ac(self, u: int, overrides: dict) -> np.ndarray:
        """Replay ``MnaSystem.rhs_ac()[:n]`` for unit ``u``.

        ``overrides`` maps source names to ``(ac, phase)`` the way the
        PSRR/CMRR drivers temporarily mutate sources; ``phase=None``
        keeps the source's configured phase (the drivers only zero the
        amplitude in that case).
        """
        p = self.pattern
        b = np.zeros(p.size + 1, dtype=complex)
        for src, j in zip(self.bs._unit_vsources[u], p._vs_branch_idx):
            ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
            if ph is None:
                ph = src.ac_phase
            if ac != 0.0:
                b[j] += ac * np.exp(1j * ph)
        for src, a, c in zip(self.bs._unit_isources[u], p._is_np_idx,
                             p._is_nn_idx):
            ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
            if ph is None:
                ph = src.ac_phase
            if ac != 0.0:
                phasor = ac * np.exp(1j * ph)
                b[a] -= phasor
                b[c] += phasor
        b[p.ground_index] = 0.0
        return b[: p.size]

    def probe_cols(self, fwd: np.ndarray, u: int, out_p: str,
                   out_n: str | None) -> np.ndarray:
        """``SmallSignalContext.probe`` for one unit's solution columns."""
        zero = np.zeros(fwd.shape[2], dtype=complex)
        vp = zero if is_ground(out_p) else fwd[u, self.pattern.node(out_p)]
        if out_n is None or is_ground(out_n):
            return vp
        return vp - fwd[u, self.pattern.node(out_n)]

    def ac_sources_valid(self, u: int, names) -> bool:
        """True when every named element resolves to a VoltageSource;
        invalid units run the serial measurement, which raises the
        reference error."""
        try:
            for name in names:
                if not isinstance(self.builts[u].circuit.element(name),
                                  VoltageSource):
                    return False
        except Exception:
            return False
        return True


# ----------------------------------------------------------------------
# Batched measurement implementations (serial scalar math, verbatim)
# ----------------------------------------------------------------------
_BATCHED: dict = {}


def _batched(name: str):
    def deco(fn):
        _BATCHED[name] = fn
        return fn

    return deco


def _serial_measure(gr: _GroupRun, name: str, u: int, records: list) -> None:
    records[u].update(MEASUREMENTS[name](gr.rt(u)))


@_batched("offset_v")
def _b_offset(gr: _GroupRun, live: list[int], records: list) -> None:
    for u in live:
        built = gr.builts[u]
        records[u]["offset_v"] = gr.vdiff(u, built.out_p, built.out_n)


@_batched("iq_ma")
def _b_iq(gr: _GroupRun, live: list[int], records: list) -> None:
    for u in live:
        records[u]["iq_ma"] = abs(gr.i(u, gr.builts[u].supply_source)) * 1e3


@_batched("vref_mv")
def _b_vref(gr: _GroupRun, live: list[int], records: list) -> None:
    for u in live:
        built = gr.builts[u]
        records[u]["vref_mv"] = gr.vdiff(u, built.out_p, built.out_n) * 1e3


@_batched("bias_current_ua")
def _b_bias_current(gr: _GroupRun, live: list[int], records: list) -> None:
    for u in live:
        built = gr.builts[u]
        node = built.probes.get("iout_node")
        r_load = built.probes.get("r_load")
        if node is None or r_load is None:
            _serial_measure(gr, "bias_current_ua", u, records)
            continue
        records[u]["bias_current_ua"] = gr.v(u, str(node)) / float(r_load) * 1e6


@_batched("area_mm2")
def _b_area(gr: _GroupRun, live: list[int], records: list) -> None:
    from repro.layout.area import estimate_area_mm2

    for u in live:
        records[u]["area_mm2"] = estimate_area_mm2(
            gr.builts[u].circuit, gr.techs[u]
        ).total_mm2


@_batched("gain_1khz_db")
def _b_gain(gr: _GroupRun, live: list[int], records: list) -> None:
    ctx = gr.ctx()
    rhs = np.zeros((gr.n_units, ctx.n, 1), dtype=complex)
    for u in live:
        rhs[u, :, 0] = gr.unit_rhs_ac(u, {})
    fwd, ok = ctx.solve_checked(1e3, rhs)
    for u in live:
        if not ok[u]:
            event("campaign.unit_fallback", "warn",
                  corner=gr.units[u].corner, temp_c=gr.units[u].temp_c,
                  seed=gr.units[u].seed, measurement="gain_1khz_db",
                  reason="batched small-signal residual rejection")
            _serial_measure(gr, "gain_1khz_db", u, records)
            continue
        built = gr.builts[u]
        h = abs(gr.probe_cols(fwd, u, built.out_p, built.out_n)[0])
        gain_db = 20.0 * math.log10(max(h, 1e-30))
        records[u]["gain_1khz_db"] = gain_db
        if built.nominal_gain_db is not None:
            records[u]["gain_error_db"] = gain_db - built.nominal_gain_db


def _b_rejection(gr: _GroupRun, name: str, live: list[int], records: list,
                 column_overrides) -> None:
    """Shared PSRR/CMRR core: two RHS columns per unit, one factorization.

    ``column_overrides(built)`` returns the two override dicts (or None
    to route the unit through the serial measurement, which reproduces
    the reference error or handles the odd configuration).
    """
    ctx = gr.ctx()
    rhs = np.zeros((gr.n_units, ctx.n, 2), dtype=complex)
    solved: list[int] = []
    for u in live:
        overrides = column_overrides(gr, u)
        if overrides is None:
            _serial_measure(gr, name, u, records)
            continue
        rhs[u, :, 0] = gr.unit_rhs_ac(u, overrides[0])
        rhs[u, :, 1] = gr.unit_rhs_ac(u, overrides[1])
        solved.append(u)
    if not solved:
        return
    fwd, ok = ctx.solve_checked(1e3, rhs)
    for u in solved:
        if not ok[u]:
            event("campaign.unit_fallback", "warn",
                  corner=gr.units[u].corner, temp_c=gr.units[u].temp_c,
                  seed=gr.units[u].seed, measurement=name,
                  reason="batched small-signal residual rejection")
            _serial_measure(gr, name, u, records)
            continue
        built = gr.builts[u]
        h = np.abs(gr.probe_cols(fwd, u, built.out_p, built.out_n))
        h_sig, h_dist = float(h[0]), float(h[1])
        ratio = h_sig / max(h_dist, 1e-30)
        records[u][name] = 20.0 * float(np.log10(ratio))


def _psrr_overrides(gr: _GroupRun, u: int):
    built = gr.builts[u]
    ins = tuple(built.input_sources)
    sup = built.supply_source
    if not ins or not gr.ac_sources_valid(u, (*ins, sup)):
        return None
    # Column 0: configured stimulus, supply quiet (amplitude only —
    # measure_psrr leaves the supply's phase untouched).
    col0 = {sup: (0.0, None)}
    # Column 1: unit ripple on the supply, inputs quiet.
    col1 = {name: (0.0, None) for name in ins}
    col1[sup] = (1.0, 0.0)
    return col0, col1


def _cmrr_overrides(gr: _GroupRun, u: int):
    built = gr.builts[u]
    ins = tuple(built.input_sources)
    if len(ins) != 2 or not gr.ac_sources_valid(u, ins):
        return None
    # Column 0: configured (differential) stimulus; column 1: both
    # inputs in phase at unit amplitude.
    return {}, {name: (1.0, 0.0) for name in ins}


@_batched("psrr_1khz_db")
def _b_psrr(gr: _GroupRun, live: list[int], records: list) -> None:
    _b_rejection(gr, "psrr_1khz_db", live, records, _psrr_overrides)


@_batched("cmrr_1khz_db")
def _b_cmrr(gr: _GroupRun, live: list[int], records: list) -> None:
    _b_rejection(gr, "cmrr_1khz_db", live, records, _cmrr_overrides)


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
    converged, x, iterations = newton_batch(bs, bs.initial_guess(), bs.rhs_dc())
    gr = _GroupRun(spec, units, builts, techs, pattern, bs, converged, x,
                   iterations)

    records: list[dict] = [{} for _ in units]
    live = [u for u in range(len(units)) if converged[u]]
    prof_count("campaign.batched_units", len(live))
    prof_count("campaign.fallback_units", len(units) - len(live))

    # Units the lockstep plain-Newton pass could not converge re-enter
    # the full serial strategy ladder from scratch (the serial path would
    # fail its identical plain-Newton stage the same way first).
    fallback_ops: dict[int, OperatingPoint] = {}
    for u in range(len(units)):
        if converged[u]:
            continue
        event("campaign.unit_fallback", "warn", corner=units[u].corner,
              temp_c=units[u].temp_c, seed=units[u].seed,
              gain_code=units[u].gain_code,
              reason="lockstep newton non-convergence; serial strategy ladder")
        op = dc_operating_point(builts[u].circuit, temp_c=units[u].temp_c)
        rt = UnitRuntime(spec=spec, unit=units[u], tech=techs[u],
                         built=builts[u], op=op)
        for name in spec.measurements:
            records[u].update(MEASUREMENTS[name](rt))
        fallback_ops[u] = op

    for name in spec.measurements:
        impl = _BATCHED.get(name)
        if impl is None:
            for u in live:
                _serial_measure(gr, name, u, records)
        else:
            impl(gr, live, records)

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
                emit_unit_health(units[u], fallback_ops[u].health())
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
