"""DC operating point.

Newton-Raphson with componentwise voltage limiting, falling back to
adaptive gmin stepping.  The paper's circuits (bias, bandgap, mic amp,
buffer, modulator op-amp, mirror cells) all converge by plain Newton at
-20/25/85 degC, with or without their builders' nodesets; from an
all-zero start only the mic amp at -20 degC needs gmin stepping.  The
ladder serves the optimizer's sized designs, about 6 % of whose solves
need it (``tests/spice/test_hard_start.py`` pins three).  A singular
Jacobian (a node with no DC path) gets one retry with a 1e-12 diagonal
jitter.

A hard start shows itself early: every plain-Newton step stays clamped
at the step limit.  The plain stage therefore gives up after
:attr:`NewtonOptions.stall_iterations` (10) consecutive clamped steps
instead of spending its whole iteration budget.  The ladder behind it
(:func:`strategy_ladder`) always restarts from the initial guess, never
from the failed iterate, so a solve the rule diverts lands on the
operating point gmin stepping finds.  The rule does divert some solves
that would have converged: scanning the ``optimize_de`` benchmark
streams (seeds 1-10, 7893 plain stages) found converging runs of up to
138 clamped steps.  At 10 it diverted 108 of 7419 converging solves,
each landing within 2.3e-14 V of its plain-Newton point, and stopped
473 of 474 hard starts; of the limits 6-83 tried, 10 spent the fewest
plain plus ladder iterations (``tests/spice/test_hard_start.py``).

The ladder grows its gmin step after each converged rung and shrinks it
after a failed one, so a typical hard start takes four rungs (1e-3,
1e-5, 1e-9 S, then 0) where a fixed ladder of decades takes eleven.
The tensor path (:func:`repro.spice.batch.newton_batch`) applies the
stall rule per unit and hands a failed unit straight to the ladder.

Systems above :attr:`repro.spice.mna.MnaSystem.sparse_threshold` nodes
(large ingested netlists) take a SuperLU sparse linear step instead of
dense LAPACK, gated per step by the scaled-residual acceptance check and
falling back to the dense path on any doubt; smaller systems never touch
the sparse code and stay bit-identical to the historical behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.obs.recorder import active, event, prof_count
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit, is_ground


#: Adaptive gmin ladder (:func:`strategy_ladder`): the first rung's
#: gmin [S], the first step factor, its bounds, and the gmin below which
#: the next rung is gmin = 0.
GMIN_START = 1e-3
GMIN_FACTOR = 100.0
GMIN_FACTOR_MAX = 1e6
GMIN_FACTOR_MIN = 1.5
GMIN_FLOOR = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when no DC solution could be found."""


@dataclass
class NewtonOptions:
    """Tolerances and limits for the Newton loop."""

    max_iterations: int = 150
    vntol: float = 1e-9          # voltage update tolerance [V]
    reltol: float = 1e-6
    abstol: float = 1e-10        # KCL residual tolerance [A]
    vlimit: float = 0.5          # componentwise per-iteration step clamp [V]
    #: Plain stage only: consecutive clamped iterations after which it
    #: stops and the gmin-stepping ladder takes over.  Failing hard
    #: starts run up to 150; the rare converging solve that runs this
    #: long takes the ladder to the same operating point.
    stall_iterations: int = 10


@dataclass
class MosOpInfo:
    """Operating-point record for one MOSFET."""

    name: str
    ids: float
    vgs: float
    vds: float
    vsb: float
    veff: float
    vdsat: float
    vth: float
    gm: float
    gds: float
    gmb: float
    saturated: bool


class OperatingPoint:
    """A converged DC solution with inspection helpers."""

    def __init__(self, system: MnaSystem, x_ext: np.ndarray, iterations: int, strategy: str,
                 *, worst_resid: float | None = None,
                 latch_reason: str | None = None):
        self.system = system
        self.x = x_ext
        self.iterations = iterations
        self.strategy = strategy
        #: Worst KCL residual at the accepted solution [A] (telemetry).
        self.worst_resid = worst_resid
        #: Why the sparse Newton path latched to dense, if it did.
        self.latch_reason = latch_reason
        self._small_signal = None

    def health(self) -> dict:
        """Solver-health record for this solve — what the campaign
        sidecar aggregates per unit (never serialised into results)."""
        h: dict = {"iterations": self.iterations, "strategy": self.strategy,
                   "worst_resid": self.worst_resid}
        if self.latch_reason:
            h["latch_reason"] = self.latch_reason
        ss = self._small_signal
        if ss is not None:
            latches = ss.latch_reasons()
            if latches:
                h["small_signal_latches"] = latches
        return h

    def small_signal(self):
        """Cached :class:`repro.spice.linsolve.SmallSignalContext`.

        Every small-signal analysis (AC, noise, PSRR/CMRR, transfer
        probes) shares this one linearisation instead of re-calling
        ``system.linearize`` per metric.
        """
        if self._small_signal is None:
            from repro.spice.linsolve import SmallSignalContext

            self._small_signal = SmallSignalContext(self)
        return self._small_signal

    def v(self, node: str) -> float:
        """Node voltage [V]."""
        if is_ground(node):
            return 0.0
        return float(self.x[self.system.node(node)])

    def vdiff(self, node_p: str, node_n: str) -> float:
        """Differential voltage V(node_p) - V(node_n)."""
        return self.v(node_p) - self.v(node_n)

    def i(self, element_name: str) -> float:
        """Branch current of a voltage-source-like element [A]."""
        return float(self.x[self.system.branch(element_name)])

    # ------------------------------------------------------------------
    # Device inspection
    # ------------------------------------------------------------------
    def mos_op(self, name: str) -> MosOpInfo:
        grp = self.system.mos_group
        if grp is None or name not in grp.names:
            raise KeyError(f"no MOSFET named {name!r}")
        ev = grp.evaluate(self.x)
        return _mos_info(name, ev, ev.vdsat, grp.names.index(name))

    def all_mos_op(self) -> dict[str, MosOpInfo]:
        grp = self.system.mos_group
        if grp is None:
            return {}
        ev = grp.evaluate(self.x)
        vdsat = ev.vdsat
        return {name: _mos_info(name, ev, vdsat, k)
                for k, name in enumerate(grp.names)}

    def supply_current(self, source_name: str) -> float:
        """Magnitude of the current delivered by a supply source [A]."""
        return abs(self.i(source_name))

    def saturation_report(self) -> list[str]:
        """Names of MOSFETs operating OUT of saturation (diagnostics)."""
        return [
            name for name, op in self.all_mos_op().items()
            if not op.saturated and abs(op.ids) > 1e-9
        ]


def _mos_info(name: str, ev, vdsat: np.ndarray, k: int) -> MosOpInfo:
    """Device ``k``'s record from one group evaluation ``ev``."""
    return MosOpInfo(
        name=name,
        ids=float(ev.ids[k]),
        vgs=float(ev.vgs[k]),
        vds=float(ev.vds[k]),
        vsb=float(ev.vsb[k]),
        veff=float(ev.veff[k]),
        vdsat=float(vdsat[k]),
        vth=float(ev.vth[k]),
        gm=float(ev.gm[k]),
        gds=float(ev.gds[k]),
        gmb=float(ev.gmb[k]),
        saturated=bool(ev.vds[k] > vdsat[k]),
    )


def _sparse_newton_step(
    system: MnaSystem, x: np.ndarray, rhs: np.ndarray, gmin: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """One ``splu``-backed Newton linearisation, or ``None`` for dense.

    Assembles the reduced Jacobian in CSC form and factorizes it with
    SuperLU.  The step is accepted only if the linear solve passes the
    same scaled-residual gate the spectral AC path uses
    (:data:`repro.spice.linsolve.SPECTRAL_RESIDUAL_TOL`); a singular
    factorization, non-finite step or gate rejection returns ``None``
    and the caller finishes the solve on the dense LAPACK path.
    """
    from scipy.sparse.linalg import splu

    from repro.spice.linsolve import SPECTRAL_RESIDUAL_TOL

    n = system.size
    a, resid, _ = system.assemble_csc(x, rhs, gmin=gmin)
    r = resid[:n]
    try:
        with np.errstate(all="ignore"):
            dx = splu(a).solve(-r)
    except (RuntimeError, ValueError):
        return None
    if not np.all(np.isfinite(dx)):
        return None
    lin_resid = float(np.abs(a @ dx + r).max())
    a_norm = float(np.abs(a).sum(axis=1).max())
    x_norm = float(np.abs(dx).max())
    b_norm = float(np.abs(r).max()) + 1e-300
    if lin_resid > SPECTRAL_RESIDUAL_TOL * (a_norm * x_norm + b_norm):
        return None
    return dx, resid


def _newton(
    system: MnaSystem,
    x0: np.ndarray,
    rhs: np.ndarray,
    gmin: float,
    options: NewtonOptions,
    diag: dict | None = None,
    stall: int | None = None,
) -> tuple[bool, np.ndarray, int]:
    """Damped Newton iteration; returns (converged, x, iterations).

    ``stall``, when given, stops the iteration once that many
    consecutive steps were clamped at ``options.vlimit``.

    ``diag``, when given, is populated with solve forensics: ``resid``
    (last KCL residual norm seen), ``latch`` (why the sparse path
    latched to dense, if it did) and, on failure, ``reason``
    (``"stalled"``, ``"budget"``, ``"singular"`` or ``"nonfinite"``) and
    ``clamped_streak`` — telemetry only, never results.
    """
    n = system.size
    x = x0.copy()
    x[system.ground_index] = 0.0
    use_sparse = bool(getattr(system, "prefer_sparse", False))
    last_resid: float | None = None
    streak = 0

    def done(iteration: int, reason: str | None = None):
        if diag is not None:
            if last_resid is not None:
                diag["resid"] = last_resid
            if reason is not None:
                diag["reason"] = reason
                diag.pop("clamped_streak", None)
                if reason == "stalled":
                    diag["clamped_streak"] = streak
        return reason is None, x, iteration

    for iteration in range(1, options.max_iterations + 1):
        prof_count("dc.newton_iterations")
        step = _sparse_newton_step(system, x, rhs, gmin) if use_sparse else None
        if use_sparse and step is None:
            use_sparse = False  # fall back to dense for the rest of this solve
            reason = (f"sparse step rejected at iteration {iteration} "
                      f"(gmin={gmin:g}); dense for the rest of this solve")
            if diag is not None:
                diag["latch"] = reason
            event("dc.dense_latch", "warn", circuit=system.circuit.name,
                  iteration=iteration, reason=reason)
        if step is not None:
            prof_count("dc.sparse_steps")
            dx, resid = step
        else:
            prof_count("dc.dense_solves")
            jac, resid, _ = system.assemble(x, rhs, gmin=gmin)
            a = jac[:n, :n]
            r = resid[:n]
            try:
                dx = np.linalg.solve(a, -r)
            except np.linalg.LinAlgError:
                event("dc.jacobian_singular", "warn",
                      circuit=system.circuit.name, iteration=iteration,
                      gmin=gmin)
                a = a + np.eye(n) * 1e-12
                try:
                    dx = np.linalg.solve(a, -r)
                except np.linalg.LinAlgError:
                    return done(iteration, "singular")
        if not np.all(np.isfinite(dx)):
            return done(iteration, "nonfinite")

        # Componentwise clamp on node voltages keeps junctions from
        # overshooting; branch currents are left unclamped (linear rows).
        nv = system.num_nodes
        dx_nodes = np.clip(dx[:nv], -options.vlimit, options.vlimit)
        limited = not np.array_equal(dx_nodes, dx[:nv])
        x[:nv] += dx_nodes
        x[nv:n] += dx[nv:n]

        max_dv = float(np.max(np.abs(dx_nodes))) if nv else 0.0
        kcl = resid[:nv]
        max_resid = float(np.max(np.abs(kcl))) if nv else 0.0
        last_resid = max_resid
        current_scale = float(np.max(np.abs(x[nv:n]))) if n > nv else 0.0
        itol = options.abstol + options.reltol * max(current_scale, 1e-6)
        if not limited and max_dv < options.vntol and max_resid < itol * 100:
            return done(iteration)
        streak = streak + 1 if limited else 0
        if stall is not None and streak >= stall:
            return done(iteration, "stalled")

    return done(options.max_iterations, "budget")


def _solver_event(name: str, severity: str, system: MnaSystem,
                  x: np.ndarray, rhs: np.ndarray, diag: dict,
                  **fields) -> None:
    """Emit a solver degradation event with residual + condition
    forensics.  The expensive fields are only computed while the recorder
    is armed — disarmed, this is one ``None`` check."""
    if active() is None:
        return
    event(name, severity, circuit=system.circuit.name,
          resid_norm=diag.get("resid"),
          cond1_est=system.cond1_estimate(x, rhs), **fields)


def start_vector(system: MnaSystem, vs_dc: np.ndarray,
                 nodesets: list[dict[str, float]]) -> np.ndarray:
    """Newton start vectors, one row per row of ``vs_dc`` (the voltage
    sources' DC levels, in circuit order) and per ``nodesets`` dict,
    indexed through ``system``'s structure: zeros, overridden by
    grounded sources and nodesets."""
    st = system.structure
    x = np.zeros((len(vs_dc), st.dim))
    # Nodes tied to ground through a DC voltage source start at the source
    # value; this makes supplies "appear" immediately.  Multiplying by the
    # -1.0 sign is exact negation.
    x[:, st.start_node] = vs_dc[:, st.start_src] * st.start_sign
    for row, sets in zip(x, nodesets):
        for node, volts in sets.items():
            if not is_ground(node):
                row[system.node(node)] = volts
    return x


def _initial_guess(system: MnaSystem) -> np.ndarray:
    """Start vector: zeros, overridden by nodesets and grounded sources."""
    return start_vector(system, np.array([[src.dc for src in system.vsources]],
                                         dtype=float),
                        [system.circuit.nodesets])[0]


class PlainFailure(NamedTuple):
    """A plain-Newton stage that already failed elsewhere (the lockstep
    replay of :func:`repro.spice.batch.newton_batch`): its last iterate,
    its iteration count and its ``_newton`` ``diag`` record."""

    x: np.ndarray
    iterations: int
    diag: dict


def dc_operating_point(
    circuit_or_system: Circuit | MnaSystem,
    temp_c: float = 25.0,
    options: NewtonOptions | None = None,
    x0: np.ndarray | None = None,
    *,
    plain_failure: PlainFailure | None = None,
) -> OperatingPoint:
    """Find the DC operating point, escalating through solver strategies.

    Strategy ladder:

    1. plain Newton from the nodeset-seeded initial guess (or ``x0``),
       stopped early after :attr:`NewtonOptions.stall_iterations`
       consecutive clamped steps;
    2. adaptive gmin stepping (1e-3 S, then steps of 100x up to 1e6x
       down to 0), restarted from that same start.

    Stage 2 is :func:`strategy_ladder`.  ``plain_failure`` skips
    stage 1 for a caller that already ran it and saw it fail; the
    result, iteration count included, is the one a full solve gives.
    """
    if isinstance(circuit_or_system, Circuit):
        system = circuit_or_system.compile(temp_c=temp_c)
    else:
        system = circuit_or_system
    opts = options or NewtonOptions()
    rhs = system.rhs_dc()
    start = x0.copy() if x0 is not None else _initial_guess(system)

    prof_count("dc.operating_points")
    if plain_failure is None:
        diag: dict = {}
        converged, x, iters = _newton(system, start, rhs, gmin=0.0,
                                      options=opts, diag=diag,
                                      stall=opts.stall_iterations)
        if converged:
            prof_count("dc.strategy.newton")
            return OperatingPoint(system, x, iters, strategy="newton",
                                  worst_resid=diag.get("resid"),
                                  latch_reason=diag.get("latch"))
        plain_failure = PlainFailure(x, iters, diag)

    x, iters, diag = plain_failure
    _solver_event("dc.strategy_escalation", "warn", system, x, rhs, diag,
                  from_strategy="newton", to_strategy="gmin-stepping",
                  iterations=iters, **_failure_fields(diag))
    return strategy_ladder(system, start, opts, iterations=iters, diag=diag)


def _failure_fields(diag: dict) -> dict:
    """The ``reason`` (and ``clamped_streak``) of the last failed stage."""
    return {k: diag[k] for k in ("reason", "clamped_streak") if k in diag}


def strategy_ladder(
    system: MnaSystem,
    start: np.ndarray,
    options: NewtonOptions | None = None,
    *,
    iterations: int = 0,
    diag: dict | None = None,
) -> OperatingPoint:
    """Stage 2 of the :func:`dc_operating_point` ladder: adaptive gmin
    stepping from ``start``.

    The first rung solves with :data:`GMIN_START` siemens from every
    node to ground.  Each later rung restarts Newton from the last
    converged solution, with its gmin divided by a step factor.  The
    factor starts at :data:`GMIN_FACTOR` and is squared after each
    converged rung (up to :data:`GMIN_FACTOR_MAX`), so a clean run takes
    four rungs: 1e-3, 1e-5, 1e-9 S, then 0.  A failed rung is retried
    from the last solution with the square root of the step that failed,
    and the factor restarts from there.  Below :data:`GMIN_FLOOR` the
    next rung is gmin = 0, and its solution is the operating point.
    Raises :class:`ConvergenceError` when the first rung fails or the
    step drops below :data:`GMIN_FACTOR_MIN`.

    ``iterations`` (spent by a failed plain stage) is added to the
    returned operating point's count, and ``diag`` carries that stage's
    forensics on.  No rung applies the stall rule.
    """
    opts = options or NewtonOptions()
    diag = {} if diag is None else diag
    rhs = system.rhs_dc()
    x, solved = start.copy(), None
    total_iters = iterations
    gmin, factor = GMIN_START, GMIN_FACTOR
    while True:
        prof_count("dc.gmin_rungs")
        converged, x_next, iters = _newton(system, x, rhs, gmin=gmin,
                                           options=opts, diag=diag)
        total_iters += iters
        if converged:
            x, solved = x_next, gmin
            if gmin == 0.0:
                break
            step, factor = factor, min(factor * factor, GMIN_FACTOR_MAX)
        else:
            if solved is not None:
                step = factor = math.sqrt(step)
            if solved is None or step < GMIN_FACTOR_MIN:
                _solver_event("dc.nonconvergence", "error", system, x, rhs,
                              diag, stage="gmin-stepping", gmin=gmin,
                              iterations=total_iters,
                              **_failure_fields(diag))
                raise ConvergenceError(
                    f"gmin stepping stalled at gmin={gmin:g} S for circuit "
                    f"{system.circuit.name!r}"
                )
        gmin = solved / step
        if gmin < GMIN_FLOOR:
            gmin = 0.0
    prof_count("dc.strategy.gmin-stepping")
    return OperatingPoint(system, x, total_iters, strategy="gmin-stepping",
                          worst_resid=diag.get("resid"),
                          latch_reason=diag.get("latch"))
