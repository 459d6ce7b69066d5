"""Transient analysis: backward Euler on a fixed, uniform grid.

Each step is a DC solve of a *companion system*: the circuit's static
conductance ``G`` plus the integrator's ``C/h`` term
(:meth:`repro.spice.mna.MnaSystem.companion`), driven by the sources at
the step's time plus the history current ``C/h x_prev``.  The t = 0
solve, and every step, run through :func:`repro.spice.dc._newton`, so a
transient step has the DC loop's singular-Jacobian jitter, sparse path,
KCL residual test, events and counters.

In hard clipping the extrapolated start of a step can overshoot; its
solve then stays clamped at the step limit, so it stops after
:data:`PREDICTED_STALL` clamped steps in a row and the step is solved
again from the previous solution, with the full iteration budget.  The
retry never reads the failed iterate, so the bound changes no waveform.

The user-chosen timestep is fixed.  The audio-band experiments (buffer
THD, slew) use coherent sampling, so a deterministic uniform grid is a
feature: the DFT-based measurements in :mod:`repro.spice.waveform`
assume it.
"""

from __future__ import annotations

import numpy as np

from repro.spice.dc import NewtonOptions, OperatingPoint, _newton, dc_operating_point
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit, is_ground

#: Consecutive clamped iterations after which a step's solve from the
#: extrapolated start gives up and the step retries from the previous
#: solution.  1.5x the longest clamped run of a converging predicted
#: start measured: 22 steps, in the power buffer on 1.5 V rails driven
#: with 6 V differential at 8 points per cycle (of 4/6/8 V x 8/20/40
#: points per cycle).  Tier-1 transients run at most 2 and
#: ``repro table2 --quick`` none.  11 of the 12 failing predicted starts
#: of that scan run 46-60 clamped steps; the twelfth, 24, keeps its budget.
PREDICTED_STALL = 33


class TransientResult:
    """Recorded node voltages/branch currents on a uniform time grid."""

    def __init__(self, system: MnaSystem, t: np.ndarray, x: np.ndarray):
        self.system = system
        self.t = t
        self._x = x  # (n_steps, size+1)

    def v(self, node: str) -> np.ndarray:
        if is_ground(node):
            return np.zeros_like(self.t)
        return self._x[:, self.system.node(node)].copy()

    def vdiff(self, node_p: str, node_n: str) -> np.ndarray:
        return self.v(node_p) - self.v(node_n)

    def i(self, element_name: str) -> np.ndarray:
        return self._x[:, self.system.branch(element_name)].copy()

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0


def transient_analysis(
    circuit: Circuit | MnaSystem,
    t_stop: float,
    dt: float,
    temp_c: float = 25.0,
    op0: OperatingPoint | None = None,
    options: NewtonOptions | None = None,
) -> TransientResult:
    """Integrate the circuit from its DC state at t=0 to ``t_stop``.

    Backward Euler on purpose: the paper's circuits are stiff (Miller
    loops, MOS switches) and trapezoidal integration rings on them,
    while BE at the coherent-sampling rates used by the distortion
    benches is fully converged (checked by doubling the rate).  The
    initial condition is the DC operating point with sources at their
    t=0 transient values, matching SPICE's UIC-less behaviour.  A step
    whose Newton solve fails raises ``RuntimeError``.
    """
    if isinstance(circuit, Circuit):
        system = circuit.compile(temp_c=temp_c)
    else:
        system = circuit
    opts = options or NewtonOptions(vntol=1e-8, max_iterations=60)
    if dt <= 0.0 or t_stop <= 0.0:
        raise ValueError("dt and t_stop must be positive")

    def failed(t: float) -> RuntimeError:
        return RuntimeError(
            f"transient Newton failed at t={t:.6g}s "
            f"(circuit {system.circuit.name!r}); reduce dt"
        )

    # Initial condition.  A caller-provided op0 is authoritative: it may
    # encode a state (e.g. precharged capacitors behind now-open switches)
    # that a fresh DC solve of the *current* topology would destroy.
    # Without op0, solve DC with the sources at their t=0 values
    # (SPICE's UIC-less behaviour).
    if op0 is not None:
        x0 = op0.x.copy()
    else:
        op0 = dc_operating_point(system)
        ok, x0, _ = _newton(system, op0.x, system.rhs_transient(0.0), 0.0, opts)
        if not ok:
            raise failed(0.0)

    n_steps = int(round(t_stop / dt)) + 1
    t = np.arange(n_steps) * dt
    xs = np.zeros((n_steps, system.size + 1))
    xs[0] = x0

    c_over_h = system.c_static / dt
    companion = system.companion(c_over_h)
    x_prev = x0
    xdot_prev = np.zeros(system.size + 1)
    for k in range(1, n_steps):
        rhs = system.rhs_transient(t[k]) + c_over_h @ x_prev
        # Predict with explicit extrapolation for a warm Newton start;
        # in hard clipping the prediction can overshoot, so retry from
        # the previous solution.
        ok, x_new, _ = _newton(companion, x_prev + xdot_prev * dt, rhs, 0.0, opts,
                               stall=PREDICTED_STALL)
        if not ok:
            ok, x_new, _ = _newton(companion, x_prev, rhs, 0.0, opts)
        if not ok:
            raise failed(t[k])
        xdot_prev = (x_new - x_prev) / dt
        x_prev = x_new
        xs[k] = x_new

    return TransientResult(system, t, xs)
