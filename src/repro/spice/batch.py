"""Tensor-batched MNA execution across same-topology circuits.

A campaign slice shares one topology: mismatch seeds and gain codes
perturb *values* (device parameters, resistances, switch states) but not
the element list or its node wiring, and the temperature axis reuses the
same built circuit outright.  This module exploits that by stamping N
sibling circuits into one ``(N, dim, dim)`` G/C tensor and running a
single lockstep Newton iteration across all of them, so the per-unit
LAPACK calls of the serial path collapse into batched gufunc calls.

Bitwise contract — the whole point of the batched path is that its
records are *byte-identical* to the per-unit oracle
:func:`~repro.campaign.runner.run_chunk`, and it gets there by running
the serial code with a leading unit axis, not a copy of it:

* compiling *is* replaying: :class:`~repro.spice.mna.MnaSystem` builds
  its static matrices by replaying the stamp plan of its cached
  :class:`~repro.spice.mna.CircuitStructure` with
  :func:`~repro.spice.mna.linear_stamp_values` through ``np.add.at``
  (:func:`~repro.spice.mna.scatter_add`), and this module replays each
  unit's values through the pattern's structure with the same call, so
  each unit slice is that unit's compile; the unit-0 slice is still
  checked ``array_equal`` against the genuinely compiled pattern;
* work the units share is done once: each distinct circuit object (the
  temperature axis repeats one) is walked once for its linear values and
  source levels, and only the resistor law runs per unit, over the unit
  axis in ``Resistor.value_at``'s operation order;
* device groups come from the serial constructors, fed per-unit device
  lists and temperatures (:mod:`repro.spice.devices.params`): the
  temperature laws (``vth_at``/``kp_at``/``is_at``/``UT^2``) stay the
  *same Python scalar calls*, one per distinct (model object,
  temperature) pair, because ``array ** float`` and vectorised ``exp``
  are not bit-identical to their scalar forms, and the elementwise model
  math is shape-agnostic;
* device stamps and the Newton assembly are
  :class:`~repro.spice.mna.StampedSystem`'s, and the right-hand sides
  and start vectors are the serial functions
  (:func:`~repro.spice.mna.dc_rhs`, :func:`~repro.spice.dc.start_vector`)
  run with a leading axis over the distinct circuits;
* :func:`newton_batch` replays the plain stage of
  :func:`repro.spice.dc.dc_operating_point` in lockstep: identical
  solve/jitter/fallback ladder, identical clamp, identical convergence
  test, identical stall rule.  It assembles and solves only the live
  units, from a view (:meth:`BatchedSystem.take`) taken whenever a unit
  converges or fails; each unit's rows are the ones a full-group
  assembly gives.  A unit that the plain-Newton pass cannot converge is
  handed back, with its failure record, for the serial gmin ladder.

Units whose structure does not match the group raise
:class:`BatchStructureError`; the campaign layer falls back to the
serial per-unit path for the whole group, so a structural surprise can
never change results — only speed.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.obs.recorder import active, event, prof_count
from repro.spice.dc import NewtonOptions, start_vector
from repro.spice.mna import (
    MnaSystem,
    StampedSystem,
    ac_rhs,
    circuit_signature,
    dc_rhs,
    linear_stamp_values,
    resistor_law,
    scatter_add,
)
from repro.spice.netlist import Circuit

class BatchStructureError(RuntimeError):
    """The circuits of a batch do not share one MNA structure."""


def _take_units(group, units: np.ndarray):
    """A stacked device group restricted to ``units``: every 2-D array
    attribute is a per-unit parameter row (the 1-D ones are the shared
    node indices), so slicing those rows is the whole restriction."""
    if group is None:
        return None
    view = copy.copy(group)
    for name, value in vars(group).items():
        if isinstance(value, np.ndarray) and value.ndim == 2:
            setattr(view, name, value[units])
    return view


# ----------------------------------------------------------------------
# Batched system
# ----------------------------------------------------------------------
class BatchedSystem(StampedSystem):
    """N same-topology circuits stamped into one ``(N, dim, dim)`` tensor.

    ``pattern`` is a genuinely compiled :class:`MnaSystem` of unit 0 —
    it supplies the cached :class:`~repro.spice.mna.CircuitStructure`
    (node numbering, stamp plan, member positions, stamp indices) and
    the ground-truth matrices the replayed unit-0 slice is verified
    against.  Stamping, device groups, assembly and the right-hand sides
    are the serial code run with a leading unit axis
    (:class:`~repro.spice.mna.StampedSystem`,
    :func:`~repro.spice.mna.dc_rhs`, :func:`~repro.spice.dc.start_vector`);
    what this class adds is the unit axis itself, the :meth:`take` views
    and the lockstep Newton (:func:`newton_batch`).  Work the units share
    is done once: each distinct circuit object (units on the temperature
    axis share one) is walked once for its values and source levels.
    """

    def __init__(self, pattern: MnaSystem, circuits: list[Circuit],
                 temps: list[float], check_structure: bool = True) -> None:
        if len(circuits) != len(temps) or not circuits:
            raise ValueError("need one circuit and one temperature per unit")
        self.pattern = pattern
        self.circuits = circuits
        self.temps = [float(t) for t in temps]
        self.n_units = n_units = len(circuits)
        st = self.structure = pattern.structure
        self.size = pattern.size
        self.num_nodes = pattern.num_nodes
        self.ground_index = pattern.ground_index
        self.dim = dim = pattern.size + 1

        if check_structure:
            # Callers that already grouped by signature (the batched
            # campaign runner) skip this O(units x elements) re-walk.
            for u, circ in enumerate(circuits):
                if circuit_signature(circ) != st.signature:
                    raise BatchStructureError(
                        f"unit {u} circuit {circ.name!r} does not match the "
                        f"batch topology of {pattern.circuit.name!r}"
                    )

        # ---- one value walk per distinct circuit object ----
        first: dict[int, int] = {}
        distinct: list[Circuit] = []
        for circ in circuits:
            if id(circ) not in first:
                first[id(circ)] = len(distinct)
                distinct.append(circ)
        self._unit_circuit = unit = np.array([first[id(c)] for c in circuits])
        self._distinct = distinct
        self._members = [st.members(circ) for circ in distinct]

        # ---- linear stamps: the compile's replay, one row per unit ----
        # Every slot but the resistors' is temperature-free, so the walk
        # runs once per circuit; the resistor law then runs over the unit
        # axis in value_at's operation order, and 1/r as the walk does.
        plan = st.plan
        g_rows, c_rows = [], []
        for k, circ in enumerate(distinct):
            g_vals, c_vals = linear_stamp_values(circ, 25.0)
            if not st.counts_match(g_vals, c_vals):
                u = int(np.flatnonzero(unit == k)[0])
                raise BatchStructureError(
                    f"unit {u} circuit {circ.name!r} stamps a different "
                    "entry count than the batch pattern"
                )
            g_rows.append(g_vals)
            c_rows.append(c_vals)
        g_all = np.array(g_rows)[unit]
        c_all = np.array(c_rows)[unit]
        self.res_law = resistor_law([m[5] for m in self._members], self.temps, unit)
        g_res = 1.0 / self.res_law
        slot = st.res_slot
        g_all[:, slot] = g_res
        g_all[:, slot + 1] = -g_res
        g_all[:, slot + 2] = -g_res
        g_all[:, slot + 3] = g_res
        g_t = np.zeros((n_units, dim * dim))
        c_t = np.zeros((n_units, dim * dim))
        scatter_add(g_t, plan.g_idx, g_all)
        scatter_add(c_t, plan.c_idx, c_all)

        # ---- stacked device groups ----
        # Units sharing one circuit share its device lists, so the model
        # rows are read once per circuit (unit_rows).
        mos, bjts, diodes = ([self._members[k][f] for k in unit] for f in (2, 3, 4))
        self.mos_group, self.bjt_group, self.diode_group = \
            st.device_groups(mos, bjts, diodes, self.temps)
        if self.mos_group is not None:
            self._stamp_mos_capacitances(c_t)
        self.g_t = g_t.reshape(n_units, dim, dim)
        self.c_t = c_t.reshape(n_units, dim, dim)

        # The replay machinery is only trusted after its unit-0 slice
        # reproduces a real compile bit for bit (pattern was compiled
        # from circuits[0] at temps[0]).
        if not (np.array_equal(self.g_t[0], pattern.g_static)
                and np.array_equal(self.c_t[0], pattern.c_static)):
            raise BatchStructureError(
                f"replayed stamps for {circuits[0].name!r} do not reproduce "
                "the compiled pattern matrices"
            )

        self._prepare_device_stamps((n_units,))
        prof_count("batch.systems_built")
        prof_count("batch.units_stamped", n_units)

    def take(self, units: np.ndarray) -> BatchedSystem:
        """An assembly view of the units ``units`` (ascending indices).

        The view shares the pattern and slices every per-unit row it
        assembles from: ``g_t`` and each stacked device group's
        parameters.  Its :meth:`assemble` rows are bit-identical to the
        same units' rows of a full assembly; the per-unit source, model
        and ``c_t`` data are not sliced, so use the view for nothing else.
        """
        view = copy.copy(self)
        view.n_units = units.size
        view.g_t = self.g_t[units]
        view.mos_group = _take_units(self.mos_group, units)
        view.bjt_group = _take_units(self.bjt_group, units)
        view.diode_group = _take_units(self.diode_group, units)
        view._prepare_device_stamps((units.size,))
        return view

    def probe_rhs(self, probes: dict) -> np.ndarray:
        """``(N, n, k)`` RHS columns of each unit's small-signal probe
        (``probes`` maps unit indices to
        :class:`~repro.analysis.psrr.Probe` objects with ``k`` columns),
        stamped through the pattern.  Units that share a circuit and an
        equal probe (the temperature axis) share one stamping; the rows
        of units not in ``probes`` stay zero."""
        k = len(next(iter(probes.values())).columns)
        rhs = np.zeros((self.n_units, self.size, k), dtype=complex)
        stamped: dict[int, tuple] = {}
        for u, probe in probes.items():
            circuit = self._unit_circuit[u]
            earlier = stamped.get(circuit)
            if earlier is not None and earlier[0] == probe:
                rhs[u] = rhs[earlier[1]]
            else:
                vsources, isources = self._members[circuit][:2]
                rhs[u] = probe.rhs(self.pattern, vsources, isources)
                stamped[circuit] = (probe, u)
        return rhs

    def _levels(self, family: int) -> np.ndarray:
        """The DC levels of one source family (0: voltage, 1: current
        sources), one row per distinct circuit."""
        return np.array([[src.dc for src in m[family]] for m in self._members],
                        dtype=float)

    def rhs_dc(self) -> np.ndarray:
        """Per-unit :meth:`MnaSystem.rhs_dc`, stacked ``(N, dim)``."""
        return dc_rhs(self, self._levels(0), self._levels(1))[self._unit_circuit]

    def rhs_ac(self) -> np.ndarray:
        """Per-unit :meth:`MnaSystem.rhs_ac`, stacked ``(N, dim)``."""
        return np.stack([ac_rhs(self, m[0], m[1], {})
                         for m in self._members])[self._unit_circuit]

    def _noise_values(self) -> tuple:
        return self.temps, self._distinct, self._unit_circuit, self.res_law

    def initial_guess(self) -> np.ndarray:
        """Per-unit Newton start vectors, stacked ``(N, dim)``."""
        return start_vector(self.pattern, self._levels(0),
                            [c.nodesets for c in self._distinct])[self._unit_circuit]

    def _static_part(self, x: np.ndarray,
                     rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.g_t.copy(), (self.g_t @ x[:, :, None])[:, :, 0] - rhs

    def linearize(self, x: np.ndarray) -> np.ndarray:
        """Batched small-signal conductance tensors at solutions ``x``
        (their device evaluations kept for :meth:`noise_sources`)."""
        jac, _, evals = self.assemble(x, np.zeros((self.n_units, self.dim)))
        self._linear_point = (x.tobytes(), evals)
        return jac


# ----------------------------------------------------------------------
# Lockstep Newton
# ----------------------------------------------------------------------
def newton_batch(
    system: BatchedSystem,
    x0: np.ndarray,
    rhs: np.ndarray,
    options: NewtonOptions | None = None,
    diags: list[dict] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep replay of the plain-Newton stage of
    :func:`repro.spice.dc.dc_operating_point` (``_newton`` at gmin=0
    with ``options.stall_iterations``).  Each iteration assembles and
    solves only the live units, from a :meth:`BatchedSystem.take` view
    rebuilt whenever a unit converges or fails.

    Returns ``(converged, x, iterations)`` over the unit axis.  A unit
    follows the serial iterate exactly until it either converges (same
    iteration count, bit-identical ``x``) or fails the same way the
    serial loop would (singular even after the 1e-12 jitter, non-finite
    update, ``stall_iterations`` clamped steps in a row, or iteration
    budget).  Failed units keep their serial-faithful ``x`` frozen and
    are meant to enter the serial ladder at gmin stepping
    (:class:`repro.spice.dc.PlainFailure`).  The stall rule stops a
    hard start after 10 of its up to 150 iterations, so the group's
    other units run on without it; a converging unit it stops as well
    gets the ladder's operating point, the one its serial solve gets.

    ``diags``, when given, holds one dict per unit; each receives the
    forensics the serial ``_newton`` records in its ``diag``: ``resid``
    and, for a failed unit, ``reason`` and ``clamped_streak``.
    """
    opts = options or NewtonOptions()
    n = system.size
    nv = system.num_nodes
    n_units = system.n_units
    x = x0.copy()
    x[:, system.ground_index] = 0.0

    converged = np.zeros(n_units, dtype=bool)
    iterations = np.zeros(n_units, dtype=np.int64)
    streak = np.zeros(n_units, dtype=np.int64)
    last_resid = np.full(n_units, np.nan)
    reason = np.full(n_units, None, dtype=object)

    li = np.arange(n_units)                     # the live units
    view, rhs_v = system, rhs
    for iteration in range(1, opts.max_iterations + 1):
        if not li.size:
            break
        xv = x[li]
        jac, resid, _ = view.assemble(xv, rhs_v)
        a = jac[:, :n, :n]
        r = resid[:, :n]
        iterations[li] = iteration
        prof_count("batch.newton_iterations")
        prof_count("batch.assembled_units", int(li.size))

        solve_failed = np.zeros(li.size, dtype=bool)
        try:
            dx = np.linalg.solve(a, -r[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One unit's singular matrix poisons the whole gufunc call;
            # redo the live units with the serial solve + jitter ladder.
            dx = np.zeros((li.size, n))
            for k in range(li.size):
                try:
                    dx[k] = np.linalg.solve(a[k], -r[k])
                except np.linalg.LinAlgError:
                    ak = a[k] + np.eye(n) * 1e-12
                    try:
                        dx[k] = np.linalg.solve(ak, -r[k])
                    except np.linalg.LinAlgError:
                        solve_failed[k] = True

        nonfinite = ~np.isfinite(dx).all(axis=1)
        upd = ~solve_failed & ~nonfinite

        dx_nodes = np.clip(dx[:, :nv], -opts.vlimit, opts.vlimit)
        limited = (dx_nodes != dx[:, :nv]).any(axis=1)
        xv[upd, :nv] += dx_nodes[upd]
        xv[upd, nv:n] += dx[upd, nv:n]
        x[li] = xv

        max_dv = np.abs(dx_nodes).max(axis=1) if nv else np.zeros(li.size)
        max_resid = np.abs(r[:, :nv]).max(axis=1) if nv else np.zeros(li.size)
        last_resid[li[upd]] = max_resid[upd]
        current_scale = (np.abs(xv[:, nv:n]).max(axis=1) if n > nv
                         else np.zeros(li.size))
        itol = opts.abstol + opts.reltol * np.maximum(current_scale, 1e-6)
        conv = upd & ~limited & (max_dv < opts.vntol) & (max_resid < itol * 100)
        st = np.where(limited, streak[li] + 1, 0)
        streak[li[upd]] = st[upd]
        stalled = upd & ~conv & (st >= opts.stall_iterations)
        reason[li[solve_failed]] = "singular"
        reason[li[nonfinite]] = "nonfinite"
        reason[li[stalled]] = "stalled"
        converged[li] = conv
        done = conv | solve_failed | nonfinite | stalled
        if done.any():
            li = li[~done]
            view, rhs_v = system.take(li), rhs[li]

    reason[li] = "budget"
    if diags is not None:
        for u, d in enumerate(diags):
            if not np.isnan(last_resid[u]):
                d["resid"] = float(last_resid[u])
            if reason[u] is not None:
                d["reason"] = reason[u]
                if reason[u] == "stalled":
                    d["clamped_streak"] = int(streak[u])
    if active() is not None:
        n_bad = int((~converged).sum())
        if n_bad:
            event("batch.newton_nonconverged", "warn",
                  circuit=system.pattern.circuit.name, n_units=int(n_units),
                  n_nonconverged=n_bad,
                  max_iterations=int(iterations.max()) if n_units else 0)
    return converged, x, iterations
