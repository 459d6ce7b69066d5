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
:func:`~repro.campaign.runner.run_chunk`, so every step here replays the
serial op sequence exactly rather than approximating it:

* static stamps replay :func:`repro.spice.mna.linear_stamp_values`
  through the pattern system's :meth:`~repro.spice.mna.MnaSystem.
  stamp_plan` COO indices with ``np.add.at`` (sequential accumulation,
  same order as the serial ``+=`` chain), and the replayed unit-0 slice
  is checked ``array_equal`` against a genuinely compiled pattern;
* device groups are stacked along a leading unit axis; elementwise model
  math is shape-agnostic (see the device modules), while
  transcendental-bearing temperature laws (``vth_at``/``kp_at``/
  ``is_at``/``UT^2``) are evaluated per unit with the *same Python
  scalar calls* the serial compile makes — ``array ** float`` and
  vectorised ``exp`` are not bit-identical to their scalar forms;
* :func:`newton_batch` replays :func:`repro.spice.dc._newton` in
  lockstep with per-unit masks: identical solve/jitter/fallback ladder,
  identical clamp, identical convergence test, and a unit that the
  plain-Newton pass cannot converge is handed back for the serial
  strategy ladder untouched.

Units whose structure does not match the group raise
:class:`BatchStructureError`; the campaign layer falls back to the
serial per-unit path for the whole group, so a structural surprise can
never change results — only speed.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_voltage
from repro.obs.recorder import active, event, prof_count
from repro.spice.devices.bjt import BjtGroup
from repro.spice.devices.diode import DiodeGroup
from repro.spice.devices.mosfet import MosGroup
from repro.spice.dc import NewtonOptions
from repro.spice.elements import (
    Bjt,
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.mna import MnaSystem, linear_stamp_values
from repro.spice.netlist import Circuit, is_ground


class BatchStructureError(RuntimeError):
    """The circuits of a batch do not share one MNA structure."""


def circuit_signature(circuit: Circuit) -> tuple:
    """Structural fingerprint: element types, names and node wiring.

    Two circuits with equal signatures compile to :class:`MnaSystem`\\ s
    with identical node numbering, branch allocation, stamp-index arrays
    and device-group layout — everything the batch replay shares across
    units.  Values (resistances, model parameters, source levels) are
    deliberately excluded: they are what a batch varies.
    """
    sig = []
    for el in circuit:
        if isinstance(el, (Resistor, Switch, Capacitor, Inductor)):
            nodes: tuple = (el.n1, el.n2)
        elif isinstance(el, (VoltageSource, CurrentSource)):
            nodes = (el.np, el.nn)
        elif isinstance(el, (Vcvs, Vccs)):
            nodes = (el.np, el.nn, el.ncp, el.ncn)
        elif isinstance(el, (Ccvs, Cccs)):
            nodes = (el.np, el.nn, el.control)
        elif isinstance(el, Mosfet):
            nodes = (el.d, el.g, el.s, el.b)
        elif isinstance(el, Bjt):
            nodes = (el.c, el.b, el.e)
        elif isinstance(el, Diode):
            nodes = (el.np, el.nn)
        else:
            nodes = ()
        sig.append((type(el).__name__, el.name, nodes))
    return tuple(sig)


# ----------------------------------------------------------------------
# Stacked device groups
# ----------------------------------------------------------------------
# Each subclass rebuilds the serial group's parameter arrays with a
# leading unit axis and inherits ``evaluate`` unchanged: the device
# modules index with ``volts[..., idx]`` so a stacked (N, dim) solution
# runs the identical elementwise op sequence per row.  Temperature-
# dependent parameters that involve transcendental functions are
# computed with the same per-model *Python scalar* method calls the
# serial compile makes (``vth_at``/``kp_at``/``is_at``), because their
# vectorised counterparts are not bit-identical.


class _StackedMosGroup(MosGroup):
    def __init__(self, base: MosGroup, unit_mos: list[list[Mosfet]],
                 temps: list[float]) -> None:
        self.names = base.names
        self.d, self.g, self.s, self.b = base.d, base.g, base.s, base.b
        self.w = np.array([[el.w for el in mos] for mos in unit_mos])
        self.l = np.array([[el.l for el in mos] for mos in unit_mos])
        self.m = np.array([[float(el.m) for el in mos] for mos in unit_mos])
        self.models = [[el.model for el in mos] for mos in unit_mos]
        self.temp_c = temps
        self.sign = np.array([[mdl.sign for mdl in mdls] for mdls in self.models])
        self.vth0 = np.array([[mdl.vth_at(t) for mdl in mdls]
                              for mdls, t in zip(self.models, temps)])
        self.kp = np.array([[mdl.kp_at(t) for mdl in mdls]
                            for mdls, t in zip(self.models, temps)])
        self.gamma = np.array([[mdl.gamma for mdl in mdls] for mdls in self.models])
        self.phi = np.array([[mdl.phi for mdl in mdls] for mdls in self.models])
        self.lam = np.array([[mdl.clm for mdl in mdls] for mdls in self.models]) / self.l
        self.n_slope = np.array([[mdl.n_slope for mdl in mdls] for mdls in self.models])
        self.cox = np.array([[mdl.cox for mdl in mdls] for mdls in self.models])
        self.kf = np.array([[mdl.kf for mdl in mdls] for mdls in self.models])
        self.af = np.array([[mdl.af for mdl in mdls] for mdls in self.models])
        self.gmin = np.array([[mdl.gmin for mdl in mdls] for mdls in self.models])
        self.beta = self.kp * (self.w / self.l) * self.m
        ut = [thermal_voltage(t) for t in temps]
        self.ut = np.array(ut)[:, None]
        # Serial squares the Python-float UT (``self.ut**2``); replicate
        # that scalar power per unit before broadcasting.
        self.isat = 2.0 * self.n_slope * self.beta * np.array(
            [u ** 2 for u in ut]
        )[:, None]

    def gate_capacitances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cgso = np.array([[mdl.cgso for mdl in mdls] for mdls in self.models])
        cgdo = np.array([[mdl.cgdo for mdl in mdls] for mdls in self.models])
        cj = np.array([[mdl.cj for mdl in mdls] for mdls in self.models])
        ldiff = np.array([[mdl.ldiff for mdl in mdls] for mdls in self.models])
        cgs = (2.0 / 3.0) * self.w * self.l * self.cox * self.m + cgso * self.w * self.m
        cgd = cgdo * self.w * self.m
        cjun = cj * self.w * ldiff * self.m
        return cgs, cgd, cjun


class _StackedBjtGroup(BjtGroup):
    def __init__(self, base: BjtGroup, unit_bjts: list[list[Bjt]],
                 temps: list[float]) -> None:
        self.names = base.names
        self.c, self.b, self.e = base.c, base.b, base.e
        self.area = np.array([[el.area for el in lst] for lst in unit_bjts])
        self.models = [[el.model for el in lst] for lst in unit_bjts]
        self.temp_c = temps
        self.sign = np.array([[mdl.sign for mdl in mdls] for mdls in self.models])
        self.is_sat = np.array([[mdl.is_at(t) for mdl in mdls]
                                for mdls, t in zip(self.models, temps)]) * self.area
        self.beta_f = np.array([[mdl.beta_f for mdl in mdls] for mdls in self.models])
        self.beta_r = np.array([[mdl.beta_r for mdl in mdls] for mdls in self.models])
        self.vaf = np.array([[mdl.vaf for mdl in mdls] for mdls in self.models])
        self.kf = np.array([[mdl.kf for mdl in mdls] for mdls in self.models])
        self.af = np.array([[mdl.af for mdl in mdls] for mdls in self.models])
        self.gmin = np.array([[mdl.gmin for mdl in mdls] for mdls in self.models])
        self.ut = np.array([thermal_voltage(t) for t in temps])[:, None]


class _StackedDiodeGroup(DiodeGroup):
    def __init__(self, base: DiodeGroup, unit_diodes: list[list[Diode]],
                 temps: list[float]) -> None:
        self.names = base.names
        self.np_idx, self.nn_idx = base.np_idx, base.nn_idx
        self.area = np.array([[el.area for el in lst] for lst in unit_diodes])
        self.models = [[el.model for el in lst] for lst in unit_diodes]
        self.temp_c = temps
        self.is_sat = np.array([[mdl.is_at(t) for mdl in mdls]
                                for mdls, t in zip(self.models, temps)]) * self.area
        self.n_ideality = np.array([[mdl.n_ideality for mdl in mdls]
                                    for mdls in self.models])
        self.kf = np.array([[mdl.kf for mdl in mdls] for mdls in self.models])
        self.af = np.array([[mdl.af for mdl in mdls] for mdls in self.models])
        self.gmin = np.array([[mdl.gmin for mdl in mdls] for mdls in self.models])
        self.ut = np.array([thermal_voltage(t) for t in temps])[:, None]


def _device_lists(circuit: Circuit) -> tuple[list, list, list]:
    mos: list[Mosfet] = []
    bjts: list[Bjt] = []
    diodes: list[Diode] = []
    for el in circuit:
        if isinstance(el, Mosfet):
            mos.append(el)
        elif isinstance(el, Bjt):
            bjts.append(el)
        elif isinstance(el, Diode):
            diodes.append(el)
    return mos, bjts, diodes


# ----------------------------------------------------------------------
# Batched system
# ----------------------------------------------------------------------
class BatchedSystem:
    """N same-topology circuits stamped into one ``(N, dim, dim)`` tensor.

    ``pattern`` is a genuinely compiled :class:`MnaSystem` of unit 0 —
    it supplies the node numbering, stamp plan, device index arrays and
    the ground-truth matrices the replayed unit-0 slice is verified
    against.  ``assemble``/``rhs_dc``/``initial_guess`` mirror the
    serial implementations op for op, with a leading unit axis.
    """

    def __init__(self, pattern: MnaSystem, circuits: list[Circuit],
                 temps: list[float], check_structure: bool = True) -> None:
        if len(circuits) != len(temps) or not circuits:
            raise ValueError("need one circuit and one temperature per unit")
        self.pattern = pattern
        self.circuits = circuits
        self.temps = [float(t) for t in temps]
        self.n_units = n_units = len(circuits)
        self.size = pattern.size
        self.num_nodes = pattern.num_nodes
        self.ground_index = pattern.ground_index
        self.dim = dim = pattern.size + 1

        if check_structure:
            # Callers that already grouped by signature (the batched
            # campaign runner) skip this O(units x elements) re-walk.
            sig0 = circuit_signature(circuits[0])
            for u, circ in enumerate(circuits[1:], start=1):
                if circuit_signature(circ) != sig0:
                    raise BatchStructureError(
                        f"unit {u} circuit {circ.name!r} does not match the "
                        f"batch topology of {circuits[0].name!r}"
                    )

        # ---- linear stamps: COO replay, unit-major sequential order ----
        plan = pattern.stamp_plan()
        g_all: list[list[float]] = []
        c_all: list[list[float]] = []
        for u, circ in enumerate(circuits):
            g_vals, c_vals = linear_stamp_values(circ, self.temps[u])
            if len(g_vals) != plan.g_idx.size or len(c_vals) != plan.c_idx.size:
                raise BatchStructureError(
                    f"unit {u} circuit {circ.name!r} stamps a different "
                    "entry count than the batch pattern"
                )
            g_all.append(g_vals)
            c_all.append(c_vals)
        # One flat accumulation per tensor: C-order flatten is unit-major
        # then stamp-order within the unit, so duplicate slots accumulate
        # in exactly the serial per-unit sequence.
        g_t = np.zeros((n_units, dim * dim))
        c_t = np.zeros((n_units, dim * dim))
        unit_off = (np.arange(n_units) * dim * dim)[:, None]
        if plan.g_idx.size:
            np.add.at(g_t.reshape(-1),
                      (plan.g_idx[None, :] + unit_off).reshape(-1),
                      np.asarray(g_all).reshape(-1))
        if plan.c_idx.size:
            np.add.at(c_t.reshape(-1),
                      (plan.c_idx[None, :] + unit_off).reshape(-1),
                      np.asarray(c_all).reshape(-1))
        self.g_t = g_t.reshape(n_units, dim, dim)
        self.c_t = c_t.reshape(n_units, dim, dim)

        # ---- stacked device groups ----
        # Units sharing one circuit object (the temperature axis) share
        # one element walk.
        _lists_by_id: dict[int, tuple] = {}

        def _lists(circ: Circuit) -> tuple:
            got = _lists_by_id.get(id(circ))
            if got is None:
                got = _lists_by_id[id(circ)] = _device_lists(circ)
            return got

        per_unit = [_lists(circ) for circ in circuits]
        self.mos_group = (
            _StackedMosGroup(pattern.mos_group, [p[0] for p in per_unit], self.temps)
            if pattern.mos_group is not None else None
        )
        self.bjt_group = (
            _StackedBjtGroup(pattern.bjt_group, [p[1] for p in per_unit], self.temps)
            if pattern.bjt_group is not None else None
        )
        self.diode_group = (
            _StackedDiodeGroup(pattern.diode_group, [p[2] for p in per_unit], self.temps)
            if pattern.diode_group is not None else None
        )
        if self.mos_group is not None:
            self._stamp_mos_capacitances()

        # Per-unit source lists in circuit order (rhs_dc / initial
        # guess), one walk per distinct circuit object.
        _src_by_id: dict[int, tuple[list, list]] = {}

        def _sources(circ: Circuit) -> tuple[list, list]:
            got = _src_by_id.get(id(circ))
            if got is None:
                vs = [el for el in circ if isinstance(el, VoltageSource)]
                cs = [el for el in circ if isinstance(el, CurrentSource)]
                got = _src_by_id[id(circ)] = (vs, cs)
            return got

        unit_sources = [_sources(circ) for circ in circuits]
        self._unit_vsources = [s[0] for s in unit_sources]
        self._unit_isources = [s[1] for s in unit_sources]

        # The replay machinery is only trusted after its unit-0 slice
        # reproduces a real compile bit for bit (pattern was compiled
        # from circuits[0] at temps[0]).
        if not (np.array_equal(self.g_t[0], pattern.g_static)
                and np.array_equal(self.c_t[0], pattern.c_static)):
            raise BatchStructureError(
                f"replayed stamps for {circuits[0].name!r} do not reproduce "
                "the compiled pattern matrices"
            )

        # Flat per-unit offsets for the batched np.add.at device stamps.
        self._resid_off = (np.arange(n_units) * dim)[:, None]
        self._jac_off = np.arange(n_units) * dim * dim
        prof_count("batch.systems_built")
        prof_count("batch.units_stamped", n_units)

    def _stamp_mos_capacitances(self) -> None:
        # Mirrors MnaSystem._stamp_mos_capacitances: same k-major pair
        # order, vectorised over units (each statement is one unit-wise
        # column, so the per-unit accumulation sequence is unchanged).
        grp = self.mos_group
        base = self.pattern.mos_group
        cgs, cgd, cjun = grp.gate_capacitances()      # each (N, n_dev)
        dim = self.dim
        c_flat = self.c_t.reshape(self.n_units, dim * dim)
        for k in range(len(base)):
            pairs = (
                (base.g[k], base.s[k], cgs[:, k]),
                (base.g[k], base.d[k], cgd[:, k]),
                (base.d[k], base.b[k], cjun[:, k]),
                (base.s[k], base.b[k], cjun[:, k]),
            )
            for a, b, c in pairs:
                c_flat[:, a * dim + a] += c
                c_flat[:, a * dim + b] -= c
                c_flat[:, b * dim + a] -= c
                c_flat[:, b * dim + b] += c

    # ------------------------------------------------------------------
    # Right-hand sides and initial guess (per-unit serial replicas)
    # ------------------------------------------------------------------
    def rhs_dc(self) -> np.ndarray:
        p = self.pattern
        b = np.zeros((self.n_units, self.dim))
        for u in range(self.n_units):
            vsources = self._unit_vsources[u]
            isources = self._unit_isources[u]
            if vsources:
                b[u][p._vs_branch_idx] = 1.0 * np.array(
                    tuple(src.dc for src in vsources)
                )
            if isources:
                vals = 1.0 * np.array(tuple(src.dc for src in isources))
                np.subtract.at(b[u], p._is_np_idx, vals)
                np.add.at(b[u], p._is_nn_idx, vals)
            b[u][p.ground_index] = 0.0
        return b

    def initial_guess(self) -> np.ndarray:
        p = self.pattern
        x = np.zeros((self.n_units, self.dim))
        for u, circ in enumerate(self.circuits):
            for src in self._unit_vsources[u]:
                if is_ground(src.nn) and not is_ground(src.np):
                    x[u, p.node(src.np)] = src.dc
                elif is_ground(src.np) and not is_ground(src.nn):
                    x[u, p.node(src.nn)] = -src.dc
            for node, volts in circ.nodesets.items():
                if not is_ground(node):
                    x[u, p.node(node)] = volts
        return x

    # ------------------------------------------------------------------
    # Nonlinear assembly (batched mirror of MnaSystem.assemble, gmin=0)
    # ------------------------------------------------------------------
    def assemble(self, x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        jac = self.g_t.copy()
        resid = (self.g_t @ x[:, :, None])[:, :, 0] - rhs
        evals: dict = {}

        if self.mos_group is not None:
            ev = self.mos_group.evaluate(x)
            evals["mos"] = ev
            self._stamp_mos(jac, resid, ev)
        if self.bjt_group is not None:
            ev = self.bjt_group.evaluate(x)
            evals["bjt"] = ev
            self._stamp_bjt(jac, resid, ev)
        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x)
            evals["diode"] = ev
            self._stamp_diode(jac, resid, ev)

        gi = self.ground_index
        jac[:, gi, :] = 0.0
        jac[:, :, gi] = 0.0
        resid[:, gi] = 0.0
        return jac, resid, evals

    def _stamp_mos(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        grp = self.mos_group
        p = self.pattern
        sw = ev.swapped                                   # (N, n_dev)
        eff_d = np.where(sw, grp.s, grp.d)
        eff_s = np.where(sw, grp.d, grp.s)
        gm, gds, gmb = ev.gm, ev.gds, ev.gmb
        gss = gm + gds + gmb
        ids_into_eff_drain = grp.sign * ev.ids

        rflat = resid.reshape(-1)
        np.add.at(rflat, (self._resid_off + eff_d).reshape(-1),
                  ids_into_eff_drain.reshape(-1))
        np.add.at(rflat, (self._resid_off + eff_s).reshape(-1),
                  (-ids_into_eff_drain).reshape(-1))

        rows_d = np.where(sw, p._mos_row_s, p._mos_row_d)
        rows_s = np.where(sw, p._mos_row_d, p._mos_row_s)
        # Same (8, n_dev) row order as the serial stamp; the C-order
        # flatten below is unit-major, then row-major within a unit, so
        # duplicate slots accumulate in the serial per-unit sequence.
        idx = np.stack([
            rows_d + eff_d, rows_d + grp.g, rows_d + eff_s, rows_d + grp.b,
            rows_s + eff_d, rows_s + grp.g, rows_s + eff_s, rows_s + grp.b,
        ], axis=1)
        vals = np.stack([
            gds, gm, -gss, gmb,
            -gds, -gm, gss, -gmb,
        ], axis=1)
        idx = idx + self._jac_off[:, None, None]
        np.add.at(jac.reshape(-1), idx.reshape(-1), vals.reshape(-1))

    def _stamp_bjt(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        grp = self.bjt_group
        p = self.pattern
        rflat = resid.reshape(-1)
        np.add.at(rflat, (self._resid_off + grp.c).reshape(-1), ev.ic.reshape(-1))
        np.add.at(rflat, (self._resid_off + grp.b).reshape(-1), ev.ib.reshape(-1))
        np.add.at(rflat, (self._resid_off + grp.e).reshape(-1),
                  (-(ev.ic + ev.ib)).reshape(-1))

        gm, gpi, go, gmu = ev.gm, ev.gpi, ev.go, ev.gmu
        vals = np.concatenate([
            gm - go, go, -gm,
            gpi + gmu, -gmu, -gpi,
            -(gm - go) - (gpi + gmu), -go + gmu, gm + gpi,
        ], axis=1)
        idx = p._bjt_idx[None, :] + self._jac_off[:, None]
        np.add.at(jac.reshape(-1), idx.reshape(-1), vals.reshape(-1))

    def _stamp_diode(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        grp = self.diode_group
        p = self.pattern
        rflat = resid.reshape(-1)
        np.add.at(rflat, (self._resid_off + grp.np_idx).reshape(-1),
                  ev.current.reshape(-1))
        np.add.at(rflat, (self._resid_off + grp.nn_idx).reshape(-1),
                  (-ev.current).reshape(-1))
        vals = np.concatenate([ev.gd, -ev.gd, -ev.gd, ev.gd], axis=1)
        idx = p._diode_idx[None, :] + self._jac_off[:, None]
        np.add.at(jac.reshape(-1), idx.reshape(-1), vals.reshape(-1))

    def linearize(self, x: np.ndarray) -> np.ndarray:
        """Batched small-signal conductance tensors at solutions ``x``."""
        jac, _, _ = self.assemble(x, np.zeros((self.n_units, self.dim)))
        return jac


# ----------------------------------------------------------------------
# Lockstep Newton
# ----------------------------------------------------------------------
def newton_batch(
    system: BatchedSystem,
    x0: np.ndarray,
    rhs: np.ndarray,
    options: NewtonOptions | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked lockstep replay of :func:`repro.spice.dc._newton` (gmin=0).

    Returns ``(converged, x, iterations)`` over the unit axis.  A unit
    follows the serial iterate exactly until it either converges (same
    iteration count, bit-identical ``x``) or fails the same way the
    serial loop would (singular even after the 1e-12 jitter, non-finite
    update, or iteration budget) — failed units keep their serial-
    faithful ``x`` frozen and are meant to re-enter the serial strategy
    ladder from scratch.
    """
    opts = options or NewtonOptions()
    n = system.size
    nv = system.num_nodes
    n_units = system.n_units
    x = x0.copy()
    x[:, system.ground_index] = 0.0

    converged = np.zeros(n_units, dtype=bool)
    failed = np.zeros(n_units, dtype=bool)
    iterations = np.zeros(n_units, dtype=np.int64)

    for iteration in range(1, opts.max_iterations + 1):
        live = ~(converged | failed)
        if not live.any():
            break
        jac, resid, _ = system.assemble(x, rhs)
        a = jac[:, :n, :n]
        r = resid[:, :n]
        iterations[live] = iteration
        prof_count("batch.newton_iterations")
        prof_count("batch.newton_unit_solves", int(live.sum()))

        dx = np.zeros((n_units, n))
        solve_failed = np.zeros(n_units, dtype=bool)
        li = np.flatnonzero(live)
        try:
            if li.size == n_units:
                # Fast path: no fancy-index copies while every unit is
                # live (the common case).  Values are identical — the
                # solve gufunc factors each matrix independently.
                dx = np.linalg.solve(a, -r[:, :, None])[:, :, 0]
            else:
                dx[li] = np.linalg.solve(a[li], -r[li][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One unit's singular matrix poisons the whole gufunc call;
            # redo the live units with the serial solve + jitter ladder.
            for u in li:
                try:
                    dx[u] = np.linalg.solve(a[u], -r[u])
                except np.linalg.LinAlgError:
                    au = a[u] + np.eye(n) * 1e-12
                    try:
                        dx[u] = np.linalg.solve(au, -r[u])
                    except np.linalg.LinAlgError:
                        solve_failed[u] = True

        nonfinite = live & ~np.isfinite(dx).all(axis=1)
        upd = live & ~solve_failed & ~nonfinite

        dx_nodes = np.clip(dx[:, :nv], -opts.vlimit, opts.vlimit)
        limited = (dx_nodes != dx[:, :nv]).any(axis=1)
        x[upd, :nv] += dx_nodes[upd]
        x[upd, nv:n] += dx[upd, nv:n]

        max_dv = np.abs(dx_nodes).max(axis=1) if nv else np.zeros(n_units)
        max_resid = np.abs(r[:, :nv]).max(axis=1) if nv else np.zeros(n_units)
        current_scale = (np.abs(x[:, nv:n]).max(axis=1) if n > nv
                         else np.zeros(n_units))
        itol = opts.abstol + opts.reltol * np.maximum(current_scale, 1e-6)
        converged |= (upd & ~limited & (max_dv < opts.vntol)
                      & (max_resid < itol * 100))
        failed |= solve_failed | nonfinite

    if active() is not None:
        n_bad = int((~converged).sum())
        if n_bad:
            event("batch.newton_nonconverged", "warn",
                  circuit=system.pattern.circuit.name, n_units=int(n_units),
                  n_nonconverged=n_bad,
                  max_iterations=int(iterations.max()) if n_units else 0)
    return converged, x, iterations
