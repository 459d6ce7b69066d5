"""Compiled modified-nodal-analysis system.

Compilation maps node names to indices, allocates branch-current unknowns,
stamps the linear elements into static G/C matrices by replaying a COO
plan (:class:`LinearStampPlan`) and groups the nonlinear devices for
vectorised evaluation.  The device stamps and the Newton assembly
(:class:`StampedSystem`) take an optional leading unit axis, so the
tensor-batched systems of :mod:`repro.spice.batch` run this same code.
The "extended matrix" trick keeps stamping branch-free: ground is the
last index of an (n+1)-dim system and the solvers slice it off, so
``np.add.at`` needs no masking.

System convention:  G*x + C*dx/dt + I_nl(x) = b(t),
with x = [node voltages | branch currents].
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.constants import BOLTZMANN, kelvin
from repro.obs.recorder import prof_count
from repro.spice.devices.bjt import BjtGroup
from repro.spice.devices.diode import DiodeGroup
from repro.spice.devices.mosfet import MosGroup
from repro.spice.devices.params import unit_rows
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
from repro.spice.netlist import Circuit, is_ground


@dataclass
class NoiseSource:
    """A single current-noise generator between two nodes.

    ``psd_of`` maps frequency [Hz] to a one-sided PSD [A^2/Hz]; ``device``
    and ``mechanism`` label the contribution for the paper-style noise
    budget breakdown ("T1 thermal", "Ra thermal", "T5 flicker", ...).
    """

    device: str
    mechanism: str
    node_a: int
    node_b: int
    psd_flat: float          # frequency-independent part [A^2/Hz]
    psd_flicker: float = 0.0  # coefficient of 1/f^af part [A^2/Hz * Hz^af]
    af: float = 1.0

    def psd(self, freq: float) -> float:
        if self.psd_flicker == 0.0:
            return self.psd_flat
        return self.psd_flat + self.psd_flicker / freq**self.af


@dataclass
class LinearStampPlan:
    """COO replay plan of one topology's static linear stamps.

    ``g_idx``/``c_idx`` hold one flat extended index (``row*dim + col``)
    per linear stamp entry, in circuit order, and
    :func:`linear_stamp_values` gives a circuit's signed values in the
    same order.  Compiling *is* replaying: :class:`MnaSystem`
    accumulates those values with ``np.add.at`` (:func:`scatter_add`),
    which sums duplicate slots in stamp order, and
    :class:`repro.spice.batch.BatchedSystem` replays N same-topology
    circuits' values through one pattern's plan into an
    ``(N, dim, dim)`` tensor with the same call.  Device (MOS)
    capacitances are not part of the plan; they are stamped after it
    (:meth:`StampedSystem._stamp_mos_capacitances`).
    """

    g_idx: np.ndarray
    c_idx: np.ndarray
    dim: int


def linear_stamp_values(circuit: Circuit, temp_c: float) -> tuple[list[float], list[float]]:
    """Signed linear stamp values of ``circuit`` at ``temp_c``, in the
    order of :meth:`MnaSystem.stamp_plan`.

    Walks the elements in circuit order and emits one value per planned
    entry; an entry that subtracts gets the exactly negated value, so
    the replay is the ``+=``/``-=`` stamp sequence bit for bit.
    """
    g_vals: list[float] = []
    c_vals: list[float] = []
    # Dispatch order puts the device-heavy common types first; the
    # element classes are sibling leaves of Element, so check order
    # cannot change which branch an element takes.
    for el in circuit:
        if isinstance(el, (Mosfet, Bjt, Diode, CurrentSource)):
            pass
        elif isinstance(el, Resistor):
            g = 1.0 / el.value_at(temp_c)
            g_vals += [g, -g, -g, g]
        elif isinstance(el, Capacitor):
            c = el.value
            c_vals += [c, -c, -c, c]
        elif isinstance(el, VoltageSource):
            g_vals += [1.0, -1.0, 1.0, -1.0]
        elif isinstance(el, Switch):
            g = 1.0 / el.resistance
            g_vals += [g, -g, -g, g]
        elif isinstance(el, Inductor):
            g_vals += [1.0, -1.0, 1.0, -1.0]
            c_vals += [-el.value]
        elif isinstance(el, Vcvs):
            g_vals += [1.0, -1.0, 1.0, -1.0, -el.gain, el.gain]
        elif isinstance(el, Ccvs):
            g_vals += [1.0, -1.0, 1.0, -1.0, -el.transresistance]
        elif isinstance(el, Vccs):
            g_vals += [el.gm, -el.gm, -el.gm, el.gm]
        elif isinstance(el, Cccs):
            g_vals += [el.gain, -el.gain]
        else:
            raise TypeError(f"unsupported element type {type(el).__name__}")
    return g_vals, c_vals


class CircuitElements(NamedTuple):
    """A circuit's sources and nonlinear devices, each in circuit order."""

    vsources: list[VoltageSource]
    isources: list[CurrentSource]
    mos: list[Mosfet]
    bjts: list[Bjt]
    diodes: list[Diode]


def circuit_elements(circuit: Circuit) -> CircuitElements:
    """The sources and devices of ``circuit`` (one element walk)."""
    els = CircuitElements([], [], [], [], [])
    for el in circuit:
        if isinstance(el, VoltageSource):
            els.vsources.append(el)
        elif isinstance(el, CurrentSource):
            els.isources.append(el)
        elif isinstance(el, Mosfet):
            els.mos.append(el)
        elif isinstance(el, Bjt):
            els.bjts.append(el)
        elif isinstance(el, Diode):
            els.diodes.append(el)
    return els


def scatter_add(target: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``np.add.at`` of ``vals`` at the flat indices ``idx`` of
    ``target``'s last axis, one system or a unit-stacked batch.

    ``target`` is one system's ``(M,)`` array or a stacked ``(N, M)``
    one; then ``vals`` carries the leading unit axis, and ``idx``
    carries it too or is shared by every unit.  Each unit's entries
    land at its own offset of the flattened tensor and accumulate in
    ``idx`` order, the sequence a serial ``np.add.at`` of that unit
    performs, so a stacked row is the serial result bit for bit.
    """
    if target.ndim == 1:
        if idx.ndim > 1:
            idx, vals = idx.reshape(-1), vals.reshape(-1)
        np.add.at(target, idx, vals)
        return
    n_units, m = target.shape
    off = (np.arange(n_units) * m).reshape((n_units,) + (1,) * (vals.ndim - 1))
    np.add.at(target.reshape(-1), (idx + off).reshape(-1), vals.reshape(-1))


def dc_rhs(system: MnaSystem, vsources: list[VoltageSource],
           isources: list[CurrentSource]) -> np.ndarray:
    """DC excitation vector (extended) of one circuit's sources,
    stamped through ``system``'s source topology."""
    b = np.zeros(system.size + 1)
    if vsources:
        b[system._vs_branch_idx] = np.array([src.dc for src in vsources])
    if isources:
        vals = np.array([src.dc for src in isources])
        np.subtract.at(b, system._is_np_idx, vals)
        np.add.at(b, system._is_nn_idx, vals)
    b[system.ground_index] = 0.0
    return b


def ac_rhs(system: MnaSystem, vsources: list[VoltageSource],
           isources: list[CurrentSource], overrides: dict) -> np.ndarray:
    """Complex AC excitation vector (extended) of one circuit's sources,
    stamped through ``system``'s source topology.

    ``overrides`` maps source names to ``(ac, phase)`` in place of the
    configured stimulus (one dict per PSRR/CMRR probe column, see
    :class:`repro.analysis.psrr.Probe`); ``phase=None`` keeps the
    source's configured phase (a quieted source's amplitude only).
    """
    b = np.zeros(system.size + 1, dtype=complex)
    for src, j in zip(vsources, system._vs_branch_idx):
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ph is None:
            ph = src.ac_phase
        if ac != 0.0:
            b[j] += ac * np.exp(1j * ph)
    for src, a, c in zip(isources, system._is_np_idx, system._is_nn_idx):
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ph is None:
            ph = src.ac_phase
        if ac != 0.0:
            phasor = ac * np.exp(1j * ph)
            b[a] -= phasor
            b[c] += phasor
    b[system.ground_index] = 0.0
    return b


class StampedSystem:
    """Device stamping and Newton assembly, shared by :class:`MnaSystem`
    and :class:`repro.spice.batch.BatchedSystem`.

    Every array may carry a leading unit axis: a serial system assembles
    ``(dim, dim)`` Jacobians from ``(dim,)`` solutions, a batched one
    ``(N, dim, dim)`` from ``(N, dim)``.  Device groups evaluate either
    shape with the same elementwise ops, and :func:`scatter_add` keeps
    each unit's accumulation order, so a batched unit's rows are its
    serial assembly bit for bit.  A subclass sets ``ground_index``, the
    device groups and calls :meth:`_prepare_device_stamps`; it supplies
    :meth:`_static_part`.
    """

    num_nodes: int
    ground_index: int
    mos_group: MosGroup | None
    bjt_group: BjtGroup | None
    diode_group: DiodeGroup | None

    def _static_part(self, x_ext: np.ndarray,
                     rhs_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A fresh copy of the static G and the residual ``G x - b``."""
        raise NotImplementedError

    def _prepare_device_stamps(self, lead: tuple[int, ...] = ()) -> None:
        """Flat COO stamp indices of the device groups, and the MOS
        scratch buffers for ``lead`` units (``()`` for a serial system).

        Jacobian entries are addressed as flat indices into the extended
        (dim x dim) matrix: ``row*dim + col``.  BJT and diode stamp
        positions are fully static, so their 9/4 per-device entries
        collapse into one concatenated index array and a single
        ``np.add.at`` per Newton iteration.  MOS rows depend on the
        source/drain swap, so the row bases ``d*dim``/``s*dim`` are
        cached and the per-iteration work is a ``where`` selection into
        preallocated ``(..., 8, n_mos)`` buffers, written through
        per-row views.
        """
        dim = self.ground_index + 1
        if self.mos_group is not None:
            grp = self.mos_group
            self._mos_row_d = grp.d * dim
            self._mos_row_s = grp.s * dim
            self._mos_idx_buf = np.empty(lead + (8, len(grp)), dtype=np.intp)
            self._mos_val_buf = np.empty(lead + (8, len(grp)))
            self._mos_idx_rows = [self._mos_idx_buf[..., r, :] for r in range(8)]
            self._mos_val_rows = [self._mos_val_buf[..., r, :] for r in range(8)]

        if self.bjt_group is not None:
            grp = self.bjt_group
            c, b, e = grp.c * dim, grp.b * dim, grp.e * dim
            self._bjt_idx = np.concatenate([
                c + grp.b, c + grp.c, c + grp.e,
                b + grp.b, b + grp.c, b + grp.e,
                e + grp.b, e + grp.c, e + grp.e,
            ])

        if self.diode_group is not None:
            grp = self.diode_group
            a, b = grp.np_idx, grp.nn_idx
            self._diode_idx = np.concatenate([
                a * dim + a, a * dim + b, b * dim + a, b * dim + b,
            ])

    def _stamp_mos_capacitances(self, c_flat: np.ndarray) -> None:
        """Add the constant MOS capacitances to the flat dynamic matrix
        ``c_flat`` (``(dim*dim,)`` or ``(N, dim*dim)``), device-major:
        Cgs, Cgd and the drain and source junctions of device 0, then of
        device 1, and so on."""
        grp = self.mos_group
        dim = self.ground_index + 1
        cgs, cgd, cjun = grp.gate_capacitances()
        a = np.stack([grp.g, grp.g, grp.d, grp.s], axis=-1)      # (n, 4)
        b = np.stack([grp.s, grp.d, grp.b, grp.b], axis=-1)
        idx = np.stack([a * dim + a, a * dim + b, b * dim + a, b * dim + b],
                       axis=-1)                                 # (n, 4, 4)
        cap = np.stack([cgs, cgd, cjun, cjun], axis=-1)[..., None]
        # Multiplying by -1.0 is exact negation: the stamp's ``-=``.
        scatter_add(c_flat, idx, cap * np.array([1.0, -1.0, -1.0, 1.0]))

    # ------------------------------------------------------------------
    # Nonlinear assembly
    # ------------------------------------------------------------------
    def assemble(
        self, x_ext: np.ndarray, rhs_ext: np.ndarray, gmin: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Residual and Jacobian at solution ``x_ext``.

        Returns ``(jac, resid, evals)`` where both are extended-dimension
        and ``evals`` carries the device evaluations (reused for OP info
        and noise).  ``gmin`` adds a leak to every node diagonal (gmin
        stepping).
        """
        jac, resid = self._static_part(x_ext, rhs_ext)
        evals: dict = {}

        if gmin > 0.0:
            idx = np.arange(self.num_nodes)
            jac[..., idx, idx] += gmin
            resid[..., idx] += gmin * x_ext[..., idx]

        jac_flat = jac.reshape(jac.shape[:-2] + (-1,))
        if self.mos_group is not None:
            ev = self.mos_group.evaluate(x_ext)
            evals["mos"] = ev
            self._mos_residual(resid, ev)
            scatter_add(jac_flat, *self._mos_jac_entries(ev))

        if self.bjt_group is not None:
            ev = self.bjt_group.evaluate(x_ext)
            evals["bjt"] = ev
            self._bjt_residual(resid, ev)
            scatter_add(jac_flat, self._bjt_idx, self._bjt_jac_vals(ev))

        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x_ext)
            evals["diode"] = ev
            self._diode_residual(resid, ev)
            scatter_add(jac_flat, self._diode_idx, self._diode_jac_vals(ev))

        # Zero the dummy ground row/column so it never feeds back.
        gi = self.ground_index
        jac[..., gi, :] = 0.0
        jac[..., gi] = 0.0
        resid[..., gi] = 0.0
        return jac, resid, evals

    def _mos_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.mos_group
        sw = ev.swapped
        ids_into_eff_drain = grp.sign * ev.ids  # physical current into eff_d
        scatter_add(resid, np.where(sw, grp.s, grp.d), ids_into_eff_drain)
        scatter_add(resid, np.where(sw, grp.d, grp.s), -ids_into_eff_drain)

    def _mos_jac_entries(self, ev) -> tuple[np.ndarray, np.ndarray]:
        """Flat extended Jacobian (index, value) buffers for the MOS group.

        Shared by the dense ``np.add.at`` stamp and the sparse COO
        assembly; the returned ``(..., 8, n_mos)`` buffers are reused
        every iteration.
        """
        grp = self.mos_group
        sw = ev.swapped
        eff_d = np.where(sw, grp.s, grp.d)
        eff_s = np.where(sw, grp.d, grp.s)
        gm, gds, gmb = ev.gm, ev.gds, ev.gmb
        gss = gm + gds + gmb

        # Only the effective row/column selection depends on the per-
        # iteration swap state; the row bases and scratch buffers come
        # precomputed from _prepare_device_stamps.
        rows_d = np.where(sw, self._mos_row_s, self._mos_row_d)
        rows_s = np.where(sw, self._mos_row_d, self._mos_row_s)
        idx, vals = self._mos_idx_rows, self._mos_val_rows
        np.add(rows_d, eff_d, out=idx[0])
        np.add(rows_d, grp.g, out=idx[1])
        np.add(rows_d, eff_s, out=idx[2])
        np.add(rows_d, grp.b, out=idx[3])
        np.add(rows_s, eff_d, out=idx[4])
        np.add(rows_s, grp.g, out=idx[5])
        np.add(rows_s, eff_s, out=idx[6])
        np.add(rows_s, grp.b, out=idx[7])
        vals[0][...] = gds
        vals[1][...] = gm
        np.negative(gss, out=vals[2])
        vals[3][...] = gmb
        np.negative(gds, out=vals[4])
        np.negative(gm, out=vals[5])
        vals[6][...] = gss
        np.negative(gmb, out=vals[7])
        return self._mos_idx_buf, self._mos_val_buf

    def _bjt_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.bjt_group
        scatter_add(resid, grp.c, ev.ic)
        scatter_add(resid, grp.b, ev.ib)
        scatter_add(resid, grp.e, -(ev.ic + ev.ib))

    def _bjt_jac_vals(self, ev) -> np.ndarray:
        gm, gpi, go, gmu = ev.gm, ev.gpi, ev.go, ev.gmu
        return np.concatenate([
            gm - go, go, -gm,
            gpi + gmu, -gmu, -gpi,
            -(gm - go) - (gpi + gmu), -go + gmu, gm + gpi,
        ], axis=-1)

    def _diode_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.diode_group
        scatter_add(resid, grp.np_idx, ev.current)
        scatter_add(resid, grp.nn_idx, -ev.current)

    def _diode_jac_vals(self, ev) -> np.ndarray:
        return np.concatenate([ev.gd, -ev.gd, -ev.gd, ev.gd], axis=-1)


class MnaSystem(StampedSystem):
    """A circuit compiled at a fixed temperature, ready for the solvers."""

    #: Node count at or above which the solvers prefer the sparse
    #: (CSC + ``splu``) assembly and solve paths over dense LAPACK.
    #: A class attribute so tests and benchmarks can repoint it; below
    #: the threshold nothing sparse ever runs, keeping the dense results
    #: bit-identical to the historical behaviour.
    sparse_threshold: int = 500

    def __init__(self, circuit: Circuit, temp_c: float = 25.0) -> None:
        self.circuit = circuit
        self.temp_c = temp_c

        # ---------------- node numbering ----------------
        self.node_names = circuit.nodes()
        self.num_nodes = len(self.node_names)
        branch_elements = [el for el in circuit if el.has_branch_current]
        self.num_branches = len(branch_elements)
        self.size = self.num_nodes + self.num_branches
        self.ground_index = self.size  # dummy slot, sliced off by solvers

        self._node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)
        }
        self._branch_index: dict[str, int] = {
            el.name: self.num_nodes + k for k, el in enumerate(branch_elements)
        }

        # ---------------- static stamps ----------------
        # The plan walk raises TypeError on an unsupported element.
        dim = self.size + 1
        self.plan = self.stamp_plan()
        g_vals, c_vals = linear_stamp_values(circuit, temp_c)
        g = np.zeros(dim * dim)
        c = np.zeros(dim * dim)
        scatter_add(g, self.plan.g_idx, np.asarray(g_vals))
        scatter_add(c, self.plan.c_idx, np.asarray(c_vals))

        els = circuit_elements(circuit)
        self.vsources: list[VoltageSource] = els.vsources
        self.isources: list[CurrentSource] = els.isources
        self.mos_group, self.bjt_group, self.diode_group = \
            self._device_groups(els, temp_c)
        if self.mos_group is not None:
            self._stamp_mos_capacitances(c)
        self.g_static = g.reshape(dim, dim)
        self.c_static = c.reshape(dim, dim)

        # index arrays reused every Newton iteration
        self._prepare_device_stamps()
        self._prepare_source_stamps()
        prof_count("mna.systems_built")

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Extended index for node ``name`` (ground maps to the dummy slot)."""
        if is_ground(name):
            return self.ground_index
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r} in circuit {self.circuit.name!r}") from None

    def branch(self, element_name: str) -> int:
        """Extended index of a branch-current unknown."""
        try:
            return self._branch_index[element_name]
        except KeyError:
            raise KeyError(f"element {element_name!r} has no branch current") from None

    def _control_branch(self, control: str) -> int:
        el = self.circuit.element(control)
        if not isinstance(el, (VoltageSource, Vcvs, Ccvs, Inductor)):
            raise TypeError(
                f"control element {control!r} must carry a branch current "
                f"(voltage source or inductor), got {type(el).__name__}"
            )
        return self._branch_index[control]

    def _device_groups(self, els: CircuitElements | list[CircuitElements],
                       temp_c: float | list[float]) -> tuple:
        """The MOS, BJT and diode groups (``None`` where empty) of this
        topology: of one circuit's elements ``els`` at ``temp_c``, or,
        unit-stacked, of one element walk per unit at per-unit
        temperatures (both lists)."""
        stacked = isinstance(temp_c, list)
        first = els[0] if stacked else els

        def devices(kind: str) -> list:
            return [getattr(e, kind) for e in els] if stacked else getattr(els, kind)

        def values(kind: str, attr: str) -> np.ndarray:
            return np.array(unit_rows(devices(kind), attrgetter(attr), stacked))

        def models(kind: str) -> list:
            return unit_rows(devices(kind), attrgetter("model"), stacked)

        def nodes(devs: list, terminal: str) -> np.ndarray:
            return np.array([self.node(getattr(el, terminal)) for el in devs])

        mos, bjts, diodes = first.mos, first.bjts, first.diodes
        return (
            MosGroup([el.name for el in mos], *(nodes(mos, t) for t in "dgsb"),
                     w=values("mos", "w"), l=values("mos", "l"),
                     m=values("mos", "m").astype(float), models=models("mos"),
                     temp_c=temp_c) if mos else None,
            BjtGroup([el.name for el in bjts], *(nodes(bjts, t) for t in "cbe"),
                     area=values("bjts", "area"), models=models("bjts"),
                     temp_c=temp_c) if bjts else None,
            DiodeGroup([el.name for el in diodes], nodes(diodes, "np"),
                       nodes(diodes, "nn"), area=values("diodes", "area"),
                       models=models("diodes"), temp_c=temp_c)
            if diodes else None,
        )

    def stamp_plan(self) -> LinearStampPlan:
        """Flat COO indices of this topology's linear stamps.

        Walks the circuit and records, per stamp entry into
        ``g_static``/``c_static``, the flat extended index
        ``row*dim + col``, in stamping order.  ``__init__`` replays it
        with this circuit's :func:`linear_stamp_values` (kept as
        :attr:`plan`), and :mod:`repro.spice.batch` with a sibling's of
        the same topology.
        """
        dim = self.size + 1
        g_idx: list[int] = []
        c_idx: list[int] = []

        def conduct(idx: list[int], n1: str, n2: str) -> None:
            a, b = self.node(n1), self.node(n2)
            idx += [a * dim + a, a * dim + b, b * dim + a, b * dim + b]

        def vsource_topology(name: str, np_node: str, nn_node: str) -> int:
            j = self._branch_index[name]
            a, b = self.node(np_node), self.node(nn_node)
            g_idx.extend([a * dim + j, b * dim + j, j * dim + a, j * dim + b])
            return j

        # The common device types first, as in linear_stamp_values.
        for el in self.circuit:
            if isinstance(el, (Mosfet, Bjt, Diode, CurrentSource)):
                pass
            elif isinstance(el, (Resistor, Switch)):
                conduct(g_idx, el.n1, el.n2)
            elif isinstance(el, Capacitor):
                conduct(c_idx, el.n1, el.n2)
            elif isinstance(el, Inductor):
                j = self._branch_index[el.name]
                a, b = self.node(el.n1), self.node(el.n2)
                g_idx += [a * dim + j, b * dim + j, j * dim + a, j * dim + b]
                c_idx += [j * dim + j]
            elif isinstance(el, VoltageSource):
                vsource_topology(el.name, el.np, el.nn)
            elif isinstance(el, Vcvs):
                j = vsource_topology(el.name, el.np, el.nn)
                g_idx += [j * dim + self.node(el.ncp), j * dim + self.node(el.ncn)]
            elif isinstance(el, Ccvs):
                j = vsource_topology(el.name, el.np, el.nn)
                g_idx += [j * dim + self._control_branch(el.control)]
            elif isinstance(el, Vccs):
                a, b = self.node(el.np), self.node(el.nn)
                cp, cn = self.node(el.ncp), self.node(el.ncn)
                g_idx += [a * dim + cp, a * dim + cn, b * dim + cp, b * dim + cn]
            elif isinstance(el, Cccs):
                a, b = self.node(el.np), self.node(el.nn)
                jc = self._control_branch(el.control)
                g_idx += [a * dim + jc, b * dim + jc]
            else:
                raise TypeError(f"unsupported element type {type(el).__name__}")
        return LinearStampPlan(
            g_idx=np.asarray(g_idx, dtype=np.intp),
            c_idx=np.asarray(c_idx, dtype=np.intp),
            dim=dim,
        )

    def _prepare_source_stamps(self) -> None:
        """Source topology and caches of the right-hand sides."""
        self._vs_branch_idx = np.array(
            [self.branch(src.name) for src in self.vsources], dtype=np.intp
        )
        self._is_np_idx = np.array(
            [self.node(src.np) for src in self.isources], dtype=np.intp
        )
        self._is_nn_idx = np.array(
            [self.node(src.nn) for src in self.isources], dtype=np.intp
        )
        self._rhs_dc_key: tuple | None = None
        self._rhs_dc_cache: np.ndarray | None = None
        self._rhs_ac_key: tuple | None = None
        self._rhs_ac_cache: np.ndarray | None = None
        # Static COO triplets of the reduced g_static, built lazily on the
        # first assemble_csc call (dense-only systems never pay for it).
        self._coo_static: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def companion(self, c_over_h: np.ndarray) -> MnaSystem:
        """This system with ``c_over_h`` added to ``g_static``: the
        backward-Euler companion of one transient step size ``h``, which
        :func:`repro.spice.dc._newton` solves like a DC system.

        The view shares the circuit, indices and device groups, but gets
        its own device stamp buffers and an empty sparse-triplet cache
        (the source system's, once filled, holds ``G`` without ``C/h``).
        """
        view = copy.copy(self)
        view.g_static = self.g_static + c_over_h
        view._coo_static = None
        view._prepare_device_stamps()
        return view

    @property
    def prefer_sparse(self) -> bool:
        """True when this system is large enough for the sparse solvers."""
        return self.num_nodes >= self.sparse_threshold

    def cond1_estimate(self, x_ext: np.ndarray, rhs_ext: np.ndarray,
                       gmin: float = 0.0) -> float | None:
        """Cheap 1-norm condition estimate of the reduced Jacobian at
        ``x_ext``.

        The classic Hager/Higham estimator (LAPACK ``gecon`` on an LU
        factorization — O(n^2) beyond the factor), so a non-convergence
        event or ``repro doctor`` can report *the Jacobian was
        ill-conditioned* instead of a bare failure.  Diagnostics only:
        called on cold degradation paths, never on the solve hot path.
        Returns ``None`` when the estimate itself fails.
        """
        try:
            from scipy.linalg import lapack, lu_factor

            n = self.size
            jac, _, _ = self.assemble(x_ext, rhs_ext, gmin=gmin)
            a = np.asarray(jac[:n, :n], dtype=float, order="F")
            anorm = float(np.abs(a).sum(axis=0).max())
            lu, _piv = lu_factor(a, check_finite=False)
            rcond, info = lapack.dgecon(lu, anorm, norm="1")
            if info != 0 or not np.isfinite(rcond):
                return None
            return float("inf") if rcond == 0.0 else float(1.0 / rcond)
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Right-hand sides
    # ------------------------------------------------------------------
    def rhs_dc(self) -> np.ndarray:
        """DC excitation vector (extended); cached, treat as read-only.

        The cache key snapshots every source's DC value, so mutating a
        source (gain switching, sweeps) invalidates automatically on the
        next call.
        """
        key = (
            tuple(src.dc for src in self.vsources),
            tuple(src.dc for src in self.isources),
        )
        if self._rhs_dc_cache is not None and key == self._rhs_dc_key:
            return self._rhs_dc_cache

        b = dc_rhs(self, self.vsources, self.isources)
        b.setflags(write=False)  # callers must copy() before mutating
        self._rhs_dc_key = key
        self._rhs_dc_cache = b
        return b

    def rhs_ac(self) -> np.ndarray:
        """Complex AC excitation vector (extended); cached, treat as read-only.

        Invalidation mirrors :meth:`rhs_dc`: the key snapshots every
        source's ``(ac, ac_phase)`` pair, so a caller that edits a
        source's stimulus sees the new vector.  (The PSRR/CMRR probes do
        not edit sources; they pass overrides to :func:`ac_rhs`.)
        """
        key = (
            tuple((src.ac, src.ac_phase) for src in self.vsources),
            tuple((src.ac, src.ac_phase) for src in self.isources),
        )
        if self._rhs_ac_cache is not None and key == self._rhs_ac_key:
            return self._rhs_ac_cache

        b = ac_rhs(self, self.vsources, self.isources, {})
        b.setflags(write=False)  # callers must copy() before mutating
        self._rhs_ac_key = key
        self._rhs_ac_cache = b
        return b

    def rhs_transient(self, t: float) -> np.ndarray:
        """Time-domain excitation vector at time ``t`` (extended)."""
        b = np.zeros(self.size + 1)
        for src in self.vsources:
            b[self.branch(src.name)] += src.value_at(t)
        for src in self.isources:
            a, c = self.node(src.np), self.node(src.nn)
            value = src.value_at(t)
            b[a] -= value
            b[c] += value
        return b

    # ------------------------------------------------------------------
    # Nonlinear assembly
    # ------------------------------------------------------------------
    def _static_part(self, x_ext: np.ndarray,
                     rhs_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prof_count("mna.assemble")
        return self.g_static.copy(), self.g_static @ x_ext - rhs_ext

    # ------------------------------------------------------------------
    # Sparse assembly
    # ------------------------------------------------------------------
    def assemble_csc(
        self, x_ext: np.ndarray, rhs_ext: np.ndarray, gmin: float = 0.0
    ):
        """Sparse analogue of :meth:`assemble` for large systems.

        Returns ``(a, resid, evals)`` where ``a`` is the *reduced*
        (size x size) Jacobian as a ``scipy.sparse`` CSC matrix (ground
        row/column dropped, which is what the dense path's explicit
        zeroing achieves) and ``resid`` is the extended residual exactly
        as :meth:`assemble` computes it.  Device stamps reuse the same
        (index, value) computations as the dense path; the only
        numerical difference is COO duplicate-summation order, which the
        sparse solvers' scaled-residual acceptance gate bounds.  Callers
        should consult :attr:`prefer_sparse` — below the threshold the
        dense path stays bit-identical to the historical behaviour.
        """
        from scipy import sparse

        n = self.size
        dim = n + 1
        if self._coo_static is None:
            rows, cols = np.nonzero(self.g_static[:n, :n])
            self._coo_static = (
                rows.astype(np.intp),
                cols.astype(np.intp),
                self.g_static[rows, cols].copy(),
            )
        srows, scols, svals = self._coo_static
        rows_parts = [srows]
        cols_parts = [scols]
        vals_parts = [svals]

        resid = self.g_static @ x_ext - rhs_ext
        evals: dict = {}

        if gmin > 0.0:
            idx = np.arange(self.num_nodes, dtype=np.intp)
            rows_parts.append(idx)
            cols_parts.append(idx)
            vals_parts.append(np.full(self.num_nodes, gmin))
            resid[idx] += gmin * x_ext[idx]

        def device(flat_idx: np.ndarray, vals: np.ndarray) -> None:
            r, c = np.divmod(flat_idx, dim)
            keep = (r < n) & (c < n)
            rows_parts.append(r[keep])
            cols_parts.append(c[keep])
            vals_parts.append(vals[keep])

        if self.mos_group is not None:
            ev = self.mos_group.evaluate(x_ext)
            evals["mos"] = ev
            self._mos_residual(resid, ev)
            idx, vals = self._mos_jac_entries(ev)
            device(idx.reshape(-1), vals.reshape(-1))
        if self.bjt_group is not None:
            ev = self.bjt_group.evaluate(x_ext)
            evals["bjt"] = ev
            self._bjt_residual(resid, ev)
            device(self._bjt_idx, self._bjt_jac_vals(ev))
        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x_ext)
            evals["diode"] = ev
            self._diode_residual(resid, ev)
            device(self._diode_idx, self._diode_jac_vals(ev))

        resid[self.ground_index] = 0.0
        a = sparse.coo_matrix(
            (
                np.concatenate(vals_parts),
                (np.concatenate(rows_parts), np.concatenate(cols_parts)),
            ),
            shape=(n, n),
        ).tocsc()
        return a, resid, evals

    # ------------------------------------------------------------------
    # Small-signal linearisation and noise
    # ------------------------------------------------------------------
    def linearize(self, x_ext: np.ndarray) -> np.ndarray:
        """Small-signal conductance matrix at operating point ``x_ext``."""
        jac, _, _ = self.assemble(x_ext, np.zeros(self.size + 1))
        return jac

    def noise_sources(self, x_ext: np.ndarray) -> list[NoiseSource]:
        """Enumerate every noise generator at the operating point."""
        sources: list[NoiseSource] = []
        kt4 = 4.0 * BOLTZMANN * kelvin(self.temp_c)

        for el in self.circuit:
            if isinstance(el, Resistor) and el.noisy:
                sources.append(
                    NoiseSource(
                        device=el.name,
                        mechanism="thermal",
                        node_a=self.node(el.n1),
                        node_b=self.node(el.n2),
                        psd_flat=kt4 / el.value_at(self.temp_c),
                    )
                )
            elif isinstance(el, Switch) and el.noisy and el.closed:
                sources.append(
                    NoiseSource(
                        device=el.name,
                        mechanism="thermal",
                        node_a=self.node(el.n1),
                        node_b=self.node(el.n2),
                        psd_flat=kt4 / el.ron,
                    )
                )

        if self.mos_group is not None:
            grp = self.mos_group
            ev = grp.evaluate(x_ext)
            thermal = grp.thermal_noise_psd(ev)
            flicker_coeff = grp.kf / (grp.cox * grp.w * grp.l * grp.m) * ev.gm**2
            for k, name in enumerate(grp.names):
                sources.append(
                    NoiseSource(
                        device=name,
                        mechanism="thermal",
                        node_a=int(grp.d[k]),
                        node_b=int(grp.s[k]),
                        psd_flat=float(thermal[k]),
                    )
                )
                if flicker_coeff[k] > 0.0:
                    sources.append(
                        NoiseSource(
                            device=name,
                            mechanism="flicker",
                            node_a=int(grp.d[k]),
                            node_b=int(grp.s[k]),
                            psd_flat=0.0,
                            psd_flicker=float(flicker_coeff[k]),
                            af=float(grp.af[k]),
                        )
                    )

        if self.bjt_group is not None:
            grp = self.bjt_group
            ev = grp.evaluate(x_ext)
            sic, sib = grp.shot_noise_psd(ev)
            fl = grp.kf * np.power(np.abs(ev.ib), grp.af)
            for k, name in enumerate(grp.names):
                sources.append(
                    NoiseSource(
                        device=name,
                        mechanism="shot_c",
                        node_a=int(grp.c[k]),
                        node_b=int(grp.e[k]),
                        psd_flat=float(sic[k]),
                    )
                )
                sources.append(
                    NoiseSource(
                        device=name,
                        mechanism="shot_b",
                        node_a=int(grp.b[k]),
                        node_b=int(grp.e[k]),
                        psd_flat=float(sib[k]),
                        psd_flicker=float(fl[k]),
                        af=float(grp.af[k]),
                    )
                )

        if self.diode_group is not None:
            grp = self.diode_group
            ev = grp.evaluate(x_ext)
            shot = grp.shot_noise_psd(ev)
            for k, name in enumerate(grp.names):
                sources.append(
                    NoiseSource(
                        device=name,
                        mechanism="shot",
                        node_a=int(grp.np_idx[k]),
                        node_b=int(grp.nn_idx[k]),
                        psd_flat=float(shot[k]),
                    )
                )
        return sources
