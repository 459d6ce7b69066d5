"""Compiled modified-nodal-analysis system.

Compilation maps node names to indices, allocates branch-current unknowns,
stamps every linear element once into static G/C matrices and groups the
nonlinear devices for vectorised evaluation.  The "extended matrix" trick
keeps stamping branch-free: ground is the last index of an (n+1)-dim
system and the solvers slice it off, so ``np.add.at`` needs no masking.

System convention:  G*x + C*dx/dt + I_nl(x) = b(t),
with x = [node voltages | branch currents].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN, kelvin
from repro.obs.recorder import prof_count
from repro.spice.devices.bjt import BjtGroup
from repro.spice.devices.diode import DiodeGroup
from repro.spice.devices.mosfet import MosGroup
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
    """COO replay plan for one topology's static linear stamps.

    ``g_idx``/``c_idx`` hold one flat extended index (``row*dim + col``)
    per scalar ``+=`` that :class:`MnaSystem.__init__` performs while
    stamping the linear elements, in the exact order it performs them.
    Replaying them with per-circuit values (:func:`linear_stamp_values`)
    via ``np.add.at`` therefore reproduces ``g_static``/``c_static``
    bit for bit — sequential accumulation order included — which is what
    lets :class:`repro.spice.batch.BatchedSystem` stamp N same-topology
    circuits into one ``(N, dim, dim)`` tensor without compiling N
    systems.  Device (MOS) capacitances are not part of the plan; the
    batch layer appends them from its stacked groups in the same order
    as :meth:`MnaSystem._stamp_mos_capacitances`.
    """

    g_idx: np.ndarray
    c_idx: np.ndarray
    dim: int


def linear_stamp_values(circuit: Circuit, temp_c: float) -> tuple[list[float], list[float]]:
    """Signed stamp values for ``circuit`` matching :meth:`MnaSystem.stamp_plan`.

    Walks the elements in circuit order with the same dispatch chain as
    :class:`MnaSystem.__init__`, emitting one signed value per planned
    ``+=`` (a ``-=`` becomes the exactly-negated value).  All arithmetic
    mirrors the compile path operation for operation, so the replayed
    matrices are bitwise identical to a fresh compile of ``circuit`` at
    ``temp_c``.
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


class MnaSystem:
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
        dim = self.size + 1
        self.g_static = np.zeros((dim, dim))
        self.c_static = np.zeros((dim, dim))

        self.vsources: list[VoltageSource] = []
        self.isources: list[CurrentSource] = []

        mos: list[Mosfet] = []
        bjts: list[Bjt] = []
        diodes: list[Diode] = []

        for el in circuit:
            if isinstance(el, Resistor):
                self._stamp_conductance(self.g_static, el.n1, el.n2, 1.0 / el.value_at(temp_c))
            elif isinstance(el, Switch):
                self._stamp_conductance(self.g_static, el.n1, el.n2, 1.0 / el.resistance)
            elif isinstance(el, Capacitor):
                self._stamp_conductance(self.c_static, el.n1, el.n2, el.value)
            elif isinstance(el, Inductor):
                j = self._branch_index[el.name]
                a, b = self.node(el.n1), self.node(el.n2)
                self.g_static[a, j] += 1.0
                self.g_static[b, j] -= 1.0
                self.g_static[j, a] += 1.0
                self.g_static[j, b] -= 1.0
                self.c_static[j, j] -= el.value
            elif isinstance(el, VoltageSource):
                self.vsources.append(el)
                self._stamp_vsource_topology(el.name, el.np, el.nn)
            elif isinstance(el, Vcvs):
                j = self._branch_index[el.name]
                self._stamp_vsource_topology(el.name, el.np, el.nn)
                self.g_static[j, self.node(el.ncp)] -= el.gain
                self.g_static[j, self.node(el.ncn)] += el.gain
            elif isinstance(el, Ccvs):
                j = self._branch_index[el.name]
                self._stamp_vsource_topology(el.name, el.np, el.nn)
                jc = self._control_branch(el.control)
                self.g_static[j, jc] -= el.transresistance
            elif isinstance(el, Vccs):
                a, b = self.node(el.np), self.node(el.nn)
                cp, cn = self.node(el.ncp), self.node(el.ncn)
                self.g_static[a, cp] += el.gm
                self.g_static[a, cn] -= el.gm
                self.g_static[b, cp] -= el.gm
                self.g_static[b, cn] += el.gm
            elif isinstance(el, Cccs):
                a, b = self.node(el.np), self.node(el.nn)
                jc = self._control_branch(el.control)
                self.g_static[a, jc] += el.gain
                self.g_static[b, jc] -= el.gain
            elif isinstance(el, CurrentSource):
                self.isources.append(el)
            elif isinstance(el, Mosfet):
                mos.append(el)
            elif isinstance(el, Bjt):
                bjts.append(el)
            elif isinstance(el, Diode):
                diodes.append(el)
            else:
                raise TypeError(f"unsupported element type {type(el).__name__}")

        # ---------------- device groups ----------------
        self.mos_group = self._build_mos_group(mos)
        self.bjt_group = self._build_bjt_group(bjts)
        self.diode_group = self._build_diode_group(diodes)
        if self.mos_group is not None:
            self._stamp_mos_capacitances()

        # index arrays reused every Newton iteration
        self._prepare_index_arrays()
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

    # ------------------------------------------------------------------
    # Static stamping
    # ------------------------------------------------------------------
    def _stamp_conductance(self, mat: np.ndarray, n1: str, n2: str, g: float) -> None:
        a, b = self.node(n1), self.node(n2)
        mat[a, a] += g
        mat[a, b] -= g
        mat[b, a] -= g
        mat[b, b] += g

    def _stamp_vsource_topology(self, name: str, np_node: str, nn_node: str) -> None:
        j = self._branch_index[name]
        a, b = self.node(np_node), self.node(nn_node)
        self.g_static[a, j] += 1.0
        self.g_static[b, j] -= 1.0
        self.g_static[j, a] += 1.0
        self.g_static[j, b] -= 1.0

    def _build_mos_group(self, mos: list[Mosfet]) -> MosGroup | None:
        if not mos:
            return None
        return MosGroup(
            names=[el.name for el in mos],
            d=np.array([self.node(el.d) for el in mos]),
            g=np.array([self.node(el.g) for el in mos]),
            s=np.array([self.node(el.s) for el in mos]),
            b=np.array([self.node(el.b) for el in mos]),
            w=np.array([el.w for el in mos]),
            l=np.array([el.l for el in mos]),
            m=np.array([float(el.m) for el in mos]),
            models=[el.model for el in mos],
            temp_c=self.temp_c,
        )

    def _build_bjt_group(self, bjts: list[Bjt]) -> BjtGroup | None:
        if not bjts:
            return None
        return BjtGroup(
            names=[el.name for el in bjts],
            c=np.array([self.node(el.c) for el in bjts]),
            b=np.array([self.node(el.b) for el in bjts]),
            e=np.array([self.node(el.e) for el in bjts]),
            area=np.array([el.area for el in bjts]),
            models=[el.model for el in bjts],
            temp_c=self.temp_c,
        )

    def _build_diode_group(self, diodes: list[Diode]) -> DiodeGroup | None:
        if not diodes:
            return None
        return DiodeGroup(
            names=[el.name for el in diodes],
            np_idx=np.array([self.node(el.np) for el in diodes]),
            nn_idx=np.array([self.node(el.nn) for el in diodes]),
            area=np.array([el.area for el in diodes]),
            models=[el.model for el in diodes],
            temp_c=self.temp_c,
        )

    def _stamp_mos_capacitances(self) -> None:
        """Attach constant device capacitances to the dynamic matrix."""
        grp = self.mos_group
        cgs, cgd, cjun = grp.gate_capacitances()
        for k in range(len(grp)):
            pairs = (
                (grp.g[k], grp.s[k], cgs[k]),
                (grp.g[k], grp.d[k], cgd[k]),
                (grp.d[k], grp.b[k], cjun[k]),
                (grp.s[k], grp.b[k], cjun[k]),
            )
            for a, b, c in pairs:
                self.c_static[a, a] += c
                self.c_static[a, b] -= c
                self.c_static[b, a] -= c
                self.c_static[b, b] += c

    def stamp_plan(self) -> LinearStampPlan:
        """Flat COO indices of every linear ``+=`` this system performed.

        Walks the circuit with the dispatch chain of ``__init__`` and
        records, per scalar accumulation into ``g_static``/``c_static``,
        the flat extended index ``row*dim + col`` — in stamping order.
        Paired with :func:`linear_stamp_values` for a sibling circuit of
        the same topology, ``np.add.at`` replay rebuilds that sibling's
        static matrices bit for bit (see :mod:`repro.spice.batch`).
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

        for el in self.circuit:
            if isinstance(el, Resistor):
                conduct(g_idx, el.n1, el.n2)
            elif isinstance(el, Switch):
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
            elif isinstance(el, (CurrentSource, Mosfet, Bjt, Diode)):
                pass
            else:
                raise TypeError(f"unsupported element type {type(el).__name__}")
        return LinearStampPlan(
            g_idx=np.asarray(g_idx, dtype=np.intp),
            c_idx=np.asarray(c_idx, dtype=np.intp),
            dim=dim,
        )

    def _prepare_index_arrays(self) -> None:
        """Precompute flat COO stamp-index arrays for the device groups.

        Jacobian entries are addressed as flat indices into the extended
        (dim x dim) matrix: ``row*dim + col``.  BJT and diode stamp
        positions are fully static, so their 9/4 per-device entries
        collapse into one concatenated index array and a single
        ``np.add.at`` per Newton iteration.  MOS rows depend on the
        source/drain swap, so the row bases ``d*dim``/``s*dim`` are
        cached and the per-iteration work is a ``where`` selection into a
        preallocated (8, n_mos) buffer instead of recomputing the
        products from scratch.
        """
        dim = self.size + 1

        if self.mos_group is not None:
            grp = self.mos_group
            self._mos_row_d = grp.d * dim
            self._mos_row_s = grp.s * dim
            self._mos_idx_buf = np.empty((8, len(grp)), dtype=np.intp)
            self._mos_val_buf = np.empty((8, len(grp)))

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

        # Source topology for the cached right-hand sides.
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
    def rhs_dc(self, scale: float = 1.0) -> np.ndarray:
        """DC excitation vector (extended); cached, treat as read-only.

        The cache key snapshots every source's DC value, so mutating a
        source (gain switching, sweeps) or a different ``scale``
        invalidates automatically on the next call.
        """
        key = (
            scale,
            tuple(src.dc for src in self.vsources),
            tuple(src.dc for src in self.isources),
        )
        if self._rhs_dc_cache is not None and key == self._rhs_dc_key:
            return self._rhs_dc_cache

        b = np.zeros(self.size + 1)
        if self.vsources:
            b[self._vs_branch_idx] = scale * np.array(key[1])
        if self.isources:
            vals = scale * np.array(key[2])
            np.subtract.at(b, self._is_np_idx, vals)
            np.add.at(b, self._is_nn_idx, vals)
        b[self.ground_index] = 0.0
        b.setflags(write=False)  # callers must copy() before mutating
        self._rhs_dc_key = key
        self._rhs_dc_cache = b
        return b

    def rhs_ac(self) -> np.ndarray:
        """Complex AC excitation vector (extended); cached, treat as read-only.

        Invalidation mirrors :meth:`rhs_dc`: the key snapshots every
        source's ``(ac, ac_phase)`` pair, which the PSRR/CMRR drivers
        mutate between solves.
        """
        key = (
            tuple((src.ac, src.ac_phase) for src in self.vsources),
            tuple((src.ac, src.ac_phase) for src in self.isources),
        )
        if self._rhs_ac_cache is not None and key == self._rhs_ac_key:
            return self._rhs_ac_cache

        b = np.zeros(self.size + 1, dtype=complex)
        for src, j in zip(self.vsources, self._vs_branch_idx):
            if src.ac != 0.0:
                b[j] += src.ac * np.exp(1j * src.ac_phase)
        for src, a, c in zip(self.isources, self._is_np_idx, self._is_nn_idx):
            if src.ac != 0.0:
                phasor = src.ac * np.exp(1j * src.ac_phase)
                b[a] -= phasor
                b[c] += phasor
        b[self.ground_index] = 0.0
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
    def assemble(
        self, x_ext: np.ndarray, rhs_ext: np.ndarray, gmin: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Residual and Jacobian at solution ``x_ext``.

        Returns ``(jac, resid, evals)`` where both are extended-dimension
        and ``evals`` carries the device evaluations (reused for OP info
        and noise).  ``gmin`` adds a leak to every node diagonal (gmin
        stepping).
        """
        prof_count("mna.assemble")
        dim = self.size + 1
        jac = self.g_static.copy()
        resid = self.g_static @ x_ext - rhs_ext
        evals: dict = {}

        if gmin > 0.0:
            idx = np.arange(self.num_nodes)
            jac[idx, idx] += gmin
            resid[idx] += gmin * x_ext[idx]

        if self.mos_group is not None:
            ev = self.mos_group.evaluate(x_ext)
            evals["mos"] = ev
            self._stamp_mos(jac, resid, ev)

        if self.bjt_group is not None:
            ev = self.bjt_group.evaluate(x_ext)
            evals["bjt"] = ev
            self._stamp_bjt(jac, resid, ev)

        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x_ext)
            evals["diode"] = ev
            self._stamp_diode(jac, resid, ev)

        # Zero the dummy ground row/column so it never feeds back.
        jac[self.ground_index, :] = 0.0
        jac[:, self.ground_index] = 0.0
        resid[self.ground_index] = 0.0
        return jac, resid, evals

    def _stamp_mos(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        self._mos_residual(resid, ev)
        idx, vals = self._mos_jac_entries(ev)
        np.add.at(jac.reshape(-1), idx.reshape(-1), vals.reshape(-1))

    def _mos_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.mos_group
        sw = ev.swapped
        eff_d = np.where(sw, grp.s, grp.d)
        eff_s = np.where(sw, grp.d, grp.s)
        ids_into_eff_drain = grp.sign * ev.ids  # physical current into eff_d
        np.add.at(resid, eff_d, ids_into_eff_drain)
        np.add.at(resid, eff_s, -ids_into_eff_drain)

    def _mos_jac_entries(self, ev) -> tuple[np.ndarray, np.ndarray]:
        """Flat extended Jacobian (index, value) buffers for the MOS group.

        Shared by the dense ``np.add.at`` stamp and the sparse COO
        assembly; the returned (8, n_mos) buffers are reused every
        iteration.
        """
        grp = self.mos_group
        sw = ev.swapped
        eff_d = np.where(sw, grp.s, grp.d)
        eff_s = np.where(sw, grp.d, grp.s)
        gm, gds, gmb = ev.gm, ev.gds, ev.gmb
        gss = gm + gds + gmb

        # Only the effective row/column selection depends on the per-
        # iteration swap state; the row bases and scratch buffers come
        # precomputed from _prepare_index_arrays.
        rows_d = np.where(sw, self._mos_row_s, self._mos_row_d)
        rows_s = np.where(sw, self._mos_row_d, self._mos_row_s)
        idx, vals = self._mos_idx_buf, self._mos_val_buf
        np.add(rows_d, eff_d, out=idx[0])
        np.add(rows_d, grp.g, out=idx[1])
        np.add(rows_d, eff_s, out=idx[2])
        np.add(rows_d, grp.b, out=idx[3])
        np.add(rows_s, eff_d, out=idx[4])
        np.add(rows_s, grp.g, out=idx[5])
        np.add(rows_s, eff_s, out=idx[6])
        np.add(rows_s, grp.b, out=idx[7])
        vals[0] = gds
        vals[1] = gm
        np.negative(gss, out=vals[2])
        vals[3] = gmb
        np.negative(gds, out=vals[4])
        np.negative(gm, out=vals[5])
        vals[6] = gss
        np.negative(gmb, out=vals[7])
        return idx, vals

    def _stamp_bjt(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        self._bjt_residual(resid, ev)
        np.add.at(jac.reshape(-1), self._bjt_idx, self._bjt_jac_vals(ev))

    def _bjt_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.bjt_group
        np.add.at(resid, grp.c, ev.ic)
        np.add.at(resid, grp.b, ev.ib)
        np.add.at(resid, grp.e, -(ev.ic + ev.ib))

    def _bjt_jac_vals(self, ev) -> np.ndarray:
        gm, gpi, go, gmu = ev.gm, ev.gpi, ev.go, ev.gmu
        return np.concatenate([
            gm - go, go, -gm,
            gpi + gmu, -gmu, -gpi,
            -(gm - go) - (gpi + gmu), -go + gmu, gm + gpi,
        ])

    def _stamp_diode(self, jac: np.ndarray, resid: np.ndarray, ev) -> None:
        self._diode_residual(resid, ev)
        np.add.at(jac.reshape(-1), self._diode_idx, self._diode_jac_vals(ev))

    def _diode_residual(self, resid: np.ndarray, ev) -> None:
        grp = self.diode_group
        np.add.at(resid, grp.np_idx, ev.current)
        np.add.at(resid, grp.nn_idx, -ev.current)

    def _diode_jac_vals(self, ev) -> np.ndarray:
        return np.concatenate([ev.gd, -ev.gd, -ev.gd, ev.gd])

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
