"""Compiled modified-nodal-analysis system.

Compiling splits into what a circuit's *structure* fixes and what its
*values* set.  The structure — node numbering, branch allocation, the COO
plan of the linear stamps (:class:`LinearStampPlan`), the positions of
the sources and devices in circuit order and every stamp-index array —
depends only on :func:`circuit_signature`, so it is built once per
signature (:class:`CircuitStructure`) and kept, read-only, in a bounded
thread-safe cache (:data:`STRUCTURES`).  Every compile re-reads the
values (linear stamp values, device sizes and models, temperature laws,
source levels) and replays them through the cached plan with
``np.add.at``, so a circuit edited after compiling stamps its new values
and a structural edit changes the cache key.  The device stamps and the
Newton assembly (:class:`StampedSystem`) take an optional leading unit
axis, so the tensor-batched systems of :mod:`repro.spice.batch` run this
same code over the same cached structure.  The "extended matrix" trick
keeps stamping branch-free: ground is the last index of an (n+1)-dim
system and the solvers slice it off, so ``np.add.at`` needs no masking.

System convention:  G*x + C*dx/dt + I_nl(x) = b(t),
with x = [node voltages | branch currents].
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from operator import attrgetter

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

#: Distinct circuit structures :data:`STRUCTURES` keeps; the least
#: recently used one is evicted first.
STRUCTURE_CACHE_SIZE = 32


@dataclass
class NoiseSources:
    """The noise generators of the units that share one source layout.

    Every array is in pack order (see :meth:`StampedSystem.noise_sources`);
    ``keys`` labels each source ``(device, mechanism)`` for the paper-style
    budget ("T1 thermal", "Ra thermal", "T5 flicker", ...).  A source's
    one-sided current PSD at ``f`` is ``psd_flat + psd_flicker / f**af``
    [A^2/Hz], the 1/f part only where ``flicker`` is set.
    """

    units: np.ndarray          # the system's unit rows with this layout
    keys: list[tuple[str, str]]
    node_a: np.ndarray         # (ns,) extended node index of the + node
    node_b: np.ndarray
    psd_flat: np.ndarray       # (n_units, ns) frequency-independent part
    psd_flicker: np.ndarray    # (n_units, ns) coefficient of the 1/f^af part
    af: np.ndarray             # (n_units, ns)
    flicker: np.ndarray        # (ns,) sources with a nonzero 1/f part

    def rows(self, sel) -> NoiseSources:
        """These sources for the units ``sel`` picks (a slice or mask)."""
        return replace(self, units=self.units[sel], psd_flat=self.psd_flat[sel],
                       psd_flicker=self.psd_flicker[sel], af=self.af[sel])


def resistor_law(resistors: list[list], temps: list[float],
                 unit: np.ndarray) -> np.ndarray:
    """Each unit's resistances at its temperature, ``(N, n_res)``, in
    :meth:`Resistor.value_at`'s operation order over the unit axis.
    ``resistors`` holds one list per distinct circuit, in circuit order,
    and ``unit[u]`` picks unit *u*'s list."""
    value, tc1, tc2 = (
        np.array([[getattr(r, attr) for r in rs] for rs in resistors],
                 dtype=float)[unit]
        for attr in ("value", "tc1", "tc2"))
    dt = np.array(temps)[:, None] - 25.0
    return value * (1.0 + tc1 * dt + tc2 * dt * dt)


def circuit_signature(circuit: Circuit) -> tuple:
    """Structural fingerprint: element types, names and node wiring
    (:attr:`Element.nodes`, plus the controlling source of a CCCS/CCVS).

    Two circuits with equal signatures compile to :class:`MnaSystem`\\ s
    with identical node numbering, branch allocation, stamp-index arrays
    and device-group layout — everything :class:`CircuitStructure`
    caches and the batch replay shares across units.  Values
    (resistances, model parameters, source levels) are deliberately
    excluded: they are what a compile re-reads and a batch varies.
    """
    return tuple([
        (type(el).__name__, el.name,
         el.nodes + ((el.control,) if isinstance(el, (Ccvs, Cccs)) else ()))
        for el in circuit
    ])


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
    circuits' values through the same plan into an ``(N, dim, dim)``
    tensor with the same call.  Device (MOS) capacitances are not part
    of the plan; they are stamped after it
    (:meth:`StampedSystem._stamp_mos_capacitances`).
    """

    g_idx: np.ndarray
    c_idx: np.ndarray
    dim: int


def linear_stamp_values(circuit: Circuit, temp_c: float) -> tuple[list[float], list[float]]:
    """Signed linear stamp values of ``circuit`` at ``temp_c``, in the
    order of :attr:`CircuitStructure.plan`.

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


def _frozen(values, dtype=np.intp) -> np.ndarray:
    """A read-only array: cached structure is shared between systems."""
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class CircuitStructure:
    """Everything a compile derives from a circuit's structure alone.

    Built once per :func:`circuit_signature` from one circuit of that
    signature and shared by every system compiled from any of them:

    * ``node_names`` and the node and branch index maps;
    * ``plan``, the linear stamp plan, and ``res_slot``, the offset of
      each resistor's four entries in it;
    * ``member_pos``: the circuit-order positions of the voltage sources,
      current sources, MOSFETs, BJTs, diodes and resistors, read by
      :meth:`members` without a type dispatch;
    * the device-terminal index arrays, the MOS-capacitance index array,
      the BJT/diode stamp indices and the source stamp indices;
    * ``noise_pos``: the positions, names and terminals of the resistors
      and switches, the candidate thermal-noise sources, in circuit order.

    Every array is read-only.  What a system mutates (device stamp
    buffers, right-hand-side caches) stays on the system.
    """

    def __init__(self, circuit: Circuit, signature: tuple) -> None:
        self.signature = signature
        self.node_names: tuple[str, ...] = tuple(circuit.nodes())
        self.num_nodes = n = len(self.node_names)
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        branches = [el.name for el in circuit if el.has_branch_current]
        self.branch_index = {name: n + k for k, name in enumerate(branches)}
        self.size = n + len(branches)
        self.ground_index = self.size   # dummy slot, sliced off by solvers
        self.dim = dim = self.size + 1
        node = self.node

        # ---- one walk: linear stamp plan and member positions ----
        g_idx: list[int] = []
        c_idx: list[int] = []
        res_slot: list[int] = []
        vs, isrc, mos, bjts, diodes, res = [], [], [], [], [], []
        noisy_pos: list[int] = []   # resistors and switches, circuit order

        def conduct(idx: list[int], n1: str, n2: str) -> None:
            a, b = node(n1), node(n2)
            idx += [a * dim + a, a * dim + b, b * dim + a, b * dim + b]

        def vsource_topology(name: str, np_node: str, nn_node: str) -> int:
            j = self.branch_index[name]
            a, b = node(np_node), node(nn_node)
            g_idx.extend([a * dim + j, b * dim + j, j * dim + a, j * dim + b])
            return j

        def control_branch(control: str) -> int:
            el = circuit.element(control)
            if not isinstance(el, (VoltageSource, Vcvs, Ccvs, Inductor)):
                raise TypeError(
                    f"control element {control!r} must carry a branch current "
                    f"(voltage source or inductor), got {type(el).__name__}"
                )
            return self.branch_index[control]

        # The common device types first, as in linear_stamp_values.
        for k, el in enumerate(circuit):
            if isinstance(el, Mosfet):
                mos.append(k)
            elif isinstance(el, Bjt):
                bjts.append(k)
            elif isinstance(el, Diode):
                diodes.append(k)
            elif isinstance(el, CurrentSource):
                isrc.append(k)
            elif isinstance(el, Resistor):
                res.append(k)
                noisy_pos.append(k)
                res_slot.append(len(g_idx))
                conduct(g_idx, el.n1, el.n2)
            elif isinstance(el, Switch):
                noisy_pos.append(k)
                conduct(g_idx, el.n1, el.n2)
            elif isinstance(el, Capacitor):
                conduct(c_idx, el.n1, el.n2)
            elif isinstance(el, Inductor):
                j = self.branch_index[el.name]
                a, b = node(el.n1), node(el.n2)
                g_idx += [a * dim + j, b * dim + j, j * dim + a, j * dim + b]
                c_idx += [j * dim + j]
            elif isinstance(el, VoltageSource):
                vs.append(k)
                vsource_topology(el.name, el.np, el.nn)
            elif isinstance(el, Vcvs):
                j = vsource_topology(el.name, el.np, el.nn)
                g_idx += [j * dim + node(el.ncp), j * dim + node(el.ncn)]
            elif isinstance(el, Ccvs):
                j = vsource_topology(el.name, el.np, el.nn)
                g_idx += [j * dim + control_branch(el.control)]
            elif isinstance(el, Vccs):
                a, b = node(el.np), node(el.nn)
                cp, cn = node(el.ncp), node(el.ncn)
                g_idx += [a * dim + cp, a * dim + cn, b * dim + cp, b * dim + cn]
            elif isinstance(el, Cccs):
                a, b = node(el.np), node(el.nn)
                jc = control_branch(el.control)
                g_idx += [a * dim + jc, b * dim + jc]
            else:
                raise TypeError(f"unsupported element type {type(el).__name__}")
        self.plan = LinearStampPlan(g_idx=_frozen(g_idx), c_idx=_frozen(c_idx),
                                    dim=dim)
        self.res_slot = _frozen(res_slot)
        self.member_pos = tuple(tuple(pos) for pos in (vs, isrc, mos, bjts, diodes, res))

        els = circuit.elements

        def terminals(pos: list[int], *names: str) -> tuple[np.ndarray, ...]:
            return tuple(_frozen([node(getattr(els[k], t)) for k in pos])
                         for t in names)

        def names(pos: list[int]) -> tuple[str, ...]:
            return tuple(els[k].name for k in pos)

        # ---- device stamps: flat (row*dim + col) indices ----
        self.mos_names = names(mos)
        self.mos_nodes = d, g, s, b = terminals(mos, "d", "g", "s", "b")
        # MOS rows depend on the per-iteration source/drain swap, so only
        # the row bases are static.
        self.mos_row_d, self.mos_row_s = _frozen(d * dim), _frozen(s * dim)
        # Cgs, Cgd and the two junctions of each device, device-major.
        a4 = np.stack([g, g, d, s], axis=-1)
        b4 = np.stack([s, d, b, b], axis=-1)
        self.mos_cap_idx = _frozen(np.stack(
            [a4 * dim + a4, a4 * dim + b4, b4 * dim + a4, b4 * dim + b4], axis=-1))
        self.bjt_names = names(bjts)
        self.bjt_nodes = c, b, e = terminals(bjts, "c", "b", "e")
        c_, b_, e_ = c * dim, b * dim, e * dim
        self.bjt_idx = _frozen(np.concatenate([
            c_ + b, c_ + c, c_ + e, b_ + b, b_ + c, b_ + e, e_ + b, e_ + c, e_ + e,
        ]))
        self.diode_names = names(diodes)
        self.diode_nodes = a, b = terminals(diodes, "np", "nn")
        self.diode_idx = _frozen(np.concatenate([
            a * dim + a, a * dim + b, b * dim + a, b * dim + b,
        ]))

        # ---- thermal noise of resistors and switches, circuit order ----
        self.noise_pos = tuple(noisy_pos)
        self.noise_names = names(noisy_pos)
        self.noise_nodes = terminals(noisy_pos, "n1", "n2")
        self.noise_is_res = _frozen([isinstance(els[k], Resistor) for k in noisy_pos],
                                    dtype=bool)

        # ---- sources: RHS indices and the start vector's source nodes ----
        self.vs_branch_idx = _frozen([self.branch_index[els[k].name] for k in vs])
        self.is_np_idx, self.is_nn_idx = terminals(isrc, "np", "nn")
        # The same slots as Python ints, for the per-source loops.
        self.vs_slots = tuple(self.vs_branch_idx.tolist())
        self.is_slots = tuple(zip(self.is_np_idx.tolist(), self.is_nn_idx.tolist()))
        # A node tied to ground through a voltage source starts at the
        # source value (negated when the node is the negative terminal);
        # of several sources on one node the last one in circuit order
        # holds, as in a per-source loop.
        start: dict[int, tuple[int, float]] = {}
        for i, k in enumerate(vs):
            src = els[k]
            if is_ground(src.nn) and not is_ground(src.np):
                start[node(src.np)] = (i, 1.0)
            elif is_ground(src.np) and not is_ground(src.nn):
                start[node(src.nn)] = (i, -1.0)
        self.start_node = _frozen(list(start))
        self.start_src = _frozen([i for i, _ in start.values()])
        self.start_sign = _frozen([sg for _, sg in start.values()], dtype=float)

    def node(self, name: str) -> int:
        """Extended index of node ``name`` (ground maps to the dummy slot);
        ``KeyError`` if no element uses it."""
        if is_ground(name):
            return self.ground_index
        return self.node_index[name]

    def members(self, circuit: Circuit) -> tuple[list, ...]:
        """``circuit``'s voltage sources, current sources, MOSFETs, BJTs,
        diodes and resistors, each in circuit order, read at this
        structure's positions."""
        els = circuit.elements
        return tuple([els[k] for k in pos] for pos in self.member_pos)

    def device_groups(self, mos: list, bjts: list, diodes: list,
                      temp_c: float | list[float]) -> tuple:
        """The MOS, BJT and diode groups (``None`` where empty): of one
        circuit's devices at ``temp_c``, or, unit-stacked, of one device
        list per unit at per-unit temperatures (``temp_c`` a list)."""
        stacked = isinstance(temp_c, list)

        def values(devs: list, attr: str) -> np.ndarray:
            return np.array(unit_rows(devs, attrgetter(attr), stacked))

        def models(devs: list) -> list:
            return unit_rows(devs, attrgetter("model"), stacked)

        # Each group gets its own name list; the structure's stays shared.
        return (
            MosGroup(list(self.mos_names), *self.mos_nodes, w=values(mos, "w"),
                     l=values(mos, "l"), m=values(mos, "m").astype(float),
                     models=models(mos), temp_c=temp_c, dvt=values(mos, "dvt"),
                     dbeta=values(mos, "dbeta"))
            if self.mos_names else None,
            BjtGroup(list(self.bjt_names), *self.bjt_nodes, area=values(bjts, "area"),
                     models=models(bjts), temp_c=temp_c)
            if self.bjt_names else None,
            DiodeGroup(list(self.diode_names), *self.diode_nodes,
                       area=values(diodes, "area"), models=models(diodes),
                       temp_c=temp_c)
            if self.diode_names else None,
        )

    def counts_match(self, g_vals: list, c_vals: list) -> bool:
        """Whether a value walk emits exactly the plan's entry counts."""
        return (len(g_vals) == self.plan.g_idx.size
                and len(c_vals) == self.plan.c_idx.size)


class StructureCache:
    """Bounded, thread-safe LRU map from :func:`circuit_signature` to
    :class:`CircuitStructure`, with hit and miss counts."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, CircuitStructure] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: tuple) -> bool:
        return signature in self._entries

    def get(self, circuit: Circuit) -> CircuitStructure:
        """The structure of ``circuit``, keyed by the signature computed
        here from ``circuit`` itself and built on a miss."""
        signature = circuit_signature(circuit)
        with self._lock:
            st = self._entries.get(signature)
            if st is not None:
                self._entries.move_to_end(signature)
                self.hits += 1
                return st
            self.misses += 1
        # Built outside the lock: two threads that miss together build
        # equal structures, and the later insert wins.
        st = CircuitStructure(circuit, signature)
        with self._lock:
            self._entries[signature] = st
            self._entries.move_to_end(signature)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return st


#: The process-wide structure cache every compile goes through.
STRUCTURES = StructureCache(STRUCTURE_CACHE_SIZE)


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


def dc_rhs(system: StampedSystem, vs_dc: np.ndarray, is_dc: np.ndarray) -> np.ndarray:
    """DC excitation vector (extended) of source levels ``vs_dc`` and
    ``is_dc`` (the voltage and current sources' DC values, in circuit
    order), stamped through ``system``'s structure.  The levels may carry
    a leading axis, one row per circuit; so does the result.

    Each current source's level is subtracted at its positive node, all
    of them, then added at the negative nodes (``x - v`` is ``x + -v``
    exactly).
    """
    st = system.structure
    b = np.zeros(vs_dc.shape[:-1] + (st.dim,))
    b[..., st.vs_branch_idx] = vs_dc
    if st.is_np_idx.size:
        scatter_add(b, st.is_np_idx, -is_dc)
        scatter_add(b, st.is_nn_idx, is_dc)
    b[..., st.ground_index] = 0.0
    return b


def ac_rhs(system: StampedSystem, vsources: list[VoltageSource],
           isources: list[CurrentSource], overrides: dict) -> np.ndarray:
    """Complex AC excitation vector (extended) of one circuit's sources,
    stamped through ``system``'s structure.

    ``overrides`` maps source names to ``(ac, phase)`` in place of the
    configured stimulus (one dict per PSRR/CMRR probe column, see
    :class:`repro.analysis.psrr.Probe`); ``phase=None`` keeps the
    source's configured phase (a quieted source's amplitude only).  A
    loop over the few sources, on the structure's Python-int slots, is
    cheaper here than array ops.
    """
    st = system.structure
    b = np.zeros(st.dim, dtype=complex)
    for src, j in zip(vsources, st.vs_slots):
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ac != 0.0:
            b[j] += ac * np.exp(1j * (src.ac_phase if ph is None else ph))
    for src, (a, c) in zip(isources, st.is_slots):
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ac != 0.0:
            phasor = ac * np.exp(1j * (src.ac_phase if ph is None else ph))
            b[a] -= phasor
            b[c] += phasor
    b[st.ground_index] = 0.0
    return b


class StampedSystem:
    """Device stamping and Newton assembly, shared by :class:`MnaSystem`
    and :class:`repro.spice.batch.BatchedSystem`.

    Every array may carry a leading unit axis: a serial system assembles
    ``(dim, dim)`` Jacobians from ``(dim,)`` solutions, a batched one
    ``(N, dim, dim)`` from ``(N, dim)``.  Device groups evaluate either
    shape with the same elementwise ops, and :func:`scatter_add` keeps
    each unit's accumulation order, so a batched unit's rows are its
    serial assembly bit for bit.  A subclass sets ``structure``,
    ``ground_index`` and the device groups and calls
    :meth:`_prepare_device_stamps`; it supplies :meth:`_static_part`.
    """

    structure: CircuitStructure
    num_nodes: int
    ground_index: int
    mos_group: MosGroup | None
    bjt_group: BjtGroup | None
    diode_group: DiodeGroup | None
    #: ``(solution bytes, device evaluations)`` of the last
    #: :meth:`linearize`, which :meth:`noise_sources` reuses at the same
    #: solution instead of evaluating the devices again.
    _linear_point: tuple[bytes, dict] | None = None

    def _static_part(self, x_ext: np.ndarray,
                     rhs_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A fresh copy of the static G and the residual ``G x - b``."""
        raise NotImplementedError

    def _prepare_device_stamps(self, lead: tuple[int, ...] = ()) -> None:
        """The MOS scratch buffers for ``lead`` units (``()`` for a serial
        system), owned by this system alone.

        Jacobian entries are addressed as flat indices into the extended
        (dim x dim) matrix: ``row*dim + col``.  BJT and diode stamp
        positions are fully static, so the structure holds them as one
        concatenated index array each, for a single ``np.add.at`` per
        Newton iteration.  MOS rows depend on the source/drain swap, so
        the structure holds the row bases ``d*dim``/``s*dim`` and the
        per-iteration work is a ``where`` selection into these
        preallocated ``(..., 8, n_mos)`` buffers, written through per-row
        views.
        """
        if self.mos_group is not None:
            n_mos = len(self.mos_group)
            self._mos_idx_buf = np.empty(lead + (8, n_mos), dtype=np.intp)
            self._mos_val_buf = np.empty(lead + (8, n_mos))
            self._mos_idx_rows = [self._mos_idx_buf[..., r, :] for r in range(8)]
            self._mos_val_rows = [self._mos_val_buf[..., r, :] for r in range(8)]

    def _stamp_mos_capacitances(self, c_flat: np.ndarray) -> None:
        """Add the constant MOS capacitances to the flat dynamic matrix
        ``c_flat`` (``(dim*dim,)`` or ``(N, dim*dim)``), device-major:
        Cgs, Cgd and the drain and source junctions of device 0, then of
        device 1, and so on."""
        cgs, cgd, cjun = self.mos_group.gate_capacitances()
        cap = np.stack([cgs, cgd, cjun, cjun], axis=-1)[..., None]
        # Multiplying by -1.0 is exact negation: the stamp's ``-=``.
        scatter_add(c_flat, self.structure.mos_cap_idx,
                    cap * np.array([1.0, -1.0, -1.0, 1.0]))

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
            scatter_add(jac_flat, self.structure.bjt_idx, self._bjt_jac_vals(ev))

        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x_ext)
            evals["diode"] = ev
            self._diode_residual(resid, ev)
            scatter_add(jac_flat, self.structure.diode_idx,
                        self._diode_jac_vals(ev))

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
        # iteration swap state; the row bases come from the structure and
        # the scratch buffers from _prepare_device_stamps.
        st = self.structure
        rows_d = np.where(sw, st.mos_row_s, st.mos_row_d)
        rows_s = np.where(sw, st.mos_row_d, st.mos_row_s)
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

    # ------------------------------------------------------------------
    # Noise sources
    # ------------------------------------------------------------------
    def _noise_values(self) -> tuple:
        """``(temps, circuits, unit_circuit, res_law)``: each unit's
        temperature, the distinct circuits and each unit's index into
        them, and each unit's resistances (:func:`resistor_law`)."""
        raise NotImplementedError

    def noise_sources(self, x_ext: np.ndarray,
                      units: np.ndarray | None = None) -> list[NoiseSources]:
        """The noise generators at solution ``x_ext`` (``(dim,)``, or
        ``(N, dim)`` for a stacked system), one :class:`NoiseSources`
        per source layout among ``units`` (default: every unit).

        Pack order: the noisy resistors and the closed noisy switches
        in circuit order, then each MOSFET's channel thermal source and,
        where its coefficient is positive, its flicker source, then each
        BJT's collector and base shot sources, then each diode's shot
        source.  The arrays come straight from the device groups, whose
        stacked rows equal their units' serial arrays bit for bit.
        Which switches are closed and which flicker sources exist are
        per-unit values (gain codes switch the network), so units are
        grouped by layout, never padded: a zero source would change the
        pairwise order of the PSD sum.
        """
        st = self.structure
        temps, circuits, unit_circuit, res_law = self._noise_values()
        # The evaluations linearize() made at this very solution, if any:
        # the same calls on the same bytes.
        point = self._linear_point
        evals = point[1] if point is not None and point[0] == x_ext.tobytes() else {}
        lead = len(temps)
        groups = (self.mos_group, self.bjt_group, self.diode_group)
        n_dev = [0 if grp is None else len(grp) for grp in groups]
        n_lin = len(st.noise_pos)
        size = n_lin + 2 * n_dev[0] + 2 * n_dev[1] + n_dev[2]
        # Every candidate source, present or not; a source is flat unless
        # its psd_flicker is set, and af defaults to 1.
        keys = [(name, "thermal") for name in st.noise_names]
        node_a = np.empty(size, dtype=np.intp)
        node_b = np.empty(size, dtype=np.intp)
        psd_flat = np.zeros((lead, size))
        psd_flicker = np.zeros((lead, size))
        af = np.ones((lead, size))
        present = np.ones((lead, size), dtype=bool)

        # Resistors (kT4 / r on the resistor law) and switches (kT4 / ron).
        kt4 = np.array([4.0 * BOLTZMANN * kelvin(t) for t in temps])[:, None]
        is_res = st.noise_is_res
        on, ron = [], []
        for circ in circuits:
            els = circ.elements
            row = [els[k] for k in st.noise_pos]
            on.append([el.noisy and (r or el.closed) for el, r in zip(row, is_res)])
            ron.append([1.0 if r else el.ron for el, r in zip(row, is_res)])
        denom = np.array(ron, dtype=float).reshape(len(circuits), n_lin)[unit_circuit]
        denom[:, is_res] = res_law
        psd_flat[:, :n_lin] = kt4 / denom
        present[:, :n_lin] = np.array(on, dtype=bool).reshape(len(circuits), n_lin)[unit_circuit]
        node_a[:n_lin], node_b[:n_lin] = st.noise_nodes
        o = n_lin

        if self.mos_group is not None:
            grp = self.mos_group
            ev = evals["mos"] if "mos" in evals else grp.evaluate(x_ext)
            flicker = grp.kf / (grp.cox * grp.w * grp.l * grp.m) * ev.gm**2
            th, fl = slice(o, o + 2 * n_dev[0], 2), slice(o + 1, o + 2 * n_dev[0], 2)
            keys += [(name, mech) for name in grp.names for mech in ("thermal", "flicker")]
            node_a[th] = node_a[fl] = grp.d
            node_b[th] = node_b[fl] = grp.s
            psd_flat[:, th] = grp.thermal_noise_psd(ev)
            psd_flicker[:, fl] = flicker
            af[:, fl] = grp.af
            present[:, fl] = flicker > 0.0
            o += 2 * n_dev[0]
        if self.bjt_group is not None:
            grp = self.bjt_group
            ev = evals["bjt"] if "bjt" in evals else grp.evaluate(x_ext)
            sc, sb = slice(o, o + 2 * n_dev[1], 2), slice(o + 1, o + 2 * n_dev[1], 2)
            keys += [(name, mech) for name in grp.names for mech in ("shot_c", "shot_b")]
            node_a[sc], node_a[sb] = grp.c, grp.b
            node_b[sc] = node_b[sb] = grp.e
            psd_flat[:, sc], psd_flat[:, sb] = grp.shot_noise_psd(ev)
            psd_flicker[:, sb] = grp.kf * np.power(np.abs(ev.ib), grp.af)
            af[:, sb] = grp.af
            o += 2 * n_dev[1]
        if self.diode_group is not None:
            grp = self.diode_group
            keys += [(name, "shot") for name in grp.names]
            node_a[o:], node_b[o:] = grp.np_idx, grp.nn_idx
            ev = evals["diode"] if "diode" in evals else grp.evaluate(x_ext)
            psd_flat[:, o:] = grp.shot_noise_psd(ev)
        flicker = psd_flicker != 0.0

        layouts: dict[bytes, list[int]] = {}
        for u in range(lead) if units is None else units:
            layouts.setdefault(present[u].tobytes() + flicker[u].tobytes(), []).append(u)
        out = []
        for members in layouts.values():
            rows = np.array(members, dtype=np.intp)
            cols = np.flatnonzero(present[members[0]])
            out.append(NoiseSources(
                units=rows, keys=[keys[j] for j in cols],
                node_a=node_a[cols], node_b=node_b[cols],
                psd_flat=psd_flat[rows][:, cols],
                psd_flicker=psd_flicker[rows][:, cols],
                af=af[rows][:, cols], flicker=flicker[members[0], cols]))
        return out


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

        # ---------------- structure (cached per signature) ----------------
        # A miss raises TypeError on an unsupported element.
        st = self.structure = STRUCTURES.get(circuit)
        self.node_names = st.node_names
        self.num_nodes = st.num_nodes
        self.num_branches = st.size - st.num_nodes
        self.size = st.size
        self.ground_index = st.ground_index
        self.plan = st.plan

        # ---------------- values, replayed through the plan ----------------
        dim = st.dim
        g_vals, c_vals = linear_stamp_values(circuit, temp_c)
        if not st.counts_match(g_vals, c_vals):
            raise RuntimeError(
                f"circuit {circuit.name!r} stamps {len(g_vals)}/{len(c_vals)} "
                f"G/C entries where its cached structure plans "
                f"{st.plan.g_idx.size}/{st.plan.c_idx.size}: two structures "
                "share one circuit_signature"
            )
        g = np.zeros(dim * dim)
        c = np.zeros(dim * dim)
        scatter_add(g, st.plan.g_idx, np.asarray(g_vals))
        scatter_add(c, st.plan.c_idx, np.asarray(c_vals))

        self.vsources, self.isources, mos, bjts, diodes, _ = st.members(circuit)
        self.mos_group, self.bjt_group, self.diode_group = \
            st.device_groups(mos, bjts, diodes, temp_c)
        if self.mos_group is not None:
            self._stamp_mos_capacitances(c)
        self.g_static = g.reshape(dim, dim)
        self.c_static = c.reshape(dim, dim)

        self._prepare_device_stamps()
        self._rhs_dc_key: tuple | None = None
        self._rhs_dc_cache: np.ndarray | None = None
        self._rhs_ac_key: tuple | None = None
        self._rhs_ac_cache: np.ndarray | None = None
        # Static COO triplets of the reduced g_static, built lazily on the
        # first assemble_csc call (dense-only systems never pay for it).
        self._coo_static: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        prof_count("mna.systems_built")

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Extended index for node ``name`` (ground maps to the dummy slot)."""
        try:
            return self.structure.node(name)
        except KeyError:
            raise KeyError(f"unknown node {name!r} in circuit {self.circuit.name!r}") from None

    def branch(self, element_name: str) -> int:
        """Extended index of a branch-current unknown."""
        try:
            return self.structure.branch_index[element_name]
        except KeyError:
            raise KeyError(f"element {element_name!r} has no branch current") from None

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

        b = dc_rhs(self, np.array(key[0], dtype=float),
                   np.array(key[1], dtype=float))
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
        st = self.structure
        b = np.zeros(self.size + 1)
        for src, j in zip(self.vsources, st.vs_slots):
            b[j] += src.value_at(t)
        for src, (a, c) in zip(self.isources, st.is_slots):
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
            device(self.structure.bjt_idx, self._bjt_jac_vals(ev))
        if self.diode_group is not None:
            ev = self.diode_group.evaluate(x_ext)
            evals["diode"] = ev
            self._diode_residual(resid, ev)
            device(self.structure.diode_idx, self._diode_jac_vals(ev))

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
        jac, _, evals = self.assemble(x_ext, np.zeros(self.size + 1))
        self._linear_point = (x_ext.tobytes(), evals)
        return jac

    def _noise_values(self) -> tuple:
        """This system as one unit, for :meth:`noise_sources`."""
        els = self.circuit.elements
        resistors = [els[k] for k in self.structure.member_pos[5]]
        return ([self.temp_c], [self.circuit], np.zeros(1, dtype=np.intp),
                resistor_law([resistors], [self.temp_c], np.zeros(1, dtype=np.intp)))
