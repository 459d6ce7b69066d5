"""The per-signature structure cache behind every compile.

``MnaSystem`` takes node numbering, the stamp plan, member positions and
every stamp-index array from a :class:`CircuitStructure` cached by
``circuit_signature``, and re-reads only values.  These tests pin:

* hit and miss counts, the read-only arrays and the LRU bound;
* that systems sharing one cache entry share no mutable buffer;
* that values are re-read on every compile, a structural edit misses
  and a same-count rewiring compiles through an entry of its own;
* that a signature collision with a different entry count raises;
* that the source replay (``dc_rhs``, ``ac_rhs``, ``start_vector`` and
  the batched ``rhs_dc``/``initial_guess``) equals frozen copies of the
  earlier per-source loops bit for bit.
"""

import itertools

import numpy as np
import pytest
from test_stamps import all_elements

from repro.analysis.psrr import Probe
from repro.spice import mna
from repro.spice.batch import BatchedSystem, BatchStructureError
from repro.spice.dc import _initial_guess, start_vector
from repro.spice.mna import (
    STRUCTURE_CACHE_SIZE,
    STRUCTURES,
    MnaSystem,
    StructureCache,
    ac_rhs,
    circuit_signature,
    dc_rhs,
)
from repro.spice.netlist import Circuit, is_ground

TEMPS = (-20.0, 25.0, 85.0)
_fresh_names = itertools.count()


def _chain(n: int, tag: str, value: float = 1e3) -> Circuit:
    """A resistor ladder whose node names (``tag``) make its signature
    unique to the caller."""
    c = Circuit(f"chain_{tag}")
    c.vsource("v", f"{tag}0", "gnd", dc=1.0)
    for k in range(n):
        c.resistor(f"r{k}", f"{tag}{k}", f"{tag}{k + 1}", value * (k + 1))
    c.resistor("rl", f"{tag}{n}", "gnd", value)
    return c


def _unique_tag() -> str:
    return f"cache{next(_fresh_names)}_"


def _shared_isources(k: int = 0) -> Circuit:
    """All element classes plus current sources sharing nodes, with AC
    stimuli and phases, and two grounded voltage sources on one node."""
    f = 1.0 + k / 10.0
    c = all_elements(k)
    c.isource("ia", "bias", "out", dc=3e-6 * f, ac=0.2, ac_phase=-0.7)
    c.isource("ib2", "out", "bias", dc=-1.5e-6, ac=0.3 * f, ac_phase=2.1)
    c.isource("ic", "bias", "gnd", dc=1e-7 * f, ac=-0.05)
    c.isource("id", "gnd", "out", dc=2e-6, ac=0.0, ac_phase=1.0)
    c.vsource("vx1", "x2", "gnd", dc=0.4 * f, ac=0.1, ac_phase=0.5)
    c.vsource("vx2", "x2", "gnd", dc=0.6 * f)
    c.vsource("vx3", "gnd", "x3", dc=0.25 * f, ac=0.7)
    c.resistor("rx", "x2", "x3", 1e3)
    return c


# ----------------------------------------------------------------------
# Frozen copies of the earlier per-source loops
# ----------------------------------------------------------------------
def _frozen_dc_rhs(system, vsources, isources):
    b = np.zeros(system.size + 1)
    vs_idx = np.array([system.branch(s.name) for s in vsources], dtype=np.intp)
    np_idx = np.array([system.node(s.np) for s in isources], dtype=np.intp)
    nn_idx = np.array([system.node(s.nn) for s in isources], dtype=np.intp)
    if vsources:
        b[vs_idx] = np.array([src.dc for src in vsources])
    if isources:
        vals = np.array([src.dc for src in isources])
        np.subtract.at(b, np_idx, vals)
        np.add.at(b, nn_idx, vals)
    b[system.ground_index] = 0.0
    return b


def _frozen_ac_rhs(system, vsources, isources, overrides):
    b = np.zeros(system.size + 1, dtype=complex)
    for src in vsources:
        j = system.branch(src.name)
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ph is None:
            ph = src.ac_phase
        if ac != 0.0:
            b[j] += ac * np.exp(1j * ph)
    for src in isources:
        a, c = system.node(src.np), system.node(src.nn)
        ac, ph = overrides.get(src.name, (src.ac, src.ac_phase))
        if ph is None:
            ph = src.ac_phase
        if ac != 0.0:
            phasor = ac * np.exp(1j * ph)
            b[a] -= phasor
            b[c] += phasor
    b[system.ground_index] = 0.0
    return b


def _frozen_start_vector(system, vsources, nodesets):
    x = np.zeros(system.size + 1)
    for src in vsources:
        if is_ground(src.nn) and not is_ground(src.np):
            x[system.node(src.np)] = src.dc
        elif is_ground(src.np) and not is_ground(src.nn):
            x[system.node(src.nn)] = -src.dc
    for node, volts in nodesets.items():
        if not is_ground(node):
            x[system.node(node)] = volts
    return x


def _same(a, b, what):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _fresh_compile(monkeypatch, circuit, temp_c=25.0):
    """``circuit`` compiled through an empty cache of its own."""
    with monkeypatch.context() as m:
        m.setattr(mna, "STRUCTURES", StructureCache(4))
        return circuit.compile(temp_c=temp_c)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
def test_same_structure_hits_and_new_structure_misses():
    tag = _unique_tag()
    hits, misses = STRUCTURES.hits, STRUCTURES.misses
    a = _chain(3, tag).compile()
    assert (STRUCTURES.hits, STRUCTURES.misses) == (hits, misses + 1)
    b = _chain(3, tag, value=2e3).compile(temp_c=85.0)
    assert (STRUCTURES.hits, STRUCTURES.misses) == (hits + 1, misses + 1)
    assert a.structure is b.structure
    assert circuit_signature(_chain(3, tag)) in STRUCTURES
    _chain(4, tag).compile()
    assert STRUCTURES.misses == misses + 2


def _rewired_pair(tag: str) -> tuple[Circuit, Circuit]:
    """Two circuits with the same element names, types and node set, and
    so the same stamp-entry counts, wired differently."""
    a, b = Circuit(f"ladder_{tag}"), Circuit(f"ladder_{tag}")
    for c, (n1, n2) in ((a, ("b", "c")), (b, ("c", "b"))):
        c.vsource("v", f"{tag}a", "gnd", dc=1.0)
        c.resistor("r0", f"{tag}a", f"{tag}{n1}", 1e3)
        c.resistor("r1", f"{tag}{n1}", f"{tag}{n2}", 2e3)
        c.resistor("rl", f"{tag}{n2}", "gnd", 3e3)
        c.isource("i", f"{tag}{n1}", "gnd", dc=1e-4)
    return a, b


def test_a_same_count_rewiring_compiles_through_its_own_entry(monkeypatch):
    a, b = _rewired_pair(_unique_tag())
    assert circuit_signature(a) != circuit_signature(b)
    first = a.compile()
    rewired = b.compile()
    assert rewired.structure is not first.structure
    assert rewired.structure.signature == circuit_signature(b)
    ref = _fresh_compile(monkeypatch, b)
    _same(rewired.g_static, ref.g_static, "G of the rewired circuit")
    _same(rewired.rhs_dc(), ref.rhs_dc(), "rhs of the rewired circuit")
    _same(_initial_guess(rewired), _initial_guess(ref), "start vector")
    # And the first circuit still stamps through its own entry.
    again = _fresh_compile(monkeypatch, a)
    _same(a.compile().g_static, again.g_static, "G of the first circuit")


def test_cached_arrays_are_read_only():
    st = all_elements().compile().structure
    arrays = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
    arrays += [st.plan.g_idx, st.plan.c_idx, *st.mos_nodes, *st.bjt_nodes,
               *st.diode_nodes]
    assert len(arrays) >= 20
    for arr in arrays:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        st.plan.g_idx[0] = 0
    with pytest.raises(ValueError):
        st.mos_cap_idx[...] = 0


def test_the_bound_evicts_the_least_recently_used():
    assert STRUCTURES.maxsize == STRUCTURE_CACHE_SIZE
    cache = StructureCache(2)
    tag = _unique_tag()
    c1, c2, c3, c4 = (_chain(n, tag) for n in (1, 2, 3, 4))
    s1 = cache.get(c1)
    cache.get(c2)
    cache.get(c3)
    assert len(cache) == 2 and circuit_signature(c1) not in cache
    cache.get(c2)                       # c2 is now the most recent
    cache.get(c4)
    assert circuit_signature(c2) in cache
    assert circuit_signature(c3) not in cache
    assert (cache.hits, cache.misses) == (1, 4)
    assert cache.get(c1) is not s1      # rebuilt after eviction
    assert cache.misses == 5


def test_a_colliding_signature_with_other_entry_counts_raises(monkeypatch):
    tag = _unique_tag()
    small, large = _chain(1, tag), _chain(2, tag)
    with monkeypatch.context() as m:
        # Every circuit collides on one key, in a cache of its own.
        m.setattr(mna, "STRUCTURES", StructureCache(4))
        m.setattr(mna, "circuit_signature", lambda circuit: ("collision",))
        small.compile()
        with pytest.raises(RuntimeError, match="circuit_signature"):
            MnaSystem(large)
    pattern = small.compile()
    with pytest.raises(BatchStructureError):
        BatchedSystem(pattern, [small, large], [25.0, 25.0], check_structure=False)


# ----------------------------------------------------------------------
# What stays per system
# ----------------------------------------------------------------------
def _mos_buffers(system):
    return [system._mos_idx_buf, system._mos_val_buf]


def test_systems_of_one_entry_share_no_mutable_buffer(monkeypatch):
    c0, c1 = all_elements(0), all_elements(1)
    s0, s1 = c0.compile(temp_c=-20.0), c1.compile(temp_c=85.0)
    assert s0.structure is s1.structure
    mutable = lambda s: _mos_buffers(s) + [s.g_static, s.c_static]  # noqa: E731
    for a in mutable(s0):
        for b in mutable(s1):
            assert not np.shares_memory(a, b)
    for a in _mos_buffers(s0):
        for b in _mos_buffers(s0.companion(np.zeros_like(s0.g_static))):
            assert not np.shares_memory(a, b)

    ref0 = _fresh_compile(monkeypatch, c0, -20.0)
    ref1 = _fresh_compile(monkeypatch, c1, 85.0)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x0, x1 = (rng.uniform(-1.5, 1.5, s0.size + 1) for _ in range(2))
        x0[-1] = x1[-1] = 0.0
        # Hold system 0's Jacobian entries across system 1's assembly.
        idx0, vals0 = s0._mos_jac_entries(s0.mos_group.evaluate(x0))
        jac1, resid1, _ = s1.assemble(x1, s1.rhs_dc(), gmin=1e-9)
        ref_idx, ref_vals = ref0._mos_jac_entries(ref0.mos_group.evaluate(x0))
        _same(idx0, ref_idx, "held MOS indices")
        _same(vals0, ref_vals, "held MOS values")
        jac0, resid0, _ = s0.assemble(x0, s0.rhs_dc())
        for s, ref, x, jac, resid, gmin in ((s0, ref0, x0, jac0, resid0, 0.0),
                                           (s1, ref1, x1, jac1, resid1, 1e-9)):
            jac_ref, resid_ref, _ = ref.assemble(x, ref.rhs_dc(), gmin=gmin)
            _same(jac, jac_ref, "interleaved jac")
            _same(resid, resid_ref, "interleaved resid")


def test_rhs_caches_stay_per_system():
    c0, c1 = all_elements(0), all_elements(1)
    s0, s1 = c0.compile(), c1.compile()
    b0, b1 = s0.rhs_dc(), s1.rhs_dc()
    assert not np.array_equal(b0, b1)
    assert s0.rhs_dc() is b0 and s1.rhs_ac() is not s0.rhs_ac()


# ----------------------------------------------------------------------
# Values are re-read; structure edits miss
# ----------------------------------------------------------------------
def test_a_value_edited_after_compile_is_stamped(monkeypatch):
    circuit = all_elements()
    before = circuit.compile(temp_c=85.0)
    circuit.element("r1").value = 4.321e3
    circuit.element("m1").w = 13e-6
    circuit.element("m2").model = circuit.element("m1").model.__class__(
        name="p2", polarity="pmos", vth0=0.9)
    circuit.element("vdd").dc = 2.9
    circuit.element("ib").dc = 7e-6
    circuit.element("s_off").closed = True
    after = circuit.compile(temp_c=85.0)
    assert after.structure is before.structure
    assert not np.array_equal(after.g_static, before.g_static)
    ref = _fresh_compile(monkeypatch, circuit, 85.0)
    _same(after.g_static, ref.g_static, "G after edits")
    _same(after.c_static, ref.c_static, "C after edits")
    _same(after.rhs_dc(), ref.rhs_dc(), "rhs after edits")
    for attr in ("w", "vth0", "kp", "isat"):
        _same(getattr(after.mos_group, attr), getattr(ref.mos_group, attr), attr)


def test_a_structural_edit_misses():
    circuit = all_elements()
    first = circuit.compile()
    misses = STRUCTURES.misses
    circuit.resistor("r_new", "out", "gnd", 2e3)
    grown = circuit.compile()
    assert STRUCTURES.misses == misses + 1
    assert grown.structure is not first.structure
    circuit.remove("r_new")
    circuit.element("r2").n2 = "in"     # rewire in place: a new signature
    rewired = circuit.compile()
    assert rewired.structure.signature != first.structure.signature
    assert rewired.g_static[rewired.node("mid"), rewired.node("in")] != 0.0


def test_unsupported_elements_are_never_cached():
    tag = _unique_tag()
    c = _chain(1, tag)
    c.cccs("f", f"{tag}0", "gnd", control="r0", gain=2.0)
    for _ in range(2):
        with pytest.raises(TypeError, match="branch current"):
            c.compile()
    assert circuit_signature(c) not in STRUCTURES


# ----------------------------------------------------------------------
# Source replay equals the frozen loops
# ----------------------------------------------------------------------
COLUMNS = (
    {},
    {"vdd": (0.0, None)},
    {"vin": (0.0, None), "vss": (1.0, 0.0), "vdd": (0.5, -1.2)},
    {"ia": (0.0, None), "ic": (2.0, None), "id": (1.0, 0.4)},
    {"vx1": (1.0, 0.0), "vx3": (0.0, None), "ib2": (0.3, -2.0)},
)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_serial_source_replay_equals_the_frozen_loops(k):
    circuit = _shared_isources(k)
    circuit.nodesets.update({"x2": 0.33, "gnd": 5.0})
    system = circuit.compile()
    vs, isrc = system.vsources, system.isources
    assert len(isrc) == 5
    _same(system.rhs_dc(), _frozen_dc_rhs(system, vs, isrc), "rhs_dc")
    _same(system.rhs_ac(), _frozen_ac_rhs(system, vs, isrc, {}), "rhs_ac")
    for overrides in COLUMNS:
        _same(ac_rhs(system, vs, isrc, overrides),
              _frozen_ac_rhs(system, vs, isrc, overrides), f"ac_rhs {overrides}")
    _same(_initial_guess(system),
          _frozen_start_vector(system, vs, circuit.nodesets), "start_vector")
    # x2 is held by two grounded sources: the later one wins, then the nodeset.
    circuit.nodesets.pop("x2")
    guess = _initial_guess(system)
    assert guess[system.node("x2")] == circuit.element("vx2").dc
    assert guess[system.node("x3")] == -circuit.element("vx3").dc


def test_stacked_source_replay_equals_the_frozen_loops():
    circuits = [_shared_isources(k) for k in range(3)]
    circuits[1].nodesets["x3"] = -0.1
    system = circuits[0].compile()
    levels = lambda fam: np.array([[s.dc for s in system.structure.members(c)[fam]]  # noqa: E731
                                   for c in circuits])
    rhs = dc_rhs(system, levels(0), levels(1))
    guess = start_vector(system, levels(0), [c.nodesets for c in circuits])
    for u, c in enumerate(circuits):
        vs, isrc = system.structure.members(c)[:2]
        _same(rhs[u], _frozen_dc_rhs(system, vs, isrc), f"stacked rhs {u}")
        _same(guess[u], _frozen_start_vector(system, vs, c.nodesets),
              f"stacked guess {u}")


def test_batched_rhs_and_guess_equal_each_units_frozen_loops():
    """Units sharing one circuit across -20/25/85 degC, current sources
    sharing nodes, and the probe columns of the batch (stamped once per
    circuit and probe, skipped for a unit without a probe)."""
    circuits = [_shared_isources(k) for k in range(3) for _ in TEMPS]
    temps = [t for _ in range(3) for t in TEMPS]
    pattern = circuits[0].compile(temp_c=temps[0])
    bs = BatchedSystem(pattern, circuits, temps)
    rhs, guess = bs.rhs_dc(), bs.initial_guess()
    probes = {u: Probe(1e3, COLUMNS, "out", None) for u in range(bs.n_units)}
    probes[4] = Probe(1e3, COLUMNS[::-1], "out", None)
    del probes[7]
    columns = bs.probe_rhs(probes)
    assert columns.shape == (9, bs.size, len(COLUMNS))
    assert not columns[7].any()
    for u, (c, t) in enumerate(zip(circuits, temps)):
        ref = c.compile(temp_c=t)
        _same(rhs[u], _frozen_dc_rhs(ref, ref.vsources, ref.isources), f"rhs {u}")
        _same(guess[u], _frozen_start_vector(ref, ref.vsources, c.nodesets),
              f"guess {u}")
        if u in probes:
            frozen = [_frozen_ac_rhs(ref, ref.vsources, ref.isources, ov)[:bs.size]
                      for ov in probes[u].columns]
            _same(columns[u], np.stack(frozen, axis=-1), f"probe columns {u}")



def test_concurrent_compiles_under_eviction(monkeypatch):
    """More threads than cores compiling four structures through a
    two-entry cache, with a short switch interval: every system stamps
    its own values, no count is lost and the bound holds."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    tags = [_unique_tag() for _ in range(4)]
    circuits = [_chain(3 + k % 4, tags[k % 4], value=1e3 * (1 + k / 7))
                for k in range(64)]
    refs = [_fresh_compile(monkeypatch, c, 85.0).g_static for c in circuits]
    cache = StructureCache(2)
    monkeypatch.setattr(mna, "STRUCTURES", cache)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            systems = list(pool.map(lambda c: c.compile(temp_c=85.0), circuits,
                                    timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for c, s, ref in zip(circuits, systems, refs):
        _same(s.g_static, ref, c.name)
    assert cache.hits + cache.misses == len(circuits)
    assert len(cache) <= 2
