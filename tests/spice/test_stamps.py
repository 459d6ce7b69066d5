"""One stamping code for the serial and the tensor engine.

``MnaSystem`` compiles its static matrices by replaying its COO stamp
plan with ``np.add.at``, and ``BatchedSystem`` assembles N units with the
same device stamps, right-hand sides and start vectors over a leading
unit axis.  None of that may move a bit:

* ``_scalar_compile`` below is the earlier compile, frozen verbatim (one
  scalar ``+=`` per stamp entry, then the per-device capacitance loop);
  every ``g_static``/``c_static`` must equal it bitwise on a scan of the
  campaign builders, on the ingest decks and on a circuit holding every
  element class;
* a batch of value-perturbed siblings of that circuit at -20/25/85 degC
  must give, unit by unit, the bytes of that unit's own compile.
"""

import inspect
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.campaign.builders import build_unit_circuit
from repro.ingest import compile_deck
from repro.process import CMOS12, MismatchSampler, apply_corner
from repro.spice import elements
from repro.spice.batch import BatchedSystem
from repro.spice.dc import _initial_guess
from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel
from repro.spice.elements import (
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.netlist import Circuit

DECK_DIR = pathlib.Path(__file__).parents[1] / "ingest" / "decks"
TEMPS = (-20.0, 25.0, 85.0)


def _scalar_compile(system):
    """The earlier ``MnaSystem.__init__`` stamping chain and
    ``_stamp_mos_capacitances`` loop, with ``system`` supplying only the
    node and branch numbering."""
    circuit, temp_c = system.circuit, system.temp_c
    dim = system.size + 1
    g_static = np.zeros((dim, dim))
    c_static = np.zeros((dim, dim))
    node = system.node

    def conductance(mat, n1, n2, g):
        a, b = node(n1), node(n2)
        mat[a, a] += g
        mat[a, b] -= g
        mat[b, a] -= g
        mat[b, b] += g

    def vsource_topology(name, np_node, nn_node):
        j = system.branch(name)
        a, b = node(np_node), node(nn_node)
        g_static[a, j] += 1.0
        g_static[b, j] -= 1.0
        g_static[j, a] += 1.0
        g_static[j, b] -= 1.0

    mos = []
    for el in circuit:
        if isinstance(el, Resistor):
            conductance(g_static, el.n1, el.n2, 1.0 / el.value_at(temp_c))
        elif isinstance(el, Switch):
            conductance(g_static, el.n1, el.n2, 1.0 / el.resistance)
        elif isinstance(el, Capacitor):
            conductance(c_static, el.n1, el.n2, el.value)
        elif isinstance(el, Inductor):
            j = system.branch(el.name)
            a, b = node(el.n1), node(el.n2)
            g_static[a, j] += 1.0
            g_static[b, j] -= 1.0
            g_static[j, a] += 1.0
            g_static[j, b] -= 1.0
            c_static[j, j] -= el.value
        elif isinstance(el, VoltageSource):
            vsource_topology(el.name, el.np, el.nn)
        elif isinstance(el, Vcvs):
            j = system.branch(el.name)
            vsource_topology(el.name, el.np, el.nn)
            g_static[j, node(el.ncp)] -= el.gain
            g_static[j, node(el.ncn)] += el.gain
        elif isinstance(el, Ccvs):
            j = system.branch(el.name)
            vsource_topology(el.name, el.np, el.nn)
            g_static[j, system.branch(el.control)] -= el.transresistance
        elif isinstance(el, Vccs):
            a, b = node(el.np), node(el.nn)
            cp, cn = node(el.ncp), node(el.ncn)
            g_static[a, cp] += el.gm
            g_static[a, cn] -= el.gm
            g_static[b, cp] -= el.gm
            g_static[b, cn] += el.gm
        elif isinstance(el, Cccs):
            a, b = node(el.np), node(el.nn)
            jc = system.branch(el.control)
            g_static[a, jc] += el.gain
            g_static[b, jc] -= el.gain
        elif isinstance(el, Mosfet):
            mos.append(el)

    if mos:
        w = np.array([el.w for el in mos])
        l = np.array([el.l for el in mos])
        m = np.array([float(el.m) for el in mos])
        models = [el.model for el in mos]
        cox = np.array([mdl.cox for mdl in models])
        cgso = np.array([mdl.cgso for mdl in models])
        cgdo = np.array([mdl.cgdo for mdl in models])
        cj = np.array([mdl.cj for mdl in models])
        ldiff = np.array([mdl.ldiff for mdl in models])
        cgs = (2.0 / 3.0) * w * l * cox * m + cgso * w * m
        cgd = cgdo * w * m
        cjun = cj * w * ldiff * m
        for k, el in enumerate(mos):
            d, g, s, b = node(el.d), node(el.g), node(el.s), node(el.b)
            for a, b_, c in ((g, s, cgs[k]), (g, d, cgd[k]),
                             (d, b, cjun[k]), (s, b, cjun[k])):
                c_static[a, a] += c
                c_static[a, b_] -= c
                c_static[b_, a] -= c
                c_static[b_, b_] += c
    return g_static, c_static


def _assert_compiles_like_scalar(circuit, temp_c):
    system = circuit.compile(temp_c=temp_c)
    g_ref, c_ref = _scalar_compile(system)
    assert system.g_static.tobytes() == g_ref.tobytes(), f"G of {circuit.name}"
    assert system.c_static.tobytes() == c_ref.tobytes(), f"C of {circuit.name}"


def all_elements(k: int = 0) -> Circuit:
    """A circuit holding every element class, all values scaled by
    ``1 + k/10`` so that ``k = 0, 1, 2`` are same-topology siblings."""
    f = 1.0 + k / 10.0
    nmos = MosModel(name="n", vth0=0.7 * f, kp=90e-6 * f)
    pmos = MosModel(name="p", polarity="pmos", vth0=0.8, cgso=2.5e-10 * f)
    c = Circuit(name=f"all_elements_{k}")
    c.vsource("vdd", "vdd", "gnd", dc=2.5 * f, ac=1.0)
    c.vsource("vss", "gnd", "vss", dc=1.0 * f, ac=0.5, ac_phase=0.3)
    c.vsource("vin", "in", "mid", dc=0.1 * f)
    c.isource("ib", "vdd", "bias", dc=10e-6 * f, ac=1e-6)
    c.resistor("r1", "in", "gnd", 1.234e3 * f, tc1=1e-3, tc2=1e-6 * f)
    c.resistor("r2", "mid", "gnd", 10e3)
    c.resistor("rb", "bias", "vss", 50e3 * f)
    c.capacitor("c1", "out", "gnd", 2.5e-12 * f)
    c.inductor("l1", "out", "x", 1e-3 * f)
    c.vcvs("ea", "x", "gnd", "in", "mid", 2.5 * f)
    c.vccs("gm", "out", "gnd", "in", "gnd", 1e-4 * f)
    c.cccs("fb", "y", "gnd", control="ea", gain=0.5 * f)
    c.ccvs("hb", "y", "z", control="l1", transresistance=50.0 * f)
    c.switch("s_on", "z", "gnd", closed=True, ron=123.0 * f)
    c.switch("s_off", "y", "gnd", closed=(k == 2))
    c.mosfet("m1", "out", "in", "vss", "vss", model=nmos, w=10e-6 * f,
             l=1.2e-6, m=1 + k)
    c.mosfet("m2", "out", "bias", "vdd", "vdd", model=pmos, w=20e-6,
             l=1.2e-6 * f)
    c.mosfet("m3", "out", "out", "mid", "vss", model=nmos, w=5e-6, l=2e-6)
    c.bjt("q1", "vss", "bias", "out", model=BjtModel(name="qp", is_sat=2e-17 * f),
          area=1.0 + k)
    c.bjt("q2", "vdd", "in", "x", model=BjtModel(name="qn", polarity="npn"))
    c.diode("d1", "out", "vss", model=DiodeModel(name="d", n_ideality=1.0 + k / 20),
            area=1.5 * f)
    c.nodesets.update({"out": 0.3 * f, "bias": 1.5, "gnd": 9.0})
    return c


def test_all_elements_holds_every_element_class():
    classes = {cls for _, cls in inspect.getmembers(elements, inspect.isclass)
               if issubclass(cls, elements.Element) and cls is not elements.Element}
    assert classes == {type(el) for el in all_elements()}
    assert CurrentSource in classes and len(classes) == 13


# ----------------------------------------------------------------------
# Compile: replay equals the scalar += chain
# ----------------------------------------------------------------------
BUILDER_CASES = [("micamp", 0), ("micamp", 5), ("micamp_sized", None),
                 ("powerbuffer", None), ("bias", None), ("bandgap", None)]


@pytest.mark.parametrize("builder,gain_code", BUILDER_CASES)
def test_builder_scan_compiles_like_scalar(builder, gain_code):
    """6 builder/gain-code cases x tt/ff/ss x nominal/seed 3 x
    -20/25/85 degC = 108 compiles."""
    for corner in ("tt", "ff", "ss"):
        tech = apply_corner(CMOS12, corner)
        for seed in (None, 3):
            sampler = (MismatchSampler.nominal(tech) if seed is None else
                       MismatchSampler(tech, np.random.default_rng(seed)))
            built = build_unit_circuit(builder, tech, sampler, None, gain_code)
            for t in TEMPS:
                _assert_compiles_like_scalar(built.circuit, t)


@pytest.mark.parametrize("deck", ["clocked_comparator", "diff_amp", "ota_5t"])
def test_ingest_decks_compile_like_scalar(deck):
    circuit = compile_deck((DECK_DIR / f"{deck}.sp").read_text(),
                           name=deck).circuit
    for t in TEMPS:
        _assert_compiles_like_scalar(circuit, t)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_all_elements_compiles_like_scalar(k):
    for t in TEMPS:
        _assert_compiles_like_scalar(all_elements(k), t)


def test_unknown_element_still_raises():
    @dataclass
    class Stranger(elements.Element):
        @property
        def nodes(self):
            return ("out", "gnd")

    c = all_elements()
    c.add(Stranger(name="x1"))
    with pytest.raises(TypeError, match="Stranger"):
        c.compile()


# ----------------------------------------------------------------------
# Batch: every unit is its own compile
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch():
    circuits = [all_elements(k) for k in range(3) for _ in TEMPS]
    temps = [t for _ in range(3) for t in TEMPS]
    pattern = circuits[0].compile(temp_c=temps[0])
    bs = BatchedSystem(pattern, circuits, temps)
    serial = [c.compile(temp_c=t) for c, t in zip(circuits, temps)]
    rng = np.random.default_rng(2026)
    x = rng.uniform(-1.5, 1.5, size=(bs.n_units, bs.dim))
    x[:, bs.ground_index] = 0.0
    return bs, serial, x


def _same(a, b, what, u):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"{what}, unit {u}"


def test_batch_has_every_device_family(batch):
    bs, _, _ = batch
    assert bs.n_units == 9
    assert bs.mos_group.w.shape == (9, 3)
    assert bs.bjt_group.area.shape == (9, 2)
    assert bs.diode_group.area.shape == (9, 1)


def test_static_tensors_rhs_and_guess_match_each_compile(batch):
    bs, serial, _ = batch
    rhs, guess = bs.rhs_dc(), bs.initial_guess()
    for u, ref in enumerate(serial):
        _same(bs.g_t[u], ref.g_static, "g_t", u)
        _same(bs.c_t[u], ref.c_static, "c_t", u)
        _same(rhs[u], ref.rhs_dc(), "rhs_dc", u)
        _same(guess[u], _initial_guess(ref), "initial_guess", u)


@pytest.mark.parametrize("gmin", [0.0, 1e-6])
def test_assemble_matches_each_compile(batch, gmin):
    bs, serial, x = batch
    rhs = bs.rhs_dc()
    jac, resid, _ = bs.assemble(x, rhs, gmin=gmin)
    for u, ref in enumerate(serial):
        jac_ref, resid_ref, _ = ref.assemble(x[u], ref.rhs_dc(), gmin=gmin)
        _same(jac[u], jac_ref, "jac", u)
        _same(resid[u], resid_ref, "resid", u)


def test_linearize_matches_each_compile(batch):
    bs, serial, x = batch
    g = bs.linearize(x)
    for u, ref in enumerate(serial):
        _same(g[u], ref.linearize(x[u]), "linearize", u)


def test_take_view_assembles_the_full_rows(batch):
    bs, _, x = batch
    rhs = bs.rhs_dc()
    units = np.array([1, 4, 8])
    jac, resid, _ = bs.assemble(x, rhs)
    jac_v, resid_v, _ = bs.take(units).assemble(x[units], rhs[units])
    for k, u in enumerate(units):
        _same(jac_v[k], jac[u], "view jac", u)
        _same(resid_v[k], resid[u], "view resid", u)
