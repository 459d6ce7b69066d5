"""SPICE-deck export."""

import pathlib

import numpy as np
import pytest

from repro.spice import Circuit, Pulse, Sine
from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel
from repro.spice.export import _fmt, export_netlist

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def small_circuit(tech):
    ckt = Circuit("demo")
    ckt.vsource("vdd", "vdd", "gnd", dc=2.6, ac=1.0)
    ckt.vsource("vin", "in", "gnd", dc=0.9,
                wave=Sine(offset=0.9, amplitude=0.1, freq=1e3))
    ckt.resistor("rl", "vdd", "out", 10e3, tc1=8e-4)
    ckt.capacitor("cl", "out", "gnd", 1e-12)
    ckt.mosfet("m1", "out", "in", "gnd", "gnd", tech.nmos, 50e-6, 2e-6)
    ckt.bjt("q1", "gnd", "gnd", "e1", tech.vpnp)
    ckt.isource("ib", "e1", "gnd", dc=-20e-6)
    ckt.switch("s1", "out", "tap", closed=True, ron=100.0)
    ckt.resistor("rtap", "tap", "gnd", 1e3)
    return ckt


class TestExport:
    def test_contains_every_element(self, small_circuit):
        deck = export_netlist(small_circuit)
        for prefix in ("Vvdd", "Vvin", "Rrl", "Ccl", "Mm1", "Qq1", "Iib", "Rs1"):
            assert prefix in deck, f"{prefix} missing from deck"

    def test_ground_is_node_zero(self, small_circuit):
        deck = export_netlist(small_circuit)
        assert "Vvdd vdd 0 DC 2.6 AC 1 0" in deck

    def test_model_cards_emitted_once(self, small_circuit, tech):
        deck = export_netlist(small_circuit)
        assert deck.count(f".model {tech.nmos.name} NMOS") == 1
        assert deck.count(f".model {tech.vpnp.name} PNP") == 1

    def test_sine_wave_rendered(self, small_circuit):
        deck = export_netlist(small_circuit)
        assert "SIN(0.9 0.1 1000" in deck

    def test_pulse_and_pwl(self, tech):
        ckt = Circuit("w")
        ckt.vsource("v1", "a", "gnd",
                    wave=Pulse(v1=0, v2=1, delay=1e-6, rise=1e-9,
                               fall=1e-9, width=1e-3, period=2e-3))
        ckt.resistor("r1", "a", "gnd", 1.0)
        deck = export_netlist(ckt)
        assert "PULSE(0 1 1e-06" in deck

    def test_ends_with_end_card(self, small_circuit):
        assert export_netlist(small_circuit).rstrip().endswith(".end")

    def test_resistor_tempco_exported(self, small_circuit):
        deck = export_netlist(small_circuit)
        assert "TC=0.0008,0" in deck

    def test_fmt_round_trips_awkward_values(self):
        for v in (0.0, -0.0, 0.5e-15, 2.4999999999e-15, 1e-18, 1.0 / 3.0,
                  -7.2345678912e-6, 6.62607015e-34, 1e-300):
            assert float(_fmt(v)) == float(v), f"_fmt broke {v!r}"

    def test_fmt_zero_is_plain_zero(self):
        assert _fmt(0.0) == "0"
        assert _fmt(-0.0) == "0"

    def test_fmt_keeps_short_values_short(self):
        assert _fmt(2.6) == "2.6"
        assert _fmt(10e3) == "10000"
        assert _fmt(1e-12) == "1e-12"

    def test_full_mic_amp_exports(self, mic_amp_40db):
        deck = export_netlist(mic_amp_40db.circuit, title="Fig. 4 deck")
        assert deck.startswith("* Fig. 4 deck")
        # every MOSFET present
        n_mos = sum(1 for line in deck.splitlines() if line.startswith("Mm")
                    or line.startswith("Mt") or line.startswith("Msw"))
        assert n_mos == len(mic_amp_40db.circuit.mosfets())


def _golden_circuit(reorder: bool = False) -> Circuit:
    """A deck exercising MOS, BJT and diode model cards plus the _fmt
    edge cases (sub-femto, zero, full-precision mantissas).  Models are
    constructed explicitly so the golden file pins the *export* code, not
    the calibrated technology numbers."""
    nmos = MosModel(name="gold_n", polarity="nmos", vth0=0.7, kp=9.1e-5,
                    gamma=0.6, phi=0.7, clm=0.06e-6, kf=2.4999999999e-24,
                    cgso=2.2e-10, cgdo=2.2e-10)
    pmos = MosModel(name="gold_p", polarity="pmos", vth0=0.75, kp=3.2e-5,
                    gamma=0.5, phi=0.7, clm=0.08e-6, kf=1e-24,
                    cgso=2.6e-10, cgdo=2.6e-10)
    pnp = BjtModel(name="gold_pnp", polarity="pnp", is_sat=2e-17)
    dio = DiodeModel(name="gold_d", is_sat=1e-16, n_ideality=1.02)

    ckt = Circuit("golden")
    ckt.vsource("vdd", "vdd", "gnd", dc=2.6, ac=1.0)
    ckt.vsource("vz", "z", "gnd", dc=-0.0)           # negative zero -> "0"
    ckt.resistor("rl", "vdd", "out", 1e4 / 3.0)      # full-precision mantissa
    ckt.capacitor("ctiny", "out", "gnd", 0.5e-15)    # sub-femto
    if reorder:  # same contents, different insertion order
        ckt.mosfet("m2", "z", "out", "vdd", "vdd", pmos, 120e-6, 4e-6)
        ckt.mosfet("m1", "out", "in", "gnd", "gnd", nmos, 50e-6, 2e-6)
    else:
        ckt.mosfet("m1", "out", "in", "gnd", "gnd", nmos, 50e-6, 2e-6)
        ckt.mosfet("m2", "z", "out", "vdd", "vdd", pmos, 120e-6, 4e-6)
    ckt.vsource("vin", "in", "gnd", dc=0.9)
    ckt.bjt("q1", "gnd", "gnd", "e1", pnp)
    ckt.isource("ib", "e1", "gnd", dc=-20e-6)
    ckt.diode("d1", "e1", "z", dio, area=2.0)
    return ckt


class TestGoldenRoundTrip:
    GOLDEN = GOLDEN_DIR / "export_roundtrip.cir"

    def test_matches_golden_file(self):
        deck = export_netlist(_golden_circuit(), title="golden round-trip")
        assert deck == self.GOLDEN.read_text(), \
            "export output drifted from the golden deck"

    def test_model_cards_cover_all_three_families(self):
        deck = self.GOLDEN.read_text()
        assert ".model gold_n NMOS (" in deck
        assert ".model gold_p PMOS (" in deck
        assert ".model gold_pnp PNP (" in deck
        assert ".model gold_d D (" in deck

    def test_export_is_deterministic(self):
        a = export_netlist(_golden_circuit(), title="golden round-trip")
        b = export_netlist(_golden_circuit(), title="golden round-trip")
        assert a == b

    def test_model_card_order_independent_of_device_order(self):
        """Sorted model cards: the card block is canonical even when the
        devices were added in a different order."""
        def cards(deck):
            return [l for l in deck.splitlines() if l.startswith(".model")]

        assert cards(export_netlist(_golden_circuit())) == \
            cards(export_netlist(_golden_circuit(reorder=True)))

    def test_values_round_trip_exactly(self):
        deck = export_netlist(_golden_circuit())
        by_name = {line.split()[0]: line for line in deck.splitlines()
                   if line and not line.startswith(("*", "."))}
        assert float(by_name["Rrl"].split()[3]) == 1e4 / 3.0
        assert float(by_name["Cctiny"].split()[3]) == 0.5e-15
        assert by_name["Vvz"].split()[3:5] == ["DC", "0"]
        w_field = by_name["Mm1"].split()[6]
        assert w_field.startswith("W=") and float(w_field[2:]) == 50e-6
        kf = [f for f in by_name_model(deck, "gold_n").split()
              if f.startswith("KF=")][0]
        assert float(kf[3:]) == 2.4999999999e-24


def by_name_model(deck: str, name: str) -> str:
    for line in deck.splitlines():
        if line.startswith(f".model {name} "):
            return line.rstrip(")")
    raise AssertionError(f"model {name} not in deck")


class TestMismatchDeck:
    """A Monte Carlo trial's devices carry their mismatch as instance
    deltas; the deck writes each such device's own VTO/KP card."""

    def test_every_device_keeps_its_own_values(self, tech):
        from repro.circuits.micamp import build_mic_amp
        from repro.process.mismatch import MismatchSampler

        circuit = build_mic_amp(
            tech, gain_code=5,
            mismatch=MismatchSampler(tech, np.random.default_rng(3))).circuit
        deck = export_netlist(circuit)
        cards = {line.split()[1]: line for line in deck.splitlines()
                 if line.startswith(".model")}
        devices = {line.split()[0][1:]: line.split()[5]
                   for line in deck.splitlines() if line.startswith("M")}
        mismatched = [el for el in circuit.mosfets() if el.dvt or el.dbeta]
        assert mismatched
        for el in circuit.mosfets():
            card = cards[devices[el.name]]
            fields = dict(f.split("=") for f in card.rstrip(")").split("(")[1].split())
            vto = float(fields["VTO"])
            vth0 = el.model.vth0 + el.dvt
            assert vto == (vth0 if el.model.polarity == "nmos" else -vth0)
            assert float(fields["KP"]) == el.model.kp * (1.0 + el.dbeta)
        assert len({devices[el.name] for el in mismatched}) == len(mismatched)

    def test_nominal_deck_shares_model_cards(self, mic_amp_40db):
        deck = export_netlist(mic_amp_40db.circuit)
        names = {el.model.name for el in mic_amp_40db.circuit.mosfets()}
        assert [line.split()[1] for line in deck.splitlines()
                if line.startswith(".model")] == sorted(names)
