"""AC analysis: poles, resonance, margins."""

import numpy as np
import pytest

from repro.spice import Circuit, ac_analysis, dc_operating_point, transfer_function
from repro.spice.ac import loop_gain_margins


@pytest.fixture
def rc_circuit():
    ckt = Circuit("rc")
    ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
    ckt.resistor("r1", "a", "b", 1e3)
    ckt.capacitor("c1", "b", "gnd", 159.154943e-9)  # fc = 1 kHz
    return ckt


class TestFirstOrder:
    def test_pole_magnitude(self, rc_circuit):
        op = dc_operating_point(rc_circuit)
        ac = ac_analysis(op, np.array([1e3]))
        assert abs(ac.v("b")[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-6)

    def test_pole_phase(self, rc_circuit):
        op = dc_operating_point(rc_circuit)
        ac = ac_analysis(op, np.array([1e3]))
        phase = np.degrees(np.angle(ac.v("b")[0]))
        assert phase == pytest.approx(-45.0, abs=0.01)

    def test_rolloff_20db_per_decade(self, rc_circuit):
        op = dc_operating_point(rc_circuit)
        ac = ac_analysis(op, np.array([1e4, 1e5]))
        drop = ac.mag_db("b")[0] - ac.mag_db("b")[1]
        assert drop == pytest.approx(20.0, abs=0.1)

    def test_transfer_function_helper(self, rc_circuit):
        op = dc_operating_point(rc_circuit)
        h = transfer_function(op, np.array([10.0]), "b")
        assert abs(h[0]) == pytest.approx(1.0, rel=1e-4)


class TestSecondOrder:
    def test_rlc_resonance(self):
        ckt = Circuit("rlc")
        ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
        ckt.resistor("r1", "a", "b", 10.0)
        ckt.inductor("l1", "b", "c", 1e-3)
        ckt.capacitor("c1", "c", "gnd", 1e-9)
        op = dc_operating_point(ckt)
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-3 * 1e-9))
        ac = ac_analysis(op, np.array([f0]))
        # at series resonance the capacitor sees Q * Vin, Q = sqrt(L/C)/R
        q = np.sqrt(1e-3 / 1e-9) / 10.0
        assert abs(ac.v("c")[0]) == pytest.approx(q, rel=1e-3)

    def test_q_factor_peaking(self):
        ckt = Circuit("rlc2")
        ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
        ckt.resistor("r1", "a", "b", 100.0)
        ckt.inductor("l1", "b", "gnd", 1e-3)
        op = dc_operating_point(ckt)
        # L against R: high-pass with fc = R/(2 pi L)
        fc = 100.0 / (2 * np.pi * 1e-3)
        ac = ac_analysis(op, np.array([fc]))
        assert abs(ac.v("b")[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-3)


class TestAcResultAccessors:
    def test_differential_and_branch(self, rc_circuit):
        op = dc_operating_point(rc_circuit)
        ac = ac_analysis(op, np.array([1e3]))
        vdiff = ac.vdiff("a", "b")
        assert abs(vdiff[0]) > 0.0
        i_in = ac.i("vin")
        # |I| = |V_R| / R
        assert abs(i_in[0]) == pytest.approx(abs(vdiff[0]) / 1e3, rel=1e-9)


class TestLoopGainMargins:
    def test_two_pole_system(self):
        """Analytic two-pole loop: margins match the closed forms."""
        freqs = np.logspace(2, 8, 400)
        s = 2j * np.pi * freqs
        a0, p1, p2 = 1e4, 2 * np.pi * 1e3, 2 * np.pi * 1e6
        loop = a0 / ((1 + s / p1) * (1 + s / p2))
        m = loop_gain_margins(freqs, loop)
        # unity crossing of a0/(f/f1) happens near a0*f1 until p2 bends it
        assert m["f_unity"] == pytest.approx(2.7e6, rel=0.2)
        assert 15.0 < m["phase_margin_deg"] < 35.0

    def test_no_crossing_returns_nan(self):
        freqs = np.logspace(1, 3, 50)
        loop = np.full_like(freqs, 100.0, dtype=complex)
        m = loop_gain_margins(freqs, loop)
        assert np.isnan(m["f_unity"])


class TestMicAmpAc:
    def test_closed_loop_gain_flat_in_voice_band(self, mic_amp_40db, mic_amp_op):
        freqs = np.array([300.0, 1e3, 3.4e3])
        ac = ac_analysis(mic_amp_op, freqs)
        h = np.abs(ac.vdiff("outp", "outn"))
        assert np.ptp(20 * np.log10(h)) < 0.05

    def test_outputs_antiphase(self, mic_amp_40db, mic_amp_op):
        ac = ac_analysis(mic_amp_op, np.array([1e3]))
        vp = ac.v("outp")[0]
        vn = ac.v("outn")[0]
        assert abs(vp + vn) < 0.02 * abs(vp - vn)
