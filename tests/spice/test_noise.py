"""Noise analysis: textbook identities and internal consistency.

The killer validation is the kT/C identity: the total output noise of an
RC filter integrates to sqrt(kT/C) regardless of R — if the adjoint
machinery, PSD bookkeeping or integration were wrong by any constant
factor, this test would catch it.
"""

import numpy as np
import pytest

from repro.constants import BOLTZMANN, ELEMENTARY_CHARGE
from repro.spice import Circuit, DiodeModel, dc_operating_point, noise_analysis
from repro.spice.analysis import log_freqs

KT = BOLTZMANN * 298.15


def make_rc(r=1e3, c=1e-9):
    ckt = Circuit("rc_noise")
    ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
    ckt.resistor("r1", "a", "b", r)
    ckt.capacitor("c1", "b", "gnd", c)
    return ckt


class TestTextbookIdentities:
    def test_resistor_psd_is_4ktr(self):
        ckt = make_rc(r=10e3, c=1e-15)  # pole far above the sweep
        op = dc_operating_point(ckt)
        nr = noise_analysis(op, np.array([10.0, 1e3]), "b")
        assert nr.output_psd[0] == pytest.approx(4 * KT * 10e3, rel=1e-3)

    @pytest.mark.parametrize("r", [1e2, 1e4, 1e6])
    def test_kt_over_c_total_noise(self, r):
        """Integrated RC output noise = sqrt(kT/C), independent of R."""
        c = 1e-9
        fc = 1.0 / (2 * np.pi * r * c)
        freqs = log_freqs(fc * 1e-3, fc * 1e3, 24)
        ckt = make_rc(r=r, c=c)
        op = dc_operating_point(ckt)
        nr = noise_analysis(op, freqs, "b")
        total = np.sqrt(np.trapezoid(nr.output_psd, freqs))
        expected = np.sqrt(KT / c)
        assert total == pytest.approx(expected, rel=0.02)

    def test_divider_input_referral(self):
        """Output noise of a 2:1 divider referred to the input doubles."""
        ckt = Circuit("div")
        ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 1e3)
        op = dc_operating_point(ckt)
        nr = noise_analysis(op, np.array([1e3]), "b")
        # output PSD = 4kT*(R1||R2); gain = 1/2; input PSD = 4x output
        assert nr.output_psd[0] == pytest.approx(4 * KT * 500.0, rel=1e-6)
        assert nr.gain[0] == pytest.approx(0.5, rel=1e-9)
        assert nr.input_psd[0] == pytest.approx(4 * nr.output_psd[0], rel=1e-6)

    def test_noiseless_resistor_excluded(self):
        ckt = Circuit("quiet")
        ckt.vsource("vin", "a", "gnd", dc=0.0, ac=1.0)
        ckt.resistor("r1", "a", "b", 1e3, noisy=False)
        ckt.resistor("r2", "b", "gnd", 1e3)
        op = dc_operating_point(ckt)
        nr = noise_analysis(op, np.array([1e3]), "b")
        assert nr.output_psd[0] == pytest.approx(4 * KT * 500.0 / 2.0, rel=1e-6)

    def test_diode_flicker_at_the_operating_point(self):
        """A diode's KF adds kf*|I_D|^af/f into its node's impedance."""
        kf, r = 1e-12, 1e3
        ckt = Circuit("diode_flicker")
        ckt.vsource("v1", "a", "gnd", dc=2.0, ac=1.0)
        ckt.resistor("r1", "a", "b", r)
        ckt.diode("d1", "b", "gnd", DiodeModel(kf=kf))
        op = dc_operating_point(ckt)
        freqs = np.array([10.0, 100.0, 1e3])
        nr = noise_analysis(op, freqs, "b")
        ev = op.system.diode_group.evaluate(op.x)
        i_d = abs(ev.current[0])
        z2 = (1.0 / (1.0 / r + ev.gd[0])) ** 2
        flat = (4 * KT / r + 2 * ELEMENTARY_CHARGE * i_d) * z2
        assert nr.output_psd[0] > 50.0 * nr.output_psd[2]
        np.testing.assert_allclose(nr.output_psd,
                                   flat + kf * i_d / freqs * z2, rtol=1e-9)


class TestConsistency:
    def test_contributions_sum_to_total(self, mic_amp_noise):
        total = sum(psd for psd in mic_amp_noise.contributions.values())
        assert np.allclose(total, mic_amp_noise.output_psd, rtol=1e-9)

    def test_all_contributions_nonnegative(self, mic_amp_noise):
        for psd in mic_amp_noise.contributions.values():
            assert np.all(psd >= 0.0)

    def test_psd_positive_everywhere(self, mic_amp_noise):
        assert np.all(mic_amp_noise.output_psd > 0.0)

    def test_requires_ac_stimulus(self):
        ckt = Circuit("noac")
        ckt.vsource("vin", "a", "gnd", dc=1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 1e3)
        op = dc_operating_point(ckt)
        with pytest.raises(ValueError, match="AC stimulus"):
            noise_analysis(op, np.array([1e3]), "b")

    def test_band_edges_validated(self, mic_amp_noise):
        with pytest.raises(ValueError, match="empty"):
            mic_amp_noise.average_input_density(1e3, 1e3)
        with pytest.raises(ValueError, match="outside"):
            mic_amp_noise.average_input_density(1e-3, 1e3)


class TestMicAmpNoiseShape:
    """The Fig. 7 shape requirements from DESIGN.md acceptance criteria."""

    def test_monotone_decreasing_to_floor(self, mic_amp_noise):
        nv = mic_amp_noise.input_nv()
        f = mic_amp_noise.freqs
        low = nv[np.argmin(np.abs(f - 30.0))]
        mid = nv[np.argmin(np.abs(f - 1e3))]
        high = nv[np.argmin(np.abs(f - 30e3))]
        assert low > mid > high * 0.99

    def test_flicker_slope_at_low_frequency(self, mic_amp_noise):
        """Below the corner the PSD rises roughly as 1/f."""
        psd10 = np.interp(10.0, mic_amp_noise.freqs, mic_amp_noise.input_psd)
        psd100 = np.interp(100.0, mic_amp_noise.freqs, mic_amp_noise.input_psd)
        thermal = np.interp(50e3, mic_amp_noise.freqs, mic_amp_noise.input_psd)
        ratio = (psd10 - thermal) / max(psd100 - thermal, 1e-30)
        assert 5.0 < ratio < 20.0

    def test_input_devices_dominate_thermal_floor(self, mic_amp_noise):
        """Sec. 3.2: T1..T4 should be the largest single MOS contributor."""
        ranked = mic_amp_noise.top_contributors(50e3, 20)
        mos_entries = [d for d, mech, _ in ranked if d.startswith("t")]
        assert mos_entries[0] in ("t1", "t2", "t3", "t4")

    def test_gain_matches_code(self, mic_amp_noise):
        assert np.interp(1e3, mic_amp_noise.freqs, mic_amp_noise.gain) == pytest.approx(
            100.0, rel=0.02
        )
