"""Eqs. 2-5: the analytic noise budget against the simulator."""

import numpy as np
import pytest

from repro.analysis.dynamic_range import (
    VoiceBandBudget,
    eq2_required_noise,
    snr_from_noise,
    snr_from_spectrum,
)
from repro.analysis.noise_budget import (
    MicAmpNoiseBudget,
    eq4_output_noise_psd,
    eq5_switch_noise,
    eq5_switch_ron,
    mos_flicker_svg,
    mos_thermal_svg,
    resistor_psd,
)
from repro.constants import BOLTZMANN

KT4 = 4 * BOLTZMANN * 298.15


class TestEq2:
    def test_paper_headline_number(self):
        """Eq. 2 with the paper's numbers gives exactly 5.1 nV/rtHz."""
        assert eq2_required_noise() * 1e9 == pytest.approx(5.1, abs=0.05)

    def test_inverse_consistency(self):
        noise = eq2_required_noise()
        assert snr_from_noise(noise) == pytest.approx(86.5, abs=0.01)

    def test_enob_of_86_5db_is_14_bits(self):
        assert VoiceBandBudget().effective_bits() == pytest.approx(14.1, abs=0.2)

    def test_tighter_snr_needs_less_noise(self):
        assert eq2_required_noise(snr_db=90.0) < eq2_required_noise(snr_db=80.0)

    def test_snr_from_flat_spectrum_matches_closed_form(self):
        freqs = np.linspace(100.0, 4000.0, 200)
        level = 5.1e-9
        psd = np.full_like(freqs, level**2)
        direct = snr_from_spectrum(freqs, psd, 300.0, 3400.0)
        closed = snr_from_noise(level, bandwidth=3100.0)
        assert direct == pytest.approx(closed, abs=0.1)


class TestEq3Eq5Components:
    def test_thermal_svg_value(self):
        """8kT/(3gm) at gm = 1 mS is about 11 nV^2/Hz x 1e-18."""
        svg = mos_thermal_svg(1e-3)
        assert svg == pytest.approx((8.0 / 3.0) * BOLTZMANN * 298.15 / 1e-3, rel=1e-9)

    def test_thermal_requires_positive_gm(self):
        with pytest.raises(ValueError):
            mos_thermal_svg(0.0)

    def test_flicker_svg_area_law(self):
        a = mos_flicker_svg(1e-25, 1.38e-3, 100e-6, 10e-6, 1e3)
        b = mos_flicker_svg(1e-25, 1.38e-3, 400e-6, 10e-6, 1e3)
        assert a / b == pytest.approx(4.0)

    def test_resistor_psd(self):
        assert resistor_psd(1e3) == pytest.approx(KT4 * 1e3, rel=1e-9)

    def test_eq5_ron_formula(self, tech):
        """Ron = 1/((W/L) muCox Veff)."""
        ron = eq5_switch_ron(tech, w_over_l=100.0, veff=0.5)
        assert ron == pytest.approx(1.0 / (100.0 * tech.nmos.kp * 0.5), rel=1e-9)

    def test_eq5_noise_tracks_ron(self, tech):
        n1 = eq5_switch_noise(tech, 100.0, 0.5)
        n2 = eq5_switch_noise(tech, 200.0, 0.5)
        assert n1 / n2 == pytest.approx(2.0, rel=1e-9)

    def test_eq5_rejects_off_switch(self, tech):
        with pytest.raises(ValueError):
            eq5_switch_ron(tech, 100.0, -0.1)

    def test_eq4_structure(self):
        """Output noise scales as A_cl^2 and grows with Ra||Rf and Ron."""
        base = eq4_output_noise_psd(100.0, 250.0, 24750.0, 1e-17, 70.0)
        higher_gain = eq4_output_noise_psd(200.0, 250.0, 24750.0, 1e-17, 70.0)
        bigger_ra = eq4_output_noise_psd(100.0, 500.0, 24500.0, 1e-17, 70.0)
        bigger_ron = eq4_output_noise_psd(100.0, 250.0, 24750.0, 1e-17, 140.0)
        assert higher_gain == pytest.approx(4.0 * base, rel=1e-6)
        assert bigger_ra > base
        assert bigger_ron > base


class TestBudgetVsSimulation:
    """The Sec. 3 argument chain: analytic budget ~ adjoint simulation."""

    @pytest.fixture(scope="class")
    def budget(self, mic_amp_40db, mic_amp_op):
        return MicAmpNoiseBudget.from_design(mic_amp_40db, mic_amp_op)

    def test_thermal_floor_agrees_within_25_percent(self, budget, mic_amp_noise):
        sim = mic_amp_noise.input_nv_at(50e3)
        analytic = budget.input_nv(50e3)
        assert analytic == pytest.approx(sim, rel=0.25)

    def test_1khz_agrees_within_25_percent(self, budget, mic_amp_noise):
        assert budget.input_nv(1e3) == pytest.approx(
            mic_amp_noise.input_nv_at(1e3), rel=0.25
        )

    def test_flicker_corner_in_voice_band_decade(self, budget):
        """Fig. 7: the 1/f knee sits in or just below the voice band."""
        corner = budget.flicker_corner_hz()
        assert 50.0 < corner < 2000.0

    def test_breakdown_sums_to_total(self, budget):
        parts = budget.breakdown(1e3)
        assert sum(parts.values()) == pytest.approx(budget.input_psd(1e3), rel=1e-9)

    def test_gain_code_dependence_matches_eq4(self, budget):
        """Input noise grows toward low-gain codes through R_a||R_f."""
        low = budget.input_psd(10e3, code=0)
        high = budget.input_psd(10e3, code=5)
        delta = low - high
        expected = budget.network_thermal(0) - budget.network_thermal(5)
        assert delta == pytest.approx(expected, rel=1e-9)
