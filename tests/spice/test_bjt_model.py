"""Bipolar model: Ebers-Moll behaviour, tempco, derivative consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.process.technology import VPNP_12
from repro.spice.devices.bjt import BjtGroup, BjtModel, NPN


NPN_TEST = BjtModel(name="npn_test", polarity=NPN, is_sat=1e-16, beta_f=100.0)


def evaluate_single(model, vc, vb, ve, temp_c=25.0, area=1.0):
    grp = BjtGroup(
        names=["q"],
        c=np.array([0]), b=np.array([1]), e=np.array([2]),
        area=np.array([area]), models=[model], temp_c=temp_c,
    )
    return grp, grp.evaluate(np.array([vc, vb, ve, 0.0]))


class TestForwardActive:
    def test_collector_current_exponential(self):
        _, ev1 = evaluate_single(NPN_TEST, 2.0, 0.65, 0.0)
        _, ev2 = evaluate_single(NPN_TEST, 2.0, 0.65 + 0.05961, 0.0)
        # 60 mV per decade at room temperature
        assert ev2.ic[0] / ev1.ic[0] == pytest.approx(10.0, rel=0.05)

    def test_beta_relation(self):
        _, ev = evaluate_single(NPN_TEST, 2.0, 0.65, 0.0)
        assert ev.ic[0] / ev.ib[0] == pytest.approx(100.0, rel=0.05)

    def test_area_scales_current(self):
        _, ev1 = evaluate_single(NPN_TEST, 2.0, 0.65, 0.0, area=1.0)
        _, ev8 = evaluate_single(NPN_TEST, 2.0, 0.65, 0.0, area=8.0)
        assert ev8.ic[0] / ev1.ic[0] == pytest.approx(8.0, rel=1e-6)

    def test_early_effect_increases_ic(self):
        _, lo = evaluate_single(NPN_TEST, 1.0, 0.65, 0.0)
        _, hi = evaluate_single(NPN_TEST, 3.0, 0.65, 0.0)
        assert hi.ic[0] > lo.ic[0]
        assert hi.ic[0] / lo.ic[0] == pytest.approx(
            (1 + 3.0 / NPN_TEST.vaf) / (1 + 1.0 / NPN_TEST.vaf), rel=0.02
        )

    def test_pnp_polarity(self):
        """Vertical PNP with emitter above base conducts into the emitter."""
        _, ev = evaluate_single(VPNP_12, 0.0, 0.0, 0.75)
        # ic is current INTO the collector: for a PNP it flows out => negative
        assert ev.ic[0] < 0.0
        assert ev.vbe[0] == pytest.approx(0.75)


class TestVbeTemperature:
    def test_vbe_tempco_is_about_minus_1_5_to_2_mv_per_k(self):
        """The CTAT slope the bandgap cancels."""

        def vbe_at(temp_c, ic_target=20e-6):
            # invert Ic(vbe) ~ IS*exp(vbe/UT)
            grp, _ = evaluate_single(VPNP_12, 0.0, 0.0, 0.7, temp_c=temp_c)
            from repro.constants import thermal_voltage

            ut = thermal_voltage(temp_c)
            return ut * np.log(ic_target / VPNP_12.is_at(temp_c))

        slope = (vbe_at(35.0) - vbe_at(15.0)) / 20.0
        assert -2.2e-3 < slope < -1.3e-3

    def test_is_increases_steeply_with_temperature(self):
        assert VPNP_12.is_at(85.0) / VPNP_12.is_at(25.0) > 100.0


class TestDerivatives:
    @given(st.floats(min_value=0.45, max_value=0.8))
    @settings(max_examples=25, deadline=None)
    def test_gm_matches_numeric(self, vbe):
        h = 1e-7
        _, ev = evaluate_single(NPN_TEST, 2.0, vbe, 0.0)
        _, hi = evaluate_single(NPN_TEST, 2.0, vbe + h, 0.0)
        _, lo = evaluate_single(NPN_TEST, 2.0, vbe - h, 0.0)
        numeric = (hi.ic[0] - lo.ic[0]) / (2 * h)
        assert ev.gm[0] == pytest.approx(numeric, rel=2e-3, abs=1e-12)

    @given(st.floats(min_value=0.45, max_value=0.8))
    @settings(max_examples=25, deadline=None)
    def test_gpi_matches_numeric(self, vbe):
        h = 1e-7
        _, ev = evaluate_single(NPN_TEST, 2.0, vbe, 0.0)
        _, hi = evaluate_single(NPN_TEST, 2.0, vbe + h, 0.0)
        _, lo = evaluate_single(NPN_TEST, 2.0, vbe - h, 0.0)
        numeric = (hi.ib[0] - lo.ib[0]) / (2 * h)
        assert ev.gpi[0] == pytest.approx(numeric, rel=2e-3, abs=1e-14)

    def test_limited_exp_keeps_currents_finite(self):
        _, ev = evaluate_single(NPN_TEST, 2.0, 5.0, 0.0)
        assert np.isfinite(ev.ic[0])
        assert np.isfinite(ev.gm[0])


class TestNoise:
    def test_shot_noise_tracks_currents(self):
        grp, ev = evaluate_single(NPN_TEST, 2.0, 0.65, 0.0)
        sic, sib = grp.shot_noise_psd(ev)
        from repro.constants import ELEMENTARY_CHARGE

        assert sic[0] == pytest.approx(2 * ELEMENTARY_CHARGE * abs(ev.ic[0]), rel=1e-9)
        assert sib[0] == pytest.approx(2 * ELEMENTARY_CHARGE * abs(ev.ib[0]), rel=1e-9)

    def test_flicker_coefficient_tracks_base_current(self):
        grp, ev = evaluate_single(VPNP_12, 0.0, 0.0, 0.75)
        coeff = grp.flicker_coefficient(ev)[0]
        assert coeff > 0.0
        assert coeff == pytest.approx(
            VPNP_12.kf * abs(ev.ib[0]) ** VPNP_12.af, rel=1e-12)


class TestValidation:
    def test_polarity_validated(self):
        with pytest.raises(ValueError, match="polarity"):
            BjtModel(polarity="npn2")

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            BjtModel(is_sat=-1e-16)
