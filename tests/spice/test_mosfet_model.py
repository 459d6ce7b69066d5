"""MOSFET model physics: regions, symmetry, derivatives, temperature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import thermal_voltage
from repro.process.technology import NMOS_12, PMOS_12
from repro.spice.devices.mosfet import MosGroup, MosModel


def evaluate_single(model, vd, vg, vs, vb, w=10e-6, l=2e-6, temp_c=25.0):
    """Evaluate one device at explicit terminal voltages."""
    grp = MosGroup(
        names=["m"],
        d=np.array([0]), g=np.array([1]), s=np.array([2]), b=np.array([3]),
        w=np.array([w]), l=np.array([l]), m=np.array([1.0]),
        models=[model], temp_c=temp_c,
    )
    volts = np.array([vd, vg, vs, vb, 0.0])
    return grp, grp.evaluate(volts)


class TestRegions:
    def test_off_device_nano_current(self):
        _, ev = evaluate_single(NMOS_12, vd=1.0, vg=0.0, vs=0.0, vb=0.0)
        assert abs(ev.into_drain[0]) < 1e-9

    def test_saturation_square_law_scale(self):
        _, ev = evaluate_single(NMOS_12, vd=2.0, vg=1.2, vs=0.0, vb=0.0)
        beta = NMOS_12.kp * 5.0
        expected = 0.5 * beta * 0.5**2 / NMOS_12.n_slope
        assert ev.into_drain[0] == pytest.approx(expected, rel=0.25)

    def test_triode_resistance(self):
        _, ev = evaluate_single(NMOS_12, vd=0.01, vg=2.0, vs=0.0, vb=0.0)
        g_expected = NMOS_12.kp * 5.0 * (2.0 - NMOS_12.vth0)
        r_actual = 0.01 / ev.into_drain[0]
        assert r_actual == pytest.approx(1.0 / g_expected, rel=0.15)

    def test_weak_inversion_exponential_slope(self):
        """In weak inversion the current decade/step follows n*UT*ln(10)."""
        ut = thermal_voltage(25.0)
        n_ut_ln10 = NMOS_12.n_slope * ut * np.log(10.0)
        _, ev1 = evaluate_single(NMOS_12, vd=1.0, vg=0.42, vs=0.0, vb=0.0)
        _, ev2 = evaluate_single(NMOS_12, vd=1.0, vg=0.42 + n_ut_ln10, vs=0.0, vb=0.0)
        ratio = ev2.into_drain[0] / ev1.into_drain[0]
        assert ratio == pytest.approx(10.0, rel=0.1)

    def test_saturation_flag(self):
        _, ev_sat = evaluate_single(NMOS_12, vd=2.0, vg=1.2, vs=0.0, vb=0.0)
        assert ev_sat.vds[0] > ev_sat.vdsat[0]
        _, ev_tri = evaluate_single(NMOS_12, vd=0.05, vg=2.0, vs=0.0, vb=0.0)
        assert ev_tri.vds[0] < ev_tri.vdsat[0]


class TestSymmetryAndPolarity:
    def test_source_drain_swap_antisymmetry(self):
        """Swapping drain and source negates the terminal current."""
        _, fwd = evaluate_single(NMOS_12, vd=0.3, vg=1.5, vs=0.0, vb=0.0)
        _, rev = evaluate_single(NMOS_12, vd=0.0, vg=1.5, vs=0.3, vb=0.0)
        assert fwd.into_drain[0] == pytest.approx(-rev.into_drain[0], rel=1e-9)
        assert rev.swapped[0]

    def test_pmos_mirrors_nmos(self):
        """A PMOS with mirrored voltages conducts the mirrored current."""
        pmodel = MosModel(name="p", polarity="pmos", vth0=0.7, kp=NMOS_12.kp,
                          gamma=NMOS_12.gamma, phi=NMOS_12.phi,
                          n_slope=NMOS_12.n_slope, clm=NMOS_12.clm)
        _, ev_n = evaluate_single(NMOS_12, vd=1.5, vg=1.2, vs=0.0, vb=0.0)
        _, ev_p = evaluate_single(pmodel, vd=-1.5, vg=-1.2, vs=0.0, vb=0.0)
        assert ev_p.into_drain[0] == pytest.approx(-ev_n.into_drain[0], rel=1e-9)

    def test_zero_vds_zero_current(self):
        _, ev = evaluate_single(NMOS_12, vd=0.0, vg=1.5, vs=0.0, vb=0.0)
        assert ev.into_drain[0] == pytest.approx(0.0, abs=1e-15)


# (vds, vg, vs) with vds > 0 keeps the device in the un-swapped frame,
# where MosEval's gm/gds/gmb are derivatives w.r.t. the physical drain /
# gate / bulk voltages (the swapped frame flips their roles, covered by
# the antisymmetry test above).
bias_points = st.tuples(
    st.floats(min_value=0.01, max_value=1.5),   # vds > 0
    st.floats(min_value=0.2, max_value=2.5),    # vg
    st.floats(min_value=0.0, max_value=1.0),    # vs
)


class TestDerivatives:
    """Analytic gm/gds/gmb must match numerical differentiation; Newton
    convergence of every circuit in the package rests on this."""

    @given(bias_points)
    @settings(max_examples=40, deadline=None)
    def test_gm_matches_numeric(self, point):
        vds, vg, vs = point
        vd = vs + vds
        h = 1e-6
        _, ev = evaluate_single(NMOS_12, vd, vg, vs, 0.0)
        _, hi = evaluate_single(NMOS_12, vd, vg + h, vs, 0.0)
        _, lo = evaluate_single(NMOS_12, vd, vg - h, vs, 0.0)
        numeric = (hi.into_drain[0] - lo.into_drain[0]) / (2 * h)
        assert ev.gm[0] == pytest.approx(numeric, rel=1e-3, abs=1e-10)

    @given(bias_points)
    @settings(max_examples=40, deadline=None)
    def test_gds_matches_numeric(self, point):
        vds, vg, vs = point
        vd = vs + vds
        h = min(1e-6, vds / 4.0)  # keep both probes in the same frame
        _, ev = evaluate_single(NMOS_12, vd, vg, vs, 0.0)
        _, hi = evaluate_single(NMOS_12, vd + h, vg, vs, 0.0)
        _, lo = evaluate_single(NMOS_12, vd - h, vg, vs, 0.0)
        numeric = (hi.into_drain[0] - lo.into_drain[0]) / (2 * h)
        assert abs(ev.gds[0] - numeric) <= max(2e-3 * ev.gds[0], 2e-9)

    @given(st.floats(min_value=0.05, max_value=1.2))
    @settings(max_examples=30, deadline=None)
    def test_gmb_matches_numeric(self, vsb):
        h = 1e-6
        _, ev = evaluate_single(NMOS_12, 2.0, 1.5 + vsb, vsb, 0.0)
        _, hi = evaluate_single(NMOS_12, 2.0, 1.5 + vsb, vsb, 0.0 + h)
        _, lo = evaluate_single(NMOS_12, 2.0, 1.5 + vsb, vsb, 0.0 - h)
        numeric = (hi.into_drain[0] - lo.into_drain[0]) / (2 * h)
        assert ev.gmb[0] == pytest.approx(numeric, rel=2e-3, abs=1e-10)

    @given(bias_points)
    @settings(max_examples=30, deadline=None)
    def test_current_is_continuous(self, point):
        """No jumps across a tiny step anywhere in the bias plane."""
        vds, vg, vs = point
        vd = vs + vds
        _, a = evaluate_single(NMOS_12, vd, vg, vs, 0.0)
        _, b = evaluate_single(NMOS_12, vd + 1e-9, vg + 1e-9, vs, 0.0)
        assert abs(a.into_drain[0] - b.into_drain[0]) < 1e-9


class TestTemperature:
    def test_vth_decreases_with_temperature(self):
        assert NMOS_12.vth_at(85.0) < NMOS_12.vth_at(25.0) < NMOS_12.vth_at(-20.0)

    def test_mobility_degrades_with_temperature(self):
        assert NMOS_12.kp_at(85.0) < NMOS_12.kp_at(25.0)

    def test_strong_inversion_current_drops_when_hot(self):
        _, cold = evaluate_single(NMOS_12, 2.0, 2.0, 0.0, 0.0, temp_c=-20.0)
        _, hot = evaluate_single(NMOS_12, 2.0, 2.0, 0.0, 0.0, temp_c=85.0)
        assert hot.into_drain[0] < cold.into_drain[0]

    def test_weak_inversion_current_rises_when_hot(self):
        _, cold = evaluate_single(NMOS_12, 1.0, 0.45, 0.0, 0.0, temp_c=-20.0)
        _, hot = evaluate_single(NMOS_12, 1.0, 0.45, 0.0, 0.0, temp_c=85.0)
        assert hot.into_drain[0] > cold.into_drain[0]


class TestNoiseModels:
    def test_thermal_noise_saturation(self):
        grp, ev = evaluate_single(NMOS_12, 2.0, 1.5, 0.0, 0.0)
        psd = grp.thermal_noise_psd(ev)[0]
        from repro.constants import BOLTZMANN

        expected = 4 * BOLTZMANN * 298.15 * (2.0 / 3.0) * ev.gm[0]
        assert psd == pytest.approx(expected, rel=0.15)

    def test_thermal_noise_triode_equals_4kt_over_ron(self):
        grp, ev = evaluate_single(NMOS_12, 0.005, 2.0, 0.0, 0.0)
        psd = grp.thermal_noise_psd(ev)[0]
        from repro.constants import BOLTZMANN

        ron = 0.005 / ev.into_drain[0]
        assert psd == pytest.approx(4 * BOLTZMANN * 298.15 / ron, rel=0.2)

    def test_flicker_coefficient_is_gate_law_times_gm2(self):
        grp, ev = evaluate_single(NMOS_12, 2.0, 1.5, 0.0, 0.0, w=10e-6, l=2e-6)
        svg = NMOS_12.kf / (NMOS_12.cox * 10e-6 * 2e-6)
        assert grp.flicker_coefficient(ev)[0] == pytest.approx(
            svg * ev.gm[0] ** 2, rel=1e-12)

    def test_flicker_scales_inverse_area(self):
        grp1, ev1 = evaluate_single(NMOS_12, 2.0, 1.5, 0.0, 0.0, w=10e-6, l=2e-6)
        grp2, ev2 = evaluate_single(NMOS_12, 2.0, 1.5, 0.0, 0.0, w=40e-6, l=2e-6)
        svg1 = grp1.flicker_coefficient(ev1)[0] / ev1.gm[0] ** 2
        svg2 = grp2.flicker_coefficient(ev2)[0] / ev2.gm[0] ** 2
        assert svg1 / svg2 == pytest.approx(4.0, rel=1e-6)

    def test_pmos_flicker_lower_than_nmos(self):
        """The process reason the paper's input pairs are PMOS."""
        assert PMOS_12.kf < NMOS_12.kf


class TestCapacitances:
    def test_gate_caps_scale_with_geometry(self):
        grp1, _ = evaluate_single(NMOS_12, 1.0, 1.0, 0.0, 0.0, w=10e-6, l=2e-6)
        grp2, _ = evaluate_single(NMOS_12, 1.0, 1.0, 0.0, 0.0, w=20e-6, l=2e-6)
        cgs1 = grp1.gate_capacitances()[0][0]
        cgs2 = grp2.gate_capacitances()[0][0]
        assert cgs2 == pytest.approx(2.0 * cgs1, rel=1e-9)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="polarity"):
            MosModel(polarity="cmos")
        with pytest.raises(ValueError, match="magnitude"):
            MosModel(vth0=-0.7)
        with pytest.raises(ValueError, match="slope factor"):
            MosModel(n_slope=0.9)
