"""Design-space coordinate maps: bounds, log scale, quantization."""

import numpy as np
import pytest

from repro.optimize.space import DesignSpace, Parameter, mic_amp_design_space


def small_space():
    return DesignSpace([
        Parameter("lin", 0.0, 10.0, default=2.0, step=0.5),
        Parameter("logp", 1e-4, 1e-2, default=1e-3, log=True, step=0.1),
        Parameter("free", -1.0, 1.0),
    ])


class TestParameter:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Parameter("p", 2.0, 1.0)

    def test_rejects_nonpositive_log_bounds(self):
        with pytest.raises(ValueError, match="positive"):
            Parameter("p", -1.0, 1.0, log=True)

    def test_rejects_default_outside_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            Parameter("p", 0.0, 1.0, default=2.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            Parameter("p", 0.0, 1.0, step=0.0)


class TestDesignSpace:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpace([Parameter("a", 0, 1), Parameter("a", 0, 1)])

    def test_unit_round_trip_on_grid(self):
        space = small_space()
        x = np.array([3.5, 1e-3, 0.25])
        back = space.from_unit(space.to_unit(x))
        np.testing.assert_allclose(back[:2], x[:2], rtol=1e-12)
        assert abs(back[2] - 0.25) < 2.0 / 64.0  # free axis: no grid

    def test_quantize_snaps_linear_axis(self):
        space = small_space()
        q = space.quantize(np.array([3.74, 1e-3, 0.0]))
        assert q[0] == pytest.approx(3.5)

    def test_quantize_snaps_log_axis_in_decades(self):
        space = small_space()
        # 0.1-decade grid from 1e-4: ..., 1e-3, 10^-2.9, ...
        q = space.quantize(np.array([0.0, 1.17e-3, 0.0]))
        assert np.log10(q[1]) == pytest.approx(-2.9)

    def test_quantize_clips_to_bounds(self):
        space = small_space()
        q = space.quantize(np.array([99.0, 1.0, -5.0]))
        assert q[0] == 10.0 and q[1] == pytest.approx(1e-2) and q[2] == -1.0

    def test_from_unit_is_quantized_population(self):
        space = small_space()
        u = np.linspace(0.0, 1.0, 15).reshape(5, 3)
        x = space.from_unit(u)
        assert x.shape == (5, 3)
        np.testing.assert_array_equal(x, space.quantize(x))

    def test_key_is_hashable_and_stable(self):
        space = small_space()
        k1 = space.key(np.array([3.5, 1e-3, 0.1]))
        k2 = space.key(np.array([3.5 + 1e-14, 1e-3 * (1 + 1e-14), 0.1]))
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_default_uses_parameter_defaults(self):
        space = small_space()
        d = space.default()
        assert d[0] == pytest.approx(2.0)
        assert d[1] == pytest.approx(1e-3)
        assert d[2] == pytest.approx(0.0, abs=2.0 / 64.0)  # centre


class TestMicAmpSpace:
    def test_default_is_the_paper_point_on_grid(self):
        space = mic_amp_design_space()
        params = space.as_dict(space.default())
        assert params["split_input_thermal"] == pytest.approx(0.40)
        assert params["i_pair"] == pytest.approx(0.8e-3, rel=0.05)
        assert params["l_input"] == pytest.approx(8e-6, rel=0.05)
        assert params["r_total"] == pytest.approx(25e3, rel=0.05)

    def test_default_builds_a_working_amplifier(self):
        from repro.pga.design import mic_amp_parts_from_params
        from repro.process import CMOS12

        space = mic_amp_design_space()
        sizes, gain = mic_amp_parts_from_params(
            CMOS12, space.as_dict(space.default()))
        assert sizes.w_input > 1e-3  # noise-sized inputs are millimetres wide
        assert gain.r_total == pytest.approx(25e3, rel=0.05)
