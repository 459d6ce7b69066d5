"""Gain-word logic (Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import undb
from repro.pga.gain_control import GAIN_STEPS_DB, GainControl


class TestCodes:
    def test_paper_steps(self):
        assert GAIN_STEPS_DB == (10.0, 16.0, 22.0, 28.0, 34.0, 40.0)

    def test_gain_linear(self):
        gc = GainControl()
        assert gc.gain_linear(5) == pytest.approx(100.0)
        assert gc.gain_linear(0) == pytest.approx(undb(10.0))

    def test_code_validation(self):
        gc = GainControl()
        with pytest.raises(ValueError):
            gc.gain_db(6)
        with pytest.raises(ValueError):
            gc.gain_db(-1)


class TestResistorString:
    def test_segments_sum_to_total(self):
        gc = GainControl(r_total=25e3)
        assert sum(gc.segment_resistances()) == pytest.approx(25e3, rel=1e-12)

    def test_all_segments_positive(self):
        for seg in GainControl().segment_resistances():
            assert seg > 0.0

    def test_r_bottom_for_40db(self):
        gc = GainControl(r_total=25e3)
        assert gc.r_bottom(5) == pytest.approx(250.0)

    def test_r_bottom_plus_r_top_is_total(self):
        gc = GainControl()
        for code in range(gc.num_codes):
            assert gc.r_bottom(code) + gc.r_top(code) == pytest.approx(gc.r_total)

    def test_switch_states_one_hot(self):
        gc = GainControl()
        for code in range(gc.num_codes):
            states = gc.switch_states(code)
            assert sum(states) == 1

    def test_switch_states_distinct(self):
        gc = GainControl()
        seen = {tuple(gc.switch_states(code)) for code in range(gc.num_codes)}
        assert len(seen) == gc.num_codes

    def test_noise_source_resistance_largest_mid_gain(self):
        """R_a||R_f peaks at the low-gain end: Eq. 4's worst case."""
        gc = GainControl()
        r = [gc.noise_source_resistance(code) for code in range(6)]
        assert r[0] == max(r)
        assert r[5] == min(r)

    @given(st.floats(min_value=1e3, max_value=1e6))
    @settings(max_examples=20, deadline=None)
    def test_segments_consistent_for_any_total(self, r_total):
        gc = GainControl(r_total=r_total)
        segs = gc.segment_resistances()
        assert all(s > 0 for s in segs)
        assert sum(segs) == pytest.approx(r_total, rel=1e-9)

    @given(st.lists(st.floats(min_value=1.0, max_value=60.0),
                    min_size=2, max_size=8, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_monotone_step_tables(self, steps):
        steps = tuple(sorted(steps))
        gc = GainControl(steps_db=steps)
        segs = gc.segment_resistances()
        assert all(s > 0 for s in segs)
        assert sum(segs) == pytest.approx(gc.r_total, rel=1e-9)

    def test_step_errors_helper(self):
        gc = GainControl()
        measured = [10.0, 16.1, 22.0, 27.9, 34.0, 40.0]
        errors = gc.step_errors_db(measured)
        assert errors[0] == pytest.approx(0.1)
        assert errors[1] == pytest.approx(-0.1)
        with pytest.raises(ValueError):
            gc.step_errors_db([10.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GainControl(r_total=-1.0)
        with pytest.raises(ValueError):
            GainControl(steps_db=(10.0,))
        with pytest.raises(ValueError):
            GainControl(steps_db=(10.0, 10.0))
