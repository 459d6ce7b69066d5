"""Candidate evaluation: caching, campaign equivalence, robust mode."""

import numpy as np
import pytest

from repro.optimize import (
    CandidateEvaluator,
    RobustSettings,
    mic_amp_design_space,
    mic_amp_objective,
)
from repro.process import CMOS12


@pytest.fixture(scope="module")
def space():
    return mic_amp_design_space()


@pytest.fixture()
def evaluator(space):
    return CandidateEvaluator(space, mic_amp_objective(), CMOS12)


class TestCaching:
    def test_repeat_evaluation_hits_cache(self, evaluator, space):
        x = space.default()
        ev1 = evaluator.evaluate(x)
        ev2 = evaluator.evaluate(x + x * 1e-14)  # same grid cell
        assert ev2 is ev1
        assert evaluator.cache_hits == 1
        assert evaluator.cache_misses == 1
        assert evaluator.cache_hit_rate == pytest.approx(0.5)

    def test_distinct_cells_miss(self, evaluator, space):
        x = space.default()
        evaluator.evaluate(x)
        y = x.copy()
        y[space.names.index("l_load")] *= 0.8
        evaluator.evaluate(y)
        assert evaluator.cache_misses == 2 and evaluator.cache_hits == 0


class TestTypicalMode:
    def test_default_point_metrics_match_direct_characterization(
            self, evaluator, space, mic_amp_noise, mic_amp_op):
        """The campaign-routed evaluation of the *shipped* sizing must
        reproduce the direct bench numbers (same engine underneath)."""
        from repro.layout.area import estimate_mic_amp_area_mm2

        ev = evaluator.evaluate(space.default())
        assert ev.error is None
        # The quantized default is not byte-identical to the shipped
        # MicAmpSizes (grid snap + derived widths), so compare loosely:
        assert ev.metrics["iq_ma"] == pytest.approx(
            abs(mic_amp_op.i("vdd_src")) * 1e3, rel=0.05)
        assert ev.metrics["vnin_avg_nv"] == pytest.approx(
            mic_amp_noise.average_input_density(300, 3400) * 1e9, rel=0.10)

    def test_infeasible_split_is_caught_not_raised(self, evaluator, space):
        x = space.default()
        x[space.names.index("split_input_thermal")] = 0.70  # sum > 1
        ev = evaluator.evaluate(x)
        assert ev.error is not None and "split" in ev.error
        assert not ev.feasible
        assert ev.metrics == {}
        assert np.isinf(ev.score) or ev.score > 1e9

    def test_score_matches_objective(self, evaluator, space):
        ev = evaluator.evaluate(space.default())
        assert ev.score == pytest.approx(
            evaluator.objective.score(ev.metrics))


class TestRobustMode:
    def test_aggregates_worst_case_over_corners(self, space):
        rb = RobustSettings(corners=("tt", "ss", "ff"), temps_c=(25.0,))
        robust = CandidateEvaluator(space, mic_amp_objective(), CMOS12,
                                    robust=rb)
        typical = CandidateEvaluator(space, mic_amp_objective(), CMOS12)
        x = space.default()
        ev_r = robust.evaluate(x)
        ev_t = typical.evaluate(x)
        # worst case over a grid that includes the typical point can only
        # be equal or worse for ceiling metrics ...
        assert ev_r.metrics["vnin_avg_nv"] >= ev_t.metrics["vnin_avg_nv"] - 1e-12
        assert ev_r.metrics["iq_ma"] >= ev_t.metrics["iq_ma"] - 1e-12
        # ... and the corners genuinely move the numbers
        assert ev_r.metrics["iq_ma"] != pytest.approx(
            ev_t.metrics["iq_ma"], rel=1e-6)

    def test_tensor_and_per_unit_paths_identical(self, space, monkeypatch):
        from repro.campaign import batchrun

        rb = RobustSettings(corners=("tt", "ss"), temps_c=(25.0, 85.0))
        x = space.default()
        tensor = CandidateEvaluator(space, mic_amp_objective(), CMOS12,
                                    robust=rb).evaluate(x)
        monkeypatch.setattr(batchrun, "MIN_BATCH_UNITS", rb.n_units + 1)
        per_unit = CandidateEvaluator(space, mic_amp_objective(), CMOS12,
                                      robust=rb).evaluate(x)
        assert tensor.metrics == per_unit.metrics  # byte-identical floats
        assert tensor.score == per_unit.score

    def test_units_per_candidate(self, space):
        rb = RobustSettings(corners=("tt", "ss"), temps_c=(-20.0, 85.0),
                            seeds=(None, 1))
        robust = CandidateEvaluator(space, mic_amp_objective(), CMOS12,
                                    robust=rb)
        assert robust.units_per_candidate() == 8
        typical = CandidateEvaluator(space, mic_amp_objective(), CMOS12)
        assert typical.units_per_candidate() == 1
