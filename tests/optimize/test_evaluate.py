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


def naive_evaluate(x, space):
    """One candidate scored the independent way: rebuild and re-solve per
    metric family, per-frequency looped AC and noise sweeps, no caching.
    Returns ``{}`` where the candidate cannot be built or solved."""
    import math

    from repro.analysis.psrr import measure_psrr
    from repro.circuits.micamp import build_mic_amp
    from repro.layout.area import estimate_area_mm2
    from repro.pga.design import mic_amp_parts_from_params
    from repro.spice.analysis import log_freqs
    from repro.spice.dc import dc_operating_point

    from looped_reference import _ac_analysis_looped, _noise_analysis_looped

    try:
        sizes, gain = mic_amp_parts_from_params(CMOS12, space.as_dict(x))

        def build():
            return build_mic_amp(CMOS12, gain_code=5, sizes=sizes, gain=gain)

        d = build()                                   # current study
        op = dc_operating_point(d.circuit)
        rec = {"iq_ma": abs(op.i("vdd_src")) * 1e3,
               "area_mm2": estimate_area_mm2(d.circuit, CMOS12).total_mm2}
        d = build()                                   # gain study
        ac = _ac_analysis_looped(dc_operating_point(d.circuit),
                                 np.array([1e3]))
        h = abs(ac.vdiff(d.outp, d.outn)[0])
        rec["gain_1khz_db"] = 20.0 * math.log10(max(h, 1e-30))
        rec["gain_error_db"] = rec["gain_1khz_db"] - d.gain.gain_db(5)
        d = build()                                   # PSRR study
        rec["psrr_1khz_db"] = measure_psrr(
            d.circuit, "vdd_src", ("vin_p", "vin_n"), d.outp, d.outn,
        ).ratio_db
        d = build()                                   # noise study
        nr = _noise_analysis_looped(dc_operating_point(d.circuit),
                                    log_freqs(10.0, 100e3, 12),
                                    d.outp, d.outn)
        rec["vnin_300hz_nv"] = nr.input_nv_at(300.0)
        rec["vnin_1khz_nv"] = nr.input_nv_at(1e3)
        rec["vnin_avg_nv"] = nr.average_input_density(300.0, 3400.0) * 1e9
        return rec
    except Exception:
        return {}


class TestNaiveReference:
    def test_seeded_candidates_match_the_rebuild_loop(self, evaluator, space):
        """The shared-context campaign evaluation against a rebuild per
        metric family on the looped sweeps, over the default point and
        seeded Latin-hypercube candidates (some infeasible)."""
        from repro.optimize import latin_hypercube

        unit = latin_hypercube(8, space.dim, np.random.default_rng(2026))
        candidates = [space.default(), *space.from_unit(unit)]
        n_checked = n_infeasible = 0
        for x in map(space.quantize, candidates):
            eng = evaluator.evaluate(x).metrics
            nai = naive_evaluate(x, space)
            if not eng or not nai:
                assert not eng and not nai, "feasibility disagreement"
                n_infeasible += 1
                continue
            for key, ref in nai.items():
                np.testing.assert_allclose(eng[key], ref, rtol=1e-6,
                                           err_msg=f"metric {key} diverged")
                n_checked += 1
        assert n_checked and n_infeasible
