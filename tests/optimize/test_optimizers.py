"""Population search: seeding, convergence, determinism, budget."""

import math

import numpy as np
import pytest

from repro.optimize.evaluate import Evaluation
from repro.optimize.optimizers import latin_hypercube, optimize
from repro.optimize.space import DesignSpace, Parameter


class AnalyticEvaluator:
    """Evaluator stub: a quadratic bowl with the evaluator's cache
    interface, so the optimizer stages can be tested in milliseconds."""

    def __init__(self, space, target):
        self.space = space
        self.target = np.asarray(target, dtype=float)
        self.cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.calls = []

    def evaluate(self, x):
        q = self.space.quantize(np.asarray(x, dtype=float))
        key = self.space.key(q)
        if key in self.cache:
            self.cache_hits += 1
            return self.cache[key]
        self.cache_misses += 1
        self.calls.append(q)
        score = float(np.sum((q - self.target) ** 2))
        ev = Evaluation(x=q, metrics={"a": float(q[0]), "b": float(q[1])},
                        score=score, feasible=True)
        self.cache[key] = ev
        return ev

    def evaluate_population(self, xs):
        for row in np.atleast_2d(xs):
            yield self.evaluate(row)


def bowl_space():
    return DesignSpace([
        Parameter("x", -2.0, 2.0, step=0.05),
        Parameter("y", -2.0, 2.0, step=0.05),
    ])


class TestLatinHypercube:
    def test_stratification(self):
        rng = np.random.default_rng(3)
        u = latin_hypercube(16, 4, rng)
        assert u.shape == (16, 4)
        for j in range(4):
            strata = np.floor(u[:, j] * 16).astype(int)
            assert sorted(strata) == list(range(16))

    def test_deterministic_per_seed(self):
        a = latin_hypercube(8, 3, np.random.default_rng(1))
        b = latin_hypercube(8, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, 2, np.random.default_rng(0))


class TestOptimize:
    def test_finds_the_bowl_minimum_on_the_grid(self):
        space = bowl_space()
        target = (0.6310, -1.2170)  # off-grid; nearest cells 0.65, -1.20
        result = optimize(space, AnalyticEvaluator(space, target),
                          budget=200, seed=4)
        assert result.best.score < 1e-3
        np.testing.assert_allclose(result.best.x, [0.65, -1.2], atol=1e-9)

    def test_deterministic_per_seed(self):
        space = bowl_space()
        runs = [optimize(space, AnalyticEvaluator(space, (0.3, 0.3)),
                         budget=80, seed=9) for _ in range(2)]
        np.testing.assert_array_equal(runs[0].best.x, runs[1].best.x)
        assert runs[0].history == runs[1].history
        assert runs[0].n_evaluations == runs[1].n_evaluations

    def test_different_seeds_explore_differently(self):
        space = bowl_space()
        e1 = AnalyticEvaluator(space, (0.3, 0.3))
        e2 = AnalyticEvaluator(space, (0.3, 0.3))
        optimize(space, e1, budget=40, seed=1, refine=False)
        optimize(space, e2, budget=40, seed=2, refine=False)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(e1.calls, e2.calls))

    def test_budget_is_respected_and_counts_hits(self):
        space = bowl_space()
        ev = AnalyticEvaluator(space, (0.0, 0.0))
        result = optimize(space, ev, budget=57, seed=2)
        assert result.n_evaluations == 57
        assert result.cache_hits + result.cache_misses == 57
        assert ev.cache_hits == result.cache_hits

    def test_warm_start_is_evaluated_first(self):
        space = bowl_space()
        ev = AnalyticEvaluator(space, (1.0, 1.0))
        optimize(space, ev, budget=30, seed=3,
                 seed_points=(np.array([1.0, 1.0]),))
        np.testing.assert_allclose(ev.calls[0], [1.0, 1.0], atol=1e-9)

    def test_history_scores_strictly_improve(self):
        space = bowl_space()
        result = optimize(space, AnalyticEvaluator(space, (0.5, -0.5)),
                          budget=120, seed=6)
        scores = [s for _, s in result.history]
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_pareto_front_collected(self):
        space = bowl_space()
        result = optimize(space, AnalyticEvaluator(space, (0.0, 0.0)),
                          budget=40, seed=5, pareto_objectives=("a", "b"))
        assert len(result.pareto) >= 1
        assert result.pareto.n_offered == 40

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError, match="budget"):
            optimize(bowl_space(), AnalyticEvaluator(bowl_space(), (0, 0)),
                     budget=1)

    def test_rejects_degenerate_population(self):
        with pytest.raises(ValueError, match="pop_size"):
            optimize(bowl_space(), AnalyticEvaluator(bowl_space(), (0, 0)),
                     budget=20, pop_size=2)

    def test_optimum_pinned_at_the_box_corner(self):
        """Target outside the box: the refinement stage sits against the
        bounds, where past-bound probes clip back onto the incumbent and
        must be skipped rather than burn budget on self-evaluations."""
        space = bowl_space()
        ev = AnalyticEvaluator(space, (-3.0, -3.0))
        result = optimize(space, ev, budget=150, seed=4)
        np.testing.assert_allclose(result.best.x, [-2.0, -2.0], atol=1e-9)

    def test_minimum_viable_population_runs(self):
        space = bowl_space()
        result = optimize(space, AnalyticEvaluator(space, (0.0, 0.0)),
                          budget=30, seed=3, pop_size=4)
        assert result.n_evaluations == 30

    def test_summary_mentions_feasibility(self):
        space = bowl_space()
        result = optimize(space, AnalyticEvaluator(space, (0.0, 0.0)),
                          budget=30, seed=8)
        assert "feasible" in result.summary()
        assert math.isfinite(result.best.score)


class TestMicAmpIntegration:
    def test_quick_budget_recovers_a_table1_compliant_sizing(self):
        """The acceptance criterion: the optimizer's winner passes the
        shipped Table 1 spec rows it measures."""
        from repro.optimize import optimize_mic_amp
        from repro.pga.specs import MIC_AMP_SPEC

        result = optimize_mic_amp(budget=60, seed=2026)
        assert result.best.feasible
        report = MIC_AMP_SPEC.check(result.best.metrics)
        assert report.passed
        # and it should not cost more than the paper's own design point
        assert result.best.metrics["iq_ma"] <= 2.6
        assert result.best.metrics["area_mm2"] <= 2.0

    def test_fixed_seed_reproduces_the_search_bitwise(self):
        from repro.optimize import optimize_mic_amp

        r1 = optimize_mic_amp(budget=30, seed=5)
        r2 = optimize_mic_amp(budget=30, seed=5)
        np.testing.assert_array_equal(r1.best.x, r2.best.x)
        assert r1.best.metrics == r2.best.metrics
        assert r1.history == r2.history
