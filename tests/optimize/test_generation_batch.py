"""The batched search against the frozen candidate-by-candidate one.

``optimize`` scores each DE generation as one population, so
same-structure units of different candidates share tensor groups.  Every observable must equal the frozen
serial search (``tests/serial_search_reference.py``) bit for bit: the
winner, the history, the Pareto export, the evaluation counts, the
memo's keys and entries in insertion order, and what a progress
callback sees at each evaluation.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.obs import Recorder
from repro.optimize import (
    CandidateEvaluator,
    RobustSettings,
    mic_amp_design_space,
    mic_amp_objective,
)
from repro.optimize.optimizers import optimize
from repro.process import CMOS12
from repro.store import ResultStore
from serial_search_reference import SerialEvaluator, serial_optimize

ROBUST = RobustSettings(corners=("tt", "ss", "ff"))


def _search(batched: bool, *, robust=None, seed=3, budget=23, store=None,
            seed_points=None, pop_size=None):
    """One search, and everything a caller can observe of it."""
    space = mic_amp_design_space()
    cls = CandidateEvaluator if batched else SerialEvaluator
    evaluator = cls(space, mic_amp_objective(), CMOS12, robust=robust,
                    store=store)
    trace = []

    def progress(done, total):
        trace.append((done, total, len(evaluator.cache), evaluator.stats()))

    run = optimize if batched else serial_optimize
    points = (space.default(),) if seed_points is None else seed_points
    result = run(space, evaluator, budget=budget, seed=seed,
                 pop_size=pop_size, seed_points=points, progress=progress)
    memo = [(key, ev.x.tobytes(), ev.metrics, ev.score, ev.feasible, ev.error)
            for key, ev in evaluator.cache.items()]
    return {
        "best_x": result.best.x.tobytes(),
        "history": result.history,
        "pareto": result.pareto.to_json(),
        "n_evaluations": result.n_evaluations,
        "hits_misses": (result.cache_hits, result.cache_misses),
        "stats": evaluator.stats(),
        "memo": memo,
        "trace": trace,
    }


def _assert_same(batched, serial):
    for name in serial:
        assert batched[name] == serial[name], name


CASES = [  # (seed, budget): the DE stage's last generation is cut at 37
    (3, 23), (11, 37), (29, 60),
]


class TestAgainstFrozenSerialSearch:
    @pytest.mark.parametrize("seed, budget", CASES)
    def test_typical(self, seed, budget):
        _assert_same(_search(True, seed=seed, budget=budget),
                     _search(False, seed=seed, budget=budget))

    @pytest.mark.parametrize("seed, budget", CASES)
    def test_robust(self, seed, budget):
        kw = dict(robust=ROBUST, seed=seed, budget=budget)
        _assert_same(_search(True, **kw), _search(False, **kw))

    def test_budget_cuts_the_latin_hypercube(self):
        # 6 evaluations of a population of 8: the search ends inside
        # its serial Latin-hypercube stage.
        _assert_same(_search(True, seed=5, budget=6),
                     _search(False, seed=5, budget=6))

    @pytest.mark.parametrize("robust", [None, ROBUST], ids=["typical", "robust"])
    def test_duplicate_seed_points(self, robust):
        """Duplicates inside one batch count as memo hits at their own
        index, after the first has been simulated."""
        space = mic_amp_design_space()
        dup = (space.default(),) * 3 + (space.from_unit(np.full(space.dim, 0.5)),) * 2
        kw = dict(robust=robust, seed=17, budget=23, seed_points=dup)
        batched = _search(True, **kw)
        _assert_same(batched, _search(False, **kw))
        assert batched["trace"][2][3]["hits"] == 2

    def test_store_backed_cold_then_warm(self, tmp_path):
        runs = {}
        for batched in (True, False):
            root = tmp_path / ("batched" if batched else "serial")
            runs[batched] = [
                _search(batched, seed=7, budget=37, store=ResultStore(root)),
                _search(batched, seed=8, budget=37, store=ResultStore(root)),
            ]
        for batched, serial in zip(runs[True], runs[False]):
            _assert_same(batched, serial)
        assert runs[True][1]["stats"]["store_hits"] > 0

    @pytest.mark.parametrize("p", [1.0, 0.5])
    @pytest.mark.parametrize("robust", [None, ROBUST], ids=["typical", "robust"])
    def test_batch_group_faults(self, robust, p):
        """Every (or every other) tensor group failing falls back to the
        per-unit path without moving a byte."""
        kw = dict(robust=robust, seed=13, budget=37)
        plan = FaultPlan([FaultRule("campaign.batch_group", probability=p)],
                         seed=7)
        rec = Recorder()
        with plan.activate(), rec.activate():
            batched = _search(True, **kw)
        _assert_same(batched, _search(False, **kw))
        counts = rec.profile()["counts"]
        assert counts["campaign.batch_group_fallbacks"] >= 1
        if p == 1.0:
            assert counts.get("campaign.batched_units", 0) == 0


class TestPopulationWalk:
    @pytest.fixture()
    def space(self):
        return mic_amp_design_space()

    def test_generation_shares_tensor_groups(self, space):
        """One-unit typical candidates run as one tensor group."""
        xs = np.array([space.default()] * 3)
        xs[1, space.names.index("l_load")] *= 0.8
        xs[2, space.names.index("i_pair")] *= 1.2
        evaluator = CandidateEvaluator(space, mic_amp_objective(), CMOS12)
        rec = Recorder()
        with rec.activate():
            evs = list(evaluator.evaluate_population(xs))
        counts = rec.profile()["counts"]
        assert counts["campaign.batch_groups"] == 1
        serial = SerialEvaluator(space, mic_amp_objective(), CMOS12)
        for ev, x in zip(evs, xs):
            ref = serial.evaluate(x)
            assert (ev.metrics, ev.score, ev.error) == \
                (ref.metrics, ref.score, ref.error)

    def test_transient_failure_is_remeasured_by_its_duplicate(
            self, space, monkeypatch):
        """A transient error stays out of the memo, so the duplicate row
        later in the same batch is a miss and simulates again."""
        import repro.optimize.evaluate as evaluate_mod

        def broken(specs, techs=None):
            return [OSError("worker died") for _ in specs]

        monkeypatch.setattr(evaluate_mod, "run_campaigns", broken)
        x = space.default()
        evaluator = CandidateEvaluator(space, mic_amp_objective(), CMOS12)
        first, second = evaluator.evaluate_population(np.array([x, x]))
        assert first.transient and first.error == "OSError: worker died"
        assert second.error is None and second.metrics
        assert evaluator.stats()["misses"] == 2
        assert list(evaluator.cache.values()) == [second]

    def test_counts_advance_row_by_row(self, space):
        x = space.default()
        evaluator = CandidateEvaluator(space, mic_amp_objective(), CMOS12)
        seen = [(evaluator.cache_hits, evaluator.cache_misses, len(evaluator.cache))
                for _ in evaluator.evaluate_population(np.array([x, x, x]))]
        assert seen == [(0, 1, 1), (1, 1, 1), (2, 1, 1)]
