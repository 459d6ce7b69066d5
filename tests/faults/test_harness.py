"""The injection machinery itself: determinism, gating, arming scopes."""

import sqlite3

import pytest

from repro.faults import (
    FaultCrash,
    FaultError,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    deactivate,
    fault_point,
    plan_from_env,
)


class TestDisarmed:
    def test_fault_point_is_inert_without_a_plan(self):
        assert active_plan() is None
        for _ in range(1000):
            fault_point("store.payload_read", key="k")   # must not raise

    def test_context_manager_restores_previous_plan(self):
        outer = FaultPlan([])
        inner = FaultPlan([])
        previous = activate(outer)
        assert previous is None
        with inner.activate():
            assert active_plan() is inner
        assert active_plan() is outer
        deactivate()
        assert active_plan() is None


class TestTriggerGating:
    def test_default_action_raises_fault_error(self):
        with FaultPlan([FaultRule("p")]).activate():
            with pytest.raises(FaultError, match="injected fault at 'p'"):
                fault_point("p")

    def test_times_caps_triggers(self):
        plan = FaultPlan([FaultRule("p", times=2)])
        with plan.activate():
            for _ in range(2):
                with pytest.raises(FaultError):
                    fault_point("p")
            fault_point("p")                       # budget exhausted
        assert plan.triggered("p") == 2
        assert plan.rules[0].hits == 3

    def test_after_skips_leading_hits(self):
        plan = FaultPlan([FaultRule("p", after=2, times=1)])
        with plan.activate():
            fault_point("p")
            fault_point("p")
            with pytest.raises(FaultError):
                fault_point("p")

    def test_when_predicate_sees_the_payload(self):
        plan = FaultPlan([FaultRule("p", when=lambda ctx: ctx["attempt"] == 0)])
        with plan.activate():
            with pytest.raises(FaultError):
                fault_point("p", attempt=0)
            fault_point("p", attempt=1)
        assert plan.log == [("p", 0, {"attempt": 0})]

    def test_glob_point_matching(self):
        plan = FaultPlan([FaultRule("store.*", times=1)])
        with plan.activate():
            fault_point("jobs.journal_write")      # no match
            with pytest.raises(FaultError):
                fault_point("store.index")

    def test_custom_exception_class_and_instance(self):
        boom = sqlite3.OperationalError("database is locked")
        plan = FaultPlan([FaultRule("a", raises=OSError, times=1),
                          FaultRule("b", raises=boom, times=1)])
        with plan.activate():
            with pytest.raises(OSError):
                fault_point("a")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                fault_point("b")

    def test_action_callable_receives_ctx(self):
        seen = []
        plan = FaultPlan([FaultRule("p", action=seen.append)])
        with plan.activate():
            fault_point("p", key="abc")
        assert seen == [{"key": "abc"}]

    def test_fault_crash_is_untrappable_by_except_exception(self):
        with FaultPlan([FaultRule("p", raises=FaultCrash)]).activate():
            with pytest.raises(BaseException) as excinfo:
                try:
                    fault_point("p")
                except Exception:                  # job-isolation style
                    pytest.fail("FaultCrash must not be caught as Exception")
            assert excinfo.type is FaultCrash


class TestSeededProbability:
    def test_same_seed_replays_the_same_schedule(self):
        def schedule(seed):
            plan = FaultPlan([FaultRule("p", probability=0.3)], seed=seed)
            fired = []
            with plan.activate():
                for i in range(200):
                    try:
                        fault_point("p", i=i)
                        fired.append(False)
                    except FaultError:
                        fired.append(True)
            return fired

        a, b = schedule(7), schedule(7)
        assert a == b
        assert 20 < sum(a) < 120                   # roughly 30 %
        assert schedule(8) != a                    # seed actually matters

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("p", probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultRule("p", times=0)


class TestEnvGrammar:
    def test_full_spec_round_trip(self):
        plan = plan_from_env(
            "seed=7;store.index:raise=sqlite3.OperationalError:p=0.05;"
            "jobs.journal_write:times=1:after=3;"
            "serve.job:sleep=0.5")
        assert plan.seed == 7
        r0, r1, r2 = plan.rules
        assert r0.point == "store.index"
        assert r0.raises is sqlite3.OperationalError
        assert r0.probability == 0.05
        assert (r1.times, r1.after) == (1, 3)
        assert r2.sleep == 0.5 and r2.raises is None

    def test_unknown_exception_and_option_are_loud(self):
        with pytest.raises(ValueError, match="unknown exception"):
            plan_from_env("p:raise=Nonsense")
        with pytest.raises(ValueError, match="unknown option"):
            plan_from_env("p:frobnicate=1")
        with pytest.raises(ValueError, match="unknown option"):
            plan_from_env("p:kill")
