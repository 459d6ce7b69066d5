"""Profiler accumulators: counting, timing, merging, arming scope."""

import pytest

from repro.obs.profile import (
    Profiler,
    active_profiler,
    format_profile,
    prof_add,
    prof_count,
    timed,
)


@pytest.fixture
def profiler():
    p = Profiler()
    with p.activate():
        yield p
    assert active_profiler() is None


class TestDisarmed:
    def test_disarmed_hooks_are_inert(self):
        assert active_profiler() is None
        prof_count("x")
        prof_add("x", 1.0)
        with timed("x"):
            pass

    def test_disarmed_timed_is_shared_noop(self):
        assert timed("a") is timed("b")


class TestArmed:
    def test_count_accumulates(self, profiler):
        prof_count("newton.iterations")
        prof_count("newton.iterations", 4)
        assert profiler.snapshot()["counts"] == {"newton.iterations": 5}

    def test_add_time_accumulates(self, profiler):
        prof_add("phase", 0.25)
        prof_add("phase", 0.5)
        assert profiler.snapshot()["times_s"]["phase"] == pytest.approx(0.75)

    def test_timed_records_elapsed(self, profiler):
        with timed("slow"):
            pass
        assert profiler.snapshot()["times_s"]["slow"] >= 0.0

    def test_snapshot_keys_sorted(self, profiler):
        prof_count("b")
        prof_count("a")
        assert list(profiler.snapshot()["counts"]) == ["a", "b"]

    def test_clear_empties_both_tables(self, profiler):
        prof_count("x")
        prof_add("y", 1.0)
        profiler.clear()
        assert profiler.snapshot() == {"counts": {}, "times_s": {}}

    def test_activate_restores_previous(self):
        outer, inner = Profiler(), Profiler()
        with outer.activate():
            with inner.activate():
                prof_count("seen")
            assert active_profiler() is outer
        assert active_profiler() is None
        assert inner.snapshot()["counts"] == {"seen": 1}
        assert outer.snapshot()["counts"] == {}


class TestFormat:
    def test_format_orders_times_then_counts(self):
        text = format_profile({"counts": {"n": 3},
                               "times_s": {"fast": 0.001, "slow": 2.0}})
        lines = text.splitlines()
        assert lines[0] == "profile — timed phases:"
        assert "slow" in lines[1] and "fast" in lines[2]
        assert "counters" in lines[3] and "n" in lines[4]

    def test_format_empty_snapshot(self):
        assert "empty" in format_profile({"counts": {}, "times_s": {}})
