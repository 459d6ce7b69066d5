"""The one observability collector: ring, hooks, presentation, arming."""

import json
import sys
import threading

import pytest

from repro.obs.recorder import (
    OBS_ENV,
    Recorder,
    active,
    arm_from_env,
    config_from_env,
    current_context,
    deactivate,
    event,
    format_events,
    format_profile,
    format_slowest,
    format_tree,
    load_jsonl,
    phase_seconds,
    prof_count,
    slowest_spans,
    span,
    subtree,
)


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()


@pytest.fixture
def rec():
    r = Recorder()
    with r.activate():
        yield r
    assert active() is None


def _ev(name="x", severity="warn", **fields):
    return {"kind": "event", "name": name, "severity": severity, "t": 0.0,
            "trace_id": None, "span_id": None, "pid": 1, "fields": fields}


class TestDisarmed:
    def test_disarmed_span_is_shared_noop(self):
        assert active() is None
        a = span("x")
        b = span("y", attr=1)
        assert a is b                   # one shared _NullSpan instance
        with a:
            pass
        a.annotate(ignored=True)        # no-op, no error

    def test_disarmed_event_and_count_are_inert(self):
        assert active() is None
        event("noop.event", "error", detail="ignored")  # must not raise
        prof_count("x")

    def test_disarmed_leaves_no_context(self):
        with span("x"):
            assert current_context() is None


class TestRing:
    def test_overflow_keeps_newest_and_counts_drops(self):
        r = Recorder(buffer=3)
        for i in range(10):
            r.record(_ev(name=f"e{i}"))
        assert [e["name"] for e in r.events()] == ["e7", "e8", "e9"]
        assert r.dropped == 7
        assert r.recorded == 10

    def test_spans_and_events_share_the_ring(self):
        r = Recorder(buffer=3)
        with r.activate():
            for i in range(5):
                with span(f"s{i}"):
                    pass
            event("last")
        assert [s["name"] for s in r.spans()] == ["s3", "s4"]
        assert [e["name"] for e in r.events()] == ["last"]
        assert (r.recorded, r.dropped) == (6, 3)

    def test_severity_counts_survive_eviction(self):
        r = Recorder(buffer=2)
        for _ in range(5):
            r.record(_ev(severity="error"))
        r.record(_ev(severity="info"))
        assert r.event_totals() == {
            "recorded": 6, "dropped": 4,
            "by_severity": {"info": 1, "warn": 0, "error": 5}}
        assert len(r.events()) == 2

    def test_spans_are_not_tallied_as_events(self, rec):
        with span("x"):
            event("e", "info")
        assert rec.event_totals()["recorded"] == 1
        assert rec.event_totals()["by_severity"] == {"info": 1, "warn": 0,
                                                     "error": 0}

    def test_event_filters(self):
        r = Recorder()
        r.record(_ev(name="a", severity="info"))
        r.record(_ev(name="b", severity="error"))
        r.record(_ev(name="a", severity="error"))
        assert len(r.events(name="a")) == 2
        assert len(r.events(severity="error")) == 2
        assert len(r.events(name="a", severity="error")) == 1
        assert len(r.events(severity=None)) == 3     # None does not filter

    def test_spans_filter_by_trace_id(self, rec):
        with span("a"):
            pass
        with span("b"):
            pass
        a, b = rec.spans()
        assert rec.spans(trace_id=b["trace_id"]) == [b]
        assert rec.records(trace_id=a["trace_id"]) == [a]

    def test_bad_buffer_rejected(self):
        with pytest.raises(ValueError, match="buffer"):
            Recorder(buffer=0)

    def test_concurrent_hooks_lose_nothing(self, rec):
        def work():
            for _ in range(500):
                with span("s"):
                    event("e", "info")
                prof_count("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rec.recorded == 4000
        assert rec.event_totals()["by_severity"]["info"] == 2000
        assert rec.profile()["counts"] == {"n": 2000}


class TestSpans:
    def test_span_records_one_dict(self, rec):
        with span("campaign.run", builder="bias", n_units=2):
            pass
        (s,) = rec.spans()
        assert s["kind"] == "span"
        assert s["name"] == "campaign.run"
        assert s["parent_id"] is None
        assert s["attrs"] == {"builder": "bias", "n_units": 2}
        assert s["dur_s"] >= 0.0
        assert len(s["trace_id"]) == 16 and len(s["span_id"]) == 16

    def test_nesting_sets_parent_and_shares_trace_id(self, rec):
        with span("outer") as outer:
            with span("inner"):
                pass
        inner, recorded_outer = rec.spans()
        assert inner["name"] == "inner"          # children finish first
        assert inner["parent_id"] == outer.span_id
        assert inner["trace_id"] == recorded_outer["trace_id"]

    def test_sibling_spans_get_fresh_trace_ids(self, rec):
        with span("a"):
            pass
        with span("b"):
            pass
        a, b = rec.spans()
        assert a["trace_id"] != b["trace_id"]

    def test_exception_annotates_and_restores_context(self, rec):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        (s,) = rec.spans()
        assert s["attrs"]["error"] == "ValueError"
        assert current_context() is None

    def test_annotate_lands_in_attrs(self, rec):
        with span("x") as s:
            s.annotate(units=5)
        assert rec.spans()[0]["attrs"]["units"] == 5

    def test_context_is_per_thread(self, rec):
        seen = {}

        def other():
            seen["ctx"] = current_context()
            with span("child"):
                pass

        with span("parent"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert seen["ctx"] is None      # the open span is not visible there
        child = next(s for s in rec.spans() if s["name"] == "child")
        assert child["parent_id"] is None

    def test_subtree_selects_one_span_and_what_it_encloses(self, rec):
        with span("job"):
            with span("run") as first:
                with span("group"):
                    event("inside")
                event("direct")
            with span("run"):
                event("other")
        mine = subtree(rec.records(), first.span_id)
        assert [r["name"] for r in mine] == ["inside", "group", "direct",
                                             "run"]


class TestEvents:
    def test_armed_records_fields(self, rec):
        event("dc.test", "error", resid=1.5, circuit="bias")
        (got,) = rec.events()
        assert got["kind"] == "event"
        assert got["name"] == "dc.test"
        assert got["severity"] == "error"
        assert got["fields"] == {"resid": 1.5, "circuit": "bias"}
        assert got["trace_id"] is None

    def test_default_severity_is_warn(self, rec):
        event("x")
        assert rec.events()[0]["severity"] == "warn"

    def test_event_correlates_to_the_open_span(self, rec):
        with span("outer") as handle:
            event("inner.event")
        (got,) = rec.events()
        assert got["trace_id"] == handle.trace_id
        assert got["span_id"] == handle.span_id

    def test_format_events_renders(self, rec):
        event("store.quarantine", "error", key="k1")
        text = format_events(rec.events())
        assert "store.quarantine" in text
        assert "key='k1'" in text


class TestCounters:
    def test_count_accumulates(self, rec):
        prof_count("newton.iterations")
        prof_count("newton.iterations", 4)
        assert rec.profile()["counts"] == {"newton.iterations": 5}

    def test_profile_keys_sorted(self, rec):
        prof_count("b")
        prof_count("a")
        assert list(rec.profile()["counts"]) == ["a", "b"]

    def test_timed_phases_are_span_self_times(self, rec):
        with span("outer"):
            with span("inner"):
                pass
        phases = rec.profile()["phases_s"]
        outer, inner = (next(s for s in rec.spans() if s["name"] == n)
                        for n in ("outer", "inner"))
        assert phases["inner"] == pytest.approx(inner["dur_s"])
        assert phases["outer"] == pytest.approx(
            max(0.0, outer["dur_s"] - inner["dur_s"]))

    def test_profile_of_given_spans_only(self, rec):
        with span("a"):
            pass
        with span("b"):
            pass
        assert list(rec.profile(rec.spans()[1:])["phases_s"]) == ["b"]


class TestExportAndActivation:
    def test_live_export_appends_every_record(self, tmp_path):
        path = tmp_path / "live.jsonl"
        r = Recorder(export_path=str(path))
        with r.activate():
            event("a")
            # Flushed per line: readable before close.
            assert json.loads(path.read_text().splitlines()[0])["name"] == "a"
            with span("outer", k=1):
                event("b")
        r.close()
        assert load_jsonl(path) == r.records()
        assert [x["kind"] for x in load_jsonl(path)] == ["event", "event",
                                                         "span"]

    def test_load_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert load_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_activate_restores_previous(self):
        outer, inner = Recorder(), Recorder()
        with outer.activate():
            with inner.activate():
                assert active() is inner
                event("deep")
                prof_count("seen")
            assert active() is outer
            event("shallow")
        assert active() is None
        assert [e["name"] for e in inner.events()] == ["deep"]
        assert [e["name"] for e in outer.events()] == ["shallow"]
        assert outer.profile()["counts"] == {}

    def test_activate_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with Recorder().activate():
                raise RuntimeError("x")
        assert active() is None


class TestFormatTree:
    def test_tree_indents_children_under_trace(self, rec):
        with span("outer"):
            with span("inner"):
                pass
        lines = format_tree(rec.spans()).splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].startswith("  outer")
        assert lines[2].startswith("    inner")

    def test_orphaned_parent_surfaces_at_root(self):
        spans = [{"trace_id": "t1", "span_id": "s1", "parent_id": "gone",
                  "name": "orphan", "t0": 0.0, "dur_s": 0.0, "attrs": {}}]
        assert "orphan" in format_tree(spans)


class TestSlowestSpans:
    def _spans(self):
        # parent covers 1.0s, child burns 0.9 of it; a sibling leaf
        # burns 0.5 on its own.
        return [
            {"trace_id": "t1", "span_id": "p", "parent_id": None,
             "name": "parent", "t0": 0.0, "dur_s": 1.0, "attrs": {}},
            {"trace_id": "t1", "span_id": "c", "parent_id": "p",
             "name": "child", "t0": 0.0, "dur_s": 0.9, "attrs": {}},
            {"trace_id": "t2", "span_id": "leaf", "parent_id": None,
             "name": "leaf", "t0": 0.0, "dur_s": 0.5, "attrs": {}},
        ]

    def test_ranks_by_self_time_not_total(self):
        ranked = slowest_spans(self._spans())
        assert [s["name"] for s in ranked] == ["child", "leaf", "parent"]
        assert ranked[0]["self_s"] == pytest.approx(0.9)
        assert ranked[2]["self_s"] == pytest.approx(0.1)

    def test_self_time_clamped_at_zero(self):
        spans = self._spans()
        spans[1]["dur_s"] = 1.5  # child "longer" than parent (clock skew)
        parent = next(s for s in slowest_spans(spans)
                      if s["name"] == "parent")
        assert parent["self_s"] == 0.0

    def test_top_limits_and_originals_untouched(self):
        spans = self._spans()
        assert len(slowest_spans(spans, top=1)) == 1
        assert all("self_s" not in s for s in spans)

    def test_format_slowest_renders_rows(self):
        lines = format_slowest(self._spans(), top=2).splitlines()
        assert lines[0] == "slowest 2 spans by self-time:"
        assert "child" in lines[1] and "trace t1" in lines[1]
        assert format_slowest([]) == ""

    def test_phase_seconds_sums_self_time_per_name(self):
        spans = self._spans() + [
            {"trace_id": "t3", "span_id": "leaf2", "parent_id": None,
             "name": "leaf", "t0": 0.0, "dur_s": 0.25, "attrs": {}}]
        phases = phase_seconds(spans)
        assert phases["leaf"] == pytest.approx(0.75)
        assert phases["parent"] == pytest.approx(0.1)


class TestFormatProfile:
    def test_orders_phases_then_counts(self):
        text = format_profile({"counts": {"n": 3},
                               "phases_s": {"fast": 0.001, "slow": 2.0}})
        lines = text.splitlines()
        assert lines[0] == "profile — timed phases:"
        assert "slow" in lines[1] and "fast" in lines[2]
        assert "counters" in lines[3] and "n" in lines[4]

    def test_empty_profile(self):
        assert "empty" in format_profile({"counts": {}, "phases_s": {}})


class TestGrammar:
    def test_switches_arm_with_defaults(self):
        for spec in ("1", "all", "on", "true", "ON"):
            assert config_from_env(spec) == {}

    def test_legacy_words_arm_the_one_recorder(self):
        for spec in ("trace", "profile", "events", "metrics",
                     "trace;profile", "trace,profile", " trace ; events "):
            assert config_from_env(spec) == {}
        armed = arm_from_env(environ={OBS_ENV: "trace;profile;events"})
        assert isinstance(armed, Recorder) and active() is armed

    def test_options(self):
        assert config_from_env("1:export=/tmp/o.jsonl:buffer=128") == {
            "export_path": "/tmp/o.jsonl", "buffer": 128}
        # Legacy per-component options land on the same recorder.
        assert config_from_env("trace:buffer=100000;profile") == {
            "buffer": 100000}
        assert config_from_env("events:export=/tmp/e.jsonl") == {
            "export_path": "/tmp/e.jsonl"}

    def test_same_export_twice_is_fine(self):
        spec = "trace:export=/tmp/a.jsonl;events:export=/tmp/a.jsonl"
        assert config_from_env(spec) == {"export_path": "/tmp/a.jsonl"}

    def test_two_export_paths_rejected(self):
        with pytest.raises(ValueError, match="two different export="):
            config_from_env("trace:export=/tmp/a.jsonl;"
                            "events:export=/tmp/b.jsonl")

    def test_two_buffer_sizes_rejected(self):
        with pytest.raises(ValueError, match="two different buffer="):
            config_from_env("trace:buffer=10;events:buffer=20")

    def test_non_integer_buffer_rejected(self):
        with pytest.raises(ValueError):
            config_from_env("1:buffer=lots")

    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            config_from_env("telemetry")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            config_from_env("1:color=on")

    def test_empty_parts_ignored(self):
        assert config_from_env(";;trace;;") == {}


class TestArming:
    def test_arm_from_env_unset_is_inert(self):
        assert arm_from_env(environ={}) is None
        assert arm_from_env(environ={OBS_ENV: ""}) is None
        assert active() is None

    def test_arm_from_env_honours_options(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        armed = arm_from_env(environ={OBS_ENV: f"1:export={path}:buffer=42"})
        assert active() is armed
        assert armed.export_path == str(path)
        assert armed._buffer == 42
        event("x")
        armed.close()
        assert load_jsonl(path)[0]["name"] == "x"
