"""Span semantics: nesting, ids, export round-trips, arming scope."""

import threading

import pytest

from repro.obs.trace import (
    Tracer,
    active_tracer,
    current_context,
    format_slowest,
    format_tree,
    load_jsonl,
    slowest_spans,
    span,
    trace_point,
)


@pytest.fixture
def tracer():
    t = Tracer()
    with t.activate():
        yield t
    assert active_tracer() is None


class TestDisarmed:
    def test_disarmed_span_is_shared_noop(self):
        assert active_tracer() is None
        a = span("x")
        b = span("y", attr=1)
        assert a is b                   # one shared _NullSpan instance
        with a:
            pass
        a.annotate(ignored=True)        # no-op, no error

    def test_disarmed_trace_point_records_nothing(self):
        assert active_tracer() is None
        trace_point("x", n=3)           # nothing to assert beyond no crash

    def test_disarmed_leaves_no_context(self):
        with span("x"):
            assert current_context() is None


class TestArmed:
    def test_span_records_one_dict(self, tracer):
        with span("campaign.run", builder="bias", n_units=2):
            pass
        (s,) = tracer.spans()
        assert s["name"] == "campaign.run"
        assert s["parent_id"] is None
        assert s["attrs"] == {"builder": "bias", "n_units": 2}
        assert s["dur_s"] >= 0.0
        assert len(s["trace_id"]) == 16 and len(s["span_id"]) == 16

    def test_nesting_sets_parent_and_shares_trace_id(self, tracer):
        with span("outer") as outer:
            with span("inner"):
                pass
        inner, recorded_outer = tracer.spans()
        assert inner["name"] == "inner"          # children finish first
        assert inner["parent_id"] == outer.span_id
        assert inner["trace_id"] == recorded_outer["trace_id"]

    def test_trace_point_nests_under_open_span(self, tracer):
        with span("outer") as outer:
            trace_point("event", k=1)
        point, _ = tracer.spans()
        assert point["dur_s"] == 0.0
        assert point["parent_id"] == outer.span_id
        assert point["attrs"] == {"k": 1}

    def test_sibling_spans_get_fresh_trace_ids(self, tracer):
        with span("a"):
            pass
        with span("b"):
            pass
        a, b = tracer.spans()
        assert a["trace_id"] != b["trace_id"]

    def test_exception_annotates_and_restores_context(self, tracer):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        (s,) = tracer.spans()
        assert s["attrs"]["error"] == "ValueError"
        assert current_context() is None

    def test_annotate_lands_in_attrs(self, tracer):
        with span("x") as s:
            s.annotate(units=5)
        assert tracer.spans()[0]["attrs"]["units"] == 5

    def test_context_is_per_thread(self, tracer):
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
        child = next(s for s in tracer.spans() if s["name"] == "child")
        assert child["parent_id"] is None


class TestTracer:
    def test_buffer_evicts_oldest(self):
        t = Tracer(buffer=3)
        with t.activate():
            for i in range(5):
                trace_point(f"p{i}")
        assert t.recorded == 5
        assert [s["name"] for s in t.spans()] == ["p2", "p3", "p4"]

    def test_spans_filter_by_trace_id(self, tracer):
        with span("a"):
            pass
        with span("b"):
            pass
        a, b = tracer.spans()
        only = tracer.spans(trace_id=b["trace_id"])
        assert only == [b]
        assert tracer.trace_ids() == [a["trace_id"], b["trace_id"]]

    def test_export_jsonl_round_trips(self, tracer, tmp_path):
        with span("outer", k=1):
            trace_point("p")
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) == 2
        assert load_jsonl(path) == tracer.spans()

    def test_live_export_appends_per_span(self, tmp_path):
        path = tmp_path / "live.jsonl"
        t = Tracer(export_path=path)
        with t.activate():
            with span("x"):
                pass
        t.close()
        assert load_jsonl(path) == t.spans()

    def test_activate_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is None

    def test_bad_buffer_rejected(self):
        with pytest.raises(ValueError):
            Tracer(buffer=0)


class TestFormatTree:
    def test_tree_indents_children_under_trace(self, tracer):
        with span("outer"):
            with span("inner"):
                pass
        text = format_tree(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].strip().startswith("outer")
        assert lines[2].startswith("    inner")

    def test_orphaned_parent_surfaces_at_root(self):
        spans = [{"trace_id": "t1", "span_id": "s1", "parent_id": "gone",
                  "name": "orphan", "t0": 0.0, "dur_s": 0.0, "attrs": {}}]
        text = format_tree(spans)
        assert "orphan" in text


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
        ranked = slowest_spans(spans, top=1)
        assert len(ranked) == 1
        assert all("self_s" not in s for s in spans)

    def test_format_slowest_renders_rows(self):
        text = format_slowest(self._spans(), top=2)
        lines = text.splitlines()
        assert lines[0] == "slowest 2 spans by self-time:"
        assert "child" in lines[1] and "trace t1" in lines[1]
        assert format_slowest([]) == ""
