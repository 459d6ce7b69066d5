"""Structured event log: ring semantics, the hook, arming grammar."""

import json

import pytest

from repro.obs.events import (
    EventLog,
    active_event_log,
    deactivate,
    event,
    format_events,
    load_jsonl,
)
from repro.obs.harness import ObsConfig, arm, config_from_env, events_enabled
from repro.obs.profile import deactivate as prof_deactivate
from repro.obs.trace import Tracer, deactivate as trace_deactivate, span


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()
    trace_deactivate()
    prof_deactivate()


def _ev(name="x", severity="warn", **fields):
    return {"name": name, "severity": severity, "t": 0.0,
            "trace_id": None, "span_id": None, "pid": 1, "fields": fields}


class TestEventLog:
    def test_ring_overflow_keeps_newest_and_counts_drops(self):
        log = EventLog(buffer=3)
        for i in range(10):
            log.record(_ev(name=f"e{i}"))
        names = [e["name"] for e in log.events()]
        assert names == ["e7", "e8", "e9"]
        assert log.dropped == 7
        assert log.recorded == 10

    def test_severity_counts_survive_eviction(self):
        log = EventLog(buffer=2)
        for _ in range(5):
            log.record(_ev(severity="error"))
        log.record(_ev(severity="info"))
        counts = log.severity_counts()
        assert counts == {"info": 1, "warn": 0, "error": 5}
        assert len(log.events()) == 2

    def test_filters(self):
        log = EventLog()
        log.record(_ev(name="a", severity="info"))
        log.record(_ev(name="b", severity="error"))
        log.record(_ev(name="a", severity="error"))
        assert len(log.events(name="a")) == 2
        assert len(log.events(severity="error")) == 2
        assert len(log.events(name="a", severity="error")) == 1

    def test_export_roundtrip(self, tmp_path):
        log = EventLog()
        log.record(_ev(name="a", k=1))
        log.record(_ev(name="b", severity="error"))
        path = tmp_path / "events.jsonl"
        assert log.export_jsonl(path) == 2
        back = load_jsonl(path)
        assert back == log.events()

    def test_live_export_appends_per_event(self, tmp_path):
        path = tmp_path / "live.jsonl"
        log = EventLog(export_path=str(path))
        log.record(_ev(name="a"))
        # Flushed per line: readable before close.
        assert json.loads(path.read_text().splitlines()[0])["name"] == "a"
        log.record(_ev(name="b"))
        log.close()
        assert [e["name"] for e in load_jsonl(path)] == ["a", "b"]

    def test_buffer_must_be_positive(self):
        with pytest.raises(ValueError, match="buffer"):
            EventLog(buffer=0)


class TestEventHook:
    def test_disarmed_is_inert(self):
        assert active_event_log() is None
        event("noop.event", "error", detail="ignored")  # must not raise

    def test_armed_records_fields(self):
        log = EventLog()
        with log.activate():
            event("dc.test", "error", resid=1.5, circuit="bias")
        (got,) = log.events()
        assert got["name"] == "dc.test"
        assert got["severity"] == "error"
        assert got["fields"] == {"resid": 1.5, "circuit": "bias"}
        assert got["trace_id"] is None

    def test_default_severity_is_warn(self):
        log = EventLog()
        with log.activate():
            event("x")
        assert log.events()[0]["severity"] == "warn"

    def test_trace_correlation_under_span(self):
        tracer, log = Tracer(), EventLog()
        with tracer.activate(), log.activate():
            with span("outer") as handle:
                event("inner.event")
        (got,) = log.events()
        assert got["trace_id"] == handle.trace_id
        assert got["span_id"] is not None

    def test_activate_restores_previous(self):
        outer, inner = EventLog(), EventLog()
        with outer.activate():
            with inner.activate():
                event("deep")
            event("shallow")
        assert [e["name"] for e in inner.events()] == ["deep"]
        assert [e["name"] for e in outer.events()] == ["shallow"]
        assert active_event_log() is None

    def test_format_events_renders(self):
        log = EventLog()
        with log.activate():
            event("store.quarantine", "error", key="k1")
        text = format_events(log.events())
        assert "store.quarantine" in text
        assert "key='k1'" in text


class TestGrammar:
    def test_events_component(self):
        config = config_from_env("events")
        assert config.events and not config.trace

    def test_one_arms_events_too(self):
        assert config_from_env("1").events
        assert config_from_env("all").events

    def test_events_options(self):
        config = config_from_env("events:export=/tmp/e.jsonl:buffer=99")
        assert config.events_export == "/tmp/e.jsonl"
        assert config.events_buffer == 99
        assert config.trace_export is None
        assert config.trace_buffer == 65536

    def test_export_on_profile_still_rejected(self):
        with pytest.raises(ValueError, match="export= applies to"):
            config_from_env("profile:export=/tmp/x")

    def test_unknown_component_lists_events(self):
        with pytest.raises(ValueError, match="events"):
            config_from_env("telemetry")

    def test_arm_activates_event_log(self, tmp_path):
        armed = arm(ObsConfig(events=True, events_buffer=7,
                              events_export=str(tmp_path / "e.jsonl")))
        try:
            assert events_enabled()
            assert armed["events"] is active_event_log()
            assert armed["events"]._buffer == 7
        finally:
            deactivate()
