"""Campaign-layer observability: byte-identity armed, spans, profiles.

The load-bearing contract of the obs layer: arming tracing and
profiling must not move a single bit of a campaign's export.  Spans
record timing and metadata only; profile snapshots ride in
``CampaignResult.stats``, which ``to_json()`` never serialises.
"""

import pytest

from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.result import CampaignResult
from repro.faults import FaultPlan, FaultRule
from repro.obs.events import EventLog
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer

SPEC = CampaignSpec(
    builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
    seeds=(0, 1), gain_codes=(5,),
    measurements=("offset_v", "iq_ma", "gain_1khz_db"),
)


@pytest.fixture(scope="module")
def disarmed_json():
    return run_campaign(SPEC).to_json()


class TestByteIdentityArmed:
    def test_armed_export_matches_disarmed(self, disarmed_json):
        tracer, profiler = Tracer(), Profiler()
        with tracer.activate(), profiler.activate():
            armed = run_campaign(SPEC)
        assert armed.to_json() == disarmed_json
        assert tracer.recorded > 0, "tracing armed but no spans recorded"

    def test_armed_oracle_matches_disarmed(self, disarmed_json):
        """The per-unit oracle path, armed, exports the same bytes."""
        units = SPEC.expand()
        with Tracer().activate(), Profiler().activate(), \
                EventLog().activate():
            records = run_chunk(SPEC, units)
        assert CampaignResult.from_units(SPEC, units, records).to_json() \
            == disarmed_json

    def test_stats_sidecar_never_serialised(self):
        with Profiler().activate():
            result = run_campaign(SPEC)
        assert result.stats is not None
        assert "profile" in result.stats
        assert "stats" not in result.to_json()

    def test_disarmed_run_has_no_stats(self):
        result = run_campaign(SPEC)
        assert result.stats is None


class TestSpans:
    def test_batch_group_spans_nest_under_campaign_run(self):
        tracer = Tracer()
        with tracer.activate():
            run_campaign(SPEC)
        spans = tracer.spans()
        run = next(s for s in spans if s["name"] == "campaign.run")
        groups = [s for s in spans if s["name"] == "campaign.batch_group"]
        assert groups, "no campaign.batch_group spans"
        assert all(g["parent_id"] == run["span_id"] for g in groups)
        assert all(g["trace_id"] == run["trace_id"] for g in groups)
        assert run["attrs"]["n_units"] == SPEC.n_units


class TestProfile:
    def test_units_run_counter_matches_spec(self):
        profiler = Profiler()
        with profiler.activate():
            run_chunk(SPEC, SPEC.expand())
        counts = profiler.snapshot()["counts"]
        assert counts["campaign.units_run"] == SPEC.n_units
        assert counts["dc.operating_points"] >= SPEC.n_units

    def test_result_stats_carries_snapshot(self):
        with Profiler().activate():
            result = run_campaign(SPEC)
        profile = result.stats["profile"]
        # The tensor path never enters run_unit — its units are stamped
        # and solved as one tensor, under batch.* counters.
        assert profile["counts"]["batch.units_stamped"] == SPEC.n_units
        assert profile["counts"]["campaign.batch_groups"] >= 1
        assert profile["counts"]["campaign.batched_units"] == SPEC.n_units
        assert "campaign.units_run" not in profile["counts"]


class TestEvents:
    def test_solver_health_sidecar_covers_every_unit(self):
        log = EventLog()
        with log.activate():
            result = run_campaign(SPEC)
        health = result.stats["solver_health"]
        assert health["n_units"] == SPEC.n_units
        assert sum(health["strategies"].values()) == SPEC.n_units
        assert health["fallback_units"] == 0, \
            "healthy campaign reported solver fallbacks"
        assert result.stats["events"]["recorded"] >= SPEC.n_units

    def test_health_events_carry_the_campaign_trace(self):
        tracer, log = Tracer(), EventLog()
        with tracer.activate(), log.activate():
            result = run_campaign(SPEC)
        run = next(s for s in tracer.spans() if s["name"] == "campaign.run")
        health = log.events(name="unit.solver_health")
        assert len(health) == SPEC.n_units
        assert all(e["trace_id"] == run["trace_id"] for e in health)
        assert result.stats["solver_health"]["n_units"] == SPEC.n_units

    def test_batch_group_fallback_emits_and_stays_byte_identical(
            self, disarmed_json):
        plan = FaultPlan([FaultRule("campaign.batch_group", times=1)])
        log = EventLog()
        with plan.activate(), log.activate():
            result = run_campaign(SPEC)
        assert result.to_json() == disarmed_json
        (fallback,) = log.events(name="campaign.batch_group_fallback")
        assert fallback["severity"] == "warn"
        assert "FaultError" in fallback["fields"]["error"]
        # The units still get health entries via the serial ladder.
        assert result.stats["solver_health"]["n_units"] == SPEC.n_units

    def test_armed_chaos_export_matches_disarmed(self, disarmed_json):
        """The acceptance bar: trace+profile+events armed, faults
        firing, and the export still byte-identical to a quiet
        disarmed run."""
        plan = FaultPlan([FaultRule("campaign.batch_group")], seed=7)
        tracer, profiler, log = Tracer(), Profiler(), EventLog()
        with plan.activate(), tracer.activate(), profiler.activate(), \
                log.activate():
            armed = run_campaign(SPEC)
        assert armed.to_json() == disarmed_json
        counts = profiler.snapshot()["counts"]
        assert counts["campaign.batch_group_fallbacks"] >= 1
        assert counts["campaign.fallback_units"] == SPEC.n_units
