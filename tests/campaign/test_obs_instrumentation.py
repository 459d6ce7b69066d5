"""Campaign-layer observability: byte-identity armed, spans, profiles.

The load-bearing contract of the obs layer: arming the recorder must
not move a single bit of a campaign's export.  Spans and events record
timing and diagnosis only; profiles and solver-health sidecars ride in
``CampaignResult.stats``, which ``to_json()`` never serialises.
"""

import pytest

from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.result import CampaignResult
from repro.faults import FaultPlan, FaultRule
from repro.obs import Recorder, span

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
        rec = Recorder()
        with rec.activate():
            armed = run_campaign(SPEC)
        assert armed.to_json() == disarmed_json
        assert rec.spans(), "recorder armed but no spans recorded"

    def test_armed_oracle_matches_disarmed(self, disarmed_json):
        """The per-unit oracle path, armed, exports the same bytes."""
        units = SPEC.expand()
        with Recorder().activate():
            records = run_chunk(SPEC, units)
        assert CampaignResult.from_units(SPEC, units, records).to_json() \
            == disarmed_json

    def test_stats_sidecar_never_serialised(self):
        with Recorder().activate():
            result = run_campaign(SPEC)
        assert result.stats is not None
        assert "profile" in result.stats
        assert "stats" not in result.to_json()

    def test_disarmed_run_has_no_stats(self):
        result = run_campaign(SPEC)
        assert result.stats is None


class TestSpans:
    def test_batch_group_spans_nest_under_campaign_run(self):
        rec = Recorder()
        with rec.activate():
            run_campaign(SPEC)
        spans = rec.spans()
        run = next(s for s in spans if s["name"] == "campaign.run")
        groups = [s for s in spans if s["name"] == "campaign.batch_group"]
        assert groups, "no campaign.batch_group spans"
        assert all(g["parent_id"] == run["span_id"] for g in groups)
        assert all(g["trace_id"] == run["trace_id"] for g in groups)
        assert run["attrs"]["n_units"] == SPEC.n_units


class TestProfile:
    def test_units_run_counter_matches_spec(self):
        rec = Recorder()
        with rec.activate():
            run_chunk(SPEC, SPEC.expand())
        counts = rec.profile()["counts"]
        assert counts["campaign.units_run"] == SPEC.n_units
        assert counts["dc.operating_points"] >= SPEC.n_units

    def test_result_stats_carries_snapshot(self):
        with Recorder().activate():
            result = run_campaign(SPEC)
        profile = result.stats["profile"]
        # The tensor path never enters run_unit — its units are stamped
        # and solved as one tensor, under batch.* counters.
        assert profile["counts"]["batch.units_stamped"] == SPEC.n_units
        assert profile["counts"]["campaign.batch_groups"] >= 1
        assert profile["counts"]["campaign.batched_units"] == SPEC.n_units
        assert "campaign.units_run" not in profile["counts"]
        # Timed phases are this campaign's span self-times.
        assert set(profile["phases_s"]) == {"campaign.run",
                                            "campaign.batch_group"}


class TestEvents:
    def test_solver_health_sidecar_covers_every_unit(self):
        with Recorder().activate():
            result = run_campaign(SPEC)
        health = result.stats["solver_health"]
        assert health["n_units"] == SPEC.n_units
        assert sum(health["strategies"].values()) == SPEC.n_units
        assert health["fallback_units"] == 0, \
            "healthy campaign reported solver fallbacks"
        assert result.stats["events"]["recorded"] >= SPEC.n_units

    def test_health_events_carry_the_campaign_trace(self):
        rec = Recorder()
        with rec.activate():
            result = run_campaign(SPEC)
        run = next(s for s in rec.spans() if s["name"] == "campaign.run")
        health = rec.events(name="unit.solver_health")
        assert len(health) == SPEC.n_units
        assert all(e["trace_id"] == run["trace_id"] for e in health)
        assert result.stats["solver_health"]["n_units"] == SPEC.n_units

    def test_batch_group_fallback_emits_and_stays_byte_identical(
            self, disarmed_json):
        plan = FaultPlan([FaultRule("campaign.batch_group", times=1)])
        rec = Recorder()
        with plan.activate(), rec.activate():
            result = run_campaign(SPEC)
        assert result.to_json() == disarmed_json
        (fallback,) = rec.events(name="campaign.batch_group_fallback")
        assert fallback["severity"] == "warn"
        assert "FaultError" in fallback["fields"]["error"]
        # The units still get health entries via the serial ladder.
        assert result.stats["solver_health"]["n_units"] == SPEC.n_units

    def test_armed_chaos_export_matches_disarmed(self, disarmed_json):
        """The acceptance bar: the recorder armed, faults firing, and
        the export still byte-identical to a quiet disarmed run."""
        plan = FaultPlan([FaultRule("campaign.batch_group")], seed=7)
        rec = Recorder()
        with plan.activate(), rec.activate():
            armed = run_campaign(SPEC)
        assert armed.to_json() == disarmed_json
        counts = rec.profile()["counts"]
        assert counts["campaign.batch_group_fallbacks"] >= 1
        assert counts["campaign.fallback_units"] == SPEC.n_units


class TestSidecarScoping:
    """One ring holds many campaigns (a long-lived ``repro serve``, an
    optimizer job): each sidecar must count only its own units."""

    def test_two_campaigns_under_one_recorder(self):
        with Recorder().activate():
            first = run_campaign(SPEC)
            second = run_campaign(SPEC)
        for result in (first, second):
            assert result.stats["solver_health"]["n_units"] == SPEC.n_units

    def test_phases_cover_only_this_campaign(self):
        rec = Recorder()
        with rec.activate(), span("serve.job"):
            run_campaign(SPEC)
            second = run_campaign(SPEC)
        runs = [s for s in rec.spans() if s["name"] == "campaign.run"]
        phases = second.stats["profile"]["phases_s"]
        assert "serve.job" not in phases
        assert sum(phases.values()) == pytest.approx(runs[1]["dur_s"])

    def test_two_campaigns_under_one_enclosing_span(self):
        """Both runs share a trace id here (an optimize job under
        ``serve.job``), so scoping is by the run span, not the trace."""
        with Recorder().activate(), span("serve.job"):
            first = run_campaign(SPEC)
            second = run_campaign(SPEC)
        for result in (first, second):
            assert result.stats["solver_health"]["n_units"] == SPEC.n_units
