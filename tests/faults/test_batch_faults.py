"""Chaos on the tensor path: injected group failures must degrade to the
per-unit path — never change a byte of the results.

``campaign.batch_group`` fires before each tensor group executes, so a
raise-rule there simulates everything the group-level ``except`` guards
against (structure surprises, solver blowups, batched-measurement
bugs): the group must re-run through plain ``run_unit`` semantics and
the export must stay byte-identical to the per-unit oracle, with the
``campaign.batched_units``/``campaign.fallback_units`` profile counters
telling the truth about what happened.
"""

import pytest

from repro.campaign import CampaignSpec, run_chunk, run_chunk_batched
from repro.campaign.result import CampaignResult
from repro.faults import FaultPlan, FaultRule
from repro.obs.profile import Profiler

SPEC = CampaignSpec(
    builder="micamp", corners=("tt", "ss"), temps_c=(25.0, 85.0),
    seeds=(0, 1), gain_codes=(5,),
    measurements=("offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db"),
)


@pytest.fixture(scope="module")
def reference():
    return run_chunk(SPEC, SPEC.expand())


def _chaos_run(plan: FaultPlan, batch_size: int = 64):
    profiler = Profiler()
    with plan.activate(), profiler.activate():
        records = run_chunk_batched(SPEC, SPEC.expand(),
                                    batch_size=batch_size)
    return records, profiler.snapshot()["counts"]


def _json(records) -> str:
    units = SPEC.expand()
    return CampaignResult.from_units(SPEC, units, records).to_json()


class TestBatchGroupFaults:
    def test_every_group_failing_falls_back_byte_identical(self, reference):
        records, counts = _chaos_run(
            FaultPlan([FaultRule("campaign.batch_group")]))
        assert _json(records) == _json(reference)
        assert counts["campaign.fallback_units"] == SPEC.n_units
        assert counts.get("campaign.batched_units", 0) == 0

    def test_single_group_failure_is_contained(self, reference):
        records, counts = _chaos_run(
            FaultPlan([FaultRule("campaign.batch_group", times=1)]),
            batch_size=4)
        assert _json(records) == _json(reference)
        assert counts["campaign.fallback_units"] == 4
        assert counts["campaign.batched_units"] == SPEC.n_units - 4

    def test_flaky_groups_under_probability_stay_correct(self, reference):
        records, counts = _chaos_run(
            FaultPlan([FaultRule("campaign.batch_group", probability=0.5)],
                      seed=7),
            batch_size=4)
        assert _json(records) == _json(reference)
        total = (counts.get("campaign.batched_units", 0)
                 + counts.get("campaign.fallback_units", 0))
        assert total == SPEC.n_units
