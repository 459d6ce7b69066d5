"""Hard-start DC solves: the plain stage's stall rule and the ladder.

A hard start spends its plain-Newton stage clamped at the step limit
every iteration.  The plain stage stops after
``NewtonOptions.stall_iterations`` (83) clamped steps in a row and the
ladder restarts gmin stepping from the initial guess, so the operating
point is the one gmin stepping alone finds.  On the tensor path a unit
that fails lockstep Newton enters that ladder directly, without
re-running the plain stage.

The two hard starts (``HARD_STARTS``) are those of the CI search
``repro optimize --quick --seed 2026`` (tt, 25 degC), taken from its
evaluator cache.  Before the stall rule each took 150 plain iterations
(210 and 211 in all).  The converging design is the one with the
longest clamped run measured in a converging solve (55 steps, a
``perfbench`` ``optimize_de`` seed-2 search): the limit must stay above
it, or the rule would change that design's operating point.

A few designs also exhaust gmin stepping and need source stepping;
``SOURCE_STEPPING`` is search 8 of the ``perfbench`` ``optimize_de``
seed-2 stream (tt, 25 degC, gain code 5).
"""

import pytest

import repro.spice.dc as dc_mod
from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.result import CampaignResult
from repro.campaign.runner import ChunkCache
from repro.obs import Recorder, deactivate
from repro.spice.dc import (
    NewtonOptions,
    _initial_guess,
    _newton,
    dc_operating_point,
    strategy_ladder,
)

HARD_STARTS = [
    {"split_input_thermal": 0.475, "split_load_thermal": 0.16999999999999998,
     "split_network": 0.29, "split_switches": 0.01, "split_flicker": 0.03,
     "i_pair": 0.0015886564694485628, "l_input": 1.0892341643103056e-05,
     "l_load": 1.3902406629995016e-05, "r_total": 15243.685743705992},
    {"split_input_thermal": 0.4, "split_load_thermal": 0.08,
     "split_network": 0.27, "split_switches": 0.075, "split_flicker": 0.17,
     "i_pair": 0.0011508798746743135, "l_input": 7.890803975686148e-06,
     "l_load": 2.5298221281347044e-05, "r_total": 25298.221281347043},
]
SOURCE_STEPPING = {
    "split_input_thermal": 0.43500000000000005, "split_load_thermal": 0.045,
    "split_network": 0.14, "split_switches": 0.015,
    "split_flicker": 0.32499999999999996, "i_pair": 0.0003990524629937758,
    "l_input": 6.563284871848658e-06, "l_load": 3.656705516919003e-05,
    "r_total": 26490.48971860727}
LONGEST_CONVERGING = {
    "split_input_thermal": 0.29500000000000004, "split_load_thermal": 0.03,
    "split_network": 0.315, "split_switches": 0.065,
    "split_flicker": 0.034999999999999996, "i_pair": 0.0007261561095402029,
    "l_input": 1.8928720334405797e-05, "l_load": 2.0095091452076665e-05,
    "r_total": 48204.766885948666}
STALL = NewtonOptions().stall_iterations
MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db")


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()


def _spec(params: dict, corners=("tt",), temps=(25.0,)) -> CampaignSpec:
    return CampaignSpec(builder="micamp_sized", corners=corners,
                        temps_c=temps, seeds=(None,), gain_codes=(5,),
                        measurements=MEASUREMENTS, builder_kwargs=params)


def _system(params: dict):
    spec = _spec(params)
    (unit,) = spec.expand()
    return ChunkCache(spec).built(unit).circuit.compile(temp_c=unit.temp_c)


@pytest.mark.parametrize("params", HARD_STARTS, ids=["a", "b"])
class TestSerialHardStart:
    def test_plain_stage_stops_at_stall_limit(self, params):
        system = _system(params)
        start, rhs = _initial_guess(system), system.rhs_dc()
        diag: dict = {}
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), diag=diag, stall=STALL)
        assert not converged and iters == STALL
        assert diag["reason"] == "stalled" and diag["clamped_streak"] == STALL
        # Without the rule the stage spends its whole budget and still
        # fails: the stall cut only shortens a failure.
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), diag=diag)
        assert not converged and iters == 150
        assert diag["reason"] == "budget"

    def test_operating_point_is_the_ladders(self, params):
        system = _system(params)
        rec = Recorder()
        with rec.activate():
            op = dc_operating_point(system)
        assert op.strategy == "gmin-stepping"
        ladder = strategy_ladder(system, _initial_guess(system))
        assert op.x.tobytes() == ladder.x.tobytes()
        assert op.iterations == STALL + ladder.iterations
        (esc,) = rec.events(name="dc.strategy_escalation")
        assert esc["fields"]["reason"] == "stalled"
        assert esc["fields"]["clamped_streak"] == STALL
        assert esc["fields"]["iterations"] == STALL


class TestSourceStepping:
    """The one measured design that needs the last rung: plain Newton
    stalls, gmin stepping runs out of budget, source stepping converges."""

    def test_source_stepping_converges(self):
        system = _system(SOURCE_STEPPING)
        rec = Recorder()
        with rec.activate():
            op = dc_operating_point(system)
        assert op.strategy == "source-stepping" and op.iterations == 254
        first, second = rec.events(name="dc.strategy_escalation")
        assert (first["fields"]["to_strategy"], first["fields"]["reason"]) == (
            "gmin-stepping", "stalled")
        assert (second["fields"]["from_strategy"], second["fields"]["to_strategy"],
                second["fields"]["reason"]) == (
            "gmin-stepping", "source-stepping", "budget")
        assert rec.profile()["counts"]["dc.strategy.source-stepping"] == 1
        assert not rec.events(name="dc.nonconvergence")


class TestLongestConvergingRun:
    def test_run_is_55_steps(self):
        system = _system(LONGEST_CONVERGING)
        start, rhs = _initial_guess(system), system.rhs_dc()
        diag: dict = {}
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), diag=diag, stall=55)
        assert not converged and diag["reason"] == "stalled" and iters < 97
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), stall=56)
        assert converged and iters == 97

    def test_stall_limit_leaves_it_to_plain_newton(self):
        assert STALL >= 1.5 * 55
        op = dc_operating_point(_system(LONGEST_CONVERGING))
        assert op.strategy == "newton" and op.iterations == 97


class TestTensorFallback:
    """One hard unit (tt 25 degC) among four structure siblings."""

    SPEC = _spec(HARD_STARTS[0], corners=("tt", "fs"), temps=(25.0, 85.0))

    def test_bytes_match_oracle_and_plain_stage_is_not_rerun(self, monkeypatch):
        stalled_stages: list = []
        real_newton = dc_mod._newton

        def newton(*args, **kwargs):
            if kwargs.get("stall") is not None:
                stalled_stages.append(args[0].circuit.name)
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(dc_mod, "_newton", newton)
        rec = Recorder()
        with rec.activate():
            batched = run_campaign(self.SPEC)
        units = self.SPEC.expand()
        assert len(units) == 4
        counts = rec.profile()["counts"]
        assert counts["batch.units_stamped"] == 4
        assert counts["campaign.fallback_units"] == 1
        assert stalled_stages == []
        (fallback,) = rec.events(name="campaign.unit_fallback")
        assert "stalled" in fallback["fields"]["reason"]
        assert "gmin stepping" in fallback["fields"]["reason"]
        batched_health = [e["fields"] for e in
                          rec.events(name="unit.solver_health")
                          if e["fields"]["strategy"] != "newton"]

        rec = Recorder()
        with rec.activate():
            oracle = CampaignResult.from_units(self.SPEC, units,
                                               run_chunk(self.SPEC, units))
        assert batched.to_json() == oracle.to_json()
        assert len(stalled_stages) == 4
        serial_health = [e["fields"] for e in
                         rec.events(name="unit.solver_health")
                         if e["fields"]["strategy"] != "newton"]
        # The fallback unit's health counts the lockstep plain
        # iterations, exactly like the per-unit solve.
        assert batched_health == serial_health
        assert len(serial_health) == 1
        assert serial_health[0]["strategy"] == "gmin-stepping"
