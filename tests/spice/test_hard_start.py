"""Hard-start DC solves: the plain stage's stall rule and the gmin ladder.

A hard start spends its plain-Newton stage clamped at the step limit
every iteration.  The plain stage stops after
``NewtonOptions.stall_iterations`` (10) clamped steps in a row and the
ladder restarts gmin stepping from the initial guess, so the operating
point is the one gmin stepping alone finds.  On the tensor path a unit
that fails lockstep Newton enters that ladder directly, without
re-running the plain stage.

The two hard starts (``HARD_STARTS``) are those of the CI search
``repro optimize --quick --seed 2026`` (tt, 25 degC), taken from its
evaluator cache.  Before the stall rule each took 150 plain iterations
(210 and 211 in all).

The limit also diverts a converging solve that has 10 clamped steps in
a row; the ladder then lands on its plain-Newton point to round-off.
A scan of the ``perfbench`` ``optimize_de`` streams (seeds 1-10, the
first 30 entries of each, reruns skipped, every unit solved serially:
7893 plain stages) counted 474 hard starts, all but one stopped by the
limit, and 108 diverted converging stages, none more than 2.3e-14 V
from its plain-Newton point.  Converging runs reach 138 clamped steps
there, so no limit that saves iterations diverts nothing.
``LONGEST_CONVERGING`` (seed 6, entry 18 of an earlier scan: a 73-step
run, converged at iteration 83) and ``SLOW_CONVERGING`` (a seed-2
search: a 55-step run, converged at iteration 97) set the former limit
of 83; both now take the ladder.  ``LIVE_PAST_STALL`` (seed 1, entry
26, a typical search) converges at iteration 21 and never has 10
clamped steps in a row, so in lockstep it is still live when a hard
start beside it stalls.

The gmin ladder is adaptive (``dc.strategy_ladder``); ``_decade_ladder``
below is the fixed ladder it replaced (1e-3 ... 1e-12 S, then 0), kept
as the reference.  ``LADDER_RESCUE`` is search 8 of the ``perfbench``
``optimize_de`` seed-2 stream (tt, 25 degC, gain code 5): the decade
ladder runs out of budget on it, so it used to need source stepping
(254 iterations); the adaptive ladder solves it.
"""

import numpy as np
import pytest

import repro.spice.dc as dc_mod
from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.result import CampaignResult
from repro.campaign.runner import ChunkCache
from repro.cli import main
from repro.obs import Recorder, deactivate
from repro.optimize import mic_amp_design_space
from repro.spice.batch import BatchedSystem, newton_batch
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
LADDER_RESCUE = {
    "split_input_thermal": 0.43500000000000005, "split_load_thermal": 0.045,
    "split_network": 0.14, "split_switches": 0.015,
    "split_flicker": 0.32499999999999996, "i_pair": 0.0003990524629937758,
    "l_input": 6.563284871848658e-06, "l_load": 3.656705516919003e-05,
    "r_total": 26490.48971860727}
LONGEST_CONVERGING = {
    "split_input_thermal": 0.165, "split_load_thermal": 0.02,
    "split_network": 0.14500000000000002, "split_switches": 0.04,
    "split_flicker": 0.175, "i_pair": 0.001321386896015193,
    "l_input": 5.45910257582995e-06, "l_load": 2.0095091452076665e-05,
    "r_total": 9618.115476939309}
SLOW_CONVERGING = {
    "split_input_thermal": 0.29500000000000004, "split_load_thermal": 0.03,
    "split_network": 0.315, "split_switches": 0.065,
    "split_flicker": 0.034999999999999996, "i_pair": 0.0007261561095402029,
    "l_input": 1.8928720334405797e-05, "l_load": 2.0095091452076665e-05,
    "r_total": 48204.766885948666}
LIVE_PAST_STALL = {
    "i_pair": 0.0005508457406676332, "l_input": 1.5744223807493175e-05,
    "l_load": 3.334955067762685e-05, "r_total": 10546.053908451264,
    "split_flicker": 0.30000000000000004,
    "split_input_thermal": 0.42500000000000004, "split_load_thermal": 0.04,
    "split_network": 0.14500000000000002, "split_switches": 0.025}
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


def _circuit(params: dict):
    spec = _spec(params)
    (unit,) = spec.expand()
    return ChunkCache(spec).built(unit).circuit


def _system(params: dict):
    return _circuit(params).compile(temp_c=25.0)


def _decade_ladder(system, start):
    """The fixed 11-decade gmin ladder the adaptive one replaced:
    ``(converged, x, iterations)``."""
    rhs, x, total = system.rhs_dc(), start.copy(), 0
    for gmin in [10.0 ** (-k) for k in range(3, 13)] + [0.0]:
        converged, x_next, iters = _newton(system, x, rhs, gmin,
                                           NewtonOptions())
        total += iters
        if not converged:
            return False, x, total
        x = x_next
    return True, x, total


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


class TestAdaptiveLadder:
    @pytest.mark.parametrize("params, iterations",
                             zip(HARD_STARTS, [(30, 60), (30, 61)]),
                             ids=["a", "b"])
    def test_lands_on_the_decade_ladders_point(self, params, iterations):
        """Ladder iterations (adaptive, decades) are pinned exactly."""
        system = _system(params)
        start = _initial_guess(system)
        rec = Recorder()
        with rec.activate():
            op = strategy_ladder(system, start)
        converged, x_ref, ref_iters = _decade_ladder(system, start)
        assert converged
        assert np.max(np.abs(op.x - x_ref)) <= 1e-14
        # Four rungs (1e-3, 1e-5, 1e-9 S, then 0) instead of eleven.
        assert rec.profile()["counts"]["dc.gmin_rungs"] == 4
        assert (op.iterations, ref_iters) == iterations

    def test_failed_rung_is_retried_with_a_shorter_step(self, monkeypatch):
        """A 10-iteration budget makes the 1e-5 -> 1e-9 S step fail; the
        ladder retries from the 1e-5 S solution with the square root of
        that step and still lands on the decade ladder's point."""
        rungs: list = []
        real_newton = dc_mod._newton

        def newton(system, x0, rhs, gmin, options, **kwargs):
            result = real_newton(system, x0, rhs, gmin, options, **kwargs)
            rungs.append((gmin, result[0]))
            return result

        system = _system(HARD_STARTS[0])
        start = _initial_guess(system)
        _, x_ref, _ = _decade_ladder(system, start)
        monkeypatch.setattr(dc_mod, "_newton", newton)
        op = strategy_ladder(system, start, NewtonOptions(max_iterations=10))
        assert [(float(f"{g:.3g}"), ok) for g, ok in rungs] == [
            (1e-3, True), (1e-5, True), (1e-9, False), (1e-7, True),
            (1e-9, True), (0.0, True)]
        assert np.max(np.abs(op.x - x_ref)) <= 1e-14

    def test_rescues_the_design_the_decades_fail(self):
        """The one measured design that used to need source stepping:
        plain Newton stalls, the decade ladder runs out of budget, and
        the adaptive ladder converges in four rungs."""
        system = _system(LADDER_RESCUE)
        converged, _, _ = _decade_ladder(system, _initial_guess(system))
        assert not converged
        rec = Recorder()
        with rec.activate():
            op = dc_operating_point(system)
        assert op.strategy == "gmin-stepping" and op.iterations == 46
        counts = rec.profile()["counts"]
        assert counts["dc.gmin_rungs"] == 4
        (esc,) = rec.events(name="dc.strategy_escalation")
        assert (esc["fields"]["to_strategy"], esc["fields"]["reason"]) == (
            "gmin-stepping", "stalled")
        assert not rec.events(name="dc.nonconvergence")

    @pytest.mark.parametrize("robust, ladders, iterations",
                             [([], 2, 225), (["--robust"], 4, 602)],
                             ids=["typical", "robust"])
    def test_ci_search_newton_iterations(self, robust, ladders, iterations):
        """An exact count, not a timing: a longer ladder or a later stall
        fails it.  Each search meets the two ``HARD_STARTS`` (once per
        search); the robust one also diverts two converging units.  The
        candidates of a generation share tensor groups, whose plain-stage
        iterations lockstep Newton counts per unit
        (``batch.assembled_units``); a unit it hands to the serial ladder
        adds only the ladder's."""
        rec = Recorder()
        with rec.activate():
            main(["optimize", "--quick", "--seed", "2026", "--no-progress"]
                 + robust)
        counts = rec.profile()["counts"]
        assert counts["dc.strategy.gmin-stepping"] == ladders
        assert counts["dc.gmin_rungs"] == 4 * ladders
        assert counts["dc.newton_iterations"] + \
            counts.get("batch.assembled_units", 0) == iterations


class TestLongestConvergingRun:
    def test_run_is_73_steps(self):
        system = _system(LONGEST_CONVERGING)
        start, rhs = _initial_guess(system), system.rhs_dc()
        diag: dict = {}
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), diag=diag, stall=73)
        assert not converged and diag["reason"] == "stalled" and iters < 83
        converged, _, iters = _newton(system, start, rhs, 0.0,
                                      NewtonOptions(), stall=74)
        assert converged and iters == 83

    @pytest.mark.parametrize("params, iterations",
                             [(LONGEST_CONVERGING, 42), (SLOW_CONVERGING, 40)],
                             ids=["longest", "slow"])
    def test_ladder_lands_on_the_plain_newton_point(self, params, iterations):
        """Diverted after 10 clamped steps, the design takes the ladder
        and still lands on the point plain Newton converges to."""
        system = _system(params)
        op = dc_operating_point(system)
        assert op.strategy == "gmin-stepping" and op.iterations == iterations
        converged, x_plain, _ = _newton(system, _initial_guess(system),
                                        system.rhs_dc(), 0.0, NewtonOptions(),
                                        stall=None)
        assert converged
        assert np.max(np.abs(op.x - x_plain)) <= NewtonOptions().vntol


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


def _lockstep_matches_per_unit(designs):
    """Run ``designs`` (tt, 25 degC) as one lockstep group, check every
    unit against the per-unit ``_newton`` plain stage, and return
    ``(converged, iterations, counts)``."""
    circuits = [_circuit(p) for p in designs]
    temps = [25.0] * len(circuits)
    bs = BatchedSystem(circuits[0].compile(temp_c=25.0), circuits, temps)
    diags = [{} for _ in circuits]
    rec = Recorder()
    with rec.activate():
        converged, x, iterations = newton_batch(
            bs, bs.initial_guess(), bs.rhs_dc(), diags=diags)
    for u, circ in enumerate(circuits):
        system = circ.compile(temp_c=25.0)
        diag: dict = {}
        ok, x_ref, iters = _newton(system, _initial_guess(system),
                                   system.rhs_dc(), 0.0, NewtonOptions(),
                                   diag=diag, stall=STALL)
        assert ok == converged[u]
        assert iterations[u] == iters
        assert x[u].tobytes() == x_ref.tobytes()
        assert diags[u] == diag
    counts = rec.profile()["counts"]
    # Every assembled unit-iteration was a live one.
    assert counts["batch.assembled_units"] == int(iterations.sum())
    return converged.tolist(), iterations.tolist(), counts


class TestLockstepCompaction:
    """Once units finish, lockstep Newton assembles only the live ones,
    and every unit still gets the per-unit ``_newton`` result."""

    def test_group_matches_per_unit_newton(self):
        """Two stalling units among two that converge first: 10 + 10 +
        6 + 7 assembled unit-iterations, where a full-group lockstep
        assembles 4 x 10."""
        space = mic_amp_design_space()
        converged, iterations, counts = _lockstep_matches_per_unit(
            [HARD_STARTS[0], SLOW_CONVERGING, space.as_dict(space.default()),
             space.as_dict(space.from_unit(np.full(space.dim, 0.3)))])
        assert converged == [False, False, True, True]
        assert iterations == [STALL, STALL, 6, 7]
        assert counts["batch.newton_iterations"] == STALL

    def test_unit_stalls_while_a_sibling_is_live(self):
        """The hard start stalls at iteration 10 and leaves the group;
        its sibling runs on alone to iteration 21: 10 + 21 assembled
        unit-iterations, where a full-group lockstep assembles 2 x 21."""
        converged, iterations, counts = _lockstep_matches_per_unit(
            [HARD_STARTS[0], LIVE_PAST_STALL])
        assert converged == [False, True]
        assert iterations == [STALL, 21]
        assert counts["batch.newton_iterations"] == 21
