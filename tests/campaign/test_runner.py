"""Campaign execution: determinism against the oracle, legacy equivalence.

The determinism contract is the load-bearing one: the same spec + seeds
must produce the same ``CampaignResult`` from ``run_campaign`` and from
the per-unit oracle ``run_chunk`` — byte-identical, because every unit
is a cold self-contained computation.
"""

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign.result import CampaignResult


@pytest.fixture(scope="module")
def micamp_spec():
    return CampaignSpec(
        builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
        seeds=(0, 1), gain_codes=(5,),
        measurements=("offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db"),
    )


@pytest.fixture(scope="module")
def serial_result(micamp_spec):
    units = micamp_spec.expand()
    return CampaignResult.from_units(micamp_spec, units,
                                     run_chunk(micamp_spec, units))


class TestDeterminism:
    def test_run_campaign_equals_per_unit_oracle(self, micamp_spec,
                                                 serial_result):
        result = run_campaign(micamp_spec)
        assert result.metrics == serial_result.metrics
        for metric in serial_result.metrics:
            np.testing.assert_array_equal(
                result.metric(metric), serial_result.metric(metric)
            )

    def test_rerun_is_reproducible(self, micamp_spec, serial_result):
        again = run_campaign(micamp_spec)
        for metric in serial_result.metrics:
            np.testing.assert_array_equal(
                again.metric(metric), serial_result.metric(metric)
            )


class TestLegacyEquivalence:
    def test_matches_hand_rolled_loop(self, serial_result):
        """Campaign rows reproduce the pre-campaign rebuild idiom exactly."""
        from repro.analysis.psrr import measure_psrr
        from repro.circuits.micamp import build_mic_amp
        from repro.process import CMOS12, MismatchSampler, apply_corner
        from repro.spice.dc import dc_operating_point

        tech = apply_corner(CMOS12, "ss")
        sampler = MismatchSampler(tech, np.random.default_rng(1))
        design = build_mic_amp(tech, gain_code=5, mismatch=sampler)
        op = dc_operating_point(design.circuit)
        row = serial_result.data[
            (serial_result.data["corner"] == "ss")
            & (serial_result.data["seed"] == 1)
        ]
        assert row.shape[0] == 1
        assert row["offset_v"][0] == op.vdiff(design.outp, design.outn)
        psrr = measure_psrr(design.circuit, "vdd_src", ("vin_p", "vin_n"),
                            design.outp, design.outn).ratio_db
        assert row["psrr_1khz_db"][0] == psrr

    def test_axis_columns_recorded(self, micamp_spec, serial_result):
        assert len(serial_result) == micamp_spec.n_units
        assert set(serial_result.column("corner")) == {"tt", "ss"}
        assert set(serial_result.column("seed")) == {0, 1}
        # nominal supply encodes as nan
        assert np.isnan(serial_result.column("supply")).all()


class TestOtherBuilders:
    def test_bias_campaign(self):
        spec = CampaignSpec(builder="bias", corners=("tt", "ff"),
                            temps_c=(25.0,), measurements=("bias_current_ua",))
        result = run_campaign(spec)
        current = result.metric("bias_current_ua")
        assert current.shape == (2,)
        # the Fig. 2 generator targets ~20 uA at nominal conditions
        assert np.all((current > 10.0) & (current < 30.0))

    def test_bandgap_campaign(self):
        spec = CampaignSpec(builder="bandgap", corners=("tt",),
                            temps_c=(25.0,), measurements=("vref_mv",))
        result = run_campaign(spec)
        assert 1000.0 < result.metric("vref_mv")[0] < 1400.0

    def test_gain_code_axis(self):
        spec = CampaignSpec(builder="micamp", corners=("tt",), temps_c=(25.0,),
                            gain_codes=(0, 5), measurements=("gain_1khz_db",))
        result = run_campaign(spec)
        gains = dict(zip(result.column("gain_code"), result.metric("gain_1khz_db")))
        assert gains[5] - gains[0] == pytest.approx(30.0, abs=0.5)

    def test_powerbuffer_rejects_gain_codes(self):
        spec = CampaignSpec(builder="powerbuffer", corners=("tt",),
                            temps_c=(25.0,), gain_codes=(3,),
                            measurements=("iq_ma",))
        with pytest.raises(ValueError, match="no gain codes"):
            run_campaign(spec)


class TestResultAssembly:
    def test_record_count_mismatch_rejected(self):
        from repro.campaign.result import CampaignResult

        spec = CampaignSpec(corners=("tt",), temps_c=(25.0,))
        with pytest.raises(ValueError, match="dropped or duplicated"):
            CampaignResult.from_units(spec, spec.expand(), [])
