"""Campaign spec expansion, validation and seed derivation."""

import pickle

import numpy as np
import pytest

from repro.campaign import CampaignSpec, WorkUnit, mc_seeds


class TestExpansion:
    def test_cross_product_size(self):
        spec = CampaignSpec(corners=("tt", "ff"), temps_c=(25.0, 85.0),
                            supplies=(None, 3.0), seeds=(None, 1),
                            gain_codes=(None,))
        assert spec.n_units == 2 * 2 * 2 * 2
        units = spec.expand()
        assert len(units) == spec.n_units
        assert [u.index for u in units] == list(range(spec.n_units))

    def test_temperature_innermost(self):
        """Temps vary fastest so one built circuit serves adjacent units."""
        spec = CampaignSpec(corners=("tt", "ff"), temps_c=(-20.0, 25.0, 85.0))
        units = spec.expand()
        assert [u.temp_c for u in units[:3]] == [-20.0, 25.0, 85.0]
        assert all(u.corner == "tt" for u in units[:3])
        assert all(u.corner == "ff" for u in units[3:])

    def test_circuit_key_excludes_temperature(self):
        u1 = WorkUnit(0, "tt", -20.0, None, 3, 5)
        u2 = WorkUnit(1, "tt", 85.0, None, 3, 5)
        assert u1.circuit_key() == u2.circuit_key()


class TestValidation:
    def test_corners_canonicalised_lowercase(self):
        spec = CampaignSpec(corners=["TT", "FF"])
        assert spec.corners == ("tt", "ff")

    def test_unknown_corner_rejected(self):
        with pytest.raises(KeyError, match="unknown corners"):
            CampaignSpec(corners=("tt", "tturbo"))

    def test_unknown_builder_rejected(self):
        with pytest.raises(KeyError, match="unknown builder"):
            CampaignSpec(builder="flux_capacitor")

    def test_unknown_measurement_rejected(self):
        with pytest.raises(KeyError, match="unknown measurements"):
            CampaignSpec(measurements=("offset_v", "vibes"))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            CampaignSpec(temps_c=())

    def test_bare_string_axis_rejected(self):
        with pytest.raises(TypeError, match="bare string"):
            CampaignSpec(corners="tt")

    def test_spec_pickles(self):
        spec = CampaignSpec(corners=("tt",), seeds=(1, 2))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestBuilderKwargs:
    def test_canonicalised_to_sorted_float_pairs(self):
        spec = CampaignSpec(builder_kwargs={"r_total": 30e3, "i_pair": 1e-3})
        assert spec.builder_kwargs == (("i_pair", 1e-3), ("r_total", 30000.0))
        # pair-sequence input lands on the same canonical form (hash/pickle)
        assert spec == CampaignSpec(
            builder_kwargs=(("r_total", 30000.0), ("i_pair", 1e-3)))

    def test_kwargs_spec_pickles(self):
        spec = CampaignSpec(builder="micamp_sized",
                            builder_kwargs={"l_load": 20e-6})
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_sized_builder_receives_kwargs(self):
        from repro.campaign import run_campaign

        base = dict(corners=("tt",), temps_c=(25.0,), gain_codes=(5,),
                    measurements=("iq_ma",))
        lo = run_campaign(CampaignSpec(
            builder="micamp_sized", builder_kwargs={"i_pair": 0.4e-3}, **base))
        hi = run_campaign(CampaignSpec(
            builder="micamp_sized", builder_kwargs={"i_pair": 1.2e-3}, **base))
        assert lo.metric("iq_ma")[0] < hi.metric("iq_ma")[0]

    def test_plain_builders_reject_kwargs(self):
        from repro.campaign import run_campaign

        spec = CampaignSpec(builder="micamp", corners=("tt",), temps_c=(25.0,),
                            measurements=("iq_ma",),
                            builder_kwargs={"i_pair": 1e-3})
        with pytest.raises(TypeError):
            run_campaign(spec)

    def test_sized_builder_rejects_unknown_parameter(self):
        from repro.campaign import run_campaign

        spec = CampaignSpec(builder="micamp_sized", corners=("tt",),
                            temps_c=(25.0,), measurements=("iq_ma",),
                            builder_kwargs={"w_banana": 1.0})
        with pytest.raises(ValueError, match="unknown sizing parameters"):
            run_campaign(spec)


class TestMcSeeds:
    def test_deterministic(self):
        assert mc_seeds(5, 2026) == mc_seeds(5, 2026)
        assert mc_seeds(5, 2026) != mc_seeds(5, 99)

    def test_matches_legacy_derivation(self):
        """Same master-rng child-seed scheme the old MC loops used."""
        rng = np.random.default_rng(2026)
        expected = tuple(int(rng.integers(2 ** 63)) for _ in range(4))
        assert mc_seeds(4, 2026) == expected
