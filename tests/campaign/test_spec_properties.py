"""Property tests: spec expansion, fingerprints and store keys are
order-invariant.

Seeded random specs drive two properties the store relies on:

* permuting the *contents* of an axis permutes unit order but never
  invents, drops or re-keys a unit — the (coords -> store key) mapping
  is a pure function of the coordinates;
* unit index is positional only — it never leaks into circuit identity
  (``circuit_key``) or store keys, which is what makes incremental
  campaigns and axis-extended reruns cache-compatible.
"""

import random

import pytest

from repro.campaign import CampaignSpec
from repro.store.keys import UnitKeyer, campaign_key

AXES = ("corners", "temps_c", "supplies", "seeds", "gain_codes")


def _random_spec(rng: random.Random) -> CampaignSpec:
    corners = rng.sample(("tt", "ff", "ss", "fs", "sf"), rng.randint(1, 3))
    temps = rng.sample((-20.0, 0.0, 25.0, 55.0, 85.0), rng.randint(1, 3))
    supplies = rng.sample((None, 2.7, 3.0, 3.3), rng.randint(1, 2))
    seeds = rng.sample(range(100), rng.randint(1, 3))
    codes = rng.sample(range(8), rng.randint(1, 2))
    return CampaignSpec(
        builder="micamp", corners=tuple(corners), temps_c=tuple(temps),
        supplies=tuple(supplies), seeds=tuple(seeds),
        gain_codes=tuple(codes),
        measurements=("offset_v", "iq_ma"),
    )


def _coords(unit) -> tuple:
    return (unit.corner, unit.temp_c, unit.supply, unit.seed, unit.gain_code)


def _permuted(spec: CampaignSpec, rng: random.Random) -> CampaignSpec:
    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return tuple(values)

    return CampaignSpec(
        builder=spec.builder,
        corners=shuffled(spec.corners), temps_c=shuffled(spec.temps_c),
        supplies=shuffled(spec.supplies), seeds=shuffled(spec.seeds),
        gain_codes=shuffled(spec.gain_codes),
        measurements=spec.measurements,
    )


class TestAxisPermutation:
    @pytest.mark.parametrize("trial", range(8))
    def test_permutation_preserves_unit_set_and_store_keys(self, trial):
        rng = random.Random(1000 + trial)
        spec = _random_spec(rng)
        perm = _permuted(spec, rng)

        base_keys = {_coords(u): UnitKeyer(spec).key(u) for u in spec.expand()}
        perm_keys = {_coords(u): UnitKeyer(perm).key(u) for u in perm.expand()}
        # Same unit set, and every coordinate tuple maps to the same
        # store key — the index (which did change) is not part of it.
        assert base_keys == perm_keys

    @pytest.mark.parametrize("trial", range(8))
    def test_permutation_preserves_circuit_keys_and_indexing(self, trial):
        rng = random.Random(2000 + trial)
        spec = _random_spec(rng)
        perm = _permuted(spec, rng)

        for s in (spec, perm):
            units = s.expand()
            assert [u.index for u in units] == list(range(s.n_units))
            assert len({_coords(u) for u in units}) == s.n_units
        assert ({u.circuit_key() for u in spec.expand()}
                == {u.circuit_key() for u in perm.expand()})

    def test_identical_axes_identical_campaign_key(self):
        rng = random.Random(7)
        spec = _random_spec(rng)
        clone = CampaignSpec(
            builder=spec.builder, corners=spec.corners, temps_c=spec.temps_c,
            supplies=spec.supplies, seeds=spec.seeds,
            gain_codes=spec.gain_codes, measurements=spec.measurements,
        )
        assert campaign_key(spec) == campaign_key(clone)
        perm = _permuted(spec, random.Random(8))
        if tuple(perm.corners) != tuple(spec.corners) or \
                tuple(perm.temps_c) != tuple(spec.temps_c):
            # Axis order is part of whole-campaign identity (it changes
            # row order), even though per-unit keys are order-free.
            assert campaign_key(perm) != campaign_key(spec)
