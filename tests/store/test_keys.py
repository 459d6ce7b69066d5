"""Key-scheme contracts: stability across processes, sensitivity to
everything a record depends on, insensitivity to everything it doesn't."""

import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.store import (
    UnitKeyer,
    campaign_key,
    canonical_hash,
    canonical_json,
    design_key,
    evaluator_fingerprint,
    spec_fingerprint,
    unit_key,
)


def small_spec(**overrides):
    kwargs = dict(builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
                  seeds=(0, 1), gain_codes=(5,),
                  measurements=("offset_v", "iq_ma"))
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCanonicalJson:
    def test_dict_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_sequence_order_matters(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])

    def test_numpy_equals_python(self):
        assert canonical_json({"v": np.float64(1.5)}) == canonical_json({"v": 1.5})
        assert canonical_json(np.array([1.0, 2.0])) == canonical_json([1.0, 2.0])

    def test_non_finite_tokenised(self):
        text = canonical_json([float("nan"), float("inf"), float("-inf")])
        assert "Infinity" not in text and "NaN" not in text
        assert '"$nf"' in text

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError, match="canonicalise"):
            canonical_json(object())


class TestUnitKeys:
    def test_keyer_matches_one_shot(self):
        spec = small_spec()
        keyer = UnitKeyer(spec)
        for unit in spec.expand():
            assert keyer.key(unit) == unit_key(spec, unit)

    def test_units_distinct(self):
        spec = small_spec()
        keys = [unit_key(spec, u) for u in spec.expand()]
        assert len(set(keys)) == len(keys)

    def test_key_ignores_other_axis_values(self):
        """Growing an axis must not move the overlapping units' keys —
        that is what makes incremental reruns reuse them."""
        a, b = small_spec(), small_spec(corners=("tt", "ss", "ff"),
                                        temps_c=(25.0, 85.0))
        unit = a.expand()[0]
        twin = next(u for u in b.expand()
                    if u.circuit_key() == unit.circuit_key()
                    and u.temp_c == unit.temp_c)
        assert unit_key(a, unit) == unit_key(b, twin)

    @pytest.mark.parametrize("overrides", [
        {"builder": "micamp_sized",
         "builder_kwargs": {"i_pair": 0.8e-3}},
        {"measurements": ("offset_v",)},
        {"measurements": ("iq_ma", "offset_v")},   # order is meaningful
    ])
    def test_key_tracks_spec_content(self, overrides):
        spec, changed = small_spec(), small_spec(**overrides)
        assert unit_key(spec, spec.expand()[0]) != \
            unit_key(changed, changed.expand()[0])

    def test_key_tracks_builder_kwargs_value(self):
        a = small_spec(builder="micamp_sized", builder_kwargs={"i_pair": 0.8e-3})
        b = small_spec(builder="micamp_sized", builder_kwargs={"i_pair": 0.9e-3})
        assert unit_key(a, a.expand()[0]) != unit_key(b, b.expand()[0])

    def test_key_tracks_technology(self):
        spec = small_spec()
        skewed = small_spec(tech=spec.tech.scaled(nmos={"vth0": 0.75}))
        assert unit_key(spec, spec.expand()[0]) != \
            unit_key(skewed, skewed.expand()[0])

    def test_key_tracks_unit_coordinates(self):
        spec = small_spec()
        u0, u1 = spec.expand()[0], spec.expand()[1]
        assert unit_key(spec, u0) != unit_key(spec, u1)

    def test_campaign_key_tracks_axes(self):
        assert campaign_key(small_spec()) != \
            campaign_key(small_spec(temps_c=(25.0, 85.0)))

    def test_keys_are_pinned(self):
        """Literal digests: a change to the key text orphans every
        stored record, so it must show here first."""
        spec = small_spec()
        keyer = UnitKeyer(spec)
        assert campaign_key(spec) == keyer.campaign_key() == (
            "a2e8a656c4a620b9e5650f67c3f37d6a946f214070ed50f303a8a57a0db6c7ab")
        assert [keyer.key(u) for u in spec.expand()][:2] == [
            "d2a7abe904cdb86125cee5f4635e732ecce486a3948a991c9e6e3450ed8839d5",
            "2d0e16c7a335066d114d01e9d59c5fd19bc3399266533c503048ca85c5161f4a"]
        sized = small_spec(builder="micamp_sized", corners=("tt",),
                           temps_c=(25.0, 85.0), supplies=(None, 3.3),
                           seeds=(None,), measurements=("offset_v",),
                           builder_kwargs={"i_pair": 0.001,
                                           "r_total": 20000.0})
        assert campaign_key(sized) == (
            "90a316e946006a4beae6b53cbbee8f268c48ce1d078500f20aedea7a1bea2aea")
        assert UnitKeyer(sized).key(sized.expand()[-1]) == (
            "97cbd45e27d86f3d2a928eeade2bc894cf9e5bbc595791c984919831174b75f2")


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.campaign import CampaignSpec
from repro.optimize import mic_amp_design_space
from repro.process import CMOS12
from repro.store import (UnitKeyer, campaign_key, canonical_hash,
                         design_key, evaluator_fingerprint, spec_fingerprint)

spec = CampaignSpec(builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
                    seeds=(0, 1), gain_codes=(5,),
                    measurements=("offset_v", "iq_ma"))
keyer = UnitKeyer(spec)
space = mic_amp_design_space()
ctx = canonical_hash(evaluator_fingerprint(
    space=space, tech=CMOS12, builder="micamp_sized",
    measurements=("iq_ma",), gain_code=5, robust=None))
print(json.dumps({
    "campaign": campaign_key(spec),
    "units": [keyer.key(u) for u in spec.expand()],
    "design": design_key(ctx, space.key(space.default())),
}))
"""


class TestCrossProcessStability:
    def test_subprocess_reproduces_keys(self):
        """The acceptance contract: hashing the same spec in a separate
        interpreter yields identical keys (no id()/hash-seed leakage)."""
        import json as _json

        from repro.optimize import mic_amp_design_space
        from repro.process import CMOS12

        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True, text=True, check=True,
        )
        remote = _json.loads(proc.stdout)

        spec = small_spec()
        keyer = UnitKeyer(spec)
        assert remote["campaign"] == campaign_key(spec)
        assert remote["units"] == [keyer.key(u) for u in spec.expand()]

        space = mic_amp_design_space()
        ctx = canonical_hash(evaluator_fingerprint(
            space=space, tech=CMOS12, builder="micamp_sized",
            measurements=("iq_ma",), gain_code=5, robust=None))
        assert remote["design"] == design_key(ctx, space.key(space.default()))


class TestDesignKeys:
    def _ctx(self, **overrides):
        from repro.optimize import mic_amp_design_space
        from repro.process import CMOS12

        kwargs = dict(space=mic_amp_design_space(), tech=CMOS12,
                      builder="micamp_sized",
                      measurements=("iq_ma", "noise_voice"),
                      gain_code=5, robust=None)
        kwargs.update(overrides)
        return evaluator_fingerprint(**kwargs)

    def test_same_context_same_key(self):
        from repro.optimize import mic_amp_design_space

        x = mic_amp_design_space().key(mic_amp_design_space().default())
        assert design_key(self._ctx(), x) == design_key(self._ctx(), x)

    def test_context_changes_key(self):
        from repro.optimize import RobustSettings, mic_amp_design_space

        x = mic_amp_design_space().key(mic_amp_design_space().default())
        base = design_key(self._ctx(), x)
        assert design_key(self._ctx(gain_code=3), x) != base
        assert design_key(self._ctx(measurements=("iq_ma",)), x) != base
        assert design_key(
            self._ctx(robust=RobustSettings(corners=("tt", "ss"))), x
        ) != base

    def test_vector_changes_key(self):
        from repro.optimize import mic_amp_design_space

        space = mic_amp_design_space()
        ctx = self._ctx()
        x = space.default()
        y = x.copy()
        y[5] *= 1.2
        assert design_key(ctx, space.key(x)) != design_key(ctx, space.key(y))

    def test_fingerprint_mentions_schema(self):
        assert spec_fingerprint(small_spec())["schema"] == \
            self._ctx()["schema"]
