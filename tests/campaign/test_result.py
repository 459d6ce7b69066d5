"""Reducers and export on a synthetic campaign result (no circuits)."""

import numpy as np
import pytest

from repro.campaign import CampaignResult, CampaignSpec, WorkUnit


def synthetic_result():
    """2 corners x 2 codes x 2 seeds with hand-computable metrics."""
    units, records = [], []
    index = 0
    for corner in ("tt", "ss"):
        for code in (0, 5):
            for seed in (0, 1):
                units.append(WorkUnit(index=index, corner=corner, temp_c=25.0,
                                      supply=None, seed=seed, gain_code=code))
                # gain error: +/-0.01 around a per-code mean; psrr differs
                # by corner so worst_by has something to find
                records.append({
                    "gain_error_db": (0.02 if code else 0.04) * (1 if seed else -1),
                    "psrr_db": 100.0 - 10.0 * (corner == "ss") - seed,
                })
                index += 1
    spec = CampaignSpec(corners=("tt", "ss"), temps_c=(25.0,),
                        gain_codes=(0, 5), seeds=(0, 1))
    return CampaignResult.from_units(spec, units, records)


class TestColumns:
    def test_metric_and_column_access(self):
        r = synthetic_result()
        assert len(r) == 8
        assert r.metrics == ("gain_error_db", "psrr_db")
        assert r.metric("psrr_db").dtype == np.float64
        with pytest.raises(KeyError, match="unknown metric"):
            r.metric("corner")          # axis, not a metric
        assert r.column("corner")[0] == "tt"
        with pytest.raises(KeyError, match="unknown column"):
            r.column("nope")

    def test_missing_metric_padded_with_nan(self):
        spec = CampaignSpec(corners=("tt",), temps_c=(25.0,), seeds=(0, 1))
        units = spec.expand()
        records = [{"a": 1.0, "b": 2.0}, {"a": 3.0}]
        r = CampaignResult.from_units(spec, units, records)
        assert np.isnan(r.metric("b")[1])


class TestReducers:
    def test_sigma_by_code(self):
        r = synthetic_result()
        sigma = r.sigma_by("gain_error_db", by=("gain_code",))
        assert sigma[(0,)] == pytest.approx(0.04)
        assert sigma[(5,)] == pytest.approx(0.02)

    def test_worst_by_corner_min(self):
        r = synthetic_result()
        worst = r.worst_by("psrr_db", by=("corner",), sense="min")
        assert worst[("tt",)] == pytest.approx(99.0)
        assert worst[("ss",)] == pytest.approx(89.0)

    def test_worst_by_absmax(self):
        r = synthetic_result()
        worst = r.worst_by("gain_error_db", by=("gain_code",), sense="absmax")
        assert worst[(0,)] == pytest.approx(0.04)

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            synthetic_result().worst_by("psrr_db", sense="sideways")

    def test_group_by_multiple_axes(self):
        r = synthetic_result()
        means = r.group_reduce("psrr_db", by=("corner", "seed"), fn=np.mean)
        assert len(means) == 4
        assert means[("tt", 0)] == pytest.approx(100.0)

    def test_percentile_and_yield(self):
        r = synthetic_result()
        assert r.percentile("psrr_db", 50) == pytest.approx(94.5)
        assert r.yield_fraction("psrr_db", lo=90.0) == pytest.approx(0.75)
        assert r.yield_fraction("psrr_db", lo=0.0, hi=200.0) == 1.0
        with pytest.raises(ValueError, match="lo / hi"):
            r.yield_fraction("psrr_db")


class TestExport:
    def test_csv(self, tmp_path):
        r = synthetic_result()
        path = tmp_path / "campaign.csv"
        r.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == list(r.columns)
        assert len(lines) == 1 + len(r)

    def test_json_roundtrip(self, tmp_path):
        r = synthetic_result()
        path = tmp_path / "campaign.json"
        r.to_json(path)
        back = CampaignResult.from_json(path)
        assert back.metrics == r.metrics
        for name in r.columns:
            if name == "corner":
                assert list(back.column(name)) == list(r.column(name))
            else:
                np.testing.assert_allclose(
                    np.asarray(back.column(name), dtype=float),
                    np.asarray(r.column(name), dtype=float),
                )

    def test_summary_and_table(self):
        r = synthetic_result()
        text = r.summary()
        assert "8 units" in text and "psrr_db" in text


class TestNonFiniteJson:
    """Regression: failed units emit NaN/±inf metrics; the export must
    stay strict JSON and re-serialise byte-identically."""

    def non_finite_result(self):
        spec = CampaignSpec(corners=("tt", "ss"), temps_c=(25.0,))
        units = spec.expand()
        records = [{"m": float("nan"), "p": float("inf")},
                   {"m": float("-inf"), "p": 1.25}]
        return CampaignResult.from_units(spec, units, records)

    def test_output_is_strict_json(self):
        import json

        text = self.non_finite_result().to_json()
        # strict parsers reject NaN/Infinity literals; tokens must be used
        json.loads(text, parse_constant=lambda s: pytest.fail(
            f"non-strict constant {s} in to_json output"))
        assert '"Infinity"' in text and '"-Infinity"' in text

    def test_roundtrip_restores_values(self):
        r = self.non_finite_result()
        back = CampaignResult.from_json(r.to_json())
        assert np.isnan(back.metric("m")[0])
        assert back.metric("m")[1] == -np.inf
        assert back.metric("p")[0] == np.inf
        assert back.metric("p")[1] == 1.25
        assert list(back.column("corner")) == ["tt", "ss"]

    def test_reserialization_byte_identical(self, tmp_path):
        r = self.non_finite_result()
        path = tmp_path / "nf.json"
        r.to_json(path)
        text = path.read_text()
        again = tmp_path / "nf2.json"
        CampaignResult.from_json(path).to_json(again)
        assert again.read_bytes() == path.read_bytes()
        assert CampaignResult.from_json(text).to_json() + "\n" == text
