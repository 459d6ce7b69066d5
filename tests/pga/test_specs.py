"""Spec tables and compliance reports."""

import pytest

from repro.pga.specs import (
    Bound,
    MIC_AMP_SPEC,
    POWER_BUFFER_SPEC,
    Spec,
    SpecError,
    SpecLimit,
)


class TestBounds:
    def test_min(self):
        limit = SpecLimit("m", Bound.MIN, 10.0, "x")
        assert limit.check(11.0) and not limit.check(9.0)

    def test_max(self):
        limit = SpecLimit("m", Bound.MAX, 10.0, "x")
        assert limit.check(9.0) and not limit.check(11.0)

    def test_abs_max(self):
        limit = SpecLimit("m", Bound.ABS_MAX, 0.05, "dB")
        assert limit.check(-0.04) and not limit.check(-0.06)

    def test_range(self):
        limit = SpecLimit("m", Bound.RANGE, (1.0, 2.0), "x")
        assert limit.check(1.5) and not limit.check(2.5)

    def test_info_never_fails(self):
        limit = SpecLimit("m", Bound.INFO, 0.0, "x")
        assert limit.check(1e9)

    def test_value_exactly_at_limit_passes(self):
        """Boundary semantics: every bound is inclusive."""
        assert SpecLimit("m", Bound.MIN, 10.0, "x").check(10.0)
        assert SpecLimit("m", Bound.MAX, 10.0, "x").check(10.0)
        assert SpecLimit("m", Bound.ABS_MAX, 0.05, "dB").check(0.05)
        assert SpecLimit("m", Bound.ABS_MAX, 0.05, "dB").check(-0.05)
        limit = SpecLimit("m", Bound.RANGE, (1.0, 2.0), "x")
        assert limit.check(1.0) and limit.check(2.0)

    def test_value_just_past_limit_fails(self):
        eps = 1e-12
        assert not SpecLimit("m", Bound.MIN, 10.0, "x").check(10.0 - eps)
        assert not SpecLimit("m", Bound.MAX, 10.0, "x").check(10.0 + eps)
        assert not SpecLimit("m", Bound.ABS_MAX, 0.05, "dB").check(0.05 + eps)
        limit = SpecLimit("m", Bound.RANGE, (1.0, 2.0), "x")
        assert not limit.check(1.0 - eps) and not limit.check(2.0 + eps)

    @pytest.mark.parametrize("bound, limit, value, margin", [
        (Bound.MIN, 75.0, 119.8, 44.8),
        (Bound.MIN, 75.0, 70.0, -5.0),
        (Bound.MAX, 2.6, 2.552, 0.048),
        (Bound.MAX, 2.6, 2.7, -0.1),
        (Bound.ABS_MAX, 0.05, -0.048, 0.002),
        (Bound.ABS_MAX, 0.05, 0.06, -0.01),
        (Bound.RANGE, (2.25, 4.25), 3.0, 0.75),    # nearer edge: low
        (Bound.RANGE, (2.25, 4.25), 4.0, 0.25),    # nearer edge: high
        (Bound.RANGE, (2.25, 4.25), 2.0, -0.25),
        (Bound.RANGE, (2.25, 4.25), 4.5, -0.25),
        (Bound.INFO, 0.0, 1e9, None),
    ])
    def test_margin_is_signed_distance_to_the_bound(self, bound, limit,
                                                    value, margin):
        spec = Spec("demo", (SpecLimit("m", bound, limit, "x"),))
        row = spec.check({"m": value}).rows[0]
        if margin is None:
            assert row.margin is None
            assert "margin: --" in row.format()
        else:
            assert row.margin == pytest.approx(margin)
            assert (row.margin >= 0.0) == row.passed
            assert f"margin: {row.margin:+.4g}" in row.format()


class TestReports:
    def test_passing_report(self):
        spec = Spec("demo", (SpecLimit("a", Bound.MAX, 1.0, "V"),))
        report = spec.check({"a": 0.5})
        assert report.passed
        assert "PASS" in report.format()

    def test_failing_report_lists_failures(self):
        spec = Spec("demo", (SpecLimit("a", Bound.MAX, 1.0, "V"),
                             SpecLimit("b", Bound.MIN, 1.0, "V")))
        report = spec.check({"a": 2.0, "b": 2.0})
        assert not report.passed
        assert len(report.failures) == 1
        assert report.failures[0].limit.metric == "a"

    def test_missing_metric_skipped_by_default(self):
        spec = Spec("demo", (SpecLimit("a", Bound.MAX, 1.0, "V"),))
        report = spec.check({})
        assert report.rows == []
        assert report.passed  # vacuous

    def test_missing_metric_strict_raises_spec_error(self):
        spec = Spec("demo", (SpecLimit("a", Bound.MAX, 1.0, "V"),))
        with pytest.raises(SpecError) as exc:
            spec.check({}, strict=True)
        assert exc.value.missing == ["a"]
        assert exc.value.failures == []

    def test_strict_lists_every_failing_row(self):
        spec = Spec("demo", (
            SpecLimit("a", Bound.MAX, 1.0, "V"),
            SpecLimit("b", Bound.MIN, 1.0, "V"),
            SpecLimit("c", Bound.ABS_MAX, 0.1, "dB"),
            SpecLimit("d", Bound.INFO, 0.0, "x"),
        ))
        with pytest.raises(SpecError) as exc:
            spec.check({"a": 2.0, "b": 0.5, "c": 0.05}, strict=True)
        err = exc.value
        assert [row.limit.metric for row in err.failures] == ["a", "b"]
        assert err.missing == []
        text = str(err)
        assert "a" in text and "b" in text and "FAIL" in text

    def test_strict_reports_failures_and_missing_together(self):
        spec = Spec("demo", (
            SpecLimit("a", Bound.MAX, 1.0, "V"),
            SpecLimit("gone", Bound.MIN, 5.0, "V"),
        ))
        with pytest.raises(SpecError) as exc:
            spec.check({"a": 2.0}, strict=True)
        assert [row.limit.metric for row in exc.value.failures] == ["a"]
        assert exc.value.missing == ["gone"]
        assert "missing" in str(exc.value)

    def test_strict_missing_info_row_is_fine(self):
        spec = Spec("demo", (
            SpecLimit("a", Bound.MAX, 1.0, "V"),
            SpecLimit("fyi", Bound.INFO, 0.0, "x"),
        ))
        report = spec.check({"a": 0.5}, strict=True)  # must not raise
        assert report.passed

    def test_strict_passing_check_returns_report(self):
        spec = Spec("demo", (SpecLimit("a", Bound.MAX, 1.0, "V"),))
        report = spec.check({"a": 0.5}, strict=True)
        assert report.passed and len(report.rows) == 1


class TestPaperTables:
    def test_table1_has_the_paper_rows(self):
        metrics = {l.metric for l in MIC_AMP_SPEC.limits}
        assert {"snr_40db_db", "vnin_300hz_nv", "vnin_1khz_nv", "vnin_avg_nv",
                "hd_0v2_db", "gain_error_db", "psrr_1khz_db", "iq_ma"} <= metrics

    def test_table2_has_the_paper_rows(self):
        metrics = {l.metric for l in POWER_BUFFER_SPEC.limits}
        assert {"iq_ma", "psrr_1khz_db", "slew_v_per_us",
                "vomax_margin_hd06_mv", "vomax_margin_hd03_mv"} <= metrics

    def test_table1_noise_limits_match_paper(self):
        by_name = {l.metric: l for l in MIC_AMP_SPEC.limits}
        assert by_name["vnin_300hz_nv"].limit == 7.0
        assert by_name["vnin_1khz_nv"].limit == 6.0
        assert by_name["iq_ma"].limit == 2.6

    def test_table2_iq_range_centred_on_3_25(self):
        by_name = {l.metric: l for l in POWER_BUFFER_SPEC.limits}
        lo, hi = by_name["iq_ma"].limit
        assert (lo + hi) / 2 == pytest.approx(3.25)
