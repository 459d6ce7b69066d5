"""Spec tables (the paper's Table 1 and Table 2) and compliance checking.

Every characterisation bench produces a ``{metric: value}`` dict; a
:class:`Spec` turns it into a pass/fail report with the paper's measured
values as the reference column, which is how the ``benchmarks/``
scripts report paper-vs-measured rows (mapped in ``docs/paper_mapping.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class SpecError(Exception):
    """Raised by strict spec checks: carries every failing row (and any
    metric missing from the measurements), not just the first one, so a
    CI log or an optimizer trace shows the whole compliance picture."""

    def __init__(self, name: str, failures: list["SpecRow"],
                 missing: list[str]) -> None:
        self.name = name
        self.failures = failures
        self.missing = missing
        lines = [f"spec {name!r} not met:"]
        lines += [f"  {row.format()}" for row in failures]
        lines += [f"  {metric:<28s} (metric missing from measurements)"
                  for metric in missing]
        super().__init__("\n".join(lines))


class Bound(Enum):
    """Direction of a spec limit."""

    MIN = "min"      # measured must be >= limit
    MAX = "max"      # measured must be <= limit
    ABS_MAX = "abs_max"  # |measured| must be <= limit
    RANGE = "range"  # limit is (lo, hi)
    INFO = "info"    # report only, never fails


@dataclass(frozen=True)
class SpecLimit:
    """One row of a spec table."""

    metric: str
    bound: Bound
    limit: float | tuple[float, float]
    unit: str
    description: str = ""

    def check(self, value: float) -> bool:
        if self.bound is Bound.MIN:
            return value >= self.limit
        if self.bound is Bound.MAX:
            return value <= self.limit
        if self.bound is Bound.ABS_MAX:
            return abs(value) <= self.limit
        if self.bound is Bound.RANGE:
            lo, hi = self.limit
            return lo <= value <= hi
        return True  # INFO


@dataclass
class SpecRow:
    """A checked row: limit plus the measured value."""

    limit: SpecLimit
    value: float
    passed: bool

    def format(self) -> str:
        mark = "PASS" if self.passed else ("  --" if self.limit.bound is Bound.INFO else "FAIL")
        if self.limit.bound is Bound.RANGE:
            lim = f"{self.limit.limit[0]:g}..{self.limit.limit[1]:g}"
        else:
            prefix = {Bound.MIN: ">=", Bound.MAX: "<=", Bound.ABS_MAX: "|x|<=",
                      Bound.INFO: ""}[self.limit.bound]
            lim = f"{prefix}{self.limit.limit:g}"
        return (
            f"{self.limit.metric:<28s} {self.value:>12.4g} {self.limit.unit:<10s}"
            f" paper: {lim:<14s} [{mark}]"
        )


@dataclass
class SpecReport:
    """All checked rows of one spec table."""

    name: str
    rows: list[SpecRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.limit.bound is not Bound.INFO)

    @property
    def failures(self) -> list[SpecRow]:
        return [r for r in self.rows if not r.passed and r.limit.bound is not Bound.INFO]

    def format(self) -> str:
        lines = [f"== {self.name} ==", *(r.format() for r in self.rows)]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Spec:
    """A named collection of spec limits."""

    name: str
    limits: tuple[SpecLimit, ...]

    def check(self, measured: dict[str, float], strict: bool = False) -> SpecReport:
        """Check measured values against every limit.

        Missing metrics are skipped by default (a quick bench measures a
        subset).  ``strict=True`` instead raises a :class:`SpecError`
        listing *every* failing :class:`SpecRow` and every missing
        non-INFO metric — one exception, the complete verdict.
        """
        report = SpecReport(self.name)
        missing: list[str] = []
        for limit in self.limits:
            if limit.metric not in measured:
                if limit.bound is not Bound.INFO:
                    missing.append(limit.metric)
                continue
            value = measured[limit.metric]
            report.rows.append(SpecRow(limit, value, limit.check(value)))
        if strict and (report.failures or missing):
            raise SpecError(self.name, report.failures, missing)
        return report


#: Table 1 — characteristics of the microphone amplifier.
MIC_AMP_SPEC = Spec(
    name="Table 1: microphone amplifier",
    limits=(
        SpecLimit("supply_min_v", Bound.MAX, 2.6, "V",
                  "minimum operating supply"),
        SpecLimit("snr_40db_db", Bound.MIN, 87.0, "dB",
                  "S/N at 40 dB gain, 0.6 Vrms modulator full scale"),
        SpecLimit("vnin_300hz_nv", Bound.MAX, 7.0, "nV/rtHz",
                  "input-referred noise density at 300 Hz"),
        SpecLimit("vnin_1khz_nv", Bound.MAX, 6.0, "nV/rtHz",
                  "input-referred noise density at 1 kHz"),
        SpecLimit("vnin_avg_nv", Bound.MAX, 5.1 * 1.30, "nV/rtHz",
                  "band-average 0.3-3.4 kHz (paper: 5.1; +/-30% band)"),
        SpecLimit("hd_0v2_db", Bound.MAX, -52.0, "dB",
                  "harmonic distortion at 0.2 Vp input"),
        SpecLimit("gain_error_db", Bound.ABS_MAX, 0.05, "dB",
                  "closed-loop gain accuracy"),
        SpecLimit("psrr_1khz_db", Bound.MIN, 75.0, "dB",
                  "PSRR at 1 kHz"),
        SpecLimit("iq_ma", Bound.MAX, 2.6, "mA",
                  "quiescent supply current"),
        SpecLimit("area_mm2", Bound.RANGE, (0.5, 2.0), "mm^2",
                  "paper layout: 1.1 mm^2"),
    ),
)

#: Table 2 — characteristics of the power buffer amplifier.
POWER_BUFFER_SPEC = Spec(
    name="Table 2: power buffer amplifier",
    limits=(
        SpecLimit("input_range_frac", Bound.MIN, 0.85, "x rail",
                  "rail-to-rail input (fraction of supply with the "
                  "input stage alive; slope criterion)"),
        SpecLimit("vomax_margin_hd06_mv", Bound.MAX, 350.0, "mV",
                  "output-to-rail margin at 0.6 % HD (paper: 100 mV)"),
        SpecLimit("vomax_margin_hd03_mv", Bound.MAX, 600.0, "mV",
                  "output-to-rail margin at 0.3 % HD (paper: 300 mV)"),
        SpecLimit("iq_ma", Bound.RANGE, (3.25 - 1.0, 3.25 + 1.0), "mA",
                  "quiescent supply current (paper: 3.25 +/- 0.5)"),
        SpecLimit("psrr_1khz_db", Bound.MIN, 70.0, "dB",
                  "PSRR at 1 kHz (paper: 78 dB)"),
        SpecLimit("slew_v_per_us", Bound.MIN, 1.0, "V/us",
                  "slew rate (paper: 2.5 V/us at 1 V step)"),
        SpecLimit("hd_4vpp_50ohm_pct", Bound.MAX, 0.6, "%",
                  "distortion at 4 Vpp diff into 50 ohm, 3 V supply"),
    ),
)
