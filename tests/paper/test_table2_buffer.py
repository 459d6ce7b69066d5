"""Table 2 — characteristics of the power buffer amplifier.

Every row of Table 2, plus the Sec. 4 quiescent-current-control claim
("total supply current variations with temperature, process and supply
... is 15 % over a wide supply voltage range (2.8 V to 5 V)").  Table 2 is
checked in both modes: the full characterisation here and the quick one
(``table2``, the ``repro table2 --quick`` contract).
"""

import pytest

from repro.pga.characterize import (
    CharacterizationOptions,
    characterize_power_buffer,
    iq_spread_over_conditions,
)
from repro.pga.specs import POWER_BUFFER_SPEC

PAPER_TABLE2 = {
    "input_range_frac": ("V_in max", "rail to rail"),
    "vomax_margin_hd06_mv": ("V_omax(0.6% HD)", "100 mV from rails"),
    "vomax_margin_hd03_mv": ("V_omax(0.3% HD)", "300 mV from rails"),
    "iq_ma": ("I_Q", "3.25 +/- 0.5 mA"),
    "psrr_1khz_db": ("PSRR(1 kHz)", ">= 78 dB"),
    "slew_v_per_us": ("SR (V_in = 1 V)", "2.5 V/us"),
    "hd_4vpp_50ohm_pct": ("HD at 4 Vpp/50 ohm/3 V", "< 0.5 %"),
}


@pytest.fixture(scope="module")
def measured(tech):
    return characterize_power_buffer(
        tech, CharacterizationOptions(quick=False, psrr_trials=3)
    )


def test_table2_reproduction(measured, save_report):
    report = POWER_BUFFER_SPEC.check(measured)
    lines = ["Table 2: power buffer amplifier — paper vs measured", ""]
    for metric, (label, paper) in PAPER_TABLE2.items():
        lines.append(f"{label:<24s} paper: {paper:<22s} measured: "
                     f"{measured[metric]:.4g}")
    lines.append("")
    lines.append(report.format())
    save_report("table2_buffer", "\n".join(lines))
    assert report.passed, report.format()


def test_iq_control_claim(tech, save_report):
    """The quiescent-control loop's spread over supply/temp/corners."""
    spread = iq_spread_over_conditions(
        tech,
        supplies=(2.8, 4.0, 5.0),
        temps=(-20.0, 25.0, 85.0),
        corners=("tt", "ff", "ss"),
    )
    lines = [
        "Sec. 4 quiescent-current control (paper: +/-15 % over 2.8..5 V):",
        f"  IQ nominal  {spread['iq_nominal_ma']:.3f} mA",
        f"  IQ min/max  {spread['iq_min_ma']:.3f} / {spread['iq_max_ma']:.3f} mA",
        f"  spread      +/-{spread['spread_frac'] * 100:.1f} %",
    ]
    save_report("table2_iq_control", "\n".join(lines))
    # translinear control: same order as the paper's 15 %
    assert spread["spread_frac"] < 0.40


class TestTable2:
    def test_every_row_passes(self, table2):
        report = POWER_BUFFER_SPEC.check(table2)
        assert report.passed, "\n" + report.format()

    def test_iq_close_to_paper(self, table2):
        assert table2["iq_ma"] == pytest.approx(3.25, rel=0.30)

    def test_hd_ordering(self, table2):
        """0.3 % HD swing < 0.6 % HD swing, both within a few hundred mV
        of the rails (the paper's 100/300 mV rows)."""
        assert table2["vomax_hd03_vpp_diff"] <= table2["vomax_hd06_vpp_diff"]
        assert table2["vomax_margin_hd06_mv"] < 400.0
