"""Table 1 — characteristics of the microphone amplifier.

Regenerates every row of the paper's Table 1 from the transistor-level
design and checks it against the published limits, in both modes: the
full characterisation here and the quick one (``table1``, the
``repro table1 --quick`` contract).
"""

import pytest

from repro.pga.characterize import CharacterizationOptions, characterize_mic_amp
from repro.pga.specs import MIC_AMP_SPEC

PAPER_TABLE1 = {
    "supply_min_v": ("V_sup", ">= 2.6 V operation"),
    "snr_40db_db": ("S/N (at 40 dB)", ">= 87 dB"),
    "vnin_300hz_nv": ("V_Nin(300 Hz)", "<= 7 nV/rtHz"),
    "vnin_1khz_nv": ("V_Nin(1 kHz)", "<= 6 nV/rtHz"),
    "vnin_avg_nv": ("V_Nin(0.3-3.4 kHz)", "<= 5.1 nV/rtHz"),
    "hd_0v2_db": ("HD(0.2 Vp)", "<= -52 dB"),
    "gain_error_db": ("dA_cl", "<= 0.05 dB"),
    "psrr_1khz_db": ("PSRR(1 kHz)", ">= 75 dB"),
    "iq_ma": ("I_Q", "<= 2.6 mA"),
    "area_mm2": ("Area", "1.1 mm^2"),
}


@pytest.fixture(scope="module")
def measured(tech):
    return characterize_mic_amp(
        tech, CharacterizationOptions(quick=False, psrr_trials=3)
    )


def test_table1_reproduction(measured, save_report):
    report = MIC_AMP_SPEC.check(measured)
    lines = ["Table 1: microphone amplifier — paper vs measured", ""]
    for metric, (label, paper) in PAPER_TABLE1.items():
        lines.append(f"{label:<22s} paper: {paper:<18s} measured: "
                     f"{measured[metric]:.4g}")
    lines.append("")
    lines.append(report.format())
    save_report("table1_micamp", "\n".join(lines))
    assert report.passed, report.format()


class TestTable1:
    def test_every_row_passes(self, table1):
        report = MIC_AMP_SPEC.check(table1)
        assert report.passed, "\n" + report.format()

    def test_headline_noise_close_to_paper(self, table1):
        assert table1["vnin_avg_nv"] == pytest.approx(5.1, rel=0.30)

    def test_iq_close_to_paper(self, table1):
        assert table1["iq_ma"] == pytest.approx(2.6, rel=0.15)

    def test_operates_below_2_6v(self, table1):
        assert table1["supply_min_v"] <= 2.6
