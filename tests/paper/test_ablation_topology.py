"""Ablations — the Sec. 2/3 design-choice claims, measured.

* fully differential PSRR is matching-limited (Monte Carlo distribution);
* the DDA's second input pair costs exactly +3 dB input noise;
* switch sizing (Eq. 5): input noise vs Ron;
* the feed-forward lead capacitor: low-gain-code peaking with/without.
"""

import numpy as np
import pytest

from repro.analysis.psrr import measure_psrr
from repro.circuits.micamp import MicAmpSizes, build_mic_amp
from repro.process.mismatch import MismatchSampler
from repro.spice.ac import ac_analysis
from repro.spice.analysis import log_freqs
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis


def test_psrr_is_matching_limited(tech, save_report):
    """Nominal (perfectly matched) FD PSRR is near-infinite; the paper's
    75 dB is what mismatch leaves over."""
    nominal = build_mic_amp(tech, gain_code=5)
    res_nom = measure_psrr(nominal.circuit, "vdd_src", ("vin_p", "vin_n"),
                           "outp", "outn")

    def run_mc():
        out = []
        for seed in range(8):
            sampler = MismatchSampler(tech, np.random.default_rng(seed))
            mc = build_mic_amp(tech, gain_code=5, mismatch=sampler)
            out.append(measure_psrr(mc.circuit, "vdd_src",
                                    ("vin_p", "vin_n"), "outp", "outn").ratio_db)
        return out

    values = run_mc()
    lines = ["FD PSRR ablation (1 kHz, 40 dB gain)", "",
             f"perfectly matched:  {res_nom.ratio_db:6.1f} dB",
             f"Monte Carlo (8):    min {min(values):6.1f} dB   "
             f"median {np.median(values):6.1f} dB   max {max(values):6.1f} dB",
             "", "paper Table 1: >= 75 dB — a mismatch-limited figure."]
    save_report("ablation_psrr_matching", "\n".join(lines))
    assert res_nom.ratio_db > 110.0
    assert min(values) > 70.0
    assert np.median(values) < res_nom.ratio_db


def test_dda_second_pair_costs_3db(tech, save_report):
    """Sec. 3.1: the DDA's feedback pair doubles the input-device noise
    power.  Measured from the adjoint contribution decomposition."""
    design = build_mic_amp(tech, gain_code=5)
    op = dc_operating_point(design.circuit)
    freqs = np.array([20e3])
    nr = noise_analysis(op, freqs, "outp", "outn")
    pair_a = sum(float(nr.contributions[(t, "thermal")][0]) for t in ("t1", "t2"))
    pair_b = sum(float(nr.contributions[(t, "thermal")][0]) for t in ("t3", "t4"))
    penalty_db = 10 * np.log10((pair_a + pair_b) / pair_a)
    save_report(
        "ablation_dda_pairs",
        "DDA topology cost (Sec. 3.1):\n"
        f"  signal pair (T1,T2):    {np.sqrt(pair_a) * 1e9:.2f} nV/rtHz at output/100\n"
        f"  feedback pair (T3,T4):  {np.sqrt(pair_b) * 1e9:.2f}\n"
        f"  total vs single pair:   +{penalty_db:.2f} dB (paper: +3 dB)",
    )
    assert penalty_db == pytest.approx(3.0, abs=0.15)


def test_switch_ron_noise_tradeoff(tech, save_report):
    """Eq. 5: halving switch Ron buys noise but costs switch area."""
    def sweep_ron():
        out = []
        for ron in (35.0, 70.0, 140.0, 280.0):
            sizes = MicAmpSizes(r_switch_on=ron)
            design = build_mic_amp(tech, gain_code=5, sizes=sizes)
            op = dc_operating_point(design.circuit)
            nr = noise_analysis(op, np.array([20e3]), "outp", "outn")
            sw = design.circuit.element("swa_0")
            out.append((ron, nr.input_nv()[0], sw.w * 1e6))
        return out

    rows = sweep_ron()
    lines = ["Eq. 5 ablation: tap-switch Ron vs input noise (20 kHz floor)",
             "", "Ron [ohm]   noise [nV/rtHz]   switch W [um]"]
    for ron, nv, w in rows:
        lines.append(f"  {ron:5.0f}       {nv:7.3f}         {w:8.0f}")
    save_report("ablation_switch_ron", "\n".join(lines))
    noise = [r[1] for r in rows]
    widths = [r[2] for r in rows]
    assert noise == sorted(noise)              # monotone in Ron
    assert widths == sorted(widths, reverse=True)


def test_feedforward_cap_ablation(tech, save_report):
    """Without the lead capacitor the low-gain codes peak violently
    (the feedback pole of the noise-sized pair-B gate)."""
    def sweep_cff():
        out = []
        for cff in (0.5e-12, 24e-12):
            sizes = MicAmpSizes(c_feedforward=cff)
            design = build_mic_amp(tech, gain_code=0, sizes=sizes)
            op = dc_operating_point(design.circuit)
            freqs = log_freqs(1e3, 50e6, 10)
            h = np.abs(ac_analysis(op, freqs).vdiff("outp", "outn"))
            out.append((cff, 20 * np.log10(h.max() / h[0])))
        return out

    rows = sweep_cff()
    lines = ["Feed-forward lead capacitor ablation (gain code 0):", ""]
    for cff, peak in rows:
        lines.append(f"  Cff = {cff * 1e12:5.1f} pF   peaking = {peak:6.2f} dB")
    save_report("ablation_feedforward_cap", "\n".join(lines))
    assert rows[0][1] > rows[1][1] + 6.0
