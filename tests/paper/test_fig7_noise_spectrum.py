"""Fig. 7 — measured input-referred noise voltage of the microphone
amplifier at 25 degC.

Regenerates the spectrum from 10 Hz to 100 kHz, overlays the analytic
Eq. 3-5 budget, breaks the 1 kHz point into per-device contributions and
sweeps the gain code for the Eq. 4 dependence.
"""

import numpy as np
import pytest

from repro.analysis.noise_budget import MicAmpNoiseBudget
from repro.circuits.micamp import build_mic_amp
from repro.spice.analysis import log_freqs
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis


@pytest.fixture(scope="module")
def spectrum(mic_amp_40db, mic_amp_op):
    freqs = log_freqs(10.0, 100e3, 16)
    return noise_analysis(mic_amp_op, freqs, mic_amp_40db.outp, mic_amp_40db.outn)


def test_fig7_spectrum(mic_amp_40db, mic_amp_op, spectrum, save_report):
    budget = MicAmpNoiseBudget.from_design(mic_amp_40db, mic_amp_op)
    lines = ["Fig. 7: input-referred noise at 40 dB gain, 25 degC", "",
             "f [Hz]      simulated [nV/rtHz]   Eq.3-5 budget [nV/rtHz]"]
    for f in (10, 30, 100, 300, 1e3, 3.4e3, 10e3, 30e3, 100e3):
        lines.append(f"{f:8.0f}      {spectrum.input_nv_at(f):8.2f}"
                     f"             {budget.input_nv(f):8.2f}")
    avg = spectrum.average_input_density(300, 3400) * 1e9
    lines += ["",
              f"voice-band average: {avg:.2f} nV/rtHz (paper: 5.1)",
              f"flicker corner (budget): {budget.flicker_corner_hz():.0f} Hz"]
    save_report("fig7_noise_spectrum", "\n".join(lines))

    # Shape criteria from DESIGN.md:
    assert spectrum.input_nv_at(300) <= 7.0
    assert spectrum.input_nv_at(1e3) <= 6.0
    assert avg == pytest.approx(5.1, rel=0.30)
    assert spectrum.input_nv_at(10) > spectrum.input_nv_at(1e3)
    assert spectrum.output_psd.shape == spectrum.freqs.shape


def test_fig7_contribution_budget(spectrum, save_report):
    g1k = float(np.interp(1e3, spectrum.freqs, spectrum.gain))
    lines = ["Fig. 7 companion: per-device noise budget at 1 kHz",
             "", "device      mechanism   input-referred [nV/rtHz]"]
    for dev, mech, val in spectrum.top_contributors(1e3, 12):
        lines.append(f"  {dev:10s} {mech:9s} {np.sqrt(val) * 1e9 / g1k:8.3f}")
    save_report("fig7_contributions", "\n".join(lines))
    ranked = spectrum.top_contributors(1e3, 12)
    names = [d for d, _, _ in ranked[:8]]
    # Sec. 3.1/3.2 structure: strings, inputs and loads fill the top slots
    assert any(n.startswith("rs") for n in names)
    assert any(n in ("t1", "t2", "t3", "t4") for n in names)


def test_fig7_noise_vs_gain_code(tech, save_report):
    """Eq. 4: 'the close-loop gain setting ... contributes nonconstant
    noise power to the amplifier input'."""
    design = build_mic_amp(tech, gain_code=0)
    freqs = np.array([10e3])

    def sweep_codes():
        out = []
        for code in range(6):
            design.set_gain_code(code)
            op = dc_operating_point(design.circuit)
            nr = noise_analysis(op, freqs, design.outp, design.outn)
            out.append((design.gain.gain_db(code),
                        design.gain.noise_source_resistance(code),
                        nr.input_nv()[0]))
        return out

    rows = sweep_codes()
    lines = ["Eq. 4: input noise vs gain setting (10 kHz, thermal floor)",
             "", "gain [dB]   Ra||Rf [ohm]   input noise [nV/rtHz]"]
    for g, r, nv in rows:
        lines.append(f"  {g:5.0f}      {r:8.0f}        {nv:8.2f}")
    save_report("fig7_noise_vs_gain", "\n".join(lines))
    noise = [r[2] for r in rows]
    assert noise[0] == max(noise)  # low gain = big Ra||Rf = worst noise
    assert all(a >= b * 0.999 for a, b in zip(noise, noise[1:]))
