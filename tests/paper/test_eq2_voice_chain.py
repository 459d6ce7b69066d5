"""Eq. 2 + Fig. 1 — the system-level dynamic-range budget.

Regenerates: the Eq. 2 arithmetic (5.1 nV/rtHz from the 86.5 dB
psophometric requirement), the amplifier-only S/N at 40 dB, and the full
behavioural chain (PGA noise -> sigma-delta -> decimator) across gain
codes — the "hands free operation ... under software control" scenario.
"""

import numpy as np
import pytest

from repro.analysis.dynamic_range import eq2_required_noise, snr_from_noise
from repro.frontend.voice_chain import VoiceChain


def test_eq2_arithmetic(save_report):
    noise = eq2_required_noise()
    lines = ["Eq. 2: required input noise for 86.5 dB psophometric S/N",
             "",
             "V_noise <= V_modmax / (G_mic sqrt(BW) 10^(S/N/20))",
             f"        = 0.6 / (100 * sqrt(3100) * 10^(86.5/20))",
             f"        = {noise * 1e9:.2f} nV/rtHz   (paper: 5.1)"]
    save_report("eq2_arithmetic", "\n".join(lines))
    assert noise * 1e9 == pytest.approx(5.1, abs=0.05)


def test_eq2_amplifier_margin(mic_amp_noise, save_report):
    measured = mic_amp_noise.average_input_density(300, 3400)
    snr = snr_from_noise(measured)
    save_report(
        "eq2_amplifier_margin",
        f"measured average input noise: {measured * 1e9:.2f} nV/rtHz\n"
        f"flat-band S/N at 0.6 Vrms, 40 dB: {snr:.1f} dB "
        f"(requirement: 86.5 dB psophometric; weighting adds ~+2 dB)",
    )
    assert snr > 84.0


def test_fig1_chain_across_gain_codes(mic_amp_noise, save_report):
    """One acoustic level per row; software picks the code (hands-free)."""
    chain = VoiceChain()
    lines = ["Fig. 1: voice chain S/N vs gain code (2 mVrms microphone)",
             "", "code  gain[dB]  at-modulator[Vrms]  S/N[dB]  psoph[dB]  clip"]
    results = chain.sweep_codes(2e-3, mic_amp_noise.freqs, mic_amp_noise.input_psd)
    for code, res in enumerate(results):
        lines.append(
            f"  {code}     {res.gain_db:4.0f}      {res.signal_at_modulator_rms:8.4f}"
            f"        {res.snr_db:6.1f}   {res.snr_psophometric_db:6.1f}"
            f"    {'YES' if res.clipped else 'no'}"
        )
    save_report("fig1_voice_chain", "\n".join(lines))
    snrs = [r.snr_psophometric_db for r in results]
    # a quiet microphone wants the top gain codes
    assert int(np.argmax(snrs)) >= 4
    assert max(snrs) > 70.0
