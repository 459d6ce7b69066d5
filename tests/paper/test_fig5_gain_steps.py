"""Figs. 4/5 — gain programming: 10..40 dB in 6 dB steps.

Regenerates the per-code gain table (absolute accuracy and step
accuracy) and the Monte Carlo gain-accuracy distribution over resistor
mismatch — the two "most critical design parameters" of Sec. 3.1.
"""

import numpy as np
import pytest

from repro.analysis.gain import measure_gain_codes
from repro.circuits.micamp import build_mic_amp
from repro.process.mismatch import MismatchSampler


@pytest.fixture(scope="module")
def gain_measurement(tech):
    design = build_mic_amp(tech, gain_code=5)
    return measure_gain_codes(design)


def test_fig5_gain_table(gain_measurement, save_report):
    gm = gain_measurement
    lines = ["Fig. 5: programmed gain per code (paper: 10..40 dB, 6 dB steps,",
             "        dA_cl <= 0.05 dB)", "", gm.format(), "",
             f"worst absolute error: {gm.worst_error_db:.4f} dB",
             f"worst step error:     {gm.worst_step_error_db:.4f} dB"]
    save_report("fig5_gain_steps", "\n".join(lines))
    assert gm.worst_error_db <= 0.05
    assert gm.worst_step_error_db <= 0.05
    assert all(s > 0 for s in np.diff(gm.measured_db))


def test_fig5_gain_accuracy_monte_carlo(tech, save_report):
    """Matched-string mismatch: the statistical part of dA_cl."""
    def run_mc():
        out = []
        for seed in range(8):
            sampler = MismatchSampler(tech, np.random.default_rng(100 + seed))
            design = build_mic_amp(tech, gain_code=5, mismatch=sampler)
            gm = measure_gain_codes(design, with_bandwidth=False)
            out.append(gm.worst_step_error_db)
        return out

    errors = run_mc()
    lines = ["Fig. 5: Monte Carlo step-accuracy over poly matching",
             "", "trial   worst step error [dB]"]
    for k, e in enumerate(errors):
        lines.append(f"  {k}      {e:.4f}")
    lines.append("")
    lines.append(f"max over trials: {max(errors):.4f} dB")
    save_report("fig5_gain_mc", "\n".join(lines))
    assert max(errors) < 0.2
