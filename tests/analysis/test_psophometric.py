"""ITU-T O.41 psophometric weighting."""

import numpy as np
import pytest

from repro.analysis.psophometric import (
    O41_TABLE,
    psophometric_rms,
    psophometric_weight,
    psophometric_weight_db,
)


class TestWeightingCurve:
    def test_reference_at_800hz(self):
        assert psophometric_weight_db(800.0) == pytest.approx(0.0, abs=0.05)

    def test_peak_near_1khz(self):
        assert psophometric_weight_db(1000.0) == pytest.approx(1.0, abs=0.05)

    def test_table_points_reproduced(self):
        for freq, db in O41_TABLE:
            assert psophometric_weight_db(freq) == pytest.approx(db, abs=0.01)

    def test_steep_rolloff_below_300(self):
        assert psophometric_weight_db(50.0) < -60.0

    def test_rolloff_above_3400(self):
        assert psophometric_weight_db(5000.0) < -30.0

    def test_linear_weight_is_exp_of_db(self):
        w = psophometric_weight(800.0)
        assert w == pytest.approx(1.0, abs=0.01)

    def test_vectorised(self):
        freqs = np.array([300.0, 800.0, 3000.0])
        w = psophometric_weight(freqs)
        assert w.shape == (3,)
        # O.41 rises from 300 Hz (-10.6 dB) through 800 Hz (0 dB) and is
        # still at only -5.6 dB by 3 kHz
        assert w[1] > w[2] > w[0]


class TestWeightedRms:
    def test_weighting_reduces_white_noise(self):
        freqs = np.linspace(30.0, 6000.0, 500)
        psd = np.full_like(freqs, 1e-12)
        flat = np.sqrt(np.trapezoid(psd, freqs))
        weighted = psophometric_rms(freqs, psd)
        assert weighted < flat

    def test_tone_at_800hz_passes_unattenuated(self):
        freqs = np.linspace(700.0, 900.0, 101)
        psd = np.zeros_like(freqs)
        psd[50] = 1e-6  # narrow "tone" at 800 Hz
        weighted = psophometric_rms(freqs, psd)
        unweighted = np.sqrt(np.trapezoid(psd, freqs))
        assert weighted == pytest.approx(unweighted, rel=0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psophometric_rms(np.arange(5.0) + 1.0, np.arange(4.0))
