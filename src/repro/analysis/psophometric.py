"""ITU-T O.41 (CCITT) psophometric weighting.

The paper's S/N requirement is "a psophometrically weighted S/N ratio of
86.5 dB at the output of the microphone amplifier ... for 14 bits
resolution of the modulator" (Eq. 2 context).  The weighting emphasises
the 800 Hz..1 kHz region where the ear is most sensitive to telephone-
band noise and rolls off steeply outside 300..3400 Hz.

The curve is implemented as log-frequency interpolation of the published
O.41 table; between table points the standard's tolerance is wider than
our interpolation error.
"""

from __future__ import annotations

import numpy as np

#: (frequency [Hz], weight [dB]) points of the ITU-T O.41 psophometric curve.
O41_TABLE: tuple[tuple[float, float], ...] = (
    (16.66, -85.0),
    (50.0, -63.0),
    (100.0, -41.0),
    (200.0, -21.0),
    (300.0, -10.6),
    (400.0, -6.3),
    (500.0, -3.6),
    (600.0, -2.0),
    (700.0, -0.9),
    (800.0, 0.0),
    (900.0, 0.6),
    (1000.0, 1.0),
    (1200.0, 0.0),
    (1400.0, -0.9),
    (1600.0, -1.7),
    (1800.0, -2.4),
    (2000.0, -3.0),
    (2500.0, -4.2),
    (3000.0, -5.6),
    (3500.0, -8.5),
    (4000.0, -15.0),
    (4500.0, -25.0),
    (5000.0, -36.0),
    (6000.0, -43.0),
)

_LOG_F = np.log10([p[0] for p in O41_TABLE])
_DB = np.array([p[1] for p in O41_TABLE])


def psophometric_weight_db(freq: float | np.ndarray) -> np.ndarray:
    """O.41 weight in dB at ``freq`` (clamped to the table ends)."""
    logf = np.log10(np.clip(np.asarray(freq, dtype=float), 1.0, None))
    return np.interp(logf, _LOG_F, _DB, left=_DB[0], right=-60.0)


def psophometric_weight(freq: float | np.ndarray) -> np.ndarray:
    """O.41 weight as a linear voltage factor."""
    return 10.0 ** (psophometric_weight_db(freq) / 20.0)


def psophometric_rms(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Psophometrically weighted RMS of a voltage PSD [V].

    ``psd`` is one-sided [V^2/Hz] sampled at ``freqs``; integration runs
    over the sampled range (which should cover ~30 Hz..6 kHz to capture
    the weighted band).
    """
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.shape != psd.shape:
        raise ValueError("freqs and psd must have matching shapes")
    w = psophometric_weight(freqs)
    return float(np.sqrt(np.trapezoid(psd * w**2, freqs)))
