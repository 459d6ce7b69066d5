"""Logarithmic frequency grids for the AC and noise sweeps."""

from __future__ import annotations

import numpy as np


def log_freqs(f_lo: float, f_hi: float, points_per_decade: int = 20) -> np.ndarray:
    """Logarithmic frequency grid, inclusive of both edges."""
    if f_lo <= 0.0 or f_hi <= f_lo:
        raise ValueError("need 0 < f_lo < f_hi")
    decades = np.log10(f_hi / f_lo)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_lo), np.log10(f_hi), count)
