"""Waveform and spectrum containers with bench-style measurements.

These mirror the instruments on the authors' bench: RMS meters, a
distortion analyser (coherent DFT at the fundamental's harmonics) and a
spectrum analyser (windowed FFT for plots like the paper's Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Waveform:
    """A uniformly sampled signal."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.t.shape != self.y.shape:
            raise ValueError("t and y must have the same shape")
        if len(self.t) < 2:
            raise ValueError("waveform needs at least two samples")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.y**2)))

    def mean(self) -> float:
        return float(np.mean(self.y))

    def peak_to_peak(self) -> float:
        return float(np.max(self.y) - np.min(self.y))

    def ac_rms(self) -> float:
        """RMS with the mean removed."""
        return float(np.std(self.y))

    def slice_time(self, t_lo: float, t_hi: float) -> "Waveform":
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        if mask.sum() < 2:
            raise ValueError(f"slice [{t_lo}, {t_hi}] contains fewer than 2 samples")
        return Waveform(self.t[mask], self.y[mask])

    def last_cycles(self, freq: float, n_cycles: int) -> "Waveform":
        """The final ``n_cycles`` periods of a tone at ``freq`` (for
        coherent measurements after start-up transients settle)."""
        span = n_cycles / freq
        if span > self.duration:
            raise ValueError(
                f"waveform of {self.duration:.3g}s too short for "
                f"{n_cycles} cycles at {freq:.3g}Hz"
            )
        return self.slice_time(self.t[-1] - span, self.t[-1] + self.dt / 2)

    def max_slope(self) -> float:
        """Maximum |dy/dt| — the slew-rate measurement [units/s]."""
        return float(np.max(np.abs(np.diff(self.y))) / self.dt)

    def crossing_times(self, level: float, rising: bool = True) -> np.ndarray:
        """Interpolated times where the signal crosses ``level``."""
        y = self.y - level
        if rising:
            idx = np.where((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
        else:
            idx = np.where((y[:-1] > 0.0) & (y[1:] <= 0.0))[0]
        if idx.size == 0:
            return np.array([])
        frac = -y[idx] / (y[idx + 1] - y[idx])
        return self.t[idx] + frac * self.dt

    def settling_time(self, final: float, tol: float) -> float:
        """Time after which |y - final| stays within ``tol`` [s].

        Degenerate records are distinguished rather than folded into one
        misleading number: ``nan`` if the waveform *never* enters the
        tolerance band (there is no settling to speak of — the record
        does not reach the target at all), ``inf`` if it enters the band
        but is back outside at the final sample (not yet settled within
        the record).
        """
        err = np.abs(self.y - final)
        outside = np.where(err > tol)[0]
        if outside.size == 0:
            return 0.0
        if outside.size == len(self.y):
            return float("nan")
        k = outside[-1] + 1
        if k >= len(self.t):
            return float("inf")
        return float(self.t[k] - self.t[0])

    # ------------------------------------------------------------------
    # Fourier measurements
    # ------------------------------------------------------------------
    def fourier_component(self, freq: float) -> complex:
        """Complex amplitude of the tone at ``freq`` (coherent DFT).

        Uses the largest whole number of cycles that fits, windowed by
        *sample count* (a time mask would be vulnerable to float rounding
        at the window edge, which breaks coherence).  The phase reference
        is cos(2*pi*freq*t) at t = 0.
        """
        n_cycles = int(np.floor(self.duration * freq))
        if n_cycles < 1:
            raise ValueError(f"waveform too short for one cycle at {freq:.3g}Hz")
        samples = int(round(n_cycles / (freq * self.dt)))
        samples = min(samples, len(self.y))
        if samples < 4:
            raise ValueError("too few samples per analysis window")
        yy = self.y[-samples:]
        tt = self.t[-samples:]
        phase = np.exp(-2j * np.pi * freq * tt)
        return 2.0 * complex(np.mean(yy * phase))

    def harmonics(self, f0: float, count: int = 9) -> np.ndarray:
        """|amplitude| of harmonics 1..count of ``f0``
        (:func:`goertzel_harmonics`)."""
        if int(np.floor(self.duration * f0)) < 1:
            raise ValueError(f"waveform too short for one cycle at {f0:.3g}Hz")
        return goertzel_harmonics(self.y, f0 * self.dt, count)

    def thd(self, f0: float, n_harmonics: int = 9) -> float:
        """Total harmonic distortion (ratio, not dB or percent)."""
        return thd_from_harmonics(self.harmonics(f0, n_harmonics))

    def spectrum(self, window: str = "hann") -> "Spectrum":
        """Windowed amplitude spectrum (spectrum-analyser view)."""
        n = len(self.y)
        if window == "hann":
            win = np.hanning(n)
        elif window == "flattop":
            # 5-term flat-top for accurate amplitude readout
            k = np.arange(n)
            a = [0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368]
            win = (
                a[0]
                - a[1] * np.cos(2 * np.pi * k / (n - 1))
                + a[2] * np.cos(4 * np.pi * k / (n - 1))
                - a[3] * np.cos(6 * np.pi * k / (n - 1))
                + a[4] * np.cos(8 * np.pi * k / (n - 1))
            )
        elif window == "rect":
            win = np.ones(n)
        else:
            raise ValueError(f"unknown window {window!r}")
        coherent_gain = win.mean()
        spec = np.fft.rfft((self.y - self.y.mean()) * win)
        amps = np.abs(spec) / n / coherent_gain * 2.0
        freqs = np.fft.rfftfreq(n, self.dt)
        return Spectrum(freqs=freqs, amplitude=amps)


@dataclass
class Spectrum:
    """One-sided amplitude spectrum."""

    freqs: np.ndarray
    amplitude: np.ndarray

    def db_carrier(self, f0: float) -> np.ndarray:
        """Amplitude in dBc relative to the bin nearest ``f0``."""
        ref = self.amplitude_at(f0)
        return 20.0 * np.log10(np.maximum(self.amplitude, 1e-300) / max(ref, 1e-300))

    def amplitude_at(self, freq: float) -> float:
        """Peak amplitude within half a bin of ``freq``."""
        if len(self.freqs) < 2:
            raise ValueError("spectrum too short")
        bin_width = self.freqs[1] - self.freqs[0]
        mask = np.abs(self.freqs - freq) <= bin_width
        if not np.any(mask):
            raise ValueError(f"{freq} Hz outside spectrum range")
        return float(np.max(self.amplitude[mask]))


def goertzel_dft(y: np.ndarray, freqs_norm) -> np.ndarray:
    """DTFT of ``y`` at arbitrary normalised frequencies via Goertzel.

    Returns ``sum_n y[n] * exp(-2j*pi*f*n)`` for each ``f`` in
    ``freqs_norm`` (cycles/sample).  The second-order recurrence runs in
    C through ``scipy.signal.lfilter``; the closing step is the
    generalised (non-integer-bin) form, so harmonics can be read at
    exactly ``k*f0`` instead of the nearest FFT grid bin — the FFT pick
    leaks badly whenever the record does not hold an integer number of
    fundamental cycles, which is the usual case for a transient segment.
    """
    from scipy.signal import lfilter

    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 4:
        raise ValueError("need at least 4 samples for a harmonic readout")
    freqs_norm = np.atleast_1d(np.asarray(freqs_norm, dtype=float))
    out = np.empty(freqs_norm.size, dtype=complex)
    for i, f in enumerate(freqs_norm):
        w = 2.0 * np.pi * f
        s = lfilter([1.0], [1.0, -2.0 * np.cos(w), 1.0], y)
        out[i] = (s[-1] - np.exp(-1j * w) * s[-2]) * np.exp(-1j * w * (n - 1))
    return out


def goertzel_harmonics(y: np.ndarray, f0_norm: float,
                       n_harmonics: int) -> np.ndarray:
    """|amplitude| of harmonics ``1..n_harmonics`` of a tone at
    ``f0_norm`` cycles/sample (2/N-normalised, mean removed).

    The record is first trimmed (from the front) to the largest whole
    number of fundamental cycles: a stray edge sample leaks
    ``~2*sin(phase)/N`` of the fundamental into every harmonic bin,
    which at voice-band THD levels (-52 dB spec) would dominate the
    harmonics being measured.  Exactly coherent records are unaffected.
    """
    y = np.asarray(y, dtype=float)
    n_cycles = int(np.floor(y.size * f0_norm))
    if n_cycles >= 1:
        y = y[-min(y.size, int(round(n_cycles / f0_norm))):]
    orders = np.arange(1, n_harmonics + 1, dtype=float)
    bins = goertzel_dft(y - y.mean(), orders * f0_norm)
    return 2.0 * np.abs(bins) / y.size


def thd_from_harmonics(amps: np.ndarray) -> float:
    """THD ratio of harmonic amplitudes ``amps`` (fundamental first)."""
    if amps[0] <= 0.0:
        raise ValueError("no fundamental found; cannot compute THD")
    return float(np.sqrt(np.sum(amps[1:] ** 2)) / amps[0])


def make_time_grid(freq: float, n_cycles: int, points_per_cycle: int) -> tuple[float, float]:
    """(t_stop, dt) for coherent sampling of ``n_cycles`` at ``freq``."""
    dt = 1.0 / (freq * points_per_cycle)
    t_stop = n_cycles / freq
    return t_stop, dt
