"""Harmonic distortion measurements.

Two paths, cross-checked in the tests:

* **static**: sweep the DC transfer curve, pass an ideal sine through the
  fitted nonlinearity, read harmonics with a coherent DFT.  Valid when
  the stimulus is far below the loop bandwidth — true for every voice-
  band experiment in the paper — and orders of magnitude faster, so the
  amplitude sweeps (V_omax at 0.6 %/0.3 % HD, Table 2) use it;
* **transient**: full nonlinear time-domain run (the Fig. 11 spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.elements import Sine
from repro.spice.netlist import Circuit
from repro.spice.sweeps import restoring_sources, source_walk
from repro.spice.transient import transient_analysis
# goertzel_dft is re-exported: the harmonic readout lives in waveform.
from repro.spice.waveform import (
    Waveform,
    goertzel_dft,
    goertzel_harmonics,
    make_time_grid,
    thd_from_harmonics,
)


@dataclass
class StaticTransfer:
    """A measured DC transfer curve out = f(in)."""

    vin: np.ndarray
    vout: np.ndarray

    def __post_init__(self) -> None:
        if len(self.vin) != len(self.vout):
            raise ValueError("vin and vout must have equal length")
        if len(self.vin) < 8:
            raise ValueError("need at least 8 sweep points for harmonic fitting")

    def gain_at(self, vin: float = 0.0) -> float:
        """Incremental gain d(vout)/d(vin) at an input level."""
        return float(np.interp(vin, self.vin, np.gradient(self.vout, self.vin)))

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Pass a signal through the (interpolated) static nonlinearity."""
        if signal.min() < self.vin.min() or signal.max() > self.vin.max():
            raise ValueError(
                f"signal range [{signal.min():.3g}, {signal.max():.3g}] exceeds "
                f"measured transfer range [{self.vin.min():.3g}, {self.vin.max():.3g}]"
            )
        # Cubic-ish interpolation via numpy: fit local polynomial through
        # the curve with a spline from scipy for smooth derivatives.
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(self.vin, self.vout)
        return np.asarray(spline(signal))

    def thd(self, amplitude: float, n_harmonics: int = 7, n_points: int = 4096,
            bias: float = 0.0) -> float:
        """THD (ratio) of a sine of ``amplitude`` through the curve.

        The synthetic sine spans exactly one cycle, so the Goertzel bins
        at ``k/n_points`` coincide with the coherent DFT the FFT pick
        used to take — but only the ``n_harmonics`` bins are computed.
        """
        t = np.arange(n_points) / n_points
        sine = bias + amplitude * np.sin(2.0 * np.pi * t)
        out = self.apply(sine)
        return thd_from_harmonics(
            goertzel_harmonics(out, 1.0 / n_points, n_harmonics))

    def output_amplitude(self, amplitude: float, n_points: int = 1024,
                         bias: float = 0.0) -> float:
        """Fundamental amplitude at the output for a sine input."""
        t = np.arange(n_points) / n_points
        sine = bias + amplitude * np.sin(2.0 * np.pi * t)
        out = self.apply(sine)
        return float(goertzel_harmonics(out, 1.0 / n_points, 1)[0])


def measure_static_transfer(
    circuit: Circuit,
    source_p: str,
    source_n: str | None,
    out_p: str,
    out_n: str | None,
    amplitude: float,
    points: int = 41,
    temp_c: float = 25.0,
) -> StaticTransfer:
    """Sweep a differential source pair and record the DC transfer.

    ``source_n`` (if given) is driven anti-phase, so ``vin`` is the full
    differential input.  The sweep is one continuation walk outward from
    zero (:func:`repro.spice.sweeps.continuation_walk`).
    """
    half = amplitude / 2.0 if source_n else amplitude
    steps = np.linspace(0.0, half, (points + 1) // 2)
    levels = np.concatenate([-steps[:0:-1], steps])
    drive = {source_p: 1.0, source_n: -1.0} if source_n else {source_p: 1.0}
    ops = source_walk(circuit, drive, levels, 0.0, temp_c)
    vout = [op.v(out_p) - (op.v(out_n) if out_n else 0.0) for op in ops]
    return StaticTransfer(2.0 * levels if source_n else levels,
                          np.asarray(vout))


def static_thd(
    circuit: Circuit,
    source_p: str,
    source_n: str | None,
    out_p: str,
    out_n: str | None,
    amplitude: float,
    points: int = 41,
    n_harmonics: int = 7,
    temp_c: float = 25.0,
) -> float:
    """One-call static THD at a differential amplitude."""
    transfer = measure_static_transfer(
        circuit, source_p, source_n, out_p, out_n,
        amplitude * 1.05, points, temp_c,
    )
    return transfer.thd(amplitude, n_harmonics)


def transient_thd(
    circuit: Circuit,
    source_p: str,
    source_n: str | None,
    out_p: str,
    out_n: str | None,
    amplitude: float,
    freq: float = 1e3,
    cycles: int = 3,
    points_per_cycle: int = 400,
    n_harmonics: int = 9,
    temp_c: float = 25.0,
) -> tuple[float, Waveform]:
    """Full transient THD; returns (thd_ratio, output waveform).

    The last two cycles are used for the coherent DFT so start-up
    transients don't leak into the harmonics.
    """
    half = amplitude / 2.0 if source_n else amplitude
    names = [source_p, source_n] if source_n else [source_p]
    with restoring_sources(circuit, names) as sources:
        for el, sign in zip(sources, (1.0, -1.0)):
            el.wave = Sine(offset=el.dc, amplitude=sign * half, freq=freq)
        t_stop, dt = make_time_grid(freq, cycles, points_per_cycle)
        result = transient_analysis(circuit, t_stop, dt, temp_c=temp_c)
    y = result.v(out_p) - (result.v(out_n) if out_n else 0.0)
    wave = Waveform(result.t, y)
    seg = wave.last_cycles(freq, min(2, cycles))
    # Exact Goertzel bins at k*f0: the analysis segment carries an
    # extra edge sample (non-integer cycle count), which would leak
    # fundamental energy across an FFT-grid harmonic pick.
    amps = goertzel_harmonics(seg.y, freq * seg.dt, n_harmonics)
    return thd_from_harmonics(amps), wave


def amplitude_at_thd(
    transfer: StaticTransfer,
    thd_target: float,
    amp_lo: float,
    amp_hi: float,
    tol: float = 1e-3,
) -> float:
    """Largest sine amplitude whose static THD stays below ``thd_target``.

    Used for the Table 2 V_omax(0.6 % HD)/V_omax(0.3 % HD) rows: sweep
    amplitude by bisection on the monotone THD-vs-amplitude curve.
    """
    if transfer.thd(amp_lo) > thd_target:
        return float("nan")
    if transfer.thd(amp_hi) < thd_target:
        return amp_hi
    lo, hi = amp_lo, amp_hi
    while hi - lo > tol * amp_hi:
        mid = 0.5 * (lo + hi)
        if transfer.thd(mid) < thd_target:
            lo = mid
        else:
            hi = mid
    return lo
