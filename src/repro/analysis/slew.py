"""Slew-rate measurement (Table 2: SR = 2.5 V/us at Vin = +/-1 V).

Applies a differential step through the circuit's source pair and reads
the maximum output dV/dt, plus 10-90 % rise time and settling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.elements import Pulse
from repro.spice.netlist import Circuit
from repro.spice.sweeps import restoring_sources
from repro.spice.transient import transient_analysis
from repro.spice.waveform import Waveform


@dataclass
class SlewResult:
    """Step-response figures of merit."""

    slew_v_per_s: float
    rise_time_s: float
    settle_time_s: float
    overshoot_frac: float
    waveform: Waveform


def measure_slew_rate(
    circuit: Circuit,
    source_p: str,
    source_n: str | None,
    out_p: str,
    out_n: str | None,
    step: float = 1.0,
    t_settle_frac: float = 0.01,
    duration: float = 20e-6,
    dt: float = 20e-9,
    temp_c: float = 25.0,
) -> SlewResult:
    """Differential step of ``step`` volts; returns slew and settling.

    The step starts 10 % into the run so the waveform has a clean
    pre-step baseline for overshoot/settling measurements.
    """
    half = step / 2.0 if source_n else step
    delay = duration * 0.1
    names = [source_p, source_n] if source_n else [source_p]
    with restoring_sources(circuit, names) as sources:
        for el, sign in zip(sources, (1.0, -1.0)):
            el.wave = Pulse(v1=-sign * half / 2, v2=sign * half / 2,
                            delay=delay, rise=dt / 2, fall=dt / 2,
                            width=duration, period=2 * duration)
        result = transient_analysis(circuit, duration, dt, temp_c=temp_c)

    y = result.v(out_p) - (result.v(out_n) if out_n else 0.0)
    wave = Waveform(result.t, y)

    initial = float(np.median(y[result.t < delay * 0.8]))
    final = float(np.median(y[result.t > duration * 0.8]))
    swing = final - initial
    if abs(swing) < 1e-9:
        raise ValueError("output did not move; check source/step wiring")

    # 10-90 % rise time.
    lo_level = initial + 0.1 * swing
    hi_level = initial + 0.9 * swing
    t_lo = wave.crossing_times(lo_level, rising=swing > 0)
    t_hi = wave.crossing_times(hi_level, rising=swing > 0)
    rise = float(t_hi[0] - t_lo[0]) if len(t_lo) and len(t_hi) else float("nan")

    post = wave.slice_time(delay, duration)
    settle = post.settling_time(final, abs(swing) * t_settle_frac)
    peak = np.max(y * np.sign(swing))
    overshoot = float(max(0.0, (peak - abs(final)) / abs(swing))) if swing else 0.0

    return SlewResult(
        slew_v_per_s=wave.max_slope(),
        rise_time_s=rise,
        settle_time_s=settle,
        overshoot_frac=overshoot,
        waveform=wave,
    )
