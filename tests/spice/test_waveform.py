"""Waveform measurements against synthetic signals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.waveform import Waveform, make_time_grid


def sine_wave(freq=1e3, amp=1.0, n_cycles=4, fs=200e3, offset=0.0, phase=0.0):
    t = np.arange(int(n_cycles * fs / freq)) / fs
    return Waveform(t, offset + amp * np.sin(2 * np.pi * freq * t + phase))


class TestBasicMeasures:
    def test_mean(self):
        w = sine_wave(amp=1.0, offset=0.7)
        assert w.mean() == pytest.approx(0.7, abs=1e-6)

    def test_max_slope_of_sine(self):
        w = sine_wave(freq=1e3, amp=1.0, fs=1e6)
        assert w.max_slope() == pytest.approx(2 * np.pi * 1e3, rel=1e-3)

    def test_slice_and_validation(self):
        w = sine_wave()
        seg = w.slice_time(1e-3, 2e-3)
        assert seg.duration == pytest.approx(1e-3, rel=1e-2)
        with pytest.raises(ValueError):
            w.slice_time(1.0, 2.0)

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Waveform(np.arange(5.0), np.arange(4.0))


class TestCrossingsAndSettling:
    def test_rising_crossings_of_sine(self):
        w = sine_wave(freq=1e3, n_cycles=3, fs=1e6)
        crossings = w.crossing_times(0.0, rising=True)
        # one rising zero crossing per cycle (at start of each period)
        assert len(crossings) in (2, 3)
        spacing = np.diff(crossings)
        assert np.allclose(spacing, 1e-3, rtol=1e-3)

    def test_settling_time_of_exponential(self):
        t = np.linspace(0, 10e-6, 2000)
        y = 1.0 - np.exp(-t / 1e-6)
        w = Waveform(t, y)
        ts = w.settling_time(final=1.0, tol=0.01)
        assert ts == pytest.approx(np.log(100) * 1e-6, rel=0.05)

    def test_settling_time_never_in_band_is_nan(self):
        """A record that never reaches the tolerance band has no settling
        time at all — nan, not a misleading inf or duration (regression:
        the old code conflated this with 'entered but not settled')."""
        t = np.linspace(0, 1e-6, 100)
        w = Waveform(t, np.full_like(t, 0.5))      # flat at 0.5, target 1.0
        assert np.isnan(w.settling_time(final=1.0, tol=0.01))

    def test_settling_time_entered_but_ends_outside_is_inf(self):
        """Entering the band and leaving again by the final sample means
        'not yet settled within the record': inf, distinct from nan."""
        t = np.linspace(0, 1e-6, 100)
        y = np.zeros_like(t)
        y[40:60] = 1.0                             # visits the band, leaves
        w = Waveform(t, y)
        assert w.settling_time(final=1.0, tol=0.01) == float("inf")

    def test_settling_time_always_in_band_is_zero(self):
        t = np.linspace(0, 1e-6, 100)
        w = Waveform(t, np.ones_like(t))
        assert w.settling_time(final=1.0, tol=0.01) == 0.0


class TestFourier:
    def test_fourier_component_amplitude_phase(self):
        w = sine_wave(freq=1e3, amp=0.8, phase=0.3)
        comp = w.fourier_component(1e3)
        assert abs(comp) == pytest.approx(0.8, rel=1e-4)
        # sin(x + 0.3) = cos-based phasor offset by 0.3 - pi/2
        assert np.angle(comp) == pytest.approx(0.3 - np.pi / 2, abs=1e-3)

    def test_thd_of_synthetic_distortion(self):
        """y = sin + 0.01 sin(3x) has THD of exactly 1 %."""
        t = np.arange(8000) / 200e3
        y = np.sin(2 * np.pi * 1e3 * t) + 0.01 * np.sin(2 * np.pi * 3e3 * t)
        w = Waveform(t, y)
        assert w.thd(1e3, 5) == pytest.approx(0.01, rel=1e-3)

    def test_harmonics_vector(self):
        t = np.arange(8000) / 200e3
        y = np.sin(2 * np.pi * 1e3 * t) + 0.05 * np.sin(2 * np.pi * 2e3 * t)
        w = Waveform(t, y)
        h = w.harmonics(1e3, 3)
        assert h[0] == pytest.approx(1.0, rel=1e-3)
        assert h[1] == pytest.approx(0.05, rel=1e-2)
        assert h[2] < 1e-6

    def test_too_short_for_fundamental_raises(self):
        w = sine_wave(freq=1e3, n_cycles=4)
        with pytest.raises(ValueError):
            w.slice_time(0, 0.4e-3).fourier_component(1e3)

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=20, deadline=None)
    def test_amplitude_recovery_property(self, amp, phase):
        w = sine_wave(freq=1e3, amp=amp, phase=phase, n_cycles=5)
        assert abs(w.fourier_component(1e3)) == pytest.approx(amp, rel=1e-3)


class TestTimeGrid:
    def test_make_time_grid(self):
        t_stop, dt = make_time_grid(1e3, 4, 500)
        assert t_stop == pytest.approx(4e-3)
        assert dt == pytest.approx(1 / (1e3 * 500))
