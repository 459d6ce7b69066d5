"""Distortion measurements: analytic nonlinearities and circuit cross-checks."""

import numpy as np
import pytest

from repro.analysis.distortion import (
    StaticTransfer,
    amplitude_at_thd,
    goertzel_dft,
    goertzel_harmonics,
    measure_static_transfer,
    static_thd,
    transient_thd,
)


def cubic_transfer(a3=0.01, span=2.0, points=201):
    vin = np.linspace(-span, span, points)
    return StaticTransfer(vin, vin + a3 * vin**3)


class TestStaticTransfer:
    def test_hd3_of_cubic_matches_theory(self):
        """y = x + a3 x^3 -> HD3 = a3 A^2 / 4 for small a3."""
        a3, amp = 0.01, 1.0
        thd = cubic_transfer(a3).thd(amp)
        assert thd == pytest.approx(a3 * amp**2 / 4.0, rel=0.02)

    def test_hd2_of_quadratic_matches_theory(self):
        """y = x + a2 x^2 -> HD2 = a2 A / 2."""
        a2, amp = 0.02, 0.5
        vin = np.linspace(-2, 2, 201)
        transfer = StaticTransfer(vin, vin + a2 * vin**2)
        assert transfer.thd(amp) == pytest.approx(a2 * amp / 2.0, rel=0.02)

    def test_linear_transfer_has_zero_thd(self):
        vin = np.linspace(-1, 1, 64)
        transfer = StaticTransfer(vin, 3.0 * vin)
        assert transfer.thd(0.5) < 1e-9

    def test_thd_grows_with_amplitude(self):
        transfer = cubic_transfer(0.05)
        assert transfer.thd(1.5) > transfer.thd(0.5)

    def test_gain_at(self):
        transfer = cubic_transfer(0.01)
        assert transfer.gain_at(0.0) == pytest.approx(1.0, rel=0.01)
        assert transfer.gain_at(1.0) == pytest.approx(1.03, rel=0.02)

    def test_apply_range_checked(self):
        transfer = cubic_transfer(0.01, span=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            transfer.apply(np.array([1.5]))

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            StaticTransfer(np.arange(4.0), np.arange(4.0))


class TestGoertzel:
    def test_matches_direct_dtft_at_arbitrary_bins(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(777)
        freqs = np.array([0.0123, 0.1, 0.256789, 0.499])
        n = np.arange(y.size)
        ref = np.array([np.sum(y * np.exp(-2j * np.pi * f * n)) for f in freqs])
        got = goertzel_dft(y, freqs)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_matches_fft_on_integer_bins(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(256)
        spec = np.fft.rfft(y)
        got = goertzel_dft(y, np.array([3, 17, 100]) / 256.0)
        np.testing.assert_allclose(got, spec[[3, 17, 100]], rtol=1e-9)

    def test_rejects_too_short_records(self):
        with pytest.raises(ValueError, match="at least 4"):
            goertzel_dft(np.ones(3), [0.1])

    def test_two_harmonic_regression_with_noninteger_cycles(self):
        """The satellite case: a two-harmonic tone sampled at 48 kHz /
        997 Hz, where no window holds an integer number of cycles (48.14
        samples per cycle).  Reading harmonics at the exact frequencies
        k*f0 via Goertzel recovers the -60 dB second harmonic to ~1 %;
        the FFT pick at the nearest grid bin is an order of magnitude
        worse because the fundamental leaks across the off-grid bins."""
        fs, f0 = 48000.0, 997.0
        a1, a2 = 1.0, 1e-3
        n = int(round(20 * fs / f0))     # ~20 cycles, never exactly coherent
        t = np.arange(n) / fs
        y = a1 * np.sin(2 * np.pi * f0 * t) + \
            a2 * np.sin(2 * np.pi * 2 * f0 * t + 0.7)

        amps = goertzel_harmonics(y, f0 / fs, 2)
        assert amps[0] == pytest.approx(a1, rel=1e-3)
        assert amps[1] == pytest.approx(a2, rel=0.05)

        # the naive FFT pick reads the 2nd harmonic from leaked energy
        mags = np.abs(np.fft.rfft(y - y.mean())) / n * 2.0
        k2 = int(round(2 * f0 / fs * n))
        fft_err = abs(mags[k2] - a2) / a2
        goertzel_err = abs(amps[1] - a2) / a2
        assert fft_err > 10.0 * goertzel_err

    def test_edge_sample_does_not_leak_into_harmonics(self):
        """The transient_thd segment shape: N whole cycles plus one edge
        sample (last_cycles keeps both endpoints).  The whole-cycle trim
        must keep a phase-lagged fundamental from leaking ~2*sin(phi)/N
        into every harmonic bin — at the -52 dB spec level that leakage
        would otherwise dominate the measurement."""
        ppc, cycles, phi, a3 = 400, 2, 1.0, 1e-3
        t = np.arange(ppc * cycles + 1) / ppc  # in fundamental cycles
        y = np.sin(2 * np.pi * t + phi) + a3 * np.sin(6 * np.pi * t)
        amps = goertzel_harmonics(y, 1.0 / ppc, 9)
        thd = np.sqrt(np.sum(amps[1:] ** 2)) / amps[0]
        assert thd == pytest.approx(a3, rel=0.02)

    def test_static_thd_unchanged_by_the_goertzel_path(self):
        """One-cycle synthetic records sit exactly on FFT bins, so the
        Goertzel rewrite must reproduce the legacy FFT numbers."""
        a3, amp = 0.01, 1.0
        transfer = cubic_transfer(a3)
        n_points, n_harmonics = 4096, 7
        t = np.arange(n_points) / n_points
        out = transfer.apply(amp * np.sin(2.0 * np.pi * t))
        spec = np.abs(np.fft.rfft(out - out.mean())) / n_points * 2.0
        legacy = float(np.sqrt(np.sum(spec[2:2 + n_harmonics - 1] ** 2))
                       / spec[1])
        assert transfer.thd(amp) == pytest.approx(legacy, rel=1e-9)


class TestAmplitudeSearch:
    def test_finds_threshold_amplitude(self):
        a3 = 0.01
        transfer = cubic_transfer(a3, span=3.0)
        # THD(A) = a3 A^2/4 = 0.003 -> A = sqrt(0.012/a3)
        a = amplitude_at_thd(transfer, 0.003, 0.1, 2.5)
        assert a == pytest.approx(np.sqrt(0.012 / a3), rel=0.02)

    def test_returns_nan_if_floor_too_high(self):
        transfer = cubic_transfer(0.5, span=3.0)
        assert np.isnan(amplitude_at_thd(transfer, 1e-6, 1.0, 2.0))

    def test_returns_hi_if_always_clean(self):
        transfer = cubic_transfer(1e-9, span=3.0)
        assert amplitude_at_thd(transfer, 0.01, 0.1, 2.0) == pytest.approx(2.0)


class TestCircuitMeasurements:
    def test_static_transfer_of_mic_amp(self, tech):
        from repro.circuits.micamp import build_mic_amp

        design = build_mic_amp(tech, gain_code=0)
        transfer = measure_static_transfer(
            design.circuit, "vin_p", "vin_n", "outp", "outn",
            amplitude=0.3, points=21,
        )
        assert transfer.gain_at(0.0) == pytest.approx(3.162, rel=0.01)

    def test_static_and_transient_thd_agree(self, tech):
        """The fast path must match the full simulation at voice band."""
        from repro.circuits.micamp import build_mic_amp

        design = build_mic_amp(tech, gain_code=0)
        thd_static = static_thd(design.circuit, "vin_p", "vin_n",
                                "outp", "outn", amplitude=0.4, points=31)
        thd_tran, wave = transient_thd(design.circuit, "vin_p", "vin_n",
                                       "outp", "outn", amplitude=0.4,
                                       cycles=3, points_per_cycle=300)
        assert np.ptp(wave.y) > 1.0
        # agreement within a factor ~2 at these tiny distortion levels
        assert thd_tran == pytest.approx(thd_static, rel=1.0, abs=2e-4)

    def test_transient_thd_restores_sources(self, tech):
        from repro.circuits.micamp import build_mic_amp

        design = build_mic_amp(tech, gain_code=0)
        transient_thd(design.circuit, "vin_p", "vin_n", "outp", "outn",
                      amplitude=0.2, cycles=2, points_per_cycle=200)
        assert design.circuit.element("vin_p").wave is None
