"""RC pole physics through the analysis functions, and frequency-grid
helpers."""

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    Sine,
    ac_analysis,
    dc_operating_point,
    noise_analysis,
    transfer_function,
    transient_analysis,
)
from repro.spice.analysis import log_freqs
from repro.spice.waveform import Waveform


@pytest.fixture
def rc_circuit():
    ckt = Circuit("rc")
    ckt.vsource("vin", "a", "gnd", dc=0.5, ac=1.0,
                wave=Sine(offset=0.5, amplitude=0.2, freq=1e3))
    ckt.resistor("r", "a", "b", 1e3)
    ckt.capacitor("c", "b", "gnd", 159.154943e-9)
    return ckt


@pytest.fixture
def rc_op(rc_circuit):
    return dc_operating_point(rc_circuit)


class TestLogFreqs:
    def test_includes_both_edges(self):
        grid = log_freqs(10.0, 1e3, 10)
        assert grid[0] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(1e3)

    def test_points_per_decade(self):
        grid = log_freqs(1.0, 1e3, 10)
        assert len(grid) == 31

    def test_validates_range(self):
        with pytest.raises(ValueError):
            log_freqs(0.0, 1e3)
        with pytest.raises(ValueError):
            log_freqs(1e3, 10.0)


class TestSimulator:
    """AC, transfer, noise and transient analyses of one RC low-pass."""

    def test_gain_at_pole(self, rc_op):
        h = transfer_function(rc_op, np.array([1e3]), "b")
        assert abs(h[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-4)

    def test_transfer_matches_ac(self, rc_op):
        freqs = np.array([100.0, 1e3])
        h = transfer_function(rc_op, freqs, "b")
        ac = ac_analysis(rc_op, freqs)
        assert np.allclose(h, ac.v("b"))

    def test_noise_through_facade(self, rc_op):
        nr = noise_analysis(rc_op, np.array([1e3]), "b")
        assert nr.output_psd[0] > 0.0

    def test_transient_waveform(self, rc_op):
        tr = transient_analysis(rc_op.system, 3e-3, 2e-6, op0=rc_op)
        wave = Waveform(tr.t, tr.v("b"))
        # sine about the 0.5 V DC point, attenuated ~0.707 at the pole
        assert wave.mean() == pytest.approx(0.5, abs=0.02)
        comp = abs(wave.last_cycles(1e3, 2).fourier_component(1e3))
        assert comp == pytest.approx(0.2 / np.sqrt(2), rel=0.03)
