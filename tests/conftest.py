"""Shared fixtures.

Expensive artifacts (built amplifiers, solved operating points, noise
sweeps) are session-scoped: dozens of tests read them, none mutates them
without restoring state (the mutating tests build their own instances).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.micamp import build_mic_amp
from repro.circuits.powerbuffer import build_power_buffer
from repro.pga.characterize import (
    CharacterizationOptions,
    characterize_mic_amp,
    characterize_power_buffer,
)
from repro.process import CMOS12
from repro.spice.analysis import log_freqs
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis


@pytest.fixture(scope="session")
def tech():
    return CMOS12


@pytest.fixture(scope="session")
def mic_amp_40db(tech):
    """Built mic amp at the 40 dB code (shared, treat as read-only)."""
    return build_mic_amp(tech, gain_code=5, switch_type="mos")


@pytest.fixture(scope="session")
def mic_amp_op(mic_amp_40db):
    return dc_operating_point(mic_amp_40db.circuit)


@pytest.fixture(scope="session")
def mic_amp_noise(mic_amp_40db, mic_amp_op):
    freqs = log_freqs(10.0, 100e3, 12)
    return noise_analysis(mic_amp_op, freqs, mic_amp_40db.outp, mic_amp_40db.outn)


@pytest.fixture(scope="session")
def buffer_inverting(tech):
    """Built power buffer, Fig. 9 configuration (shared, read-only)."""
    return build_power_buffer(tech, feedback="inverting", load="resistive")


@pytest.fixture(scope="session")
def buffer_op(buffer_inverting):
    return dc_operating_point(buffer_inverting.circuit)


@pytest.fixture(scope="session")
def table1(tech):
    """Quick Table 1 row set: the ``repro table1 --quick`` contract."""
    return characterize_mic_amp(tech, CharacterizationOptions(quick=True))


@pytest.fixture(scope="session")
def table2(tech):
    """Quick Table 2 row set: the ``repro table2 --quick`` contract."""
    return characterize_power_buffer(tech, CharacterizationOptions(quick=True))


@pytest.fixture
def rng():
    return np.random.default_rng(20260611)
