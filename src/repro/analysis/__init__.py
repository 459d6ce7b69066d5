"""Measurement layer: the software equivalent of the authors' bench.

The names below load their module on first access (PEP 562), so
importing one analysis module (the campaign layer needs only
:mod:`repro.analysis.psrr`) does not import the others.
"""

from __future__ import annotations

import importlib

_HOMES = {
    "StaticTransfer": "distortion",
    "measure_static_transfer": "distortion",
    "static_thd": "distortion",
    "transient_thd": "distortion",
    "eq2_required_noise": "dynamic_range",
    "snr_from_noise": "dynamic_range",
    "GainMeasurement": "gain",
    "measure_gain_codes": "gain",
    "MicAmpNoiseBudget": "noise_budget",
    "eq5_switch_noise": "noise_budget",
    "psophometric_rms": "psophometric",
    "psophometric_weight": "psophometric",
    "measure_cmrr": "psrr",
    "measure_psrr": "psrr",
    "measure_slew_rate": "slew",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
