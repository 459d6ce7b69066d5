"""Physical constants and unit helpers shared across the package.

All quantities are SI unless a suffix says otherwise.  Temperatures are
handled in degrees Celsius at API boundaries (the paper quotes 25 degC,
-20..85 degC ranges) and converted to Kelvin internally.
"""

from __future__ import annotations

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602176634e-19

#: 0 degC in Kelvin.
ZERO_CELSIUS = 273.15

#: Reference temperature used for nominal device parameters [degC].
NOMINAL_TEMP_C = 25.0


def kelvin(temp_c: float) -> float:
    """Convert a temperature from Celsius to Kelvin."""
    return temp_c + ZERO_CELSIUS


def thermal_voltage(temp_c: float = NOMINAL_TEMP_C) -> float:
    """Thermal voltage kT/q at the given temperature [V].

    At 25 degC this is about 25.7 mV, the value used throughout the
    paper's weak-inversion and noise arguments.
    """
    return BOLTZMANN * kelvin(temp_c) / ELEMENTARY_CHARGE


def db(ratio: float) -> float:
    """Voltage ratio to decibels (20*log10)."""
    import math

    if ratio <= 0.0:
        raise ValueError(f"db() requires a positive ratio, got {ratio!r}")
    return 20.0 * math.log10(ratio)


def undb(value_db: float) -> float:
    """Decibels to voltage ratio (inverse of :func:`db`)."""
    return 10.0 ** (value_db / 20.0)
