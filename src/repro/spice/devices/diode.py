"""Junction diode model (exponential with series conductance floor)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import ELEMENTARY_CHARGE, kelvin, thermal_voltage
from repro.constants import BOLTZMANN
from repro.spice.devices.params import UnitParams


@dataclass(frozen=True)
class DiodeModel:
    """Simple junction diode parameters."""

    name: str = "diode"
    is_sat: float = 1.0e-16     # saturation current at 25 degC [A]
    n_ideality: float = 1.0
    xti: float = 3.0
    eg: float = 1.11
    kf: float = 0.0
    af: float = 1.0
    gmin: float = 1e-12

    def is_at(self, temp_c: float) -> float:
        t = kelvin(temp_c)
        t0 = kelvin(25.0)
        eg_over_k = self.eg * ELEMENTARY_CHARGE / BOLTZMANN
        return self.is_sat * (t / t0) ** self.xti * np.exp(
            -eg_over_k / self.n_ideality * (1.0 / t - 1.0 / t0)
        )


@dataclass
class DiodeEval:
    """Vectorised diode evaluation."""

    current: np.ndarray   # current np -> nn [A]
    gd: np.ndarray        # small-signal conductance [S]
    vd: np.ndarray        # junction voltage [V]


class DiodeGroup:
    """All diodes of a circuit, evaluated together."""

    def __init__(
        self,
        names: list[str],
        np_idx: np.ndarray,
        nn_idx: np.ndarray,
        area: np.ndarray,
        models: list["DiodeModel"],
        temp_c: float | list[float],
    ) -> None:
        """One circuit's diodes at ``temp_c`` [degC]; for a unit-stacked
        group ``area`` is ``(N, n)``, ``models`` one list per unit and
        ``temp_c`` one temperature per unit (see
        :mod:`repro.spice.devices.params`)."""
        p = UnitParams(models, temp_c)
        self.names = names
        self.np_idx, self.nn_idx = np_idx, nn_idx
        self.area = area
        self.models = models
        self.temp_c = temp_c
        self.is_sat = p.at_temp("is_at") * area
        self.n_ideality = p.model("n_ideality")
        self.kf = p.model("kf")
        self.af = p.model("af")
        self.gmin = p.model("gmin")
        self.ut = p.per_unit(thermal_voltage)

    def __len__(self) -> int:
        return len(self.names)

    def evaluate(self, volts: np.ndarray) -> DiodeEval:
        # (dim,) or unit-stacked (N, dim); see repro.spice.batch.
        vd = volts[..., self.np_idx] - volts[..., self.nn_idx]
        x = vd / (self.n_ideality * self.ut)
        capped = np.minimum(x, 80.0)
        e = np.exp(capped)
        over = x > 80.0
        value = np.where(over, e * (1.0 + (x - 80.0)), e)
        current = self.is_sat * (value - 1.0) + self.gmin * vd
        gd = self.is_sat * e / (self.n_ideality * self.ut) + self.gmin
        return DiodeEval(current=current, gd=gd, vd=vd)

    def shot_noise_psd(self, ev: DiodeEval) -> np.ndarray:
        return 2.0 * ELEMENTARY_CHARGE * np.abs(ev.current)

    def flicker_noise_psd(self, ev: DiodeEval, freq: float) -> np.ndarray:
        return self.kf * np.power(np.abs(ev.current), self.af) / freq
