"""Bipolar transistor model (Ebers-Moll with Early effect).

The paper's bias generator and fully differential bandgap use
"CMOS-compatible vertical bipolar transistors": parasitic vertical PNPs
whose collector is the substrate.  They are operated in forward active or
diode-connected mode, so a careful Ebers-Moll model with temperature-
dependent saturation current is sufficient and — crucially for the
bandgap's tempco experiment — the IS(T) law reproduces the canonical
~ -2 mV/K VBE slope and its curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN, ELEMENTARY_CHARGE, kelvin, thermal_voltage
from repro.spice.devices.params import UnitParams

NPN = "npn"
PNP = "pnp"


@dataclass(frozen=True)
class BjtModel:
    """Gummel-Poon-lite bipolar parameters."""

    name: str = "vpnp"
    polarity: str = PNP
    is_sat: float = 2.0e-17      # saturation current at 25 degC [A]
    beta_f: float = 40.0         # forward current gain (vertical PNPs are poor)
    beta_r: float = 2.0          # reverse current gain
    vaf: float = 60.0            # forward Early voltage [V]
    xti: float = 3.0             # IS temperature exponent
    eg: float = 1.11             # bandgap energy [eV]
    kf: float = 1.0e-14          # base-current flicker coefficient [A]
    af: float = 1.0
    gmin: float = 1e-12

    def __post_init__(self) -> None:
        if self.polarity not in (NPN, PNP):
            raise ValueError(f"polarity must be '{NPN}' or '{PNP}', got {self.polarity!r}")
        if self.is_sat <= 0.0 or self.beta_f <= 0.0 or self.beta_r <= 0.0:
            raise ValueError("is_sat, beta_f, beta_r must be > 0")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == NPN else -1.0

    def is_at(self, temp_c: float) -> float:
        """Saturation current at temperature (drives the VBE tempco)."""
        t = kelvin(temp_c)
        t0 = kelvin(25.0)
        eg_over_k = self.eg * ELEMENTARY_CHARGE / BOLTZMANN
        return self.is_sat * (t / t0) ** self.xti * np.exp(-eg_over_k * (1.0 / t - 1.0 / t0))


def _limited_exp(x: np.ndarray, x_max: float = 80.0) -> tuple[np.ndarray, np.ndarray]:
    """exp(x) with linear extension above ``x_max`` (returns value, slope).

    The linear extension keeps Newton iterations finite when a junction is
    momentarily driven far forward by a Newton step.
    """
    capped = np.minimum(x, x_max)
    e = np.exp(capped)
    over = x > x_max
    value = np.where(over, e * (1.0 + (x - x_max)), e)
    slope = e  # continuous first derivative at the knee
    return value, slope


@dataclass
class BjtEval:
    """Vectorised large-signal BJT evaluation (physical-frame currents)."""

    ic: np.ndarray           # current into the collector terminal [A]
    ib: np.ndarray           # current into the base terminal [A]
    gm: np.ndarray           # d|Ic|/d|Vbe| [S]
    gpi: np.ndarray          # d|Ib|/d|Vbe| [S]
    go: np.ndarray           # output conductance [S]
    gmu: np.ndarray          # d|Ib|/d|Vbc| (reverse) [S]
    vbe: np.ndarray          # polarity-normalised VBE [V]
    vbc: np.ndarray          # polarity-normalised VBC [V]


class BjtGroup:
    """All BJTs of a circuit, evaluated together."""

    def __init__(
        self,
        names: list[str],
        c: np.ndarray,
        b: np.ndarray,
        e: np.ndarray,
        area: np.ndarray,
        models: list[BjtModel],
        temp_c: float | list[float],
    ) -> None:
        """One circuit's BJTs at ``temp_c`` [degC]; for a unit-stacked
        group ``area`` is ``(N, n)``, ``models`` one list per unit and
        ``temp_c`` one temperature per unit (see
        :mod:`repro.spice.devices.params`)."""
        p = UnitParams(models, temp_c)
        self.names = names
        self.c, self.b, self.e = c, b, e
        self.area = area
        self.models = models
        self.temp_c = temp_c
        self.sign = p.model("sign")
        self.is_sat = p.at_temp("is_at") * area
        self.beta_f = p.model("beta_f")
        self.beta_r = p.model("beta_r")
        self.vaf = p.model("vaf")
        self.kf = p.model("kf")
        self.af = p.model("af")
        self.gmin = p.model("gmin")
        self.ut = p.per_unit(thermal_voltage)

    def __len__(self) -> int:
        return len(self.names)

    def evaluate(self, volts: np.ndarray) -> BjtEval:
        # ``volts`` may be (dim,) or unit-stacked (N, dim); the ellipsis
        # gather keeps both shapes on the identical elementwise op
        # sequence (bitwise-equal rows, see repro.spice.batch).
        vc = volts[..., self.c]
        vb = volts[..., self.b]
        ve = volts[..., self.e]
        sign = self.sign

        vbe = sign * (vb - ve)
        vbc = sign * (vb - vc)
        vce = vbe - vbc

        ef, def_ = _limited_exp(vbe / self.ut)
        er, der = _limited_exp(vbc / self.ut)

        itf = self.is_sat * (ef - 1.0)
        itr = self.is_sat * (er - 1.0)
        # Early effect on the forward transport current only.
        early = 1.0 + np.maximum(vce, 0.0) / self.vaf
        d_early = np.where(vce > 0.0, 1.0 / self.vaf, 0.0)

        icc = (itf - itr) * early - itr / self.beta_r
        ibb = itf / self.beta_f + itr / self.beta_r

        ditf = self.is_sat * def_ / self.ut
        ditr = self.is_sat * der / self.ut

        gm = ditf * early + (itf - itr) * d_early
        gpi = ditf / self.beta_f
        gmu = ditr / self.beta_r
        # Output conductance: d icc / d vce at fixed vbe.
        go = (itf - itr) * d_early + ditr * early + ditr / self.beta_r + self.gmin

        ic_phys = sign * icc
        ib_phys = sign * ibb
        return BjtEval(
            ic=ic_phys, ib=ib_phys, gm=gm, gpi=gpi, go=go, gmu=gmu, vbe=vbe, vbc=vbc
        )

    def shot_noise_psd(self, ev: BjtEval) -> tuple[np.ndarray, np.ndarray]:
        """(collector, base) shot-noise current PSDs [A^2/Hz]."""
        q2 = 2.0 * ELEMENTARY_CHARGE
        return q2 * np.abs(ev.ic), q2 * np.abs(ev.ib)

    def flicker_noise_psd(self, ev: BjtEval, freq: float) -> np.ndarray:
        """Base-current flicker noise PSD at ``freq`` [A^2/Hz]."""
        return self.kf * np.power(np.abs(ev.ib), self.af) / freq
