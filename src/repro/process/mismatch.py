"""Device mismatch: the Pelgrom model plus deterministic gradients.

The paper's Table 1 gain accuracy (0.05 dB) and the offset argument in the
introduction ("the offset voltage of the microphone amplifier amplified by
40 dB maximum gain reduces the useful dynamic range of the A/D converter")
are statistical statements about matched devices.  This module turns the
technology's matching coefficients into per-device random samples that the
circuit builders consume, so Monte Carlo offset/gain runs are ordinary
circuit constructions with perturbed models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.technology import Technology


@dataclass(frozen=True)
class PelgromModel:
    """sigma(parameter mismatch) as a function of device geometry."""

    avt_mv_um: float
    abeta_pct_um: float

    def sigma_vt(self, w_m: float, l_m: float) -> float:
        """Standard deviation of a *single device's* VT deviation [V].

        Pelgrom coefficients describe the difference of a device *pair*;
        a single device deviates by 1/sqrt(2) of that.
        """
        area_um2 = (w_m * 1e6) * (l_m * 1e6)
        pair_sigma = self.avt_mv_um * 1e-3 / np.sqrt(area_um2)
        return pair_sigma / np.sqrt(2.0)

    def sigma_beta(self, w_m: float, l_m: float) -> float:
        """Standard deviation of a single device's relative beta error."""
        area_um2 = (w_m * 1e6) * (l_m * 1e6)
        pair_sigma = self.abeta_pct_um / 100.0 / np.sqrt(area_um2)
        return pair_sigma / np.sqrt(2.0)


class MismatchSampler:
    """Draws per-device mismatch for one Monte Carlo trial.

    Builders call :meth:`mos_deltas` / :meth:`resistor_delta` for each
    matched device they instantiate.  A sampler with ``enabled=False``
    returns zeros, so builders always take a sampler and nominal runs stay
    deterministic.
    """

    def __init__(self, tech: Technology, rng: np.random.Generator | None = None,
                 enabled: bool = True) -> None:
        self.tech = tech
        self.rng = rng or np.random.default_rng()
        self.enabled = enabled
        self._nmos = PelgromModel(
            tech.matching.avt_nmos_mv_um, tech.matching.abeta_pct_um
        )
        self._pmos = PelgromModel(
            tech.matching.avt_pmos_mv_um, tech.matching.abeta_pct_um
        )

    @classmethod
    def nominal(cls, tech: Technology) -> "MismatchSampler":
        """A sampler that always returns zero deviations."""
        return cls(tech, rng=np.random.default_rng(0), enabled=False)

    def mos_deltas(self, polarity: str, w: float, l: float) -> tuple[float, float]:
        """(delta_vth [V], relative delta_beta) for one device."""
        if not self.enabled:
            return 0.0, 0.0
        model = self._nmos if polarity == "nmos" else self._pmos
        dvt = float(self.rng.normal(0.0, model.sigma_vt(w, l)))
        dbeta = float(self.rng.normal(0.0, model.sigma_beta(w, l)))
        return dvt, dbeta

    def add_mosfet(self, ckt, name: str, d: str, g: str, s: str, b: str,
                   model, w: float, l: float, m: int = 1):
        """Add one matched MOSFET to ``ckt`` carrying this trial's
        :meth:`mos_deltas` as its ``dvt``/``dbeta`` instance deltas."""
        dvt, dbeta = self.mos_deltas(model.polarity, w, l)
        return ckt.mosfet(name, d, g, s, b, model, w=w, l=l, m=m, dvt=dvt, dbeta=dbeta)

    def resistor_delta(self, resistance: float, width_um: float | None = None) -> float:
        """Relative resistance error for one poly resistor."""
        if not self.enabled:
            return 0.0
        area = self.tech.poly.area_um2(resistance, width_um)
        sigma = self.tech.poly.matching_area_pct_um / 100.0 / np.sqrt(max(area, 1.0))
        return float(self.rng.normal(0.0, sigma / np.sqrt(2.0)))

    def bjt_is_delta(self, area: float = 1.0) -> float:
        """Relative saturation-current error for one bipolar."""
        if not self.enabled:
            return 0.0
        # Emitter-area-limited matching, ~1 % for a unit device.
        return float(self.rng.normal(0.0, 0.01 / np.sqrt(area)))
