"""The 1.2 um double-metal double-poly n-well CMOS technology model.

The paper names the process ("standard double metal double poly 1.2 um
CMOS technology with a typical threshold voltage of 0.7 V") but its design
kit is long gone; the parameter set below is reconstructed from values
typical of that process generation (tox ~ 25 nm, KP_N ~ 90 uA/V^2,
KP_P ~ 30 uA/V^2, n-well vertical PNPs with beta ~ 40, 25 ohm/sq poly).
DESIGN.md documents this substitution; every experiment that depends on
*relative* behaviour (noise scaling, compliance voltages, tempco shape)
is insensitive to the exact values, and the headline noise experiment is
closed through the same sizing procedure the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.mosfet import MosModel


@dataclass(frozen=True)
class PolyResistorSpec:
    """High-resistance polysilicon resistor properties."""

    sheet_ohm: float = 25.0          # ohms per square
    tc1: float = 8.0e-4              # 1/K about 25 degC
    tc2: float = 1.0e-6              # 1/K^2
    matching_area_pct_um: float = 2.0  # sigma(dR/R) = this / sqrt(area [um^2]) [%]
    min_width_um: float = 2.0

    def squares(self, resistance: float) -> float:
        """Number of squares to draw ``resistance``."""
        return resistance / self.sheet_ohm

    def area_um2(self, resistance: float, width_um: float | None = None) -> float:
        """Drawn area of a resistor of the given value [um^2]."""
        w = width_um if width_um is not None else self.min_width_um
        return self.squares(resistance) * w * w


@dataclass(frozen=True)
class MatchingSpec:
    """Pelgrom-style matching coefficients."""

    avt_nmos_mv_um: float = 20.0     # sigma(dVT) = AVT/sqrt(WL) [mV, W/L in um]
    avt_pmos_mv_um: float = 22.0
    abeta_pct_um: float = 1.8        # sigma(dbeta/beta) = Abeta/sqrt(WL) [%]
    gradient_vt_uv_per_um: float = 30.0   # linear VT gradient across the die


@dataclass(frozen=True)
class Technology:
    """A complete process description used by every circuit builder."""

    name: str
    nmos: MosModel
    pmos: MosModel
    vpnp: BjtModel
    poly: PolyResistorSpec
    matching: MatchingSpec
    l_min: float = 1.2e-6            # minimum channel length [m]
    vdd_nominal: float = 1.3         # positive rail (split +/-1.3 V supply) [V]
    vss_nominal: float = -1.3        # negative rail [V]
    supply_min: float = 2.6          # total supply the paper guarantees [V]
    metal_pitch_um: float = 3.6      # for layout-area estimation
    cap_per_area: float = 0.45e-3    # poly-poly capacitor [F/m^2]

    @property
    def supply_total(self) -> float:
        return self.vdd_nominal - self.vss_nominal

    def mos(self, polarity: str) -> MosModel:
        """The MOS model for a polarity string ('nmos'/'pmos')."""
        if polarity == "nmos":
            return self.nmos
        if polarity == "pmos":
            return self.pmos
        raise ValueError(f"unknown polarity {polarity!r}")

    def scaled(self, **mos_overrides: dict) -> "Technology":
        """Return a copy with per-flavour MOS parameter overrides.

        ``scaled(nmos={"vth0": 0.8}, pmos={"kp": 28e-6})`` — used by the
        corner machinery and by tests that probe sensitivities.
        """
        nmos = replace(self.nmos, **mos_overrides.get("nmos", {}))
        pmos = replace(self.pmos, **mos_overrides.get("pmos", {}))
        return replace(self, nmos=nmos, pmos=pmos)


#: NMOS of the reconstructed 1.2 um process.
NMOS_12 = MosModel(
    name="cmos12_nmos",
    polarity="nmos",
    vth0=0.70,
    kp=90e-6,
    gamma=0.65,
    phi=0.70,
    clm=0.06e-6,
    n_slope=1.35,
    cox=1.38e-3,
    kf=1.2e-25,       # N flicker noticeably worse than P: the paper's
    af=1.0,           # input pairs are PMOS for exactly this reason
    cgso=2.4e-10,
    cgdo=2.4e-10,
    cj=2.8e-4,
    ldiff=2.4e-6,
    tcv=1.9e-3,
    bex=-1.5,
)

#: PMOS of the reconstructed 1.2 um process.
PMOS_12 = MosModel(
    name="cmos12_pmos",
    polarity="pmos",
    vth0=0.70,
    kp=30e-6,
    gamma=0.55,
    phi=0.70,
    clm=0.08e-6,
    n_slope=1.40,
    cox=1.38e-3,
    kf=2.5e-26,
    af=1.0,
    cgso=2.4e-10,
    cgdo=2.4e-10,
    cj=3.4e-4,
    ldiff=2.4e-6,
    tcv=1.7e-3,
    bex=-1.4,
)

#: CMOS-compatible vertical PNP (collector = substrate).
VPNP_12 = BjtModel(
    name="cmos12_vpnp",
    polarity="pnp",
    is_sat=2.0e-17,
    beta_f=40.0,
    beta_r=2.0,
    vaf=55.0,
    xti=3.0,
    eg=1.11,
    kf=2.0e-14,
    af=1.0,
)

#: The project-wide default technology instance.
CMOS12 = Technology(
    name="cmos12",
    nmos=NMOS_12,
    pmos=PMOS_12,
    vpnp=VPNP_12,
    poly=PolyResistorSpec(),
    matching=MatchingSpec(),
)
