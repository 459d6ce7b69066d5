"""MOSFET model: a source-referenced EKV-style formulation.

The paper's circuits live at the edge of the usable operating region of a
1.2 um process: 2.6 V total supply, 0.7 V thresholds, devices pushed toward
moderate inversion ("variance of the drain current ... when they operate
close to the moderate or weak inversion regions").  A square-law model with
a hard cutoff both fails to converge there and gets the noise/gm trade-offs
wrong, so we use the EKV interpolation

    ID = IS * [F(x_f) - F(x_r)] * (1 + lambda*VDS)
    F(x) = ln^2(1 + exp(x/2)),
    x_f  = Veff/(n*UT),     x_r = (Veff - n*VDS)/(n*UT)
    IS   = 2*n*beta*UT^2,   beta = KP*(W/L)*m,  Veff = VGS - VTH(VSB)

which reduces to the familiar square law in strong inversion (with the
slope factor n), to the correct exp(Veff/(n*UT)) law in weak inversion and
to the triode expression ID = beta*(Veff*VDS - n*VDS^2/2) for small VDS.
Body effect enters through the level-1 VTH(VSB) expression.

Noise (evaluated at the operating point):

* thermal:  Sid = 4kT * (2/3 * gm + gds_channel)  [A^2/Hz] -- the channel
  conductance term makes the same formula valid for switches in triode
  (4kT/Ron) and for saturated gain devices (8kTgm/3), which is exactly the
  split Eqs. 3 and 5 of the paper make;
* flicker:  Svg = KF / (Cox*W*L*m * f^AF)  input-referred, i.e.
  Sid = gm^2 * Svg -- the 1/(W*L) area dependence drives the paper's
  "large area" sizing argument (Sec. 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import BOLTZMANN, kelvin, thermal_voltage
from repro.spice.devices.params import UnitParams

#: Polarity constants.
NMOS = "nmos"
PMOS = "pmos"


@dataclass(frozen=True)
class MosModel:
    """Process-level MOSFET parameters (one instance per device flavour).

    Defaults approximate the NMOS of a generic 1.2 um n-well CMOS process
    (VTH about 0.7 V as quoted by the paper).  The project-wide calibrated
    models live in :mod:`repro.process.technology`.
    """

    name: str = "nmos_generic"
    polarity: str = NMOS
    vth0: float = 0.70          # zero-bias threshold magnitude [V]
    kp: float = 90e-6           # transconductance factor mu*Cox [A/V^2]
    gamma: float = 0.60         # body-effect coefficient [sqrt(V)]
    phi: float = 0.70           # surface potential 2*phiF [V]
    clm: float = 0.06e-6        # channel-length modulation: lambda = clm/L [1/V * m]
    n_slope: float = 1.35       # subthreshold slope factor
    cox: float = 1.38e-3        # gate capacitance per area [F/m^2] (tox ~ 25 nm)
    kf: float = 2.0e-24         # flicker coefficient [V^2*F]
    af: float = 1.0             # flicker frequency exponent
    cgso: float = 2.2e-10       # G-S overlap cap per width [F/m]
    cgdo: float = 2.2e-10       # G-D overlap cap per width [F/m]
    cj: float = 2.6e-4          # junction cap per area [F/m^2]
    ldiff: float = 2.4e-6       # source/drain diffusion length [m]
    tcv: float = 1.8e-3         # VTH temperature coefficient [V/K] (magnitude decreases)
    bex: float = -1.5           # mobility temperature exponent
    gmin: float = 1e-12         # convergence conductance across the channel [S]

    def __post_init__(self) -> None:
        if self.polarity not in (NMOS, PMOS):
            raise ValueError(f"polarity must be '{NMOS}' or '{PMOS}', got {self.polarity!r}")
        if self.vth0 <= 0.0:
            raise ValueError("vth0 is a magnitude and must be > 0 for both polarities")
        if self.kp <= 0.0 or self.cox <= 0.0:
            raise ValueError("kp and cox must be > 0")
        if self.n_slope < 1.0:
            raise ValueError("subthreshold slope factor n must be >= 1")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (voltage/current normalisation)."""
        return 1.0 if self.polarity == NMOS else -1.0

    def vth_at(self, temp_c: float) -> float:
        """Threshold magnitude at temperature [V]; drops ~1.8 mV/K."""
        return self.vth0 - self.tcv * (temp_c - 25.0)

    def kp_at(self, temp_c: float) -> float:
        """Transconductance factor at temperature (mobility degradation)."""
        return self.kp * self.mobility_factor(temp_c)

    def mobility_factor(self, temp_c: float) -> float:
        """``kp_at(temp_c) / kp``: the mobility temperature law."""
        t_ratio = kelvin(temp_c) / kelvin(25.0)
        return t_ratio**self.bex


def _softlog_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerically stable ln(1 + exp(x)) and logistic function of ``x``.

    Both share one ``exp(-|x|)``, which never overflows: for ``x >= 0``
    it is ``exp(-x)`` and otherwise ``exp(x)``, the two stable forms of
    the logistic function.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    softlog = np.where(x > 0.0, x, 0.0) + np.log1p(e)
    return softlog, np.where(x >= 0.0, 1.0 / d, e / d)


@dataclass
class MosEval:
    """Vectorised large-signal evaluation result for a group of MOSFETs.

    All arrays are per-device.  ``ids`` is the current into the *effective*
    drain; ``into_drain`` already folds in polarity and source/drain swap.
    ``into_drain`` and ``vdsat`` are computed on read: Newton never reads
    them.
    """

    group: MosGroup = field(repr=False)
    ids: np.ndarray          # effective-frame channel current [A]
    gm: np.ndarray           # d ids / d vgs_eff [S]
    gds: np.ndarray          # d ids / d vds_eff (incl. CLM) [S]
    gds_channel: np.ndarray  # physical channel conductance (triode part) [S]
    gmb: np.ndarray          # d ids / d vbs_eff [S]
    swapped: np.ndarray      # True where source/drain were exchanged
    vgs: np.ndarray          # effective-frame VGS [V]
    vds: np.ndarray          # effective-frame VDS (>= 0) [V]
    vsb: np.ndarray          # effective-frame VSB [V]
    veff: np.ndarray         # VGS - VTH in the effective frame [V]
    vth: np.ndarray          # threshold incl. body effect [V]

    @property
    def into_drain(self) -> np.ndarray:
        """Current into the physical drain terminal [A]."""
        return self.group.sign * np.where(self.swapped, -self.ids, self.ids)

    @property
    def vdsat(self) -> np.ndarray:
        """Saturation voltage estimate [V]."""
        return np.maximum(self.veff, 0.0) / self.group.n_slope + 4.0 * self.group.ut


class MosGroup:
    """All MOSFETs of a circuit, evaluated together with numpy.

    The group is built once at compile time; ``evaluate`` is called per
    Newton iteration with the current solution vector.
    """

    def __init__(
        self,
        names: list[str],
        d: np.ndarray,
        g: np.ndarray,
        s: np.ndarray,
        b: np.ndarray,
        w: np.ndarray,
        l: np.ndarray,
        m: np.ndarray,
        models: list[MosModel],
        temp_c: float | list[float],
        dvt: np.ndarray | float = 0.0,
        dbeta: np.ndarray | float = 0.0,
    ) -> None:
        """One circuit's MOSFETs at ``temp_c`` [degC]; for a unit-stacked
        group ``w``/``l``/``m`` are ``(N, n)``, ``models`` one list per
        unit and ``temp_c`` one temperature per unit (see
        :mod:`repro.spice.devices.params`).  ``dvt``/``dbeta`` are the
        devices' mismatch deltas (:attr:`Mosfet.dvt`/:attr:`Mosfet.dbeta`),
        shaped like ``w``."""
        p = self._params = UnitParams(models, temp_c)
        self.names = names
        self.d, self.g, self.s, self.b = d, g, s, b
        self.w, self.l, self.m = w, l, m
        self.models = models
        self.temp_c = temp_c
        self.sign = p.model("sign")
        # MosModel.vth_at/kp_at of a model whose vth0/kp carry the
        # deltas, in their operation order.
        self.vth0 = (p.model("vth0") + dvt) - p.model("tcv") * p.per_unit(
            lambda t: t - 25.0)
        self.kp = (p.model("kp") * (1.0 + dbeta)) * p.at_temp("mobility_factor")
        self.gamma = p.model("gamma")
        self.phi = p.model("phi")
        self.lam = p.model("clm") / l
        self.n_slope = p.model("n_slope")
        self.cox = p.model("cox")
        self.kf = p.model("kf")
        self.af = p.model("af")
        self.gmin = p.model("gmin")
        self.beta = self.kp * (w / l) * m
        self.ut = p.per_unit(thermal_voltage)
        self.isat = 2.0 * self.n_slope * self.beta * p.per_unit(
            lambda t: thermal_voltage(t) ** 2)
        self.kt4 = p.per_unit(lambda t: 4.0 * BOLTZMANN * kelvin(t))
        self._hoist_constants()

    def _hoist_constants(self) -> None:
        """Voltage-independent terms of :meth:`evaluate`, computed once."""
        self.sqrt_phi = np.sqrt(self.phi)
        # Level-1 body effect with a floor that keeps sqrt() real.  Bulks
        # are tied to rails or sources in every paper circuit, so the
        # floor only guards transient excursions.
        self.vsb_floor = -self.phi + 1e-3
        self.n_ut = self.n_slope * self.ut
        self.two_n_ut = 2.0 * self.n_ut

    def __len__(self) -> int:
        return len(self.names)

    def evaluate(self, volts: np.ndarray) -> MosEval:
        """Large-signal evaluation at node voltages ``volts`` (extended).

        ``volts`` may be the usual ``(dim,)`` vector or a unit-stacked
        ``(N, dim)`` tensor (batched campaign execution); every output
        array then carries the same leading axis.  Both shapes run the
        identical sequence of elementwise operations, so a stacked row
        is bit-for-bit the single-vector result.
        """
        vd = volts[..., self.d]
        vg = volts[..., self.g]
        vs = volts[..., self.s]
        vb = volts[..., self.b]
        sign = self.sign

        # Source/drain swap keeps the effective VDS non-negative; the MOS
        # channel is symmetric so this is exact, and it keeps F(x_r) from
        # overflowing for reverse-biased devices.
        swapped = sign * (vd - vs) < 0.0
        ved = np.where(swapped, vs, vd)
        ves = np.where(swapped, vd, vs)

        vgs = sign * (vg - ves)
        vds = sign * (ved - ves)
        vsb = sign * (ves - vb)

        sqrt_term = np.sqrt(self.phi + np.maximum(vsb, self.vsb_floor))
        vth = self.vth0 + self.gamma * (sqrt_term - self.sqrt_phi)
        dvth_dvsb = self.gamma / (2.0 * sqrt_term)

        veff = vgs - vth
        ff, sf = _softlog_sigmoid(veff / self.two_n_ut)
        fr, sr = _softlog_sigmoid((veff - self.n_slope * vds) / self.two_n_ut)

        clm = 1.0 + self.lam * vds
        i0 = self.isat * (ff * ff - fr * fr)
        ids = i0 * clm

        gm = self.isat * (ff * sf - fr * sr) / self.n_ut * clm
        gds_channel = self.isat * fr * sr / self.ut * clm
        gds = gds_channel + i0 * self.lam + self.gmin
        # d ids / d vbs = +gm * dvth/dvsb (raising the bulk toward the
        # source lowers VTH and raises the current).
        gmb = gm * dvth_dvsb

        return MosEval(
            group=self,
            ids=ids,
            gm=gm,
            gds=gds,
            gds_channel=gds_channel,
            gmb=gmb,
            swapped=swapped,
            vgs=vgs,
            vds=vds,
            vsb=vsb,
            veff=veff,
            vth=vth,
        )

    def thermal_noise_psd(self, ev: MosEval) -> np.ndarray:
        """Channel thermal-noise current PSD per device [A^2/Hz]."""
        return self.kt4 * (2.0 / 3.0 * ev.gm + ev.gds_channel)

    def flicker_coefficient(self, ev: MosEval) -> np.ndarray:
        """Drain-current flicker coefficient per device: the PSD is this
        over ``f**af`` [A^2/Hz], the gate-referred Svg times gm^2."""
        return self.kf / (self.cox * self.w * self.l * self.m) * ev.gm**2

    def gate_capacitances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Cgs, Cgd, Cjunction) constant small-signal caps per device.

        A constant 2/3*W*L*Cox intrinsic Cgs plus overlaps; junction caps
        use the drawn diffusion area.  Constant caps are an adequate model
        for audio-band circuits whose bandwidth is set by the explicit
        compensation network.
        """
        p = self._params
        cgso, cgdo = p.model("cgso"), p.model("cgdo")
        cj, ldiff = p.model("cj"), p.model("ldiff")
        cgs = (2.0 / 3.0) * self.w * self.l * self.cox * self.m + cgso * self.w * self.m
        cgd = cgdo * self.w * self.m
        cjun = cj * self.w * ldiff * self.m
        return cgs, cgd, cjun
