"""The fully differential bandgap reference of Fig. 3.

Current-mode architecture: two self-biased loops generate a PTAT current
(delta-VBE across the poly resistor R1) and a CTAT current (VBE across
R2); their weighted sum is first-order temperature independent.  The sum
is mirrored both ways to build the paper's *symmetrical* reference —
"the analogue front-end ... operates with a symmetrical reference voltage
of +/-0.6 V around ground level":

    vrefp = +(I_ptat + I_ctat) * R_p     (PMOS mirror sourcing into R_p)
    vrefn = -(I_ptat + I_ctat) * R_n     (NMOS mirror sinking from R_n)

Because both the zero-TC condition and the output voltage are resistor
*ratios*, the poly tempco cancels to first order — the circuit-level
reason the paper can quote < +/-40 ppm/degC from a plain poly process.
MOS mirror geometry is "chosen to minimise the noise energy in the audio
frequency band" (long L, large area, moderate currents), checked by the
Fig. 3 noise bench against the < 200 nV/rtHz claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.constants import thermal_voltage
from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice import Circuit


@dataclass
class BandgapDesign:
    """Built bandgap plus its design values and node roles."""

    circuit: Circuit
    tech: Technology
    i_ptat: float
    r1: float
    r2: float
    r_out: float
    area_ratio: int
    vref_target: float
    nodes: dict[str, str] = field(default_factory=dict)

    @property
    def vrefp(self) -> str:
        return self.nodes["vrefp"]

    @property
    def vrefn(self) -> str:
        return self.nodes["vrefn"]


def ctat_slope(tech: Technology, i_bias: float, temp_c: float = 25.0,
               dt: float = 0.5) -> float:
    """Numerical dVBE/dT of the process PNP at a bias current [V/K]."""
    ut_p = thermal_voltage(temp_c + dt)
    ut_m = thermal_voltage(temp_c - dt)
    vbe_p = ut_p * math.log(i_bias / tech.vpnp.is_at(temp_c + dt))
    vbe_m = ut_m * math.log(i_bias / tech.vpnp.is_at(temp_c - dt))
    return (vbe_p - vbe_m) / (2.0 * dt)


def find_r2_trim(
    tech: Technology,
    t_lo: float = -20.0,
    t_hi: float = 85.0,
    start: float = 1.2,
    iterations: int = 4,
    **build_kwargs,
) -> float:
    """Null the bandgap's residual tempco slope by trimming R2.

    Mirrors what production does with the real part: measure the
    reference at the range ends, adjust the CTAT resistor, repeat.  A
    secant iteration on d(vref)/dT converges in a few steps.  Returns the
    trim factor to pass as ``r2_trim``.
    """
    from repro.spice.sweeps import temperature_sweep
    import numpy as np

    temps = np.array([t_lo, 25.0, t_hi])

    def slope(trim: float) -> float:
        design = build_bandgap(tech, r2_trim=trim, **build_kwargs)
        ops = temperature_sweep(design.circuit, temps)
        vr = np.array([op.v(design.vrefp) - op.v(design.vrefn) for op in ops])
        return float(np.polyfit(temps, vr, 1)[0])

    trim0, trim1 = start, start * 1.05
    s0 = slope(trim0)
    for _ in range(iterations):
        s1 = slope(trim1)
        if abs(s1 - s0) < 1e-12:
            break
        trim2 = trim1 - s1 * (trim1 - trim0) / (s1 - s0)
        trim2 = min(max(trim2, 0.5), 2.0)
        trim0, s0, trim1 = trim1, s1, trim2
        if abs(s0) < 1e-6:  # < 1 uV/K residual slope
            return trim0
    return trim1


def build_bandgap(
    tech: Technology,
    i_ptat: float = 20e-6,
    area_ratio: int = 8,
    vref_target: float = 0.6,
    supply: float | None = None,
    w_pmirror: float = 160e-6,
    l_pmirror: float = 8e-6,
    w_nmos: float = 240e-6,
    l_nmos: float = 4e-6,
    w_nmirror: float = 120e-6,
    l_nmirror: float = 8e-6,
    r2_trim: float = 1.0,
    mismatch: MismatchSampler | None = None,
    temp_c: float = 25.0,
) -> BandgapDesign:
    """Build the Fig. 3 fully differential bandgap.

    ``r2_trim`` scales the CTAT resistor, the knob a production part
    would trim to null the residual tempco slope; the Fig. 3 bench uses
    it to centre the curvature in the -20..85 degC window.

    The split supply is vdd/vss = +/- tech rails; references come out on
    ``vrefp``/``vrefn`` around the analogue ground.
    """
    sampler = mismatch or MismatchSampler.nominal(tech)
    ut = thermal_voltage(temp_c)
    r1 = ut * math.log(area_ratio) / i_ptat

    # Zero-TC weighting.  vref = R_out*(dVBE/R1 + VBE/R2) is a pure
    # resistor-ratio expression, so d(vref)/dT = 0 reduces to
    #   (k/q)*ln(N)/R1 = |dVBE/dT|/R2.
    ptat_current_slope = (ut / (temp_c + 273.15)) * math.log(area_ratio) / r1  # [A/K]
    vbe_slope = ctat_slope(tech, i_ptat, temp_c)                               # [V/K] < 0
    r2 = abs(vbe_slope) / ptat_current_slope * r2_trim
    i_ctat_est = 0.72 / r2
    i_sum = i_ptat + i_ctat_est
    r_out = vref_target / i_sum

    vdd = tech.vdd_nominal if supply is None else supply / 2.0
    vss = tech.vss_nominal if supply is None else -supply / 2.0

    ckt = Circuit("bandgap_fig3")
    ckt.vsource("vdd_src", "vdd", "gnd", dc=vdd)
    ckt.vsource("vss_src", "vss", "gnd", dc=vss)

    def mos(name, d, g, s, model, w, l, m=1):
        bulk = "vdd" if model.polarity == "pmos" else "vss"
        sampler.add_mosfet(ckt, name, d, g, s, bulk, model, w, l, m)

    def pnp(name, e_node, area=1.0):
        d_is = sampler.bjt_is_delta(area)
        ckt.bjt(name, "vss", "vss", e_node,
                replace(tech.vpnp, is_sat=tech.vpnp.is_sat * (1 + d_is)),
                area=area)

    def poly(name, n1, n2, value, width_um=4.0):
        dr = sampler.resistor_delta(value, width_um)
        ckt.resistor(name, n1, n2, value * (1 + dr),
                     tc1=tech.poly.tc1, tc2=tech.poly.tc2)

    # ------------------------------------------------------------------
    # PTAT loop (same cell as the Fig. 2 bias, referenced to vss)
    # ------------------------------------------------------------------
    mos("mp1", "x1", "x1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mp2", "x2", "x1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mn1", "x1", "x2", "e1", tech.nmos, w_nmos, l_nmos)
    mos("mn2", "x2", "x2", "rtop", tech.nmos, w_nmos, l_nmos)
    pnp("q1", "e1", 1.0)
    pnp("q2", "e2", float(area_ratio))
    poly("r1", "rtop", "e2", r1)
    ckt.resistor("rstart1", "vdd", "x2", 3.3e6)

    # ------------------------------------------------------------------
    # CTAT loop: I = VBE/R2 via the same VGS-matched trick
    # ------------------------------------------------------------------
    mos("mp3", "y1", "y1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mp4", "y2", "y1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mn3", "y1", "y2", "e3", tech.nmos, w_nmos, l_nmos)
    mos("mn4", "y2", "y2", "r2top", tech.nmos, w_nmos, l_nmos)
    pnp("q3", "e3", 1.0)
    poly("r2", "r2top", "vss", r2)
    ckt.resistor("rstart2", "vdd", "y2", 3.3e6)

    # ------------------------------------------------------------------
    # Summing mirrors and symmetric outputs
    # ------------------------------------------------------------------
    # Positive reference: PMOS copies of both loop currents into R_p.
    mos("mp5", "vrefp", "x1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mp6", "vrefp", "y1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    poly("rp", "vrefp", "gnd", r_out)

    # Negative reference: sum into an NMOS diode, sink from R_n.
    mos("mp7", "nsum", "x1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mp8", "nsum", "y1", "vdd", tech.pmos, w_pmirror, l_pmirror)
    mos("mn5", "nsum", "nsum", "vss", tech.nmos, w_nmirror, l_nmirror)
    mos("mn6", "vrefn", "nsum", "vss", tech.nmos, w_nmirror, l_nmirror)
    poly("rn", "gnd", "vrefn", r_out)

    # Decoupling (the paper's front-end buffers these nets).
    ckt.capacitor("cp", "vrefp", "gnd", 20e-12)
    ckt.capacitor("cn", "vrefn", "gnd", 20e-12)

    # Nodesets aiming at the operating solution.
    vbe = 0.73
    for node, volts in {
        "e1": vss + vbe, "e2": vss + vbe - ut * math.log(area_ratio),
        "rtop": vss + vbe, "x2": vss + vbe + 1.0, "x1": vdd - 1.0,
        "e3": vss + vbe, "r2top": vss + vbe, "y2": vss + vbe + 1.0,
        "y1": vdd - 1.0, "vrefp": vref_target, "vrefn": -vref_target,
        "nsum": vss + 1.0,
    }.items():
        ckt.nodeset(node, volts)

    return BandgapDesign(
        circuit=ckt,
        tech=tech,
        i_ptat=i_ptat,
        r1=r1,
        r2=r2,
        r_out=r_out,
        area_ratio=area_ratio,
        vref_target=vref_target,
        nodes={"vrefp": "vrefp", "vrefn": "vrefn", "x1": "x1", "y1": "y1"},
    )
