"""The simple bias circuit of Fig. 2 and its Eq. 1 minimum-supply model.

Topology (classic VGS-matched delta-VBE loop, drawn exactly as the paper
describes it: "compatible-vertical-bipolar transistors ... a polysilicon
resistor ... simple low voltage current mirrors in the collectors"):

    vdd ──┬───────────┬──────────────┬────
          MP1 (diode)  MP2            MPO   <- "low-voltage" mirrors
          │            │              │
          x1           x2             iout
          │            │
          MN1 (diode)  MN2 (gate=x1g)
          │            │
          e1           r_top
          │            R1 (poly)
          Q1 1x        e2
          │            Q2 (area N)
    vss ──┴────────────┴──────────── substrate collectors

VGS(MN1)+VEB(Q1) = VGS(MN2)+I*R1+VEB(Q2)  =>  I = UT*ln(N)/R1 (PTAT),
with the poly resistor's positive tempco deliberately flattening the pure
PTAT slope ("Pure PTAT behaviour ... is minimized by using a polysilicon
resistor").  A resistor start-up leg keeps the zero-current state out.

The minimum supply of the reference branch is the paper's Eq. 1:

    V_smin >= V_thmax(T) + V_bemax(T) + 2*sqrt(2*Ib / (mu*Cox*W/L))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.constants import thermal_voltage
from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice import Circuit


@dataclass
class BiasDesign:
    """Built bias circuit plus its design knobs and named nodes."""

    circuit: Circuit
    tech: Technology
    i_nominal: float              # target PTAT current [A]
    r1: float                     # poly resistor [ohm]
    area_ratio: int               # Q2:Q1 emitter area ratio
    w_mirror: float
    l_mirror: float
    w_nmos: float
    l_nmos: float
    nodes: dict[str, str] = field(default_factory=dict)

    @property
    def out_node(self) -> str:
        return self.nodes["iout"]

    @property
    def supply_source(self) -> str:
        return "vsup"


def build_bias_circuit(
    tech: Technology,
    i_nominal: float = 20e-6,
    area_ratio: int = 8,
    supply: float | None = None,
    w_mirror: float = 120e-6,
    l_mirror: float = 6e-6,
    w_nmos: float = 200e-6,
    l_nmos: float = 4e-6,
    r_load: float = 10e3,
    mismatch: MismatchSampler | None = None,
    temp_c: float = 25.0,
) -> BiasDesign:
    """Build the Fig. 2 bias generator.

    ``supply`` is the single-rail total supply (the bias cell is drawn
    rail-to-rail; the split-supply front-end derives it from vdd-vss).
    The output branch mirrors the PTAT current into ``r_load`` so supply
    sweeps can watch the current collapse (the Eq. 1 experiment).

    Large W/L for MN1/MN2 and small current implement the paper's "the
    current I_b must be small and the (W/L) ratio of the MOS transistors
    large" low-voltage recipe.
    """
    sampler = mismatch or MismatchSampler.nominal(tech)
    ut = thermal_voltage(temp_c)
    r1 = ut * math.log(area_ratio) / i_nominal
    vsup = supply if supply is not None else tech.supply_total

    ckt = Circuit("bias_fig2")
    ckt.vsource("vsup", "vdd", "gnd", dc=vsup)

    def mos(name, d, g, s, model, w, l):
        bulk = "vdd" if model.polarity == "pmos" else "gnd"
        sampler.add_mosfet(ckt, name, d, g, s, bulk, model, w, l)

    # PMOS mirror rail (MP1 diode on branch 1).
    mos("mp1", "x1", "x1", "vdd", tech.pmos, w_mirror, l_mirror)
    mos("mp2", "x2", "x1", "vdd", tech.pmos, w_mirror, l_mirror)
    mos("mpo", "iout", "x1", "vdd", tech.pmos, w_mirror, l_mirror)

    # NMOS VGS-matched pair.
    mos("mn1", "x1", "x2", "e1", tech.nmos, w_nmos, l_nmos)
    mos("mn2", "x2", "x2", "rtop", tech.nmos, w_nmos, l_nmos)

    # Vertical PNPs (collector = substrate = gnd rail of this cell).
    from dataclasses import replace as _replace

    q_model = tech.vpnp
    d_is1 = sampler.bjt_is_delta(1.0)
    d_is2 = sampler.bjt_is_delta(float(area_ratio))
    ckt.bjt("q1", "gnd", "gnd", "e1", _replace(q_model, is_sat=q_model.is_sat * (1 + d_is1)))
    ckt.bjt(
        "q2", "gnd", "gnd", "e2",
        _replace(q_model, is_sat=q_model.is_sat * (1 + d_is2)),
        area=float(area_ratio),
    )

    # Poly resistor between the matched branch and the big PNP.
    dr = sampler.resistor_delta(r1)
    ckt.resistor("r1", "rtop", "e2", r1 * (1 + dr),
                 tc1=tech.poly.tc1, tc2=tech.poly.tc2)

    # Start-up leg: weak resistor into the NMOS gate rail.
    ckt.resistor("rstart", "vdd", "x2", 2.2e6, noisy=True)

    # Output branch load (observing resistor).
    ckt.resistor("rload", "iout", "gnd", r_load, noisy=False)

    # Nodesets: the loop has a stable zero state; aim Newton at the
    # operating one.
    vbe = 0.75
    ckt.nodeset("e1", vbe)
    ckt.nodeset("e2", vbe - ut * math.log(area_ratio))
    ckt.nodeset("rtop", vbe)
    ckt.nodeset("x2", vbe + 1.0)
    ckt.nodeset("x1", vbe + 1.0)
    ckt.nodeset("iout", i_nominal * r_load)

    design = BiasDesign(
        circuit=ckt,
        tech=tech,
        i_nominal=i_nominal,
        r1=r1,
        area_ratio=area_ratio,
        w_mirror=w_mirror,
        l_mirror=l_mirror,
        w_nmos=w_nmos,
        l_nmos=l_nmos,
        nodes={"iout": "iout", "x1": "x1", "x2": "x2", "e1": "e1", "e2": "e2"},
    )
    return design


def eq1_min_supply(
    tech: Technology,
    i_bias: float,
    w_over_l: float,
    temp_c: float,
    area_ratio: int = 8,
    vbe_bias_current: float | None = None,
) -> float:
    """The paper's Eq. 1 minimum supply voltage [V].

        V_smin >= V_thmax(T) + V_bemax(T) + 2*sqrt(2*I_b/(mu*Cox*(W/L)))

    V_bemax is evaluated at the *lowest* temperature of the range (the
    paper: "the maximum V_be voltage depends on the transistor current
    I_b and the lowest temperature required, which is also the most
    critical parameter").  Here we evaluate all terms at ``temp_c`` so
    sweeping it reproduces that claim.
    """
    nmos = tech.nmos
    vth = nmos.vth_at(temp_c)
    kp = nmos.kp_at(temp_c)
    # VBE from the vertical-PNP model at the branch current.
    i_be = vbe_bias_current if vbe_bias_current is not None else i_bias
    is_t = tech.vpnp.is_at(temp_c)
    ut = thermal_voltage(temp_c)
    vbe = ut * math.log(max(i_be / is_t, 1.0))
    vdsat_term = 2.0 * math.sqrt(2.0 * i_bias / (kp * w_over_l))
    return vth + vbe + vdsat_term
