"""The class-AB fully differential "power" driver (Figs. 8 and 9).

Architecture, following the paper's Sec. 4:

* **two complementary differential input stages** (NMOS + PMOS pairs) so
  the input range reaches both rails — Eqs. 6/7 bound where each pair
  drops out, and together they cover rail-to-rail;
* per-side **summing node** fed by mirror copies of both pairs' output
  currents (the "combined P and N channel differential stage" of the
  abstract);
* **class-AB output stage** whose P and N gates are "driven directly from
  the differential stage" through a floating class-AB head; a translinear
  replica loop ("quiescent current control circuitry") sets the output
  quiescent current as a mirror ratio of a reference — the paper's claim
  that total supply-current variation stays ~15 % over temperature,
  process and 2.8..5 V supply rests on this loop;
* **resistive common-mode divider** to the gate of the CM pair, balanced
  against the ``vbal`` input ("the common mode output voltage is very
  close to the input balance voltage connected to the gate of T4");
* one RC compensation network per output.

The open-loop gain into a 50 ohm load is deliberately modest — the paper
itself reports the consequence ("the major drawback ... is the signal
dependent gain (5 % over the full range)"), which the Fig. 8/9 bench
reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice import Circuit


@dataclass(frozen=True)
class PowerBufferSizes:
    """Device geometry and currents of the class-AB driver."""

    # input pairs
    w_nin: float = 200e-6
    l_nin: float = 2e-6
    w_pin: float = 600e-6
    l_pin: float = 2e-6
    i_ntail: float = 200e-6
    i_ptail: float = 200e-6

    # first-stage diodes/mirrors
    w_pmirror: float = 240e-6
    l_pmirror: float = 3e-6
    w_nmirror: float = 80e-6
    l_nmirror: float = 3e-6

    # CM amplifier
    w_cm: float = 200e-6
    l_cm: float = 2e-6
    i_cmtail: float = 100e-6
    r_cm_detect: float = 100e3

    # keep-alive bias into each load diode (Sec. 4's "additional bias
    # current ... if the input stages are turned off").  The bottom
    # (NMOS-diode) side gets an extra i_cmtail/2 so the summing nodes
    # stay balanced when either input pair cuts off near a rail — the
    # top side carries the CM-amplifier injection, the bottom side the
    # enlarged keep-alive, and both total the same head current.
    i_keepalive: float = 30e-6

    # class-AB head + translinear bias
    w_nab: float = 100e-6
    l_nab: float = 1.6e-6
    w_pab: float = 300e-6
    l_pab: float = 1.6e-6
    i_ab_bias: float = 50e-6      # reference current of the bias stacks

    # output devices ("optimized for maximum transconductance")
    w_pout: float = 4000e-6
    l_pout: float = 1.2e-6
    w_nout: float = 1400e-6
    l_nout: float = 1.2e-6
    quiescent_ratio: int = 20     # IQ(out) = ratio * i_ab_bias

    # compensation
    c_miller: float = 47e-12
    r_zero: float = 250.0

    i_bias: float = 50e-6         # master bias current


@dataclass
class PowerBufferDesign:
    """Built driver with role->net map."""

    circuit: Circuit
    tech: Technology
    sizes: PowerBufferSizes
    nodes: dict[str, str] = field(default_factory=dict)

    @property
    def outp(self) -> str:
        return self.nodes["outp"]

    @property
    def outn(self) -> str:
        return self.nodes["outn"]

    @property
    def vip(self) -> str:
        return self.nodes["vip"]

    @property
    def vin(self) -> str:
        return self.nodes["vin"]


def _add_core(
    ckt: Circuit,
    tech: Technology,
    sz: PowerBufferSizes,
    sampler: MismatchSampler,
    vdd_v: float,
    vss_v: float,
) -> None:
    """Stamp the amplifier core between nodes vip/vin and outp/outn."""

    def mos(name, d, g, s, b, model, w, l):
        sampler.add_mosfet(ckt, name, d, g, s, b, model, w, l)

    # ------------------------------------------------------------------
    # Bias rails: master current into NMOS and PMOS diodes.
    # ------------------------------------------------------------------
    ckt.isource("ibias", "vdd", "nbias", dc=sz.i_bias)
    mos("mbn", "nbias", "nbias", "vss", "vss", tech.nmos, 80e-6, 3e-6)
    ckt.isource("ibias_p", "pbias", "vss", dc=sz.i_bias)
    mos("mbp", "pbias", "pbias", "vdd", "vdd", tech.pmos, 240e-6, 3e-6)

    def ntail(name, node, current):
        mos(name, node, "nbias", "vss", "vss", tech.nmos,
            80e-6 * current / sz.i_bias, 3e-6)

    def ptail(name, node, current):
        mos(name, node, "pbias", "vdd", "vdd", tech.pmos,
            240e-6 * current / sz.i_bias, 3e-6)

    # ------------------------------------------------------------------
    # Complementary input pairs (T1/T2 of both flavours).
    # ------------------------------------------------------------------
    ntail("mnt", "ntail", sz.i_ntail)
    mos("mn1", "n1_a", "vip", "ntail", "vss", tech.nmos, sz.w_nin, sz.l_nin)
    mos("mn2", "n1_b", "vin", "ntail", "vss", tech.nmos, sz.w_nin, sz.l_nin)

    ptail("mpt", "ptail", sz.i_ptail)
    mos("mp1", "p1_a", "vip", "ptail", "vdd", tech.pmos, sz.w_pin, sz.l_pin)
    mos("mp2", "p1_b", "vin", "ptail", "vdd", tech.pmos, sz.w_pin, sz.l_pin)

    # Load diodes ("common load devices": CM injection lands here too).
    mos("mpl_a", "n1_a", "n1_a", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mpl_b", "n1_b", "n1_b", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mnl_a", "p1_a", "p1_a", "vss", "vss", tech.nmos, sz.w_nmirror, sz.l_nmirror)
    mos("mnl_b", "p1_b", "p1_b", "vss", "vss", tech.nmos, sz.w_nmirror, sz.l_nmirror)

    # "Additional bias current is added to the load devices to avoid an
    # unbalanced condition if the input stages are turned off" (Sec. 4):
    # near either rail one complementary pair cuts off; these keep-alive
    # currents hold the mirrors and the class-AB head biased so the
    # follower keeps tracking — the rail-to-rail input-range mechanism.
    ntail("nkeep_a", "n1_a", sz.i_keepalive)
    ntail("nkeep_b", "n1_b", sz.i_keepalive)
    keep_p = sz.i_keepalive + sz.i_cmtail / 2.0
    ptail("pkeep_a", "p1_a", keep_p)
    ptail("pkeep_b", "p1_b", keep_p)

    # ------------------------------------------------------------------
    # Common-mode amplifier (T3/T4) + symmetric injection mirror.
    # ------------------------------------------------------------------
    ckt.resistor("rcm_p", "outp", "vcm_sense", sz.r_cm_detect)
    ckt.resistor("rcm_n", "outn", "vcm_sense", sz.r_cm_detect)
    ntail("mct", "cmtail", sz.i_cmtail)
    mos("mc1", "cmd", "vcm_sense", "cmtail", "vss", tech.nmos, sz.w_cm, sz.l_cm)
    mos("mc2", "cmdump", "vbal", "cmtail", "vss", tech.nmos, sz.w_cm, sz.l_cm)
    mos("mpcd", "cmd", "cmd", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mpcd2", "cmdump", "cmdump", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    # Equal copies of the CM correction into both summing nodes.
    mos("mpcm_a", "s_a", "cmd", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mpcm_b", "s_b", "cmd", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)

    # ------------------------------------------------------------------
    # Per-side signal mirrors into the summing nodes (cross-connected
    # drains give negative feedback polarity in closed loop).
    # ------------------------------------------------------------------
    mos("mpm_a", "s_a", "n1_b", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mpm_b", "s_b", "n1_a", "vdd", "vdd", tech.pmos, sz.w_pmirror, sz.l_pmirror)
    mos("mnm_a", "gn_a", "p1_b", "vss", "vss", tech.nmos, sz.w_nmirror, sz.l_nmirror)
    mos("mnm_b", "gn_b", "p1_a", "vss", "vss", tech.nmos, sz.w_nmirror, sz.l_nmirror)

    # ------------------------------------------------------------------
    # Translinear class-AB bias stacks (shared by both sides).
    # The floating head carries the full summing-node current (half the
    # N tail plus the CM injection), split between its two devices; the
    # stack diodes MNd1/MPd1 are scaled so the loop equation
    #   Vgs(ab device @ I_head/2) + Vgs(output @ IQ) = Vgs(d1) + Vgs(d2)
    # sets IQ = quiescent_ratio * i_ab_bias.
    # ------------------------------------------------------------------
    ratio = float(sz.quiescent_ratio)
    i_head = sz.i_ntail / 2.0 + sz.i_cmtail / 2.0 + sz.i_keepalive
    d1_scale = sz.i_ab_bias / (i_head / 2.0)
    ptail("iabn", "biasn", sz.i_ab_bias)
    mos("mnd1", "biasn", "biasn", "midn", "vss", tech.nmos,
        sz.w_nab * d1_scale, sz.l_nab)
    mos("mnd2", "midn", "midn", "vss", "vss", tech.nmos, sz.w_nout / ratio, sz.l_nout)
    ntail("iabp", "biasp", sz.i_ab_bias)
    mos("mpd1", "biasp", "biasp", "midp", "vdd", tech.pmos,
        sz.w_pab * d1_scale, sz.l_pab)
    mos("mpd2", "midp", "midp", "vdd", "vdd", tech.pmos, sz.w_pout / ratio, sz.l_pout)

    # ------------------------------------------------------------------
    # Per-side: AB head, output devices, compensation.
    # ------------------------------------------------------------------
    for side, out in (("a", "outp"), ("b", "outn")):
        gp, gn, s = f"gp_{side}", f"gn_{side}", f"s_{side}"
        # The summing node is the PMOS gate; the AB head hangs gn below it.
        ckt.resistor(f"rsg_{side}", s, gp, 1.0, noisy=False)  # net tie
        mos(f"mnab_{side}", gp, "biasn", gn, "vss", tech.nmos, sz.w_nab, sz.l_nab)
        mos(f"mpab_{side}", gn, "biasp", gp, "vdd", tech.pmos, sz.w_pab, sz.l_pab)
        mos(f"mpo_{side}", out, gp, "vdd", "vdd", tech.pmos, sz.w_pout, sz.l_pout)
        mos(f"mno_{side}", out, gn, "vss", "vss", tech.nmos, sz.w_nout, sz.l_nout)
        ckt.capacitor(f"cc_{side}", gn, f"cz_{side}", sz.c_miller)
        ckt.resistor(f"rz_{side}", f"cz_{side}", out, sz.r_zero, noisy=True)

    # Solver hints.
    for node, volts in {
        "nbias": vss_v + 0.85, "pbias": vdd_v - 0.95,
        "ntail": -0.95, "ptail": 0.95,
        "n1_a": vdd_v - 0.95, "n1_b": vdd_v - 0.95,
        "p1_a": vss_v + 0.85, "p1_b": vss_v + 0.85,
        "cmd": vdd_v - 0.95, "cmdump": vdd_v - 0.95,
        "cmtail": -0.95, "vcm_sense": 0.0,
        "biasn": vss_v + 1.75, "midn": vss_v + 0.85,
        "biasp": vdd_v - 1.9, "midp": vdd_v - 0.95,
        "s_a": vdd_v - 0.9, "s_b": vdd_v - 0.9,
        "gp_a": vdd_v - 0.9, "gp_b": vdd_v - 0.9,
        "gn_a": vss_v + 0.85, "gn_b": vss_v + 0.85,
        "outp": 0.0, "outn": 0.0,
    }.items():
        ckt.nodeset(node, volts)


def build_power_buffer(
    tech: Technology,
    sizes: PowerBufferSizes | None = None,
    load: str = "resistive",
    r_load: float = 50.0,
    c_load: float = 100e-9,
    vbal: float = 0.0,
    mismatch: MismatchSampler | None = None,
    vdd: float | None = None,
    vss: float | None = None,
    feedback: str = "unity",
    r_in: float = 20e3,
    r_fb: float = 20e3,
) -> PowerBufferDesign:
    """Build the Fig. 8 driver, optionally in the Fig. 9 closed loop.

    ``feedback``:

    * ``"unity"`` — outputs tied back to the inputs (differential unity
      buffer, the configuration of the input-range discussion);
    * ``"inverting"`` — Fig. 9: external R_in/R_fb network, gain
      -R_fb/R_in, driven from ``src_p``/``src_n`` sources;
    * ``"open"`` — raw amplifier, inputs driven directly.

    ``load``: "resistive" (50 ohm differential), "capacitive" (100 nF
    differential), "both", or "none".
    """
    sz = sizes or PowerBufferSizes()
    sampler = mismatch or MismatchSampler.nominal(tech)
    vdd_v = tech.vdd_nominal if vdd is None else vdd
    vss_v = tech.vss_nominal if vss is None else vss

    ckt = Circuit("powerbuffer_fig8")
    ckt.vsource("vdd_src", "vdd", "gnd", dc=vdd_v)
    ckt.vsource("vss_src", "vss", "gnd", dc=vss_v)
    ckt.vsource("vbal_src", "vbal", "gnd", dc=vbal)

    _add_core(ckt, tech, sz, sampler, vdd_v, vss_v)

    if feedback == "unity":
        # Differential follower: outp is fed back to the inverting input,
        # so outp tracks the source and outn mirrors it through the CM
        # loop — the configuration of the paper's input-range discussion.
        ckt.vsource("vsrc_p", "srcp", "gnd", dc=0.0, ac=1.0)
        ckt.resistor("rtie_p", "srcp", "vip", 1.0, noisy=False)
        ckt.resistor("rfb_p", "outp", "vin", 1.0, noisy=False)
    elif feedback == "inverting":
        ckt.vsource("vsrc_p", "srcp", "gnd", dc=0.0, ac=0.5)
        ckt.vsource("vsrc_n", "srcn", "gnd", dc=0.0, ac=0.5,
                    ac_phase=math.pi)
        ckt.resistor("rin_p", "srcp", "vin", r_in, tc1=tech.poly.tc1)
        ckt.resistor("rin_n", "srcn", "vip", r_in, tc1=tech.poly.tc1)
        ckt.resistor("rfb_p", "outp", "vin", r_fb, tc1=tech.poly.tc1)
        ckt.resistor("rfb_n", "outn", "vip", r_fb, tc1=tech.poly.tc1)
    elif feedback == "open":
        ckt.vsource("vsrc_p", "vip", "gnd", dc=0.0, ac=0.5)
        ckt.vsource("vsrc_n", "vin", "gnd", dc=0.0, ac=0.5,
                    ac_phase=math.pi)
    else:
        raise ValueError(f"unknown feedback mode {feedback!r}")

    if load in ("resistive", "both"):
        ckt.resistor("rload", "outp", "outn", r_load, noisy=False)
    if load in ("capacitive", "both"):
        ckt.capacitor("cload", "outp", "outn", c_load)
    elif load not in ("resistive", "both", "none"):
        raise ValueError(f"unknown load {load!r}")

    return PowerBufferDesign(
        circuit=ckt,
        tech=tech,
        sizes=sz,
        nodes={
            "outp": "outp", "outn": "outn", "vip": "vip", "vin": "vin",
            "vbal": "vbal", "s_a": "s_a", "s_b": "s_b",
            "gn_a": "gn_a", "gp_a": "gp_a",
        },
    )
