"""The modulator's fully differential opamp (Sec. 2.2).

The paper's design-consideration list describes one more amplifier we
have not yet built: the opamp inside the sigma-delta modulator —

* "A class A output stage is used in the opamp for the modulator because
  of the low supply voltage and to keep the linearity of the converter;
  because of which the quiescent supply current for the modulators opamp
  is about 150 uA."
* fully differential, long-channel loads, no cascodes, resistive
  common-mode detector, "low voltage" current sources.

This is a scaled-down sibling of the microphone amplifier's core: one
PMOS input pair (no DDA — the modulator uses switched-capacitor feedback
around it), common NMOS loads with the CM amplifier summed in, and a
class-A second stage per side with Miller compensation.  It is the
natural building block for a future switched-capacitor extension and is
characterised in its own right (gain, GBW, phase margin, IQ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice import Circuit


@dataclass(frozen=True)
class ModulatorOpampSizes:
    """Geometry/currents; defaults hit the paper's ~150 uA I_Q."""

    w_input: float = 240e-6
    l_input: float = 6e-6
    i_pair: float = 60e-6

    w_load: float = 60e-6
    l_load: float = 12e-6

    w_tail: float = 120e-6
    l_tail: float = 2e-6

    w_cm: float = 120e-6
    l_cm: float = 6e-6
    i_cm: float = 20e-6

    w_cm_diode: float = 20e-6
    l_cm_diode: float = 12e-6

    w_driver: float = 120e-6
    l_driver: float = 3e-6
    l_stage2_load: float = 4e-6
    i_stage2: float = 25e-6

    i_bias: float = 10e-6
    c_miller: float = 3.3e-12
    r_zero: float = 2.4e3
    r_cm_detect: float = 400e3
    c_load: float = 2e-12           # integrating-cap-scale load per side


@dataclass
class ModulatorOpampDesign:
    """Built opamp with role->net map."""

    circuit: Circuit
    tech: Technology
    sizes: ModulatorOpampSizes
    nodes: dict[str, str] = field(default_factory=dict)

    @property
    def outp(self) -> str:
        return self.nodes["outp"]

    @property
    def outn(self) -> str:
        return self.nodes["outn"]


def build_modulator_opamp(
    tech: Technology,
    sizes: ModulatorOpampSizes | None = None,
    mismatch: MismatchSampler | None = None,
    vdd: float | None = None,
    vss: float | None = None,
    open_loop: bool = True,
) -> ModulatorOpampDesign:
    """Build the Sec. 2.2 modulator opamp.

    ``open_loop=True`` drives the input pair directly from the
    differential source (for gain/GBW/phase-margin characterisation);
    ``False`` closes resistive unity feedback for step/settling tests.
    """
    sz = sizes or ModulatorOpampSizes()
    sampler = mismatch or MismatchSampler.nominal(tech)
    vdd_v = tech.vdd_nominal if vdd is None else vdd
    vss_v = tech.vss_nominal if vss is None else vss

    ckt = Circuit("modulator_opamp")
    ckt.vsource("vdd_src", "vdd", "gnd", dc=vdd_v)
    ckt.vsource("vss_src", "vss", "gnd", dc=vss_v)
    ckt.vsource("vin_p", "src_p", "gnd", dc=0.0, ac=0.5)
    ckt.vsource("vin_n", "src_n", "gnd", dc=0.0, ac=0.5,
                ac_phase=3.141592653589793)

    def mos(name, d, g, s, b, model, w, l):
        sampler.add_mosfet(ckt, name, d, g, s, b, model, w, l)

    if open_loop:
        ckt.resistor("rtie_p", "src_p", "inp", 1.0, noisy=False)
        ckt.resistor("rtie_n", "src_n", "inn", 1.0, noisy=False)
    else:
        # Unity resistive feedback (for settling tests): in -> R -> gate,
        # out -> R -> gate, cross-connected for negative feedback.
        for side, src, out in (("p", "src_p", "outn"), ("n", "src_n", "outp")):
            ckt.resistor(f"rin_{side}", src, f"in{side}", 100e3)
            ckt.resistor(f"rfb_{side}", out, f"in{side}", 100e3)

    # Bias branch.
    ckt.isource("ibias", "pbias", "vss", dc=sz.i_bias)
    mos("tb", "pbias", "pbias", "vdd", "vdd", tech.pmos, 30e-6, 2e-6)
    w_per = 30e-6 * 2e-6 / sz.l_tail

    mos("t5", "tail", "pbias", "vdd", "vdd", tech.pmos,
        w_per * (sz.i_pair / sz.i_bias), sz.l_tail)
    mos("t5c", "tail_c", "pbias", "vdd", "vdd", tech.pmos,
        w_per * (sz.i_cm / sz.i_bias), sz.l_tail)

    # Input pair, wells on source (same noise rule as the mic amp).
    mos("t1", "x_a", "inp", "tail", "tail", tech.pmos, sz.w_input, sz.l_input)
    mos("t2", "x_b", "inn", "tail", "tail", tech.pmos, sz.w_input, sz.l_input)

    # Common loads, gates on the CMFB rail.
    mos("tl_a", "x_a", "cmfb", "vss", "vss", tech.nmos, sz.w_load, sz.l_load)
    mos("tl_b", "x_b", "cmfb", "vss", "vss", tech.nmos, sz.w_load, sz.l_load)

    # Resistive CM detector + CM pair into the load-gate diode.
    ckt.resistor("rcm_p", "outp", "vcm_sense", sz.r_cm_detect)
    ckt.resistor("rcm_n", "outn", "vcm_sense", sz.r_cm_detect)
    mos("tc1", "cmfb", "vcm_sense", "tail_c", "tail_c", tech.pmos,
        sz.w_cm, sz.l_cm)
    mos("tc2", "dump", "gnd", "tail_c", "tail_c", tech.pmos, sz.w_cm, sz.l_cm)
    mos("tcd", "cmfb", "cmfb", "vss", "vss", tech.nmos,
        sz.w_cm_diode, sz.l_cm_diode)
    mos("tcd2", "dump", "dump", "vss", "vss", tech.nmos,
        sz.w_cm_diode, sz.l_cm_diode)

    # Class-A second stage per side ("class A ... to keep the linearity").
    w_s2 = 30e-6 * (sz.i_stage2 / sz.i_bias) * (sz.l_stage2_load / 2e-6)
    mos("td_a", "outp", "x_a", "vss", "vss", tech.nmos, sz.w_driver, sz.l_driver)
    mos("tp_a", "outp", "pbias", "vdd", "vdd", tech.pmos, w_s2, sz.l_stage2_load)
    mos("td_b", "outn", "x_b", "vss", "vss", tech.nmos, sz.w_driver, sz.l_driver)
    mos("tp_b", "outn", "pbias", "vdd", "vdd", tech.pmos, w_s2, sz.l_stage2_load)

    ckt.capacitor("cc_a", "x_a", "cz_a", sz.c_miller)
    ckt.resistor("rz_a", "cz_a", "outp", sz.r_zero)
    ckt.capacitor("cc_b", "x_b", "cz_b", sz.c_miller)
    ckt.resistor("rz_b", "cz_b", "outn", sz.r_zero)

    ckt.capacitor("cl_a", "outp", "gnd", sz.c_load)
    ckt.capacitor("cl_b", "outn", "gnd", sz.c_load)

    for node, volts in {
        "pbias": vdd_v - 0.95, "tail": 0.93, "tail_c": 0.93,
        "x_a": vss_v + 0.9, "x_b": vss_v + 0.9,
        "cmfb": vss_v + 1.05, "dump": vss_v + 1.05,
        "outp": 0.0, "outn": 0.0, "vcm_sense": 0.0,
        "inp": 0.0, "inn": 0.0,
    }.items():
        ckt.nodeset(node, volts)

    return ModulatorOpampDesign(
        circuit=ckt,
        tech=tech,
        sizes=sz,
        nodes={"outp": "outp", "outn": "outn", "inp": "inp", "inn": "inn"},
    )


def characterize_modulator_opamp(tech: Technology) -> dict[str, float]:
    """Gain/GBW/phase margin/IQ of the modulator opamp."""
    import numpy as np

    from repro.spice.ac import ac_analysis, loop_gain_margins
    from repro.spice.analysis import log_freqs
    from repro.spice.dc import dc_operating_point

    design = build_modulator_opamp(tech, open_loop=True)
    op = dc_operating_point(design.circuit)
    freqs = log_freqs(10.0, 300e6, 12)
    ac = ac_analysis(op, freqs)
    h = ac.vdiff(design.outp, design.outn)
    margins = loop_gain_margins(freqs, h)  # open-loop == unity-feedback loop
    return {
        "iq_ua": abs(op.i("vdd_src")) * 1e6,
        "dc_gain_db": 20.0 * float(np.log10(abs(h[0]))),
        "gbw_hz": margins["f_unity"],
        "phase_margin_deg": margins["phase_margin_deg"],
    }
