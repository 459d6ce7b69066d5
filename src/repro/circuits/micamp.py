"""The programmable-gain low-noise microphone amplifier (Figs. 4 and 5).

Architecture, following the paper:

* a fully differential **differential difference amplifier** (DDA, ref [6]):
  two identical PMOS input pairs — pair A takes the microphone signal on
  high-impedance gates, pair B takes the feedback taps — summing into
  common NMOS load devices;
* **PMOS inputs with source-tied wells**: "for a high gain and low noise
  amplifier operating on a noisy substrate, the input transistors
  substrate must be connected to its own source" (Sec. 3.2), which also
  removes the body effect from the input path;
* **resistive common-mode detector** across the outputs and a CM amplifier
  whose output current is "added in the common load devices" (Sec. 2.2,
  ref [3]);
* class-A second stage per side with Miller compensation (no cascodes
  anywhere — 2.6 V supply, 0.7 V thresholds);
* gain programming by two **matched resistor strings** with MOS switches
  in series with pair-B gates: the taps are unloaded (gate current is
  zero), so switch Ron adds only its 4kTRon noise (Eq. 5) and no gain
  error — the closed-loop gain is A_cl = R_total/R_a (10..40 dB in 6 dB
  steps).

Default sizes implement the paper's Sec. 3.2 noise recipe and meet the
Table 1 budget: gm of T1..T4 maximised (thermal), large gate areas
(flicker), load gm a fraction of input gm, small R_a at high gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pga.gain_control import GainControl
from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice import Circuit
from repro.spice.elements import Switch


@dataclass(frozen=True)
class MicAmpSizes:
    """Device geometry of the microphone amplifier (all in metres/amps).

    The defaults follow the Sec. 3.2 sizing walk-through in
    :mod:`repro.pga.design`; they are re-derived there from the noise
    target so tests can check the two agree.
    """

    # input devices T1..T4 (PMOS, wells tied to source).  Long channel:
    # "long channel devices used in the gain stages are the only
    # possibilities of maintaining the performances" (Sec. 1) — here it
    # buys the output resistance that cascodes would normally provide.
    w_input: float = 7200e-6
    l_input: float = 8e-6
    i_pair: float = 0.8e-3          # tail current per input pair

    # common NMOS loads (large area: the N-flicker penalty, Sec. 3.1)
    w_load: float = 1200e-6
    l_load: float = 25e-6

    # tail current sources T5 (PMOS)
    w_tail: float = 2400e-6
    l_tail: float = 2e-6

    # CM amplifier pair ("twice the size and current of the input pair"
    # per *device* would double IQ; half-current tail with double-size
    # devices keeps the 6 dB CM-noise advantage at budget)
    w_cm: float = 1500e-6
    l_cm: float = 5e-6
    i_cm: float = 0.4e-3

    # CMFB diode + mirror into the loads
    w_cm_diode: float = 310e-6
    l_cm_diode: float = 25e-6

    # second stage (class A); long-L load for output resistance (the
    # no-cascode route to loop gain, hence gain accuracy).  The load
    # width is derived in the builder from i_stage2 via the bias mirror
    # ratio.
    w_driver: float = 900e-6
    l_driver: float = 3e-6
    l_stage2_load: float = 4e-6
    i_stage2: float = 0.25e-3

    # bias reference branch
    i_bias: float = 0.1e-3

    # compensation
    c_miller: float = 33e-12
    r_zero: float = 310.0

    # CM detector resistors
    r_cm_detect: float = 100e3

    # gain switch Ron target (sets W/L of the MOS switches, Eq. 5)
    r_switch_on: float = 70.0

    # feed-forward lead capacitor across the feedback string.  The
    # noise-sized input pair presents ~50 pF at the feedback gate; with
    # the string's source resistance that pole would sit inside the loop
    # at the low-gain codes.  A fixed lead cap turns the divider
    # capacitive above ~500 kHz (out of the voice band) and restores the
    # phase margin at every code.
    c_feedforward: float = 24e-12


@dataclass
class MicAmpDesign:
    """Built amplifier: circuit, control and the role->net map."""

    circuit: Circuit
    tech: Technology
    sizes: MicAmpSizes
    gain: GainControl
    gain_code: int
    switch_type: str
    nodes: dict[str, str] = field(default_factory=dict)
    input_devices: tuple[str, ...] = ("t1", "t2", "t3", "t4")
    load_devices: tuple[str, ...] = ("tl_a", "tl_b")

    @property
    def outp(self) -> str:
        return self.nodes["outp"]

    @property
    def outn(self) -> str:
        return self.nodes["outn"]

    def set_gain_code(self, code: int) -> None:
        """Reprogram the gain switches in place (recompile required)."""
        self.gain.validate_code(code)
        states = self.gain.switch_states(code)
        for side in ("a", "b"):
            for k, closed in enumerate(states):
                el = self.circuit.element(f"sw{side}_{k}")
                if isinstance(el, Switch):
                    el.closed = closed
                else:
                    # MOS switch: move the gate between the rails.
                    gate_src = self.circuit.element(f"vsw{side}_{k}")
                    gate_src.dc = 1.3 if closed else -1.3
        self.gain_code = code


def build_mic_amp(
    tech: Technology,
    gain_code: int = 5,
    gain: GainControl | None = None,
    sizes: MicAmpSizes | None = None,
    switch_type: str = "mos",
    mismatch: MismatchSampler | None = None,
    vdd: float | None = None,
    vss: float | None = None,
) -> MicAmpDesign:
    """Build the Figs. 4/5 microphone amplifier at a gain code.

    ``switch_type`` selects MOS-transistor tap switches ("mos", the full
    physics including Eq. 5 noise and charge-free off state) or ideal
    ron/roff switches ("ideal", faster convergence for behavioural runs).
    """
    gc = gain or GainControl()
    gc.validate_code(gain_code)
    sz = sizes or MicAmpSizes()
    sampler = mismatch or MismatchSampler.nominal(tech)
    if switch_type not in ("mos", "ideal"):
        raise ValueError(f"switch_type must be 'mos' or 'ideal', got {switch_type!r}")

    vdd_v = tech.vdd_nominal if vdd is None else vdd
    vss_v = tech.vss_nominal if vss is None else vss

    ckt = Circuit("micamp_fig4")
    ckt.vsource("vdd_src", "vdd", "gnd", dc=vdd_v)
    ckt.vsource("vss_src", "vss", "gnd", dc=vss_v)

    # Microphone input: differential source, 1 V AC differential for
    # gain/noise measurements.
    ckt.vsource("vin_p", "inp", "gnd", dc=0.0, ac=0.5)
    ckt.vsource("vin_n", "inn", "gnd", dc=0.0, ac=0.5, ac_phase=3.141592653589793)

    def mos(name, d, g, s, b, model, w, l):
        sampler.add_mosfet(ckt, name, d, g, s, b, model, w, l)

    # ------------------------------------------------------------------
    # Bias distribution (central generator feeds this cell; modelled as
    # a clean current source — its noise enters common-mode only).
    # ------------------------------------------------------------------
    ckt.isource("ibias", "pbias", "vss", dc=sz.i_bias)
    mos("tb", "pbias", "pbias", "vdd", "vdd", tech.pmos, 300e-6, 2e-6)

    # Tails sized by mirror ratio from the 300u/2u bias diode.
    w_per_amp = 300e-6 * 2e-6 / sz.l_tail  # width for 1:1 at this L
    mos("t5a", "tail_a", "pbias", "vdd", "vdd", tech.pmos,
        w_per_amp * (sz.i_pair / sz.i_bias), sz.l_tail)
    mos("t5b", "tail_b", "pbias", "vdd", "vdd", tech.pmos,
        w_per_amp * (sz.i_pair / sz.i_bias), sz.l_tail)
    mos("t5c", "tail_c", "pbias", "vdd", "vdd", tech.pmos,
        w_per_amp * (sz.i_cm / sz.i_bias), sz.l_tail)

    # ------------------------------------------------------------------
    # Stage 1: two PMOS input pairs into common NMOS loads.
    # Wells tied to the pair's own source node (noise + body effect).
    # ------------------------------------------------------------------
    mos("t1", "x_a", "inp", "tail_a", "tail_a", tech.pmos, sz.w_input, sz.l_input)
    mos("t2", "x_b", "inn", "tail_a", "tail_a", tech.pmos, sz.w_input, sz.l_input)
    mos("t3", "x_b", "fbp", "tail_b", "tail_b", tech.pmos, sz.w_input, sz.l_input)
    mos("t4", "x_a", "fbn", "tail_b", "tail_b", tech.pmos, sz.w_input, sz.l_input)

    mos("tl_a", "x_a", "cmfb", "vss", "vss", tech.nmos, sz.w_load, sz.l_load)
    mos("tl_b", "x_b", "cmfb", "vss", "vss", tech.nmos, sz.w_load, sz.l_load)

    # ------------------------------------------------------------------
    # Common-mode feedback: resistive detector + CM pair into a diode
    # that mirrors into the loads ("added in the common load devices").
    # ------------------------------------------------------------------
    ckt.resistor("rcm_p", "outp", "vcm_sense", sz.r_cm_detect,
                 tc1=tech.poly.tc1, tc2=tech.poly.tc2)
    ckt.resistor("rcm_n", "outn", "vcm_sense", sz.r_cm_detect,
                 tc1=tech.poly.tc1, tc2=tech.poly.tc2)

    mos("tc1", "cmfb", "vcm_sense", "tail_c", "tail_c", tech.pmos, sz.w_cm, sz.l_cm)
    mos("tc2", "dump", "gnd", "tail_c", "tail_c", tech.pmos, sz.w_cm, sz.l_cm)
    mos("tcd", "cmfb", "cmfb", "vss", "vss", tech.nmos, sz.w_cm_diode, sz.l_cm_diode)
    # tc2's current is absorbed by a matched diode so its VDS stays sane.
    mos("tcd2", "dump", "dump", "vss", "vss", tech.nmos, sz.w_cm_diode, sz.l_cm_diode)

    # ------------------------------------------------------------------
    # Stage 2 (class A) per side + Miller compensation.
    # ------------------------------------------------------------------
    # Stage-2 current-source width from the bias-diode mirror ratio
    # (reference diode is 300u/2u at i_bias).
    w_s2 = 300e-6 * (sz.i_stage2 / sz.i_bias) * (sz.l_stage2_load / 2e-6)
    mos("td_a", "outp", "x_a", "vss", "vss", tech.nmos, sz.w_driver, sz.l_driver)
    mos("tp_a", "outp", "pbias", "vdd", "vdd", tech.pmos, w_s2, sz.l_stage2_load)
    mos("td_b", "outn", "x_b", "vss", "vss", tech.nmos, sz.w_driver, sz.l_driver)
    mos("tp_b", "outn", "pbias", "vdd", "vdd", tech.pmos, w_s2, sz.l_stage2_load)

    ckt.capacitor("cc_a", "x_a", "cz_a", sz.c_miller)
    ckt.resistor("rz_a", "cz_a", "outp", sz.r_zero, noisy=True)
    ckt.capacitor("cc_b", "x_b", "cz_b", sz.c_miller)
    ckt.resistor("rz_b", "cz_b", "outn", sz.r_zero, noisy=True)

    # ------------------------------------------------------------------
    # Gain-programming network (Fig. 5): two matched strings + switches.
    # String runs from each output down to analogue ground; the tap for
    # the selected code feeds the pair-B gate through its switch.
    # ------------------------------------------------------------------
    segments = gc.segment_resistances()
    states = gc.switch_states(gain_code)
    n_taps = gc.num_codes

    ckt.capacitor("cff_a", "outp", "fbp", sz.c_feedforward)
    ckt.capacitor("cff_b", "outn", "fbn", sz.c_feedforward)

    for side, out_node, fb_node in (("a", "outp", "fbp"), ("b", "outn", "fbn")):
        # Build from ground up: node chain gnd -> tap0 -> tap1 ... -> out.
        below = "gnd"
        for k, seg in enumerate(segments):
            above = f"tap{side}_{k}" if k < n_taps else out_node
            dr = sampler.resistor_delta(seg, width_um=4.0)
            ckt.resistor(f"rs{side}_{k}", above, below, seg * (1 + dr),
                         tc1=tech.poly.tc1, tc2=tech.poly.tc2)
            below = above
        for k in range(n_taps):
            tap = f"tap{side}_{k}"
            if switch_type == "ideal":
                ckt.switch(f"sw{side}_{k}", tap, fb_node, closed=states[k],
                           ron=sz.r_switch_on, roff=1e12)
            else:
                # NMOS switch, gate rail-driven.  Taps sit near ground so
                # the body effect (bulk at vss) raises VTH substantially —
                # the low-voltage switch problem behind Eq. 5.  Size W/L
                # for the Ron target at the body-degraded V_eff.
                import math as _math

                nm = tech.nmos
                vsb = 0.0 - vss_v
                vth_sw = nm.vth0 + nm.gamma * (
                    _math.sqrt(nm.phi + vsb) - _math.sqrt(nm.phi)
                )
                veff = vdd_v - vth_sw
                if veff <= 0.05:
                    raise ValueError(
                        "supply too low to turn the tap switches on; "
                        f"effective gate drive {veff:.3f} V"
                    )
                w_over_l = 1.0 / (sz.r_switch_on * nm.kp * veff)
                l_sw = tech.l_min
                ckt.mosfet(f"sw{side}_{k}", tap, f"swg{side}_{k}", fb_node, "vss",
                           tech.nmos, w=w_over_l * l_sw, l=l_sw)
                ckt.vsource(f"vsw{side}_{k}", f"swg{side}_{k}", "gnd",
                            dc=vdd_v if states[k] else vss_v)

    # ------------------------------------------------------------------
    # Solver hints.
    # ------------------------------------------------------------------
    for node, volts in {
        "pbias": vdd_v - 0.95,
        "tail_a": 0.93, "tail_b": 0.93, "tail_c": 0.93,
        "x_a": vss_v + 0.9, "x_b": vss_v + 0.9,
        "cmfb": vss_v + 1.05, "dump": vss_v + 1.05,
        "outp": 0.0, "outn": 0.0, "vcm_sense": 0.0,
        "fbp": 0.0, "fbn": 0.0,
    }.items():
        ckt.nodeset(node, volts)

    return MicAmpDesign(
        circuit=ckt,
        tech=tech,
        sizes=sz,
        gain=gc,
        gain_code=gain_code,
        switch_type=switch_type,
        nodes={
            "outp": "outp", "outn": "outn", "inp": "inp", "inn": "inn",
            "fbp": "fbp", "fbn": "fbn", "x_a": "x_a", "x_b": "x_b",
            "cmfb": "cmfb", "vcm_sense": "vcm_sense",
        },
    )
