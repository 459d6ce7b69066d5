"""Figs. 8/9 + Eqs. 6-8 — buffer input range, output swing, gain droop.

Regenerates: the rail-to-rail input-range sweep of the unity follower
(Eqs. 6/7 govern where each complementary pair drops out), the output
swing against the Eq. 8 bound, and the "signal dependent gain (5 % over
the full range)" the paper lists as the main drawback.
"""

import math

import numpy as np

from repro.analysis.distortion import measure_static_transfer
from repro.circuits.powerbuffer import build_power_buffer
from repro.spice.sweeps import source_value_sweep


def eq6_eq7_pair_limits(tech, i_tail, w_over_l_n, w_over_l_p):
    """Analytic Eqs. 6/7: where the N (bottom) and P (top) pairs die."""
    vdd, vss = tech.vdd_nominal, tech.vss_nominal
    veff_p = math.sqrt(2 * (i_tail / 2) / (tech.pmos.kp * w_over_l_p))
    veff_n = math.sqrt(2 * (i_tail / 2) / (tech.nmos.kp * w_over_l_n))
    # Eq. 6: P pair (with its tail headroom) stops above V_a
    v_a = vdd - veff_p - tech.pmos.vth0 - 0.2
    # Eq. 7: N pair stops below V_b
    v_b = vss + veff_n + tech.nmos.vth0 + 0.2
    return v_a, v_b


def test_fig8_input_range(tech, save_report):
    design = build_power_buffer(tech, feedback="unity", load="none")
    levels = np.linspace(tech.vss_nominal, tech.vdd_nominal, 27)
    ops = source_value_sweep(design.circuit, "vsrc_p", levels, anchor=0.0)
    assert len(ops) == len(levels)
    outs = np.array([op.v("outp") for op in ops])
    slope = np.gradient(outs, levels)
    sz = design.sizes
    v_a, v_b = eq6_eq7_pair_limits(tech, sz.i_ntail,
                                   sz.w_nin / sz.l_nin, sz.w_pin / sz.l_pin)
    lines = ["Fig. 8 / Eqs. 6-7: unity-follower tracking across the rails",
             "", f"Eq. 6 (P pair alive below) V_a = {v_a:+.2f} V",
             f"Eq. 7 (N pair alive above) V_b = {v_b:+.2f} V",
             "overlap => rail-to-rail", "",
             "vin [V]   out [V]    local slope"]
    for v, o, s in zip(levels, outs, slope):
        lines.append(f"{v:+7.2f}  {o:+8.4f}   {s:7.3f}")
    save_report("fig8_input_range", "\n".join(lines))

    # complementary coverage: both pair-limits overlap around ground
    assert v_a > v_b
    # stage alive over >= 85 % of the supply (the single-pair handoff
    # region dips in slope but keeps working)
    mid = float(np.median(slope[np.abs(levels) < 0.4]))
    alive = levels[slope >= 0.5 * mid]
    assert (alive.max() - alive.min()) / tech.supply_total >= 0.85


def test_fig8_output_swing_vs_eq8(tech, save_report):
    design = build_power_buffer(tech, feedback="inverting", load="resistive")
    sz = design.sizes
    beta_p = tech.pmos.kp * sz.w_pout / sz.l_pout
    beta_n = tech.nmos.kp * sz.w_nout / sz.l_nout
    # Eq. 8 at the measured load current ~ 2Vp/50ohm
    i_pk = 2.0 / 50.0
    margin_hi = math.sqrt(i_pk / beta_p)
    margin_lo = math.sqrt(i_pk / beta_n)

    levels = np.linspace(-2.2, 2.2, 23)
    ops = source_value_sweep(design.circuit, "vsrc_p", levels, anchor=0.0)
    outs = np.array([op.v("outp") - op.v("outn") for op in ops])
    lines = ["Eq. 8: output swing bound",
             f"  sqrt(I_P/beta_P) = {margin_hi * 1e3:.0f} mV from vdd",
             f"  sqrt(I_N/beta_N) = {margin_lo * 1e3:.0f} mV from vss",
             f"  measured max diff swing: {outs.max():+.3f} / {outs.min():+.3f} V"]
    save_report("fig8_output_swing", "\n".join(lines))
    # Eq. 8's sqrt(I/beta) is the *saturation* boundary; the driven gate
    # pushes the output device into triode beyond it, so the measured
    # rail margin lands between the triode (Ron) limit and ~450 mV --
    # exactly the paper's 100..300 mV V_omax regime.
    per_side_max = outs.max() / 2.0
    rail_margin = tech.vdd_nominal - per_side_max
    assert 0.1 < rail_margin < 0.45


def test_fig9_signal_dependent_gain(tech, save_report):
    """Sec. 4: 'the signal dependent gain (5 % over the full range)'."""
    design = build_power_buffer(tech, feedback="inverting", load="resistive")
    transfer = measure_static_transfer(
        design.circuit, "vsrc_p", "vsrc_n", "outp", "outn",
        amplitude=1.8, points=37,
    )
    gains = [transfer.gain_at(v) for v in (-0.8, -0.4, 0.0, 0.4, 0.8)]
    droop = (max(gains) - min(gains)) / max(gains)
    lines = ["Fig. 9: incremental gain across the swing (inverting, 50 ohm)",
             ""] + [f"  vin={v:+.1f} V   gain={g:.4f}"
                    for v, g in zip((-0.8, -0.4, 0.0, 0.4, 0.8), gains)]
    lines.append("")
    lines.append(f"gain variation over range: {droop * 100:.2f} % (paper: ~5 %)")
    save_report("fig9_gain_droop", "\n".join(lines))
    assert droop < 0.10
