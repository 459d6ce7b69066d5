"""Ablation — the Sec. 2 "no cascodes at 2.6 V" argument.

Compares the simple and cascode NMOS mirrors on compliance voltage (both
definitions) and output resistance, quantifying the trade the paper had
to make and the long-channel substitute it used instead.
"""

import numpy as np

from repro.circuits.library import (
    build_cascode_mirror_cell,
    build_simple_mirror_cell,
    mirror_compliance_voltage,
    mirror_saturation_compliance,
)
from repro.spice.sweeps import dc_sweep


def output_resistance(cell, v_lo=2.0, v_hi=2.4):
    data = dc_sweep(cell.circuit, "vo", np.array([v_lo, v_hi]), ["i(vo)"])
    di = abs(data["i(vo)"][1] - data["i(vo)"][0])
    return (v_hi - v_lo) / max(di, 1e-15)


def test_cascode_ablation(tech, save_report):
    simple = build_simple_mirror_cell(tech)
    cascode = build_cascode_mirror_cell(tech)

    def measure_all():
        out = []
        for name, cell in (("simple", simple), ("cascode", cascode)):
            out.append((
                name,
                mirror_saturation_compliance(cell),
                mirror_compliance_voltage(cell),
                output_resistance(cell),
            ))
        return out

    rows = measure_all()
    lines = ["Sec. 2 ablation: simple vs cascode NMOS mirror (50 uA, L=5 um)",
             "",
             "mirror    sat-compliance [V]   95%-current [V]   R_out [Mohm]"]
    for name, sat, cur, ro in rows:
        lines.append(f"{name:<9s} {sat:10.2f}          {cur:10.2f}       "
                     f"{ro / 1e6:8.1f}")
    lines += [
        "",
        "The cascode buys two orders of magnitude of R_out but its",
        f"saturation compliance ({rows[1][1]:.2f} V) exceeds half the "
        f"+/-1.3 V rail —",
        "the quantitative reason the paper's gain stages use long-channel",
        "devices instead of cascodes.",
    ]
    save_report("ablation_cascode", "\n".join(lines))

    assert rows[1][1] > rows[0][1] + 0.5       # headroom cost
    assert rows[1][3] > 10.0 * rows[0][3]      # what it would have bought
    assert rows[1][1] > 0.5 * tech.vdd_nominal
    assert 0.05 < mirror_saturation_compliance(simple, points=21) < 0.6


def test_long_channel_substitute(tech, save_report):
    """The paper's alternative: long-L devices recover output resistance
    without the compliance penalty."""
    def measure_all():
        out = []
        for length in (1.2e-6, 5e-6, 20e-6):
            cell = build_simple_mirror_cell(tech, w=12e-6 * length / 1.2e-6,
                                            l=length)
            out.append((length, mirror_saturation_compliance(cell),
                        output_resistance(cell)))
        return out

    rows = measure_all()
    lines = ["Long-channel substitute: simple mirror R_out vs L (same W/L)",
             "", "L [um]    compliance [V]    R_out [Mohm]"]
    for length, comp, ro in rows:
        lines.append(f"{length * 1e6:5.1f}     {comp:8.2f}        {ro / 1e6:9.2f}")
    save_report("ablation_long_channel", "\n".join(lines))
    # R_out rises ~linearly with L at constant compliance
    assert rows[2][2] > 5.0 * rows[0][2]
    assert abs(rows[2][1] - rows[0][1]) < 0.25
