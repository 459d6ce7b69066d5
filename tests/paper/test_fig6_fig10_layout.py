"""Figs. 6 and 10 — layout area and matching.

Regenerates the area breakdown of the microphone amplifier (paper:
1.1 mm^2, dominated by the noise-sized input devices) and the power
buffer, plus the common-centroid matching numbers behind the offset and
gain-accuracy budget.
"""

import numpy as np

from repro.circuits.micamp import build_mic_amp
from repro.circuits.powerbuffer import build_power_buffer
from repro.layout.area import estimate_area_mm2
from repro.layout.common_centroid import (
    Placement,
    common_centroid_pattern,
    worst_gradient_imbalance,
)
from repro.layout.matching import (
    dynamic_range_loss_db,
    placement_sigma_vt,
    worst_case_offset,
)


def test_fig6_mic_amp_area(tech, save_report):
    design = build_mic_amp(tech, gain_code=5)
    bd = estimate_area_mm2(design.circuit, tech)
    inputs = sum(bd.per_device[t] for t in ("t1", "t2", "t3", "t4"))
    loads = sum(bd.per_device[t] for t in ("tl_a", "tl_b"))
    caps = bd.capacitors
    lines = ["Fig. 6: microphone amplifier layout area model", "",
             bd.format(), "",
             f"  input quad T1..T4: {inputs / 1e3:7.0f}k um^2",
             f"  load devices:      {loads / 1e3:7.0f}k um^2",
             f"  capacitors:        {caps / 1e3:7.0f}k um^2",
             f"  resistor strings:  {bd.resistors / 1e3:7.0f}k um^2", "",
             f"total: {bd.total_mm2:.2f} mm^2 (paper: 1.1 mm^2)"]
    save_report("fig6_micamp_layout", "\n".join(lines))
    assert 0.5 < bd.total_mm2 < 2.0
    # the paper's story: noise sizing dominates the floorplan
    assert inputs > 0.3 * bd.raw_um2


def test_fig10_buffer_area(tech, save_report):
    design = build_power_buffer(tech, feedback="open", load="none")
    bd = estimate_area_mm2(design.circuit, tech)
    outputs = sum(bd.per_device[f"m{p}o_{s}"] for p in "pn" for s in "ab")
    lines = ["Fig. 10: power buffer layout area model", "", bd.format(), "",
             f"  output devices: {outputs / 1e3:7.0f}k um^2 "
             f"({outputs / bd.raw_um2 * 100:.0f} % of raw device area)"]
    save_report("fig10_buffer_layout", "\n".join(lines))
    assert 0.05 < bd.total_mm2 < 1.0
    assert outputs > 0.2 * bd.mosfets


def test_fig6_matching_budget(tech, save_report):
    """Common-centroid input quad vs a naive layout: offset and the
    dynamic-range cost at 40 dB (the introduction's argument)."""
    quad = common_centroid_pattern(2, 4)
    naive = Placement(np.array([[0, 0, 1, 1]]), 2)
    rows = []
    for name, placement in (("common-centroid", quad), ("naive A A B B", naive)):
        res = placement_sigma_vt(tech, placement, 7200e-6, 8e-6)
        offset_out = worst_case_offset(res["combined_v"], 40.0)
        rows.append((name, res, offset_out,
                     dynamic_range_loss_db(offset_out)))
    lines = ["Fig. 6 companion: input-quad matching vs placement", "",
             "placement         sigma_rand    gradient     3-sigma offset"
             "@40dB   DR loss"]
    for name, res, off, loss in rows:
        lines.append(
            f"{name:<16s}  {res['sigma_random_v'] * 1e6:7.1f} uV  "
            f"{res['gradient_worst_v'] * 1e6:9.1f} uV   {off * 1e3:9.2f} mV"
            f"      {loss:6.3f} dB"
        )
    lines.append("")
    lines.append(f"quad gradient imbalance: "
                 f"{worst_gradient_imbalance(quad):.2e} pitches (exact zero)")
    save_report("fig6_matching", "\n".join(lines))
    assert rows[0][3] < 0.5          # common centroid: negligible DR loss
    assert rows[1][3] > rows[0][3]   # naive placement pays
