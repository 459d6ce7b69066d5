"""Fig. 3 — the fully differential bandgap reference.

Regenerates: the +/-0.6 V symmetric outputs, the tempco curve over
-20..85 degC after the production-style R2 trim, the voice-band noise
(< 200 nV/rtHz claim) and operation at the 2.6 V minimum supply.
"""

import numpy as np
import pytest

from repro.circuits.bandgap import build_bandgap, find_r2_trim
from repro.spice import dc_operating_point
from repro.spice.analysis import log_freqs
from repro.spice.noise import noise_analysis
from repro.spice.sweeps import temperature_sweep


@pytest.fixture(scope="module")
def trim(tech):
    return find_r2_trim(tech, iterations=3)


@pytest.fixture(scope="module")
def design(tech, trim):
    return build_bandgap(tech, r2_trim=trim)


def test_fig3_tempco_curve(design, trim, save_report):
    temps = np.linspace(-20, 85, 22)
    ops = temperature_sweep(design.circuit, temps)
    assert len(ops) == len(temps)
    vref = np.array([op.v(design.vrefp) - op.v(design.vrefn) for op in ops])
    box_tc = (vref.max() - vref.min()) / vref.mean() / (temps[-1] - temps[0]) * 1e6
    lines = [f"Fig. 3: bandgap vs temperature (R2 trim = {trim:.3f})", "",
             "T [degC]    vrefp-vrefn [mV]"]
    for t, v in zip(temps, vref):
        lines.append(f"{t:7.1f}     {v * 1e3:9.3f}")
    lines.append("")
    lines.append(f"box tempco: {box_tc:.1f} ppm/degC (paper: < +/-40)")
    save_report("fig3_bandgap_tempco", "\n".join(lines))
    assert box_tc < 40.0


def test_fig3_symmetry_and_level(design, save_report):
    op = dc_operating_point(design.circuit)
    vrefp, vrefn = op.v(design.vrefp), op.v(design.vrefn)
    save_report(
        "fig3_bandgap_levels",
        f"vrefp = {vrefp * 1e3:.1f} mV   vrefn = {vrefn * 1e3:.1f} mV   "
        f"(paper: +/-0.6 V symmetric about analogue ground)",
    )
    assert vrefp == pytest.approx(0.6, abs=0.06)
    assert vrefn == pytest.approx(-0.6, abs=0.06)


def test_fig3_noise(design, save_report):
    design.circuit.element("vdd_src").ac = 1.0
    try:
        op = dc_operating_point(design.circuit)
        freqs = log_freqs(100, 10e3, 10)
        nr = noise_analysis(op, freqs, design.vrefp, design.vrefn)
        avg_nv = np.sqrt(
            np.trapezoid(nr.output_psd, freqs) / (freqs[-1] - freqs[0])
        ) * 1e9
        top = nr.top_contributors(1e3, 5)
        lines = [f"Fig. 3: bandgap output noise, voice-band average = "
                 f"{avg_nv:.1f} nV/rtHz (paper: < 200)", "",
                 "dominant contributors at 1 kHz:"]
        for dev, mech, val in top:
            lines.append(f"  {dev:12s} {mech:8s} {np.sqrt(val) * 1e9:8.2f} nV/rtHz")
        save_report("fig3_bandgap_noise", "\n".join(lines))
        assert avg_nv < 200.0
    finally:
        design.circuit.element("vdd_src").ac = 0.0


def test_fig3_min_supply(tech, trim, save_report):
    def sweep():
        out = []
        for supply in (2.4, 2.6, 3.0):
            d = build_bandgap(tech, r2_trim=trim, supply=supply)
            op = dc_operating_point(d.circuit)
            out.append((supply, op.v(d.vrefp) - op.v(d.vrefn)))
        return out

    rows = sweep()
    lines = ["Fig. 3: bandgap vs supply (paper: operates down to 2.6 V)", ""]
    for supply, vref in rows:
        lines.append(f"  V_sup = {supply:.1f} V   vref = {vref * 1e3:7.2f} mV")
    save_report("fig3_bandgap_supply", "\n".join(lines))
    # at 2.6 V the reference is fully alive
    assert rows[1][1] == pytest.approx(1.2, abs=0.1)
