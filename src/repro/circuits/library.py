"""Shared sub-circuit builders and the cascode-vs-simple mirror cells.

The mirror cells back the paper's Section 2 argument that "cascoding ...
can no longer be used" at a 2.6 V supply with 0.7 V thresholds: the
regulated/cascode mirror's compliance voltage is V_th + 2V_dssat (about
1.1 V) against the simple mirror's single V_dssat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.technology import Technology
from repro.spice import Circuit
from repro.spice.sweeps import dc_sweep, source_value_sweep


@dataclass
class MirrorCell:
    """A current-mirror test cell with a swept output compliance node."""

    circuit: Circuit
    out_node: str
    sweep_source: str
    i_ref: float
    kind: str


def build_simple_mirror_cell(
    tech: Technology,
    i_ref: float = 50e-6,
    w: float = 60e-6,
    l: float = 5e-6,
) -> MirrorCell:
    """NMOS simple mirror: compliance ~ one V_dssat."""
    ckt = Circuit("simple_mirror")
    ckt.vsource("vo", "out", "gnd", dc=1.0)
    ckt.isource("iref", "vdd_ref", "d1", dc=i_ref)
    ckt.vsource("vref_sup", "vdd_ref", "gnd", dc=3.0)
    ckt.mosfet("mn1", "d1", "d1", "gnd", "gnd", tech.nmos, w=w, l=l)
    ckt.mosfet("mn2", "out", "d1", "gnd", "gnd", tech.nmos, w=w, l=l)
    ckt.nodeset("d1", 0.9)
    return MirrorCell(ckt, "out", "vo", i_ref, "simple")


def build_cascode_mirror_cell(
    tech: Technology,
    i_ref: float = 50e-6,
    w: float = 60e-6,
    l: float = 5e-6,
) -> MirrorCell:
    """NMOS cascode mirror: compliance ~ V_th + 2 V_dssat (Sec. 2 claim)."""
    ckt = Circuit("cascode_mirror")
    ckt.vsource("vo", "out", "gnd", dc=1.5)
    ckt.vsource("vref_sup", "vdd_ref", "gnd", dc=3.0)
    ckt.isource("iref", "vdd_ref", "d1c", dc=i_ref)
    # Stacked-diode reference branch sets both gate rails.
    ckt.mosfet("mn1c", "d1c", "d1c", "d1", "gnd", tech.nmos, w=w, l=l)
    ckt.mosfet("mn1", "d1", "d1", "gnd", "gnd", tech.nmos, w=w, l=l)
    # Output branch: cascode on top of the mirror device.
    ckt.mosfet("mn2c", "out", "d1c", "dm", "gnd", tech.nmos, w=w, l=l)
    ckt.mosfet("mn2", "dm", "d1", "gnd", "gnd", tech.nmos, w=w, l=l)
    ckt.nodeset("d1", 0.9)
    ckt.nodeset("d1c", 1.9)
    ckt.nodeset("dm", 0.2)
    return MirrorCell(ckt, "out", "vo", i_ref, "cascode")


def mirror_saturation_compliance(
    cell: MirrorCell,
    v_max: float = 2.5,
    points: int = 51,
) -> float:
    """Lowest output voltage keeping every output-branch device saturated.

    This is the compliance notion behind the paper's Sec. 2 argument: a
    cascode loses *output resistance* (its raison d'etre) as soon as the
    stacked device leaves saturation, long before the raw current copy
    collapses — with long-channel devices the copy alone degrades very
    gracefully (see :func:`mirror_compliance_voltage`).
    """
    volts = np.linspace(v_max, 0.05, points)
    out_devices = [name for name in ("mn2", "mn2c")
                   if name in cell.circuit]
    ops = source_value_sweep(cell.circuit, cell.sweep_source, volts, anchor=v_max)
    lowest = float("nan")
    for v, op in zip(volts, ops):
        saturated = all(op.mos_op(name).saturated for name in out_devices)
        if saturated:
            lowest = float(v)
        else:
            break
    return lowest


def mirror_compliance_voltage(
    cell: MirrorCell,
    accuracy: float = 0.95,
    v_max: float = 2.5,
    points: int = 126,
) -> float:
    """Lowest output voltage where the mirror still delivers ``accuracy``
    of its large-headroom current (measured like the paper's Eq. 1 bound:
    sweep the output node down until the copy collapses)."""
    volts = np.linspace(v_max, 0.0, points)
    data = dc_sweep(cell.circuit, cell.sweep_source, volts, [f"i({cell.sweep_source})"])
    i_out = -data[f"i({cell.sweep_source})"]  # source absorbs the mirror current
    i_ref_measured = float(np.median(i_out[: points // 5]))
    good = i_out >= accuracy * i_ref_measured
    if not np.any(good):
        return float("nan")
    # Find the lowest voltage for which all higher voltages are good.
    idx = np.where(~good)[0]
    if idx.size == 0:
        return float(volts[-1])
    first_bad = idx[0]
    if first_bad == 0:
        return float("nan")
    return float(volts[first_bad - 1])
