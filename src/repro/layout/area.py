"""Layout-area estimation (the Fig. 6 / Fig. 10 experiments).

The paper reports the microphone amplifier at 1.1 mm^2 and attributes it
to the noise requirements ("a relatively large area ... and supply
current are needed to achieve the noise requirements").  The model here
walks the netlist: gate area for transistors, squares for poly
resistors, plate area for capacitors, and an empirically calibrated
overhead multiplier for wells, guard rings, contacts and routing —
1.2 um two-metal layouts of analogue cells typically land at 1.5-2x
their raw device area, and the paper's own numbers back-solve to ~1.7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.process.technology import Technology
from repro.spice.elements import Capacitor, Mosfet, Resistor
from repro.spice.netlist import Circuit

#: Calibrated routing/well/guard-ring multiplier for analogue cells.
ANALOG_OVERHEAD = 1.7


@dataclass
class AreaBreakdown:
    """Per-category silicon area [um^2]."""

    mosfets: float = 0.0
    resistors: float = 0.0
    capacitors: float = 0.0
    overhead_factor: float = ANALOG_OVERHEAD
    per_device: dict[str, float] = field(default_factory=dict)

    @property
    def raw_um2(self) -> float:
        return self.mosfets + self.resistors + self.capacitors

    @property
    def total_um2(self) -> float:
        return self.raw_um2 * self.overhead_factor

    @property
    def total_mm2(self) -> float:
        return self.total_um2 * 1e-12 * 1e6  # um^2 -> mm^2

    def format(self) -> str:
        return (
            f"MOS {self.mosfets / 1e3:.0f}k um2, R {self.resistors / 1e3:.0f}k um2, "
            f"C {self.capacitors / 1e3:.0f}k um2, x{self.overhead_factor:.2f} "
            f"-> {self.total_mm2:.2f} mm^2"
        )


def estimate_area_mm2(
    circuit: Circuit,
    tech: Technology,
    resistor_width_um: float = 4.0,
    overhead: float = ANALOG_OVERHEAD,
) -> AreaBreakdown:
    """Estimate the silicon area of a circuit from its elements.

    MOSFET area includes source/drain diffusions (W * 2*ldiff beyond the
    gate); resistors are drawn at ``resistor_width_um``; capacitors use
    the poly-poly density.  Supply/stimulus sources are ignored — they
    are off-chip.
    """
    bd = AreaBreakdown(overhead_factor=overhead)
    for el in circuit:
        if isinstance(el, Mosfet):
            gate = el.w * el.l * el.m
            diff = el.w * 2.0 * el.model.ldiff * el.m
            area = (gate + diff) * 1e12  # m^2 -> um^2
            bd.mosfets += area
            bd.per_device[el.name] = area
        elif isinstance(el, Resistor):
            if el.value >= 1e6 or el.value <= 10.0:
                continue  # start-up legs / net ties, not drawn as poly
            area = tech.poly.area_um2(el.value, resistor_width_um)
            bd.resistors += area
            bd.per_device[el.name] = area
        elif isinstance(el, Capacitor):
            if el.value > 1e-9:
                continue  # external load caps
            area = el.value / tech.cap_per_area * 1e12
            bd.capacitors += area
            bd.per_device[el.name] = area
    return bd


def estimate_mic_amp_area_mm2(design) -> float:
    """Area of a built microphone amplifier [mm^2] (paper: 1.1 mm^2)."""
    return estimate_area_mm2(design.circuit, design.tech).total_mm2
