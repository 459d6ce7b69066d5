"""A small, self-contained analog circuit simulator (MNA).

This package is the substrate that replaces SPICE for the reproduction:
modified nodal analysis with a Newton DC solver (adaptive gmin stepping),
small-signal AC analysis, backward-Euler transient analysis and adjoint-method
noise analysis with per-device contribution reporting.

The public surface is re-exported here so circuit code reads naturally::

    from repro.spice import Circuit, Mosfet, Resistor, dc_operating_point
"""

from repro.spice.elements import (
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Pulse,
    Pwl,
    Resistor,
    Sine,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.netlist import Circuit, GROUND
from repro.spice.devices.mosfet import MosModel
from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.sweeps import dc_sweep
from repro.spice.ac import ac_analysis, transfer_function
from repro.spice.linsolve import (
    SmallSignalContext,
    SpectralSolver,
    solve_stacked,
)
from repro.spice.transient import transient_analysis
from repro.spice.noise import noise_analysis
from repro.spice.waveform import Waveform

__all__ = [
    "BjtModel",
    "Capacitor",
    "Cccs",
    "Ccvs",
    "Circuit",
    "CurrentSource",
    "Diode",
    "DiodeModel",
    "GROUND",
    "Inductor",
    "MosModel",
    "Mosfet",
    "OperatingPoint",
    "Pulse",
    "Pwl",
    "Resistor",
    "Sine",
    "SmallSignalContext",
    "SpectralSolver",
    "Switch",
    "Vccs",
    "Vcvs",
    "VoltageSource",
    "Waveform",
    "ac_analysis",
    "dc_operating_point",
    "dc_sweep",
    "noise_analysis",
    "solve_stacked",
    "transfer_function",
    "transient_analysis",
]
