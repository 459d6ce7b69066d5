"""Circuit element definitions.

Elements are declarative: they hold names, node names and parameters, and
are interpreted by the MNA compiler (:mod:`repro.spice.mna`).  Sign
conventions follow SPICE:

* two-terminal sources: positive current flows from the ``+`` node through
  the source to the ``-`` node;
* MOSFETs are four-terminal (drain, gate, source, bulk);
* BJTs are three-terminal (collector, base, emitter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel


class Waveshape:
    """Base class for time-domain source waveforms (transient analysis)."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Sine(Waveshape):
    """Sinusoidal stimulus ``offset + amplitude*sin(2*pi*freq*(t-delay) + phase)``.

    ``phase`` is in radians.  Before ``delay`` the output sits at ``offset``.
    """

    offset: float = 0.0
    amplitude: float = 1.0
    freq: float = 1e3
    delay: float = 0.0
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.offset + self.amplitude * math.sin(self.phase)
        arg = 2.0 * math.pi * self.freq * (t - self.delay) + self.phase
        return self.offset + self.amplitude * math.sin(arg)


@dataclass(frozen=True)
class Pulse(Waveshape):
    """Trapezoidal pulse train (SPICE PULSE semantics)."""

    v1: float = 0.0
    v2: float = 1.0
    delay: float = 0.0
    rise: float = 1e-9
    fall: float = 1e-9
    width: float = 1e-3
    period: float = 2e-3

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1


@dataclass(frozen=True)
class Pwl(Waveshape):
    """Piecewise-linear waveform through ``(times, values)`` breakpoints."""

    times: Sequence[float]
    values: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("Pwl times and values must have equal length")
        if len(self.times) < 1:
            raise ValueError("Pwl requires at least one breakpoint")
        if any(t2 < t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("Pwl times must be non-decreasing")

    def __call__(self, t: float) -> float:
        times, values = self.times, self.values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        for i in range(len(times) - 1):
            if times[i] <= t <= times[i + 1]:
                span = times[i + 1] - times[i]
                if span <= 0.0:
                    return values[i + 1]
                frac = (t - times[i]) / span
                return values[i] + frac * (values[i + 1] - values[i])
        return values[-1]


@dataclass
class Element:
    """Common behaviour for every circuit element."""

    name: str

    @property
    def nodes(self) -> tuple[str, ...]:
        raise NotImplementedError

    @property
    def has_branch_current(self) -> bool:
        """True when the element adds an MNA branch-current unknown."""
        return False


@dataclass
class Resistor(Element):
    """Linear resistor.  ``noisy=False`` silences its 4kT/R contribution
    (useful for ideal bias dividers that stand in for off-chip parts).

    ``tc1``/``tc2`` are first/second-order temperature coefficients about
    25 degC; integrated poly resistors (the bandgap's R1/R2, the gain
    string) carry the process values from :mod:`repro.process.technology`.
    """

    n1: str = ""
    n2: str = ""
    value: float = 1e3
    noisy: bool = True
    tc1: float = 0.0
    tc2: float = 0.0

    def __post_init__(self) -> None:
        if self.value <= 0.0:
            raise ValueError(f"resistor {self.name}: value must be > 0, got {self.value}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2)

    def value_at(self, temp_c: float) -> float:
        """Resistance at temperature [ohm]."""
        dt = temp_c - 25.0
        return self.value * (1.0 + self.tc1 * dt + self.tc2 * dt * dt)


@dataclass
class Capacitor(Element):
    """Linear capacitor."""

    n1: str = ""
    n2: str = ""
    value: float = 1e-12

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(f"capacitor {self.name}: value must be >= 0, got {self.value}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2)


@dataclass
class Inductor(Element):
    """Linear inductor (adds a branch current unknown)."""

    n1: str = ""
    n2: str = ""
    value: float = 1e-6

    def __post_init__(self) -> None:
        if self.value <= 0.0:
            raise ValueError(f"inductor {self.name}: value must be > 0, got {self.value}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2)

    @property
    def has_branch_current(self) -> bool:
        return True


@dataclass
class VoltageSource(Element):
    """Independent voltage source with DC, AC and transient parts."""

    np: str = ""
    nn: str = ""
    dc: float = 0.0
    ac: float = 0.0
    ac_phase: float = 0.0
    wave: Waveshape | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn)

    @property
    def has_branch_current(self) -> bool:
        return True

    def value_at(self, t: float) -> float:
        """Transient source value at time ``t`` (DC value if no waveform)."""
        if self.wave is None:
            return self.dc
        return self.wave(t)


@dataclass
class CurrentSource(Element):
    """Independent current source; positive current flows np -> nn inside."""

    np: str = ""
    nn: str = ""
    dc: float = 0.0
    ac: float = 0.0
    ac_phase: float = 0.0
    wave: Waveshape | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn)

    def value_at(self, t: float) -> float:
        if self.wave is None:
            return self.dc
        return self.wave(t)


@dataclass
class Vcvs(Element):
    """Voltage-controlled voltage source: V(np,nn) = gain * V(ncp,ncn)."""

    np: str = ""
    nn: str = ""
    ncp: str = ""
    ncn: str = ""
    gain: float = 1.0

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn, self.ncp, self.ncn)

    @property
    def has_branch_current(self) -> bool:
        return True


@dataclass
class Vccs(Element):
    """Voltage-controlled current source: I(np->nn) = gm * V(ncp,ncn)."""

    np: str = ""
    nn: str = ""
    ncp: str = ""
    ncn: str = ""
    gm: float = 1e-3

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn, self.ncp, self.ncn)


@dataclass
class Cccs(Element):
    """Current-controlled current source; control is a named voltage source."""

    np: str = ""
    nn: str = ""
    control: str = ""
    gain: float = 1.0

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn)


@dataclass
class Ccvs(Element):
    """Current-controlled voltage source; control is a named voltage source."""

    np: str = ""
    nn: str = ""
    control: str = ""
    transresistance: float = 1.0

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn)

    @property
    def has_branch_current(self) -> bool:
        return True


@dataclass
class Switch(Element):
    """Ideal digitally controlled switch modelled as ron/roff resistor.

    The gain-programming network uses MOS transistors as switches; this
    element is the idealised stand-in for behavioural experiments, while
    :class:`Mosfet` devices in triode are used for the full-physics runs.
    """

    n1: str = ""
    n2: str = ""
    closed: bool = True
    ron: float = 100.0
    roff: float = 1e12
    noisy: bool = True

    def __post_init__(self) -> None:
        if self.ron <= 0.0 or self.roff <= 0.0:
            raise ValueError(f"switch {self.name}: ron/roff must be > 0")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2)

    @property
    def resistance(self) -> float:
        return self.ron if self.closed else self.roff


@dataclass
class Mosfet(Element):
    """Four-terminal MOSFET referencing a :class:`MosModel`.

    ``dvt``/``dbeta`` are instance mismatch deltas (SPICE's DELVTO-style
    instance parameters): the device behaves as its model with
    ``vth0 + dvt`` and ``kp * (1 + dbeta)``, so a Monte Carlo trial
    shares the technology's model objects instead of copying one per
    device.
    """

    d: str = ""
    g: str = ""
    s: str = ""
    b: str = ""
    model: MosModel = field(default_factory=MosModel)
    w: float = 10e-6
    l: float = 1.2e-6
    m: int = 1
    dvt: float = 0.0
    dbeta: float = 0.0

    def __post_init__(self) -> None:
        if self.w <= 0.0 or self.l <= 0.0:
            raise ValueError(f"mosfet {self.name}: W and L must be > 0")
        if self.m < 1:
            raise ValueError(f"mosfet {self.name}: multiplier m must be >= 1")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.d, self.g, self.s, self.b)


@dataclass
class Bjt(Element):
    """Three-terminal bipolar transistor referencing a :class:`BjtModel`.

    The paper's bandgap and bias cells use CMOS-compatible vertical PNPs
    (collector tied to substrate); the model supports both polarities.
    """

    c: str = ""
    b: str = ""
    e: str = ""
    model: BjtModel = field(default_factory=BjtModel)
    area: float = 1.0

    def __post_init__(self) -> None:
        if self.area <= 0.0:
            raise ValueError(f"bjt {self.name}: area must be > 0")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.c, self.b, self.e)


@dataclass
class Diode(Element):
    """Junction diode referencing a :class:`DiodeModel`."""

    np: str = ""
    nn: str = ""
    model: DiodeModel = field(default_factory=DiodeModel)
    area: float = 1.0

    def __post_init__(self) -> None:
        if self.area <= 0.0:
            raise ValueError(f"diode {self.name}: area must be > 0")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.np, self.nn)
