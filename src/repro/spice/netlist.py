"""Circuit container: named elements, named nodes, compile to MNA.

A :class:`Circuit` is a flat bag of elements with string node names
("vdd", "outp", ...).  Hierarchy is handled by builder functions that
prefix names (see :mod:`repro.circuits`), which keeps every node of the
compiled design addressable from tests and analyses — the same property
that makes a flat extracted netlist convenient on a bench.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.spice.elements import (
    Bjt,
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
    Waveshape,
)
from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel

#: Canonical ground node name.  "0" is accepted as an alias.
GROUND = "gnd"
_GROUND_ALIASES = frozenset({GROUND, "0"})


def is_ground(node: str) -> bool:
    """True when ``node`` names the ground net."""
    return node in _GROUND_ALIASES


class Circuit:
    """A named collection of circuit elements plus solver hints.

    ``nodesets`` maps node names to initial-guess voltages for the DC
    solver; builders for known topologies populate it so Newton starts
    near the intended operating point (the role .NODESET plays in SPICE).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._elements: dict[str, Element] = {}
        self.nodesets: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Element management
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add an element; names must be unique within the circuit."""
        if not element.name:
            raise ValueError("element must have a non-empty name")
        if element.name in self._elements:
            raise ValueError(f"duplicate element name {element.name!r} in {self.name!r}")
        for node in element.nodes:
            if not node:
                raise ValueError(f"element {element.name!r} has an empty node name")
        self._elements[element.name] = element
        return element

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        try:
            return self._elements[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in circuit {self.name!r}") from None

    def remove(self, name: str) -> None:
        """Remove an element by name."""
        if name not in self._elements:
            raise KeyError(f"no element named {name!r} in circuit {self.name!r}")
        del self._elements[name]

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[Element, ...]:
        return tuple(self._elements.values())

    def elements_of_type(self, kind: type) -> list[Element]:
        """All elements that are instances of ``kind``."""
        return [el for el in self._elements.values() if isinstance(el, kind)]

    def nodes(self) -> list[str]:
        """Sorted list of non-ground node names used by any element."""
        seen: set[str] = set()
        for el in self._elements.values():
            for node in el.nodes:
                if not is_ground(node):
                    seen.add(node)
        return sorted(seen)

    def nodeset(self, node: str, volts: float) -> None:
        """Record an initial-guess voltage for the DC solver."""
        self.nodesets[node] = volts

    # ------------------------------------------------------------------
    # Convenience constructors (keep circuit builders readable)
    # ------------------------------------------------------------------
    def resistor(
        self,
        name: str,
        n1: str,
        n2: str,
        value: float,
        noisy: bool = True,
        tc1: float = 0.0,
        tc2: float = 0.0,
    ) -> Resistor:
        return self.add(Resistor(name, n1=n1, n2=n2, value=value, noisy=noisy, tc1=tc1, tc2=tc2))

    def capacitor(self, name: str, n1: str, n2: str, value: float) -> Capacitor:
        return self.add(Capacitor(name, n1=n1, n2=n2, value=value))

    def inductor(self, name: str, n1: str, n2: str, value: float) -> Inductor:
        return self.add(Inductor(name, n1=n1, n2=n2, value=value))

    def vsource(
        self,
        name: str,
        np: str,
        nn: str,
        dc: float = 0.0,
        ac: float = 0.0,
        ac_phase: float = 0.0,
        wave: Waveshape | None = None,
    ) -> VoltageSource:
        return self.add(
            VoltageSource(name, np=np, nn=nn, dc=dc, ac=ac, ac_phase=ac_phase, wave=wave)
        )

    def isource(
        self,
        name: str,
        np: str,
        nn: str,
        dc: float = 0.0,
        ac: float = 0.0,
        ac_phase: float = 0.0,
        wave: Waveshape | None = None,
    ) -> CurrentSource:
        return self.add(
            CurrentSource(name, np=np, nn=nn, dc=dc, ac=ac, ac_phase=ac_phase, wave=wave)
        )

    def vcvs(self, name: str, np: str, nn: str, ncp: str, ncn: str, gain: float) -> Vcvs:
        return self.add(Vcvs(name, np=np, nn=nn, ncp=ncp, ncn=ncn, gain=gain))

    def vccs(self, name: str, np: str, nn: str, ncp: str, ncn: str, gm: float) -> Vccs:
        return self.add(Vccs(name, np=np, nn=nn, ncp=ncp, ncn=ncn, gm=gm))

    def cccs(self, name: str, np: str, nn: str, control: str, gain: float) -> Cccs:
        return self.add(Cccs(name, np=np, nn=nn, control=control, gain=gain))

    def ccvs(self, name: str, np: str, nn: str, control: str, transresistance: float) -> Ccvs:
        return self.add(Ccvs(name, np=np, nn=nn, control=control, transresistance=transresistance))

    def switch(
        self,
        name: str,
        n1: str,
        n2: str,
        closed: bool,
        ron: float = 100.0,
        roff: float = 1e12,
        noisy: bool = True,
    ) -> Switch:
        return self.add(Switch(name, n1=n1, n2=n2, closed=closed, ron=ron, roff=roff, noisy=noisy))

    def mosfet(
        self,
        name: str,
        d: str,
        g: str,
        s: str,
        b: str,
        model: MosModel,
        w: float,
        l: float,
        m: int = 1,
        dvt: float = 0.0,
        dbeta: float = 0.0,
    ) -> Mosfet:
        return self.add(Mosfet(name, d=d, g=g, s=s, b=b, model=model, w=w, l=l, m=m,
                               dvt=dvt, dbeta=dbeta))

    def bjt(
        self, name: str, c: str, b: str, e: str, model: BjtModel, area: float = 1.0
    ) -> Bjt:
        return self.add(Bjt(name, c=c, b=b, e=e, model=model, area=area))

    def diode(self, name: str, np: str, nn: str, model: DiodeModel, area: float = 1.0) -> Diode:
        return self.add(Diode(name, np=np, nn=nn, model=model, area=area))

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def mosfets(self) -> list[Mosfet]:
        return self.elements_of_type(Mosfet)

    def bjts(self) -> list[Bjt]:
        return self.elements_of_type(Bjt)

    def resistors(self) -> list[Resistor]:
        return self.elements_of_type(Resistor)

    def summary(self) -> str:
        """One-line inventory, useful in logs and examples."""
        counts: dict[str, int] = {}
        for el in self._elements.values():
            counts[type(el).__name__] = counts.get(type(el).__name__, 0) + 1
        parts = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
        return f"{self.name}: {len(self.nodes())} nodes, {parts}"

    def compile(self, temp_c: float = 25.0):
        """Compile to an MNA system at the given temperature."""
        from repro.spice.mna import MnaSystem

        return MnaSystem(self, temp_c=temp_c)


class SubCircuit:
    """Namespace helper for building hierarchical designs on a flat circuit.

    ``sub = SubCircuit(circuit, "mic")`` exposes the same convenience
    constructors as :class:`Circuit` but prefixes element names with
    ``mic.`` and maps *local* node names through an explicit port map::

        sub = SubCircuit(ckt, "bias", ports={"vdd": "vdd", "out": "nbias"})
        sub.resistor("r1", "out", "local_x", 10e3)   # element "bias.r1"
                                                     # nodes "nbias", "bias.local_x"

    Ground and port names pass through; everything else is prefixed, so
    internal nets of two instances never collide.
    """

    def __init__(self, circuit: Circuit, prefix: str, ports: dict[str, str] | None = None):
        self.circuit = circuit
        self.prefix = prefix
        self.ports = dict(ports or {})

    def node(self, local: str) -> str:
        """Map a local node name to the flat circuit's node name."""
        if is_ground(local):
            return GROUND
        if local in self.ports:
            return self.ports[local]
        return f"{self.prefix}.{local}"

    def _name(self, local: str) -> str:
        return f"{self.prefix}.{local}"

    def nodeset(self, local: str, volts: float) -> None:
        self.circuit.nodeset(self.node(local), volts)

    def __getattr__(self, attr: str) -> Callable:
        """Forward convenience constructors, rewriting names and nodes."""
        factory = getattr(self.circuit, attr, None)
        if factory is None or attr.startswith("_"):
            raise AttributeError(attr)

        node_args = {
            "resistor": ("n1", "n2"),
            "capacitor": ("n1", "n2"),
            "inductor": ("n1", "n2"),
            "vsource": ("np", "nn"),
            "isource": ("np", "nn"),
            "vcvs": ("np", "nn", "ncp", "ncn"),
            "vccs": ("np", "nn", "ncp", "ncn"),
            "cccs": ("np", "nn"),
            "ccvs": ("np", "nn"),
            "switch": ("n1", "n2"),
            "mosfet": ("d", "g", "s", "b"),
            "bjt": ("c", "b", "e"),
            "diode": ("np", "nn"),
        }
        if attr not in node_args:
            raise AttributeError(attr)
        n_nodes = len(node_args[attr])

        def wrapper(name: str, *args, **kwargs):
            mapped = [self.node(a) for a in args[:n_nodes]]
            rest = list(args[n_nodes:])
            for key in node_args[attr]:
                if key in kwargs:
                    kwargs[key] = self.node(kwargs[key])
            if attr in ("cccs", "ccvs"):
                # control references an element name, prefix it too
                if "control" in kwargs:
                    kwargs["control"] = self._name(kwargs["control"])
                elif rest:
                    rest[0] = self._name(rest[0])
            return factory(self._name(name), *mapped, *rest, **kwargs)

        return wrapper
