"""`circuit_signature` reads each element's terminals from `Element.nodes`."""

from test_stamps import all_elements

from repro.spice.batch import circuit_signature
from repro.spice.elements import (
    Bjt,
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)


def _chain_signature(circuit):
    """The signature as an isinstance chain that re-lists every element
    class's terminals, frozen as the reference."""
    sig = []
    for el in circuit:
        if isinstance(el, (Resistor, Switch, Capacitor, Inductor)):
            nodes: tuple = (el.n1, el.n2)
        elif isinstance(el, (VoltageSource, CurrentSource)):
            nodes = (el.np, el.nn)
        elif isinstance(el, (Vcvs, Vccs)):
            nodes = (el.np, el.nn, el.ncp, el.ncn)
        elif isinstance(el, (Ccvs, Cccs)):
            nodes = (el.np, el.nn, el.control)
        elif isinstance(el, Mosfet):
            nodes = (el.d, el.g, el.s, el.b)
        elif isinstance(el, Bjt):
            nodes = (el.c, el.b, el.e)
        elif isinstance(el, Diode):
            nodes = (el.np, el.nn)
        else:
            nodes = ()
        sig.append((type(el).__name__, el.name, nodes))
    return tuple(sig)


def test_signature_equals_the_chain_on_every_element_class():
    circuit = all_elements()
    assert circuit_signature(circuit) == _chain_signature(circuit)
