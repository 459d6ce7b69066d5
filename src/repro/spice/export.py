"""SPICE-deck export.

Writes a :class:`~repro.spice.netlist.Circuit` as a standard ``.cir``
netlist (SPICE3/ngspice dialect) with ``.model`` cards for every device
flavour in use, plus one card per MOSFET that carries mismatch deltas.
The point is auditability: anyone with a real SPICE can re-run this
package's circuits and cross-check the MNA engine.  The
export is lossy only where the engines differ (our EKV-style MOS maps to
LEVEL=1 cards with the same VTO/KP/GAMMA/PHI/LAMBDA; flicker/overlap
parameters carry over as KF/CGSO/CGDO).
"""

from __future__ import annotations

import io
from dataclasses import replace

from repro.spice.devices.bjt import BjtModel
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel
from repro.spice.elements import (
    Bjt,
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
from repro.spice.netlist import Circuit, is_ground


def _node(name: str) -> str:
    """SPICE node name (ground becomes 0; dots are legal in most dialects)."""
    return "0" if is_ground(name) else name


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to the exact value.

    The old fixed ``.6g`` silently truncated mantissas (a hand-matched
    24.9993 fF compensation trim exported as ``2.49993e-14`` is fine,
    but a 7th significant digit was simply lost) and rendered negative
    zero as ``-0``; this version widens the precision until the text
    round-trips through ``float`` exactly, so sub-femto device values
    survive an export -> re-import cycle bit-for-bit and zero is always
    the literal ``0``.
    """
    v = float(value)
    if v == 0.0:  # catches -0.0 too: "0", not "-0"
        return "0"
    for spec in (".6g", ".9g", ".12g", ".17g"):
        text = format(v, spec)
        if float(text) == v:
            return text
    return repr(v)  # unreachable: .17g always round-trips


def _control_card_name(circuit: Circuit, control: str) -> str:
    """Card name of an F/H control element, prefixed by its real type.

    The control of a current-controlled source is any branch-current
    element — a V source, but also an E/H source or an inductor.  The
    old export hardcoded the ``V`` prefix, producing dangling references
    for the other three; emit the prefix the control element actually
    exports under so the reference resolves on re-ingest.
    """
    el = circuit.element(control)
    if isinstance(el, Vcvs):
        return f"E{control}"
    if isinstance(el, Ccvs):
        return f"H{control}"
    if isinstance(el, Inductor):
        return f"L{control}"
    return f"V{control}"


def _source_suffix(el: VoltageSource | CurrentSource) -> str:
    parts = [f"DC {_fmt(el.dc)}"]
    if el.ac:
        parts.append(f"AC {_fmt(el.ac)} {_fmt(el.ac_phase)}")
    wave = el.wave
    if isinstance(wave, Sine):
        parts.append(
            f"SIN({_fmt(wave.offset)} {_fmt(wave.amplitude)} "
            f"{_fmt(wave.freq)} {_fmt(wave.delay)} 0 "
            f"{_fmt(wave.phase * 180.0 / 3.141592653589793)})"
        )
    elif isinstance(wave, Pulse):
        parts.append(
            f"PULSE({_fmt(wave.v1)} {_fmt(wave.v2)} {_fmt(wave.delay)} "
            f"{_fmt(wave.rise)} {_fmt(wave.fall)} {_fmt(wave.width)} "
            f"{_fmt(wave.period)})"
        )
    elif isinstance(wave, Pwl):
        pts = " ".join(f"{_fmt(t)} {_fmt(v)}"
                       for t, v in zip(wave.times, wave.values))
        parts.append(f"PWL({pts})")
    return " ".join(parts)


def _mos_model_card(model: MosModel) -> str:
    kind = "NMOS" if model.polarity == "nmos" else "PMOS"
    lam = model.clm / 5e-6  # representative L for the card's fixed lambda
    return (
        f".model {model.name} {kind} (LEVEL=1 VTO={_fmt(model.vth0 if kind == 'NMOS' else -model.vth0)} "
        f"KP={_fmt(model.kp)} GAMMA={_fmt(model.gamma)} PHI={_fmt(model.phi)} "
        f"LAMBDA={_fmt(lam)} KF={_fmt(model.kf)} AF={_fmt(model.af)} "
        f"CGSO={_fmt(model.cgso)} CGDO={_fmt(model.cgdo)})"
    )


def _instance_model(el: Mosfet) -> MosModel:
    """The model ``el`` simulates with.  A device carrying mismatch
    deltas gets its own card, ``<model>_<device>`` with ``VTO``/``KP``
    of ``vth0 + dvt`` and ``kp * (1 + dbeta)``, so a Monte Carlo deck
    keeps every device's values; a nominal device shares its model's."""
    if el.dvt == 0.0 and el.dbeta == 0.0:
        return el.model
    return replace(el.model, name=f"{el.model.name}_{el.name}",
                   vth0=el.model.vth0 + el.dvt, kp=el.model.kp * (1.0 + el.dbeta))


def _bjt_model_card(model: BjtModel) -> str:
    kind = "NPN" if model.polarity == "npn" else "PNP"
    return (
        f".model {model.name} {kind} (IS={_fmt(model.is_sat)} "
        f"BF={_fmt(model.beta_f)} BR={_fmt(model.beta_r)} VAF={_fmt(model.vaf)} "
        f"XTI={_fmt(model.xti)} EG={_fmt(model.eg)})"
    )


def _diode_model_card(model: DiodeModel) -> str:
    return (
        f".model {model.name} D (IS={_fmt(model.is_sat)} "
        f"N={_fmt(model.n_ideality)} XTI={_fmt(model.xti)} EG={_fmt(model.eg)})"
    )


def export_netlist(circuit: Circuit, title: str | None = None) -> str:
    """Render the circuit as a SPICE deck (returns the text)."""
    out = io.StringIO()
    out.write(f"* {title or circuit.name}\n")
    out.write("* exported by repro.spice.export (MNA engine cross-check deck)\n")

    mos_models: dict[str, MosModel] = {}
    bjt_models: dict[str, BjtModel] = {}
    diode_models: dict[str, DiodeModel] = {}

    for el in circuit:
        if isinstance(el, Resistor):
            out.write(f"R{el.name} {_node(el.n1)} {_node(el.n2)} "
                      f"{_fmt(el.value)}")
            if el.tc1 or el.tc2:
                out.write(f" TC={_fmt(el.tc1)},{_fmt(el.tc2)}")
            out.write("\n")
        elif isinstance(el, Capacitor):
            out.write(f"C{el.name} {_node(el.n1)} {_node(el.n2)} "
                      f"{_fmt(el.value)}\n")
        elif isinstance(el, Inductor):
            out.write(f"L{el.name} {_node(el.n1)} {_node(el.n2)} "
                      f"{_fmt(el.value)}\n")
        elif isinstance(el, VoltageSource):
            out.write(f"V{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_source_suffix(el)}\n")
        elif isinstance(el, CurrentSource):
            out.write(f"I{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_source_suffix(el)}\n")
        elif isinstance(el, Vcvs):
            out.write(f"E{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_node(el.ncp)} {_node(el.ncn)} {_fmt(el.gain)}\n")
        elif isinstance(el, Vccs):
            out.write(f"G{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_node(el.ncp)} {_node(el.ncn)} {_fmt(el.gm)}\n")
        elif isinstance(el, Cccs):
            out.write(f"F{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_control_card_name(circuit, el.control)} "
                      f"{_fmt(el.gain)}\n")
        elif isinstance(el, Ccvs):
            out.write(f"H{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{_control_card_name(circuit, el.control)} "
                      f"{_fmt(el.transresistance)}\n")
        elif isinstance(el, Switch):
            # exported as the resistor it is modelled as
            out.write(f"R{el.name} {_node(el.n1)} {_node(el.n2)} "
                      f"{_fmt(el.resistance)} ; switch "
                      f"({'on' if el.closed else 'off'})\n")
        elif isinstance(el, Mosfet):
            model = _instance_model(el)
            mos_models[model.name] = model
            out.write(f"M{el.name} {_node(el.d)} {_node(el.g)} "
                      f"{_node(el.s)} {_node(el.b)} {model.name} "
                      f"W={_fmt(el.w)} L={_fmt(el.l)} M={el.m}\n")
        elif isinstance(el, Bjt):
            bjt_models[el.model.name] = el.model
            out.write(f"Q{el.name} {_node(el.c)} {_node(el.b)} "
                      f"{_node(el.e)} {el.model.name} {_fmt(el.area)}\n")
        elif isinstance(el, Diode):
            diode_models[el.model.name] = el.model
            out.write(f"D{el.name} {_node(el.np)} {_node(el.nn)} "
                      f"{el.model.name} {_fmt(el.area)}\n")
        else:
            raise TypeError(f"cannot export element type {type(el).__name__}")

    out.write("\n")
    # Model cards sorted by name: the deck is a canonical function of the
    # circuit *contents*, not of the order devices happened to be added.
    for _, model in sorted(mos_models.items()):
        out.write(_mos_model_card(model) + "\n")
    for _, model in sorted(bjt_models.items()):
        out.write(_bjt_model_card(model) + "\n")
    for _, model in sorted(diode_models.items()):
        out.write(_diode_model_card(model) + "\n")
    out.write(".end\n")
    return out.getvalue()


def write_netlist(circuit: Circuit, path: str, title: str | None = None) -> None:
    """Export to a file."""
    with open(path, "w") as fh:
        fh.write(export_netlist(circuit, title))
