"""The four warm-started DC sweep loops, frozen from earlier engine versions.

Every DC sweep now runs through one continuation walk
(:func:`repro.spice.sweeps.continuation_walk`).  These are the loops it
replaced — a forward ``dc_sweep``, the anchored ``source_value_sweep``
and ``temperature_sweep``, and the anti-phase loop of
``measure_static_transfer`` — kept only as the references the walk is
pinned against bit for bit.  Frozen: do not change them to follow the
engine.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distortion import StaticTransfer
from repro.spice.dc import NewtonOptions, OperatingPoint, dc_operating_point
from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.netlist import Circuit


def dc_sweep(
    circuit: Circuit,
    element_name: str,
    values: np.ndarray,
    outputs: list[str],
    temp_c: float = 25.0,
    options: NewtonOptions | None = None,
) -> dict[str, np.ndarray]:
    """Sweep the DC value of a source; warm-start each point."""
    el = circuit.element(element_name)
    if not isinstance(el, (VoltageSource, CurrentSource)):
        raise TypeError(f"{element_name!r} is not a sweepable source")

    original = el.dc
    system = circuit.compile(temp_c=temp_c)
    results: dict[str, list[float]] = {out: [] for out in outputs}
    x_prev: np.ndarray | None = None
    try:
        for value in values:
            el.dc = float(value)
            op = dc_operating_point(system, temp_c=temp_c, options=options, x0=x_prev)
            x_prev = op.x
            for out in outputs:
                if out.startswith("i(") and out.endswith(")"):
                    results[out].append(op.i(out[2:-1]))
                else:
                    results[out].append(op.v(out))
    finally:
        el.dc = original

    data = {out: np.asarray(vals) for out, vals in results.items()}
    data["sweep"] = np.asarray(values, dtype=float)
    return data


def temperature_sweep(
    circuit: Circuit,
    temps_c: np.ndarray,
    anchor_c: float = 25.0,
    options: NewtonOptions | None = None,
    max_step_c: float = 12.0,
) -> list[OperatingPoint]:
    """Operating point at each temperature, warm-started outward from the
    anchor temperature in hidden steps of at most ``max_step_c``."""
    temps_c = np.asarray(temps_c, dtype=float)
    anchor_op = dc_operating_point(circuit, temp_c=anchor_c, options=options)

    def walk(x_from: np.ndarray, t_from: float, t_to: float) -> OperatingPoint:
        n_steps = max(1, int(np.ceil(abs(t_to - t_from) / max_step_c)))
        x = x_from
        op = None
        for k in range(1, n_steps + 1):
            t_k = t_from + (t_to - t_from) * k / n_steps
            op = dc_operating_point(circuit, temp_c=float(t_k),
                                    options=options, x0=x)
            x = op.x
        return op

    results: dict[int, OperatingPoint] = {}
    below = sorted((i for i in range(len(temps_c)) if temps_c[i] <= anchor_c),
                   key=lambda i: -temps_c[i])
    above = sorted((i for i in range(len(temps_c)) if temps_c[i] > anchor_c),
                   key=lambda i: temps_c[i])
    for chain in (below, above):
        x_prev = anchor_op.x
        t_prev = anchor_c
        for i in chain:
            op = walk(x_prev, t_prev, float(temps_c[i]))
            results[i] = op
            x_prev = op.x
            t_prev = float(temps_c[i])
    return [results[i] for i in range(len(temps_c))]


def source_value_sweep(
    circuit: Circuit,
    source_name: str,
    values: np.ndarray,
    anchor: float | None = None,
    temp_c: float = 25.0,
    options: NewtonOptions | None = None,
) -> list[OperatingPoint]:
    """DC sweep of a source value with continuation from an anchor value."""
    el = circuit.element(source_name)
    if not isinstance(el, (VoltageSource, CurrentSource)):
        raise TypeError(f"{source_name!r} is not a sweepable source")
    values = np.asarray(values, dtype=float)
    anchor_v = float(values[0]) if anchor is None else anchor

    original = el.dc
    system = circuit.compile(temp_c=temp_c)
    results: dict[int, OperatingPoint] = {}
    try:
        el.dc = anchor_v
        anchor_op = dc_operating_point(system, options=options)
        below = sorted((i for i in range(len(values)) if values[i] <= anchor_v),
                       key=lambda i: -values[i])
        above = sorted((i for i in range(len(values)) if values[i] > anchor_v),
                       key=lambda i: values[i])
        for chain in (below, above):
            x_prev = anchor_op.x
            for i in chain:
                el.dc = float(values[i])
                op = dc_operating_point(system, options=options, x0=x_prev)
                results[i] = op
                x_prev = op.x
    finally:
        el.dc = original
    return [results[i] for i in range(len(values))]


def measure_static_transfer(
    circuit: Circuit,
    source_p: str,
    source_n: str | None,
    out_p: str,
    out_n: str | None,
    amplitude: float,
    points: int = 41,
    temp_c: float = 25.0,
) -> StaticTransfer:
    """Sweep a differential source pair outward from zero, each direction
    from a cold zero-point solve, and record the DC transfer."""
    el_p = circuit.element(source_p)
    el_n = circuit.element(source_n) if source_n else None
    for el in (el_p, el_n):
        if el is not None and not isinstance(el, VoltageSource):
            raise TypeError(f"{el.name!r} is not a voltage source")

    system = circuit.compile(temp_c=temp_c)
    half = amplitude / 2.0 if el_n is not None else amplitude
    steps = np.linspace(0.0, half, (points + 1) // 2)
    orig_p = el_p.dc
    orig_n = el_n.dc if el_n is not None else 0.0

    vin_list: list[float] = []
    vout_list: list[float] = []
    try:
        for direction in (+1.0, -1.0):
            x_prev = None
            for v in steps:
                el_p.dc = direction * v
                if el_n is not None:
                    el_n.dc = -direction * v
                op = dc_operating_point(system, x0=x_prev)
                x_prev = op.x
                vd = 2.0 * direction * v if el_n is not None else direction * v
                out = op.v(out_p) - (op.v(out_n) if out_n else 0.0)
                vin_list.append(vd)
                vout_list.append(out)
    finally:
        el_p.dc = orig_p
        if el_n is not None:
            el_n.dc = orig_n

    order = np.argsort(vin_list)
    vin = np.asarray(vin_list)[order]
    vout = np.asarray(vout_list)[order]
    keep = np.concatenate([[True], np.diff(vin) > 0.0])
    return StaticTransfer(vin[keep], vout[keep])
