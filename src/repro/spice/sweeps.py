"""DC sweeps: one warm-started continuation walk.

Self-biased circuits (bandgap, bias generators, class-AB loops) have
degenerate or spurious DC states; jumping straight to an extreme
temperature or supply can land on the wrong one.  Every DC sweep is
therefore one :func:`continuation_walk`, the numeric analogue of slowly
turning the knob on the bench: it solves the anchor level once, cold,
then walks the levels at or below the anchor downward and those above it
upward, warm-starting each solve from the previous one.  A level equal
to the anchor gets the anchor's own solution.  A level is a value driven
onto one or more sources with a sign each (:func:`source_walk`) or a
temperature (:func:`temperature_sweep`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.netlist import Circuit

TEMP_ANCHOR_C = 25.0
"""Anchor of every temperature sweep: the nominal, nodeset-seeded point."""

TEMP_MAX_STEP_C = 12.0
"""Largest temperature step per solve: a warm start across a 40 K jump can
throw Newton into a degenerate equilibrium of a self-biased loop."""


@contextmanager
def restoring_sources(circuit: Circuit, names: Iterable[str]) -> Iterator[list]:
    """The named sources, each one's ``dc`` and ``wave`` restored on exit.

    Every name is looked up and checked before the caller can change any
    source, so a wrong name leaves the circuit as it was.
    """
    sources = [circuit.element(name) for name in names]
    for el in sources:
        if not isinstance(el, (VoltageSource, CurrentSource)):
            raise TypeError(f"{el.name!r} is not an independent source")
    saved = [(el.dc, el.wave) for el in sources]
    try:
        yield sources
    finally:
        for el, (dc, wave) in zip(sources, saved):
            el.dc, el.wave = dc, wave


def continuation_walk(
    levels: np.ndarray,
    anchor: float,
    solve: Callable[[float, np.ndarray | None], OperatingPoint],
    max_step: float | None = None,
) -> list[OperatingPoint]:
    """One operating point per level, in the order of ``levels``.

    ``solve(level, x0)`` returns the operating point at ``level``,
    warm-started from ``x0`` (cold when ``None``).  With ``max_step`` a
    longer step is split into equal hidden sub-steps.
    """
    levels = np.asarray(levels, dtype=float)
    anchor_op = solve(anchor, None)
    ops = [anchor_op] * len(levels)
    below = sorted((i for i, v in enumerate(levels) if v < anchor),
                   key=lambda i: -levels[i])
    above = sorted((i for i, v in enumerate(levels) if v > anchor),
                   key=lambda i: levels[i])
    for chain in (below, above):
        op, prev = anchor_op, anchor
        for i in chain:
            level = float(levels[i])
            path = [level]
            if max_step is not None:
                n = max(1, int(np.ceil(abs(level - prev) / max_step)))
                path = [prev + (level - prev) * k / n for k in range(1, n + 1)]
            for step in path:
                op = solve(step, op.x)
            ops[i], prev = op, level
    return ops


def source_walk(
    circuit: Circuit,
    drive: dict[str, float],
    levels: np.ndarray,
    anchor: float,
    temp_c: float,
) -> list[OperatingPoint]:
    """The walk with every source of ``drive`` (name -> sign) set to its
    sign times the level, at ``temp_c``."""
    with restoring_sources(circuit, drive) as sources:
        system = circuit.compile(temp_c=temp_c)

        def solve(level: float, x0: np.ndarray | None) -> OperatingPoint:
            for el, sign in zip(sources, drive.values()):
                el.dc = sign * level
            return dc_operating_point(system, x0=x0)

        return continuation_walk(levels, anchor, solve)


def dc_sweep(
    circuit: Circuit,
    element_name: str,
    values: np.ndarray,
    outputs: list[str],
    temp_c: float = TEMP_ANCHOR_C,
) -> dict[str, np.ndarray]:
    """Sweep the DC value of a source, anchored at ``values[0]`` (so a
    monotone sweep is walked in its own order).

    ``outputs`` lists node names (voltages) and/or ``"i(<name>)"`` entries
    (branch currents).  Returns ``{output: array, ..., "sweep": values}``.
    """
    values = np.asarray(values, dtype=float)
    ops = source_value_sweep(circuit, element_name, values, temp_c=temp_c)
    data = {}
    for out in outputs:
        branch = out[2:-1] if out.startswith("i(") and out.endswith(")") else None
        data[out] = np.asarray([op.i(branch) if branch else op.v(out) for op in ops])
    data["sweep"] = values
    return data


def source_value_sweep(
    circuit: Circuit,
    source_name: str,
    values: np.ndarray,
    anchor: float | None = None,
    temp_c: float = TEMP_ANCHOR_C,
) -> list[OperatingPoint]:
    """Full operating points of a source sweep, walked outward from
    ``anchor`` (default: the first value)."""
    values = np.asarray(values, dtype=float)
    return source_walk(circuit, {source_name: 1.0}, values,
                       float(values[0]) if anchor is None else anchor, temp_c)


def temperature_sweep(circuit: Circuit, temps_c: np.ndarray) -> list[OperatingPoint]:
    """Operating point at each temperature, walked outward from
    :data:`TEMP_ANCHOR_C` in steps of at most :data:`TEMP_MAX_STEP_C`."""
    return continuation_walk(
        temps_c, TEMP_ANCHOR_C,
        lambda t, x0: dc_operating_point(circuit, temp_c=t, x0=x0),
        max_step=TEMP_MAX_STEP_C)


def binary_search_threshold(
    probe: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: float = 1e-3,
    max_iter: int = 60,
) -> float:
    """Find the boundary where ``probe`` flips from True (at ``hi``) to
    False (at ``lo``); used for compliance/minimum-supply searches."""
    if not probe(hi):
        return float("nan")
    if probe(lo):
        return lo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi
