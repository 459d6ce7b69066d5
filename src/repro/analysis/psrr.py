"""PSRR and CMRR measurements.

A perfectly matched fully differential circuit has *infinite* simulated
differential PSRR — supply ripple enters purely as common mode.  That is
the paper's central argument for the FD structure ("low supply voltage
and the coexistence of a sensitive analogue front-end with a large and
fast digital network dictate a fully differential structure, because of
critical requirements on PSRR, CMRR and dynamic range").  The measured
75..78 dB of Tables 1/2 is therefore a *mismatch-limited* number, and the
reproduction measures it the same way: Monte Carlo over Pelgrom mismatch,
reporting the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit


@dataclass
class RejectionResult:
    """One rejection measurement (PSRR or CMRR) at one frequency."""

    freq: float
    gain_signal: float      # |H| from the differential input
    gain_disturb: float     # |H| from the disturbance (supply or CM)
    ratio_db: float         # 20*log10(gain_signal / gain_disturb)


def _signal_sources(circuit: Circuit, names: tuple[str, ...]) -> list[VoltageSource]:
    sources = []
    for name in names:
        el = circuit.element(name)
        if not isinstance(el, VoltageSource):
            raise TypeError(f"{name!r} is not a voltage source")
        sources.append(el)
    return sources


def _rejection(ctx, freq: float, b_signal, b_disturb, out_p: str, out_n: str) -> RejectionResult:
    """Solve both excitations as two RHS columns of one factorization."""
    fwd, _ = ctx.solve(np.array([freq]), rhs=np.stack([b_signal, b_disturb], axis=1))
    h = np.abs(ctx.probe(fwd, out_p, out_n)[0])
    h_sig, h_dist = float(h[0]), float(h[1])
    ratio = h_sig / max(h_dist, 1e-30)
    return RejectionResult(freq, h_sig, h_dist, 20.0 * float(np.log10(ratio)))


def measure_psrr(
    circuit: Circuit,
    supply_source: str,
    input_sources: tuple[str, ...],
    out_p: str,
    out_n: str,
    freq: float = 1e3,
    temp_c: float = 25.0,
    op: OperatingPoint | None = None,
) -> RejectionResult:
    """PSRR at one frequency: signal gain over supply-ripple gain.

    Both excitations are solved as two RHS columns of the *same*
    factorization (one linearisation, one LU at ``freq``).  Restores
    every source's AC stimulus afterwards, so the circuit can be reused
    for further measurements.

    Pass a precomputed ``op`` (of the *same* circuit) to reuse its cached
    :class:`~repro.spice.linsolve.SmallSignalContext` instead of paying a
    fresh DC solve + linearisation — the campaign engine shares one
    operating point across every measurement of a work unit this way.
    ``temp_c`` is ignored when ``op`` is given (the operating point fixes
    the temperature).
    """
    ins = _signal_sources(circuit, input_sources)
    sup = _signal_sources(circuit, (supply_source,))[0]
    saved = [(el, el.ac, el.ac_phase) for el in (*ins, sup)]
    try:
        if op is None:
            op = dc_operating_point(circuit, temp_c=temp_c)
        ctx = op.small_signal()

        # Column 0: the normal differential stimulus, supply quiet.
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
        sup.ac = 0.0
        b_sig = ctx.rhs_ac().copy()

        # Column 1: unit ripple on the supply only.
        for el in ins:
            el.ac = 0.0
        sup.ac = 1.0
        sup.ac_phase = 0.0
        b_sup = ctx.rhs_ac().copy()
    finally:
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph

    return _rejection(ctx, freq, b_sig, b_sup, out_p, out_n)


def measure_cmrr(
    circuit: Circuit,
    input_sources: tuple[str, str],
    out_p: str,
    out_n: str,
    freq: float = 1e3,
    temp_c: float = 25.0,
    op: OperatingPoint | None = None,
) -> RejectionResult:
    """CMRR: differential gain over common-mode gain (one factorization).

    ``op`` behaves as in :func:`measure_psrr`: a precomputed operating
    point of the same circuit whose cached linearisation is reused.
    """
    el_p, el_n = _signal_sources(circuit, input_sources)
    saved = [(el, el.ac, el.ac_phase) for el in (el_p, el_n)]
    try:
        if op is None:
            op = dc_operating_point(circuit, temp_c=temp_c)
        ctx = op.small_signal()

        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
        b_diff = ctx.rhs_ac().copy()

        # Common-mode drive: both inputs in phase, unit amplitude.
        for el in (el_p, el_n):
            el.ac = 1.0
            el.ac_phase = 0.0
        b_cm = ctx.rhs_ac().copy()
    finally:
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph

    return _rejection(ctx, freq, b_diff, b_cm, out_p, out_n)

