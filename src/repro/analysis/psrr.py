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

Both ratios are :class:`Probe`\\ s: override columns on the circuit's AC
stimulus, solved as RHS columns of one factorization and reduced by
:func:`rejection`.  The campaign's ``psrr_1khz_db``/``cmrr_1khz_db``
measurements use the same probes and reduction, per unit or over a
unit axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.elements import VoltageSource
from repro.spice.mna import ac_rhs
from repro.spice.netlist import Circuit


@dataclass(frozen=True)
class Probe:
    """A single-frequency small-signal probe: one
    :func:`~repro.spice.mna.ac_rhs` override dict per RHS column (``{}``
    is the configured stimulus), all solved on one factorization at
    ``freq`` and read at the output pair ``out_p``/``out_n``."""

    freq: float
    columns: tuple[dict, ...]
    out_p: str
    out_n: str | None

    def rhs(self, system, vsources, isources) -> np.ndarray:
        """The ``(n, k)`` RHS columns, stamped through ``system``'s
        source topology."""
        b = np.empty((system.size, len(self.columns)), dtype=complex)
        for k, overrides in enumerate(self.columns):
            b[:, k] = ac_rhs(system, vsources, isources, overrides)[: system.size]
        return b


def solve_probe(op: OperatingPoint, probe: Probe) -> np.ndarray:
    """Probe values at ``op``, through its shared small-signal context."""
    ctx, system = op.small_signal(), op.system
    fwd, _ = ctx.solve(np.array([probe.freq]),
                       rhs=probe.rhs(system, system.vsources, system.isources))
    return ctx.probe(fwd, probe.out_p, probe.out_n)[0]


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


def psrr_probe(circuit: Circuit, supply_source: str,
               input_sources: tuple[str, ...], out_p: str, out_n: str,
               freq: float = 1e3) -> Probe:
    """The configured stimulus with the supply quiet (its phase kept),
    then unit supply ripple with the inputs quiet."""
    _signal_sources(circuit, (*input_sources, supply_source))
    ripple = {name: (0.0, None) for name in input_sources}
    ripple[supply_source] = (1.0, 0.0)
    return Probe(freq, ({supply_source: (0.0, None)}, ripple), out_p, out_n)


def cmrr_probe(circuit: Circuit, input_sources: tuple[str, str], out_p: str,
               out_n: str, freq: float = 1e3) -> Probe:
    """The configured (differential) stimulus, then both inputs in phase."""
    _signal_sources(circuit, input_sources)
    in_p, in_n = input_sources
    return Probe(freq, ({}, {in_p: (1.0, 0.0), in_n: (1.0, 0.0)}), out_p, out_n)


def rejection(freq: float, values: np.ndarray) -> RejectionResult:
    """Reduce a two-column probe (signal, disturbance) to its ratio."""
    h = np.abs(values)
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
    factorization (one linearisation, one LU at ``freq``); the circuit's
    sources are never modified.

    Pass a precomputed ``op`` (of the *same* circuit) to reuse its cached
    :class:`~repro.spice.linsolve.SmallSignalContext` instead of paying a
    fresh DC solve + linearisation.  ``temp_c`` is ignored when ``op`` is
    given (the operating point fixes the temperature).
    """
    probe = psrr_probe(circuit, supply_source, input_sources, out_p, out_n, freq)
    if op is None:
        op = dc_operating_point(circuit, temp_c=temp_c)
    return rejection(freq, solve_probe(op, probe))


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
    probe = cmrr_probe(circuit, input_sources, out_p, out_n, freq)
    if op is None:
        op = dc_operating_point(circuit, temp_c=temp_c)
    return rejection(freq, solve_probe(op, probe))
