"""Small-signal AC analysis.

The circuit is linearised at a DC operating point (once, via the cached
:class:`~repro.spice.linsolve.SmallSignalContext`) and ``(G + jwC) x = b``
is solved for all frequencies in one frequency-stacked batched
factorization.  Output specifiers accept node names, ``"v(p,n)"``
differential pairs and ``"i(element)"`` branch currents.
"""

from __future__ import annotations

import numpy as np

from repro.spice.dc import OperatingPoint
from repro.spice.netlist import is_ground


class AcResult:
    """Complex node spectra from an AC sweep."""

    def __init__(self, system, freqs: np.ndarray, solutions: np.ndarray):
        self.system = system
        self.freqs = freqs
        self._x = solutions  # (n_freq, size+1) complex, ground column zeroed

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage vs frequency."""
        return self._x[:, self.system.node(node)].copy()

    def vdiff(self, node_p: str, node_n: str) -> np.ndarray:
        return self.v(node_p) - self.v(node_n)

    def i(self, element_name: str) -> np.ndarray:
        return self._x[:, self.system.branch(element_name)].copy()

    def mag_db(self, node_p: str, node_n: str | None = None) -> np.ndarray:
        """Magnitude in dB of a node (or differential) voltage."""
        sig = self.v(node_p) if node_n is None else self.vdiff(node_p, node_n)
        mag = np.abs(sig)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, node_p: str, node_n: str | None = None) -> np.ndarray:
        sig = self.v(node_p) if node_n is None else self.vdiff(node_p, node_n)
        return np.degrees(np.angle(sig))


def ac_analysis(op: OperatingPoint, freqs: np.ndarray) -> AcResult:
    """Run an AC sweep at the operating point ``op``.

    The stimulus is every source's ``ac`` attribute (standard SPICE
    semantics: set ``ac=1`` on the input you care about).
    """
    freqs = np.asarray(freqs, dtype=float)
    ctx = op.small_signal()
    return AcResult(op.system, freqs, ctx.ac_solutions(freqs))


def transfer_function(
    op: OperatingPoint,
    freqs: np.ndarray,
    out_p: str,
    out_n: str | None = None,
) -> np.ndarray:
    """Complex transfer from the AC-driven source(s) to an output."""
    result = ac_analysis(op, freqs)
    if out_n is None or is_ground(out_n):
        return result.v(out_p)
    return result.vdiff(out_p, out_n)


def loop_gain_margins(freqs: np.ndarray, loop_gain: np.ndarray) -> dict[str, float]:
    """Phase margin / gain margin / unity-gain frequency from a loop-gain sweep.

    ``loop_gain`` is the complex open-loop transfer sampled at ``freqs``.
    Returns NaN entries when the corresponding crossing is outside the
    sweep range.
    """
    mag = np.abs(loop_gain)
    phase = np.unwrap(np.angle(loop_gain))
    out = {"f_unity": float("nan"), "phase_margin_deg": float("nan"),
           "gain_margin_db": float("nan")}

    crossing = np.where((mag[:-1] >= 1.0) & (mag[1:] < 1.0))[0]
    if crossing.size:
        k = crossing[0]
        # log-linear interpolation of the crossing frequency
        m1, m2 = np.log10(mag[k]), np.log10(mag[k + 1])
        frac = m1 / (m1 - m2)
        f_unity = freqs[k] * (freqs[k + 1] / freqs[k]) ** frac
        ph = phase[k] + frac * (phase[k + 1] - phase[k])
        out["f_unity"] = float(f_unity)
        out["phase_margin_deg"] = float(180.0 + np.degrees(ph))

    flip = np.where(np.diff(np.sign(phase + np.pi)) != 0)[0]
    if flip.size:
        k = flip[0]
        out["gain_margin_db"] = float(-20.0 * np.log10(max(mag[k], 1e-300)))
    return out
