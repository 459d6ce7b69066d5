"""Noise analysis by the adjoint (transposed-system) method.

For each frequency the linearised MNA matrix ``A = G + jwC`` is factorised
once; the adjoint solve ``A^T psi = e_out`` yields, in one shot, the
transimpedance from *every* circuit branch to the output, so the output
noise PSD is a dot product over the noise-source list.  The signal
transfer ``H`` (for input-referring) falls out of the same factorisation:
``H = e_out^T A^-1 b_in = psi^T b_in``.

All frequencies are solved in one frequency-stacked batched
factorization (:mod:`repro.spice.linsolve`), and the per-source PSD and
contribution-grouping arithmetic is vectorised over the whole
``(n_source, n_freq)`` grid; the noise-source enumeration and its group
index arrays are cached on the operating point's small-signal context.

This mirrors how the paper reasons about noise: every device contributes
``|transfer|^2 * S_i`` and the budget is the ranked sum (Sec. 3.1/3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.dc import OperatingPoint


@dataclass
class NoiseResult:
    """Noise spectra plus the per-device/mechanism decomposition."""

    freqs: np.ndarray
    output_psd: np.ndarray                       # [V^2/Hz] at the output
    gain: np.ndarray                             # |H| from input source to output
    input_psd: np.ndarray                        # output_psd / |H|^2
    contributions: dict[tuple[str, str], np.ndarray]  # (device, mechanism) -> V^2/Hz

    def output_nv(self) -> np.ndarray:
        """Output noise voltage density [nV/sqrt(Hz)]."""
        return np.sqrt(self.output_psd) * 1e9

    def input_nv(self) -> np.ndarray:
        """Input-referred noise voltage density [nV/sqrt(Hz)]."""
        return np.sqrt(self.input_psd) * 1e9

    def input_nv_at(self, freq: float) -> float:
        """Interpolated input-referred density at one frequency [nV/sqrt(Hz)]."""
        return float(np.interp(freq, self.freqs, self.input_nv()))

    def integrated_output_rms(self, f_lo: float, f_hi: float) -> float:
        """RMS output noise over [f_lo, f_hi] [V]."""
        return _integrate_band(self.freqs, self.output_psd, f_lo, f_hi) ** 0.5

    def integrated_input_rms(self, f_lo: float, f_hi: float) -> float:
        """RMS input-referred noise over [f_lo, f_hi] [V]."""
        return _integrate_band(self.freqs, self.input_psd, f_lo, f_hi) ** 0.5

    def average_input_density(self, f_lo: float, f_hi: float) -> float:
        """Band-average input density sqrt(int PSD df / BW) [V/sqrt(Hz)].

        This is the paper's "equivalent average input referred RMS noise
        voltage ... in the voice band" figure of merit (Table 1 row 5).
        """
        power = _integrate_band(self.freqs, self.input_psd, f_lo, f_hi)
        return (power / (f_hi - f_lo)) ** 0.5

    def weighted_output_rms(self, weight, f_lo: float, f_hi: float) -> float:
        """RMS output noise with a |W(f)|^2 weighting (e.g. psophometric)."""
        w = np.asarray([weight(f) for f in self.freqs])
        return _integrate_band(self.freqs, self.output_psd * w**2, f_lo, f_hi) ** 0.5

    def top_contributors(self, freq: float, count: int = 10) -> list[tuple[str, str, float]]:
        """Largest (device, mechanism, V^2/Hz) contributions near ``freq``."""
        k = int(np.argmin(np.abs(self.freqs - freq)))
        ranked = sorted(
            ((dev, mech, float(psd[k])) for (dev, mech), psd in self.contributions.items()),
            key=lambda item: item[2],
            reverse=True,
        )
        return ranked[:count]

    def contribution_fraction(self, device_prefix: str) -> float:
        """Fraction of total output noise power from devices whose name
        starts with ``device_prefix`` (integrated over the sweep)."""
        total = np.trapezoid(self.output_psd, self.freqs)
        part = sum(
            np.trapezoid(psd, self.freqs)
            for (dev, _), psd in self.contributions.items()
            if dev.startswith(device_prefix)
        )
        return float(part / total) if total > 0.0 else 0.0


def _integrate_band(freqs: np.ndarray, psd: np.ndarray, f_lo: float, f_hi: float) -> float:
    """Integrate a sampled PSD over a band, interpolating the edges."""
    if f_lo >= f_hi:
        raise ValueError(f"empty integration band [{f_lo}, {f_hi}]")
    if f_lo < freqs[0] * 0.999 or f_hi > freqs[-1] * 1.001:
        raise ValueError(
            f"band [{f_lo}, {f_hi}] outside swept range [{freqs[0]}, {freqs[-1]}]"
        )
    grid = np.unique(np.concatenate([freqs[(freqs > f_lo) & (freqs < f_hi)], [f_lo, f_hi]]))
    vals = np.interp(grid, freqs, psd)
    return float(np.trapezoid(vals, grid))


@dataclass
class _NoiseSourcePack:
    """Noise-source enumeration flattened to arrays, plus group indices.

    ``group_ids[j]`` maps source ``j`` to its (device, mechanism) group so
    the contribution breakdown is one ``np.add.at`` over the whole
    ``(n_source, n_freq)`` grid instead of a dict-merge loop per source.
    """

    sources: list
    idx_a: np.ndarray          # extended node index of each source's + node
    idx_b: np.ndarray
    psd_flat: np.ndarray
    psd_flicker: np.ndarray
    af: np.ndarray
    flicker_mask: np.ndarray   # sources with a nonzero 1/f part
    group_keys: list[tuple[str, str]]
    group_ids: np.ndarray


def _noise_pack(ctx) -> _NoiseSourcePack:
    """Build (or fetch from the context cache) the flattened source pack."""
    pack = ctx.cache.get("noise_pack")
    if pack is not None:
        return pack
    sources = ctx.system.noise_sources(ctx.op.x)
    keys = [(s.device, s.mechanism) for s in sources]
    group_keys = list(dict.fromkeys(keys))
    key_to_id = {key: i for i, key in enumerate(group_keys)}
    psd_flicker = np.array([s.psd_flicker for s in sources])
    pack = _NoiseSourcePack(
        sources=sources,
        idx_a=np.array([s.node_a for s in sources], dtype=np.intp),
        idx_b=np.array([s.node_b for s in sources], dtype=np.intp),
        psd_flat=np.array([s.psd_flat for s in sources]),
        psd_flicker=psd_flicker,
        af=np.array([s.af for s in sources]),
        flicker_mask=psd_flicker != 0.0,
        group_keys=group_keys,
        group_ids=np.array([key_to_id[key] for key in keys], dtype=np.intp),
    )
    ctx.cache["noise_pack"] = pack
    return pack


def noise_analysis(
    op: OperatingPoint,
    freqs: np.ndarray,
    out_p: str,
    out_n: str | None = None,
) -> NoiseResult:
    """Output and input-referred noise at the operating point.

    The input transfer ``H`` uses the circuit's AC stimulus (set ``ac=1``
    on the input source); input-referred PSD is output PSD divided by
    ``|H|^2``, matching the paper's "equivalent input referred" metric at
    the closed-loop gain in effect.
    """
    freqs = np.asarray(freqs, dtype=float)
    ctx = op.small_signal()
    system = op.system

    b_in = ctx.rhs_ac()
    if not np.any(b_in):
        raise ValueError(
            "no AC stimulus configured; set ac=1 on the input source so the "
            "noise can be input-referred"
        )
    e_out = ctx.output_selector(out_p, out_n)
    pack = _noise_pack(ctx)

    # Adjoint: A^T psi = e_out (plain transpose, not conjugate); one
    # batched factorization covers every frequency.
    _, adj = ctx.solve(freqs, adjoint_rhs=e_out)
    psi = adj[:, :, 0]                               # (n_freq, n)
    gain = np.abs(psi @ b_in)

    n_freq = len(freqs)
    psi_ext = np.zeros((n_freq, system.size + 1), dtype=complex)
    psi_ext[:, : system.size] = psi
    transfer_sq = np.abs(psi_ext[:, pack.idx_a] - psi_ext[:, pack.idx_b]) ** 2

    psd_f = np.broadcast_to(pack.psd_flat, (n_freq, len(pack.sources))).copy()
    fl = pack.flicker_mask
    if np.any(fl):
        psd_f[:, fl] += pack.psd_flicker[fl] / freqs[:, None] ** pack.af[fl]

    contrib = (transfer_sq * psd_f).T                # (n_source, n_freq)
    output_psd = contrib.sum(axis=0)

    safe_gain_sq = np.maximum(gain, 1e-300) ** 2
    input_psd = output_psd / safe_gain_sq

    group_psd = np.zeros((len(pack.group_keys), n_freq))
    np.add.at(group_psd, pack.group_ids, contrib)
    by_key = {key: group_psd[i] for i, key in enumerate(pack.group_keys)}

    return NoiseResult(
        freqs=freqs,
        output_psd=output_psd,
        gain=gain,
        input_psd=input_psd,
        contributions=by_key,
    )
