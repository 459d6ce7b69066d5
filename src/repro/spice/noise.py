"""Noise analysis by the adjoint (transposed-system) method.

For each frequency the adjoint solve ``A^T psi = e_out`` of the
linearised MNA matrix ``A = G + jwC`` yields, in one shot, the
transimpedance from *every* circuit branch to the output, so the output
noise PSD is a dot product over the noise sources.  The signal transfer
``H`` (for input-referring) falls out of the same solve:
``H = e_out^T A^-1 b_in = psi^T b_in``.

One code serves one operating point and a tensor group alike, over a
leading unit axis:

* the adjoint sweep is :class:`~repro.spice.linsolve.SpectralSolver`'s
  (one Schur decomposition per unit, the triangular substitution over
  the unit and frequency axes), reached through the context's solve
  ladder for one operating point (:func:`noise_analysis`, ``N = 1``)
  and directly on a group's batched ``G``/``C`` (:func:`noise_units`);
* the sources are array packs straight from the device groups
  (:meth:`repro.spice.mna.StampedSystem.noise_sources`), one per source
  layout, and the sweep and the PSD reduction (:func:`_reduce`) run over
  up to :data:`NOISE_CHUNK_UNITS` units of a layout at once;
* the per-(device, mechanism) breakdown is computed only when
  :attr:`NoiseResult.contributions` is first read.

Each unit's arithmetic is the one-operating-point analysis's, kernel
for kernel, so a tensor group's unit equals its serial result bit for
bit.  This mirrors how the paper reasons about noise: every device
contributes ``|transfer|^2 * S_i`` and the budget is the ranked sum
(Sec. 3.1/3.2).
"""

from __future__ import annotations

import numpy as np

from repro.obs.recorder import prof_count
from repro.spice import linsolve
from repro.spice.dc import OperatingPoint
from repro.spice.linsolve import SpectralSolver, output_selector
from repro.spice.mna import NoiseSources


class NoiseResult:
    """Noise spectra plus the per-device/mechanism decomposition.

    ``output_psd`` [V^2/Hz] is at the output, ``gain`` is ``|H|`` from
    the input source to the output and ``input_psd`` is ``output_psd /
    |H|^2``.  :attr:`contributions` maps ``(device, mechanism)`` to its
    output PSD [V^2/Hz]; pass it, or ``breakdown=(terms, keys)`` — the
    ``(n_source, n_freq)`` output PSD terms and each source's key — to
    group it on first read.
    """

    def __init__(self, freqs: np.ndarray, output_psd: np.ndarray,
                 gain: np.ndarray, input_psd: np.ndarray,
                 contributions: dict[tuple[str, str], np.ndarray] | None = None,
                 breakdown: tuple[np.ndarray, list] | None = None) -> None:
        self.freqs = freqs
        self.output_psd = output_psd
        self.gain = gain
        self.input_psd = input_psd
        self._contributions = contributions
        self._breakdown = breakdown

    @property
    def contributions(self) -> dict[tuple[str, str], np.ndarray]:
        if self._contributions is None:
            terms, keys = self._breakdown
            group_keys = list(dict.fromkeys(keys))
            key_to_id = {key: i for i, key in enumerate(group_keys)}
            group_psd = np.zeros((len(group_keys), terms.shape[1]))
            np.add.at(group_psd, np.array([key_to_id[key] for key in keys],
                                          dtype=np.intp), terms)
            self._contributions = {key: group_psd[i]
                                   for i, key in enumerate(group_keys)}
        return self._contributions

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


#: Units per unit-axis noise sweep.  The per-unit cost has flattened by
#: about 8 units, while the sweep's working arrays grow with the units
#: it holds (a 64-unit group's took about 5 MB more peak memory), so a
#: larger group sweeps in chunks of this size.
NOISE_CHUNK_UNITS = 8


def _reduce(psi: np.ndarray, b_in: np.ndarray, src: NoiseSources,
            freqs: np.ndarray, size: int) -> list[NoiseResult]:
    """Noise results of the units of one source layout: ``psi`` is their
    ``(M, n_freq, n)`` adjoint transimpedances, ``b_in`` their ``(M, n)``
    AC stimuli; ``src`` is the layout's pack, its rows these units."""
    gain = np.abs(psi @ b_in[:, :, None])[..., 0]
    n_units, n_freq = psi.shape[:2]
    psi_ext = np.zeros((n_units, n_freq, size + 1), dtype=complex)
    psi_ext[..., :size] = psi
    transfer_sq = np.abs(psi_ext[..., src.node_a] - psi_ext[..., src.node_b]) ** 2

    psd_f = np.broadcast_to(src.psd_flat[:, None, :], transfer_sq.shape).copy()
    fl = src.flicker
    if np.any(fl):
        psd_f[..., fl] += src.psd_flicker[:, None, fl] / freqs[:, None] ** src.af[:, None, fl]

    terms = transfer_sq * psd_f                      # (M, n_freq, n_source)
    output_psd = terms.transpose(0, 2, 1).sum(axis=1)
    input_psd = output_psd / np.maximum(gain, 1e-300) ** 2
    return [NoiseResult(freqs, output_psd[m], gain[m], input_psd[m],
                        breakdown=(terms[m].T, src.keys))
            for m in range(n_units)]


def _stimulus(b_in: np.ndarray) -> None:
    if not np.any(b_in):
        raise ValueError(
            "no AC stimulus configured; set ac=1 on the input source so the "
            "noise can be input-referred"
        )


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
    the closed-loop gain in effect.  The adjoint sweep takes the
    context's solve ladder (Schur for a dense sweep, per-frequency LU
    where the gate rejects it); the source pack is cached on the
    context.
    """
    freqs = np.asarray(freqs, dtype=float)
    ctx = op.small_signal()
    b_in = ctx.rhs_ac()
    _stimulus(b_in)
    e_out = ctx.output_selector(out_p, out_n)
    sources = ctx.cache.get("noise_sources")
    if sources is None:
        sources = ctx.cache["noise_sources"] = op.system.noise_sources(op.x)

    # Adjoint: A^T psi = e_out (plain transpose, not conjugate).
    _, adj = ctx.solve(freqs, adjoint_rhs=e_out)
    (result,) = _reduce(adj[None, :, :, 0], b_in[None], sources[0], freqs,
                        op.system.size)
    return result


def noise_units(system, x: np.ndarray, g: np.ndarray, c: np.ndarray,
                units: list[int], freqs: np.ndarray, out_p: str,
                out_n: str | None = None) -> dict[int, NoiseResult | None]:
    """:func:`noise_analysis` of the units ``units`` of a tensor group.

    ``system`` is the group's :class:`~repro.spice.batch.BatchedSystem`,
    ``x`` its ``(N, dim)`` solutions and ``g``/``c`` its reduced
    small-signal tensors.  One unit-axis Schur sweep serves every unit;
    a unit whose residual gate rejects maps to ``None`` (its serial
    analysis takes the per-frequency LU path instead).  Every accepted
    unit's result equals its :func:`noise_analysis` bit for bit.
    """
    freqs = np.asarray(freqs, dtype=float)
    n = system.size
    b_in = system.rhs_ac()[:, :n]
    for u in units:
        _stimulus(b_in[u])
    e_out = output_selector(system.pattern, out_p, out_n)
    out: dict[int, NoiseResult | None] = dict.fromkeys(units)
    for src in system.noise_sources(x, units):
        for start in range(0, src.units.size, NOISE_CHUNK_UNITS):
            part = src.rows(slice(start, start + NOISE_CHUNK_UNITS))
            _, adj, resid = SpectralSolver(g[part.units], c[part.units]).solve_units(
                freqs, adjoint_rhs=e_out)
            ok = resid <= linsolve.SPECTRAL_RESIDUAL_TOL
            part = part.rows(ok)
            prof_count("noise.batched_units", part.units.size)
            for u, result in zip(part.units, _reduce(adj[ok][..., 0], b_in[part.units],
                                                     part, freqs, n)):
                out[int(u)] = result
    return out
