"""Per-frequency reference loops, frozen from earlier engine versions.

The small-signal engine solves every frequency of a sweep through one
stacked or Schur factorization.  These loops are the seed
implementation's way — re-linearise, one scipy ``lu_factor``/
``lu_solve`` (or ``solve``) per frequency — kept only as the references
the equivalence tests pin the engine against (``solve_stacked`` bit for
bit, the Schur path and the analyses to ``rtol=1e-9``).  Frozen: do not
change them to follow the engine.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.obs.recorder import prof_count
from repro.spice.ac import AcResult
from repro.spice.dc import OperatingPoint
from repro.spice.linsolve import _as_rhs_matrix
from repro.spice.netlist import is_ground
from repro.spice.noise import NoiseResult


def noise_sources(system, x):
    """The per-generator source records of :mod:`noise_reference`."""
    from noise_reference import noise_sources as frozen

    return frozen(system, x)


def solve_looped(
    g: np.ndarray,
    c: np.ndarray,
    freqs: np.ndarray,
    rhs: np.ndarray | None = None,
    adjoint_rhs: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-frequency reference path through scipy's ``lu_factor`` /
    ``lu_solve`` (the seed implementation's loop).

    Kept so the equivalence tests can pin the other paths against it;
    same contract as :func:`solve_stacked`.
    """
    if rhs is None and adjoint_rhs is None:
        raise ValueError("need at least one of rhs / adjoint_rhs")
    freqs = np.asarray(freqs, dtype=float)
    n = g.shape[0]
    bf = _as_rhs_matrix(rhs, n) if rhs is not None else None
    ba = _as_rhs_matrix(adjoint_rhs, n) if adjoint_rhs is not None else None
    fwd = np.empty((freqs.size, n, bf.shape[1]), dtype=complex) if bf is not None else None
    adj = np.empty((freqs.size, n, ba.shape[1]), dtype=complex) if ba is not None else None

    for k, f in enumerate(freqs):
        a = g + 2j * np.pi * f * c
        lu, piv = sla.lu_factor(a)
        prof_count("linsolve.lu_factor")
        if bf is not None:
            fwd[k] = sla.lu_solve((lu, piv), bf)
        if ba is not None:
            adj[k] = sla.lu_solve((lu, piv), ba, trans=1)
    return fwd, adj


def _ac_analysis_looped(op: OperatingPoint, freqs: np.ndarray) -> AcResult:
    """Seed-style reference path: re-linearize, one dense solve per
    frequency.  Kept for the equivalence tests."""
    system = op.system
    n = system.size
    freqs = np.asarray(freqs, dtype=float)
    g = system.linearize(op.x)[:n, :n]
    c = system.c_static[:n, :n]
    b = system.rhs_ac()[:n]

    solutions = np.zeros((len(freqs), system.size + 1), dtype=complex)
    for k, f in enumerate(freqs):
        a = g + 2j * np.pi * f * c
        solutions[k, :n] = sla.solve(a, b)
    return AcResult(system, freqs, solutions)


def _noise_analysis_looped(
    op: OperatingPoint,
    freqs: np.ndarray,
    out_p: str,
    out_n: str | None = None,
) -> NoiseResult:
    """Seed-style reference path: re-linearize, one LU per frequency and a
    dict-merge grouping loop.  Kept for the equivalence tests."""
    system = op.system
    n = system.size
    freqs = np.asarray(freqs, dtype=float)

    g = system.linearize(op.x)[:n, :n]
    c = system.c_static[:n, :n]
    b_in = system.rhs_ac()[:n]
    if not np.any(b_in):
        raise ValueError(
            "no AC stimulus configured; set ac=1 on the input source so the "
            "noise can be input-referred"
        )

    e_out = np.zeros(n)
    if not is_ground(out_p):
        e_out[system.node(out_p)] = 1.0
    if out_n is not None and not is_ground(out_n):
        e_out[system.node(out_n)] -= 1.0

    sources = noise_sources(system, op.x)
    idx_a = np.array([s.node_a for s in sources], dtype=np.intp)
    idx_b = np.array([s.node_b for s in sources], dtype=np.intp)
    psd_flat = np.array([s.psd_flat for s in sources])
    psd_flicker = np.array([s.psd_flicker for s in sources])
    af = np.array([s.af for s in sources])

    n_freq = len(freqs)
    output_psd = np.zeros(n_freq)
    gain = np.zeros(n_freq)
    contrib = np.zeros((len(sources), n_freq))

    for k, f in enumerate(freqs):
        a = g + 2j * np.pi * f * c
        lu, piv = sla.lu_factor(a)
        psi = sla.lu_solve((lu, piv), e_out.astype(complex), trans=1)
        psi_ext = np.append(psi, 0.0)  # ground slot
        gain[k] = abs(np.dot(psi, b_in))

        transfer_sq = np.abs(psi_ext[idx_a] - psi_ext[idx_b]) ** 2
        psd_f = psd_flat + psd_flicker / f**af
        terms = transfer_sq * psd_f
        contrib[:, k] = terms
        output_psd[k] = terms.sum()

    safe_gain_sq = np.maximum(gain, 1e-300) ** 2
    input_psd = output_psd / safe_gain_sq

    by_key: dict[tuple[str, str], np.ndarray] = {}
    for j, s in enumerate(sources):
        key = (s.device, s.mechanism)
        if key in by_key:
            by_key[key] = by_key[key] + contrib[j]
        else:
            by_key[key] = contrib[j].copy()

    return NoiseResult(
        freqs=freqs,
        output_psd=output_psd,
        gain=gain,
        input_psd=input_psd,
        contributions=by_key,
    )
