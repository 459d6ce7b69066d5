"""Small-signal solve layer.

Every small-signal analysis in this package reduces to solving

    (G + 2j*pi*f*C) x = b

at many frequencies, often for several right-hand sides at once (the AC
stimulus, PSRR/CMRR injections) plus the *transposed* system for adjoint
noise transimpedances.  Every dense LU here is one LAPACK kernel pair,
``zgetrf`` to factor and ``zgetrs`` to solve, called directly because
the scipy wrappers' per-matrix Python overhead dominates at the paper's
matrix sizes:

* :func:`solve_stacked` factors each frequency's ``A = G + 2j*pi*f*C``
  once; the same factors then serve every forward RHS column *and* the
  adjoint solve (``zgetrs`` with ``trans=1``) — one factorization per
  frequency for AC gain, noise and PSRR together.
* :class:`SpectralSolver` pushes the sharing to its limit for dense
  sweeps: writing ``A = G (I + 2j*pi*f*M)`` with ``M = G^{-1} C``, one
  complex Schur decomposition ``M = Q T Q^H`` (unconditionally stable —
  ``Q`` unitary, unlike an eigenbasis of the typically *defective* MNA
  ``M``) turns every frequency point into an O(n^2) triangular
  substitution, vectorised over the whole frequency axis.  Solutions are
  residual-verified at spread sample points plus the sweep's
  worst-conditioned frequency, falling back to :func:`solve_stacked` if
  the check fails.
* :func:`solve_looped` is the reference path through the scipy wrappers
  (``lu_factor``/``lu_solve``, the same LAPACK routines).  The tests pin
  :func:`solve_stacked` to it bit for bit and the Schur path to
  ``rtol=1e-9``.
* :class:`SmallSignalContext` caches the linearized ``G``/``C`` and the
  Schur decomposition of one operating point so AC, noise and PSRR stop
  re-calling ``system.linearize(op.x)`` per metric.  It is created
  lazily through :meth:`repro.spice.dc.OperatingPoint.small_signal`.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack as _lapack

from repro.obs.recorder import event, prof_count
from repro.spice.netlist import is_ground

#: Minimum sweep length before the Schur fast path pays for its one-time
#: decomposition; below this the stacked LU path wins (PSRR probes solve
#: a single frequency).
SPECTRAL_MIN_FREQS = 16

#: Scaled-residual acceptance for the Schur path.  Measured residuals on
#: the paper circuits sit around 1e-14; 1e-10 leaves two decades of
#: margin while still rejecting any genuine breakdown long before it
#: could push the solution outside the 1e-9 equivalence band.
SPECTRAL_RESIDUAL_TOL = 1e-10


def _as_rhs_matrix(rhs: np.ndarray, n: int) -> np.ndarray:
    """Normalise a RHS spec to a complex (n, k) column matrix."""
    b = np.asarray(rhs)
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"rhs must be (n,) or (n, k) with n={n}, got {b.shape}")
    return b.astype(complex, copy=False)


def _getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and pivots of one complex matrix (``zgetrf``, the
    routine behind scipy's ``lu_factor``, bit for bit).  A singular
    matrix (``info > 0``) is kept: its ``zgetrs`` solution goes
    non-finite, which the callers' checks see."""
    lu, piv, info = _lapack.zgetrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrf")
    return lu, piv


def solve_stacked(
    g: np.ndarray,
    c: np.ndarray,
    freqs: np.ndarray,
    rhs: np.ndarray | None = None,
    adjoint_rhs: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-frequency LU solve of ``A x = rhs`` and ``A^T psi = adjoint_rhs``.

    One ``zgetrf`` factorization per frequency serves every forward RHS
    column and every adjoint column (plain transpose, not conjugate —
    the adjoint noise method needs ``A^T``, and the ``trans=1`` solve
    reuses the factors of ``A`` directly).

    Returns ``(fwd, adj)`` with shapes ``(n_freq, n, k_fwd)`` and
    ``(n_freq, n, k_adj)``; an entry is ``None`` when the corresponding
    RHS was not requested.
    """
    if rhs is None and adjoint_rhs is None:
        raise ValueError("need at least one of rhs / adjoint_rhs")
    freqs = np.asarray(freqs, dtype=float)
    n = g.shape[0]
    nf = freqs.size
    bf = _as_rhs_matrix(rhs, n) if rhs is not None else None
    ba = _as_rhs_matrix(adjoint_rhs, n) if adjoint_rhs is not None else None
    fwd = np.empty((nf, n, bf.shape[1]), dtype=complex) if bf is not None else None
    adj = np.empty((nf, n, ba.shape[1]), dtype=complex) if ba is not None else None

    w = 2j * np.pi * freqs
    for k in range(nf):
        lu, piv = _getrf(g + w[k] * c)
        if bf is not None:
            fwd[k], _ = _lapack.zgetrs(lu, piv, bf)
        if ba is not None:
            adj[k], _ = _lapack.zgetrs(lu, piv, ba, trans=1)
    prof_count("linsolve.lu_factor", nf)
    prof_count("linsolve.lu_solve", nf * ((bf is not None) + (ba is not None)))
    return fwd, adj


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


class SpectralSolver:
    """Shared-factorization solver for dense frequency sweeps.

    ``(G + 2j*pi*f*C) x = b`` is rewritten as ``G (I + jw*M) x = b`` with
    ``M = G^{-1} C``; one complex Schur decomposition ``M = Q T Q^H``
    then reduces every frequency to a triangular substitution in the
    Schur basis, vectorised across the whole sweep.  The adjoint system
    ``A^T psi = e`` reuses the *same* decomposition (``I + jw*T^T`` is
    lower triangular), so AC gain, noise transimpedances and any number
    of injections all ride on a single factorization.

    Accuracy: Schur with a unitary ``Q`` is backward stable, and
    :meth:`solve` checks scaled residuals at spread samples plus the
    sweep's worst-conditioned frequency, returning ``None`` so the
    caller can fall back to :func:`solve_stacked` on any doubt.
    """

    def __init__(self, g: np.ndarray, c: np.ndarray) -> None:
        self.g = g
        self.c = c
        self.n = g.shape[0]
        self.lu_g = sla.lu_factor(g)
        m = sla.lu_solve(self.lu_g, c)
        if not np.all(np.isfinite(m)):
            raise np.linalg.LinAlgError("G^-1 C is not finite")
        self.t, self.q = sla.schur(m, output="complex")
        self.t_diag = self.t.diagonal().copy()
        self.q_conj = self.q.conj()
        # Inf-norms for the scaled residual check (row sums for A,
        # column sums for the transposed adjoint system).
        self._g_norm = float(np.abs(g).sum(axis=1).max())
        self._c_norm = float(np.abs(c).sum(axis=1).max())
        self._gt_norm = float(np.abs(g).sum(axis=0).max())
        self._ct_norm = float(np.abs(c).sum(axis=0).max())

    def _substitute(self, r: np.ndarray, jw: np.ndarray,
                    inv_diag: np.ndarray, lower: bool) -> np.ndarray:
        """Solve ``(I + jw*T) z = r`` (or the lower-triangular transpose)
        for every frequency at once; ``r`` is (n, k), result (nf, k, n)."""
        n, nf, k = self.n, jw.size, r.shape[1]
        t = self.t
        z = np.empty((nf, k, n), dtype=complex)
        jw_col = jw[:, None]
        order = range(n) if lower else range(n - 1, -1, -1)
        for i in order:
            if lower:
                coupled = z[:, :, :i] @ t[:i, i] if i else 0.0
            else:
                coupled = z[:, :, i + 1:] @ t[i, i + 1:] if i < n - 1 else 0.0
            z[:, :, i] = (r[i][None, :] - jw_col * coupled) * inv_diag[:, i][:, None]
        return z

    def _scaled_residual(self, freqs: np.ndarray, jw: np.ndarray,
                         x: np.ndarray, b: np.ndarray, adjoint: bool,
                         worst_idx: int) -> float:
        """Max scaled residual over a spread of sample frequencies plus
        the worst-conditioned point of the sweep (where ``1 + jw*t_ii``
        comes closest to zero — the one place the triangular substitution
        could lose accuracy between evenly spaced samples)."""
        nf = freqs.size
        samples = np.unique(np.append(
            np.linspace(0, nf - 1, min(nf, 8)).astype(int), worst_idx
        ))
        a_base = (self.g.T if adjoint else self.g).astype(complex)
        c_base = self.c.T if adjoint else self.c
        g_norm = self._gt_norm if adjoint else self._g_norm
        c_norm = self._ct_norm if adjoint else self._c_norm
        b_norm = np.abs(b).max(axis=0) + 1e-300          # per RHS column
        worst = 0.0
        for s in samples:
            a = a_base + jw[s] * c_base
            resid = np.abs(a @ x[s] - b).max(axis=0)
            a_norm = g_norm + np.abs(jw[s]) * c_norm
            x_norm = np.abs(x[s]).max(axis=0)
            worst = max(worst, float(np.max(resid / (a_norm * x_norm + b_norm))))
        return worst

    #: The scaled residual that last rejected this solver's fast path
    #: (``None`` if never rejected, or rejected on a non-finite result).
    last_rejected_residual: float | None = None

    def solve(
        self,
        freqs: np.ndarray,
        rhs: np.ndarray | None = None,
        adjoint_rhs: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None] | None:
        """Same contract as :func:`solve_stacked`; ``None`` means the
        residual check rejected the fast path (caller should fall back)."""
        if rhs is None and adjoint_rhs is None:
            raise ValueError("need at least one of rhs / adjoint_rhs")
        freqs = np.asarray(freqs, dtype=float)
        jw = 2j * np.pi * freqs
        nf, n = freqs.size, self.n
        inv_diag = 1.0 / (1.0 + jw[:, None] * self.t_diag[None, :])  # (nf, n)
        worst_idx = int(np.argmax(np.abs(inv_diag).max(axis=1)))

        fwd = adj = None
        if rhs is not None:
            bf = _as_rhs_matrix(rhs, n)
            # x = Q (I + jw T)^-1 Q^H G^-1 b
            r = self.q.conj().T @ sla.lu_solve(self.lu_g, bf)
            z = self._substitute(r, jw, inv_diag, lower=False)
            fwd = (z @ self.q.T).transpose(0, 2, 1)
            if not np.all(np.isfinite(fwd)):
                self.last_rejected_residual = None
                return None
            res = self._scaled_residual(
                freqs, jw, fwd, bf, adjoint=False, worst_idx=worst_idx)
            if res > SPECTRAL_RESIDUAL_TOL:
                self.last_rejected_residual = res
                return None
        if adjoint_rhs is not None:
            ba = _as_rhs_matrix(adjoint_rhs, n)
            # psi = G^-T conj(Q) (I + jw T^T)^-1 Q^T e
            u = self.q.T @ ba
            y = self._substitute(u, jw, inv_diag, lower=True)
            p0 = (y @ self.q_conj.T).reshape(nf * ba.shape[1], n)
            adj = sla.lu_solve(self.lu_g, p0.T, trans=1).T.reshape(nf, ba.shape[1], n)
            adj = adj.transpose(0, 2, 1)
            if not np.all(np.isfinite(adj)):
                self.last_rejected_residual = None
                return None
            res = self._scaled_residual(
                freqs, jw, adj, ba, adjoint=True, worst_idx=worst_idx)
            if res > SPECTRAL_RESIDUAL_TOL:
                self.last_rejected_residual = res
                return None
        return fwd, adj


class SmallSignalContext:
    """Linearization of one operating point, shared across analyses.

    ``G`` and ``C`` depend only on the operating point, so they are
    computed once here; the AC excitation vector is re-read per solve
    through the system's cached (and mutation-invalidated) ``rhs_ac``,
    which keeps the PSRR-style "tweak a source, re-run" pattern correct.
    ``cache`` is a scratch dict for per-analysis precomputations (the
    noise layer stores its source pack there).
    """

    def __init__(self, op) -> None:
        self.op = op
        self.system = op.system
        self.n = self.system.size
        n = self.n
        self.g = np.ascontiguousarray(self.system.linearize(op.x)[:n, :n])
        self.c = np.ascontiguousarray(self.system.c_static[:n, :n])
        self.cache: dict = {}
        self._spectral: SpectralSolver | None = None
        self._spectral_dead = False
        self._spectral_dead_reason: str | None = None
        self._sparse_gc: tuple | None = None
        self._sparse_dead = False
        self._sparse_dead_reason: str | None = None

    def latch_reasons(self) -> dict:
        """Why fast paths latched off for this context, if they did —
        ``{"sparse": reason, "spectral": reason}``, empty when healthy.
        Surfaced through :meth:`repro.spice.dc.OperatingPoint.health`
        into the campaign's solver-health sidecar."""
        reasons = {}
        if self._sparse_dead and self._sparse_dead_reason:
            reasons["sparse"] = self._sparse_dead_reason
        if self._spectral_dead and self._spectral_dead_reason:
            reasons["spectral"] = self._spectral_dead_reason
        return reasons

    def _latch_sparse_dead(self, reason: str, **fields) -> None:
        """Kill the sparse path for this context, keeping the cause."""
        self._sparse_dead = True
        self._sparse_dead_reason = reason
        event("linsolve.sparse_dead_latch", "warn",
              circuit=self.system.circuit.name, reason=reason, **fields)

    def rhs_ac(self) -> np.ndarray:
        """Current AC excitation (reduced, no ground slot); treat as read-only."""
        return self.system.rhs_ac()[: self.n]

    def spectral(self) -> SpectralSolver | None:
        """The cached shared-factorization solver (None if unusable here)."""
        if self._spectral is None and not self._spectral_dead:
            try:
                self._spectral = SpectralSolver(self.g, self.c)
            except (np.linalg.LinAlgError, ValueError) as exc:
                self._spectral_dead = True
                self._spectral_dead_reason = (
                    f"eigendecomposition failed: {type(exc).__name__}: {exc}")
                event("linsolve.spectral_dead_latch", "warn",
                      circuit=self.system.circuit.name,
                      reason=self._spectral_dead_reason)
        return self._spectral

    def solve(
        self,
        freqs: np.ndarray,
        rhs: np.ndarray | None = None,
        adjoint_rhs: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Forward/adjoint solve at this operating point.

        Systems above the sparse node threshold go through a per-
        frequency SuperLU factorization first (one CSC factorization
        serving the forward and the transposed adjoint solves).  Below
        it, dense sweeps go through the cached Schur fast path and short
        probes use :func:`solve_stacked`; any rejected fast path falls
        back down this ladder.  All paths agree with the looped
        reference to well under 1e-9 (:func:`solve_stacked` bit for bit).
        """
        freqs = np.asarray(freqs, dtype=float)
        if getattr(self.system, "prefer_sparse", False):
            result = self._solve_sparse(freqs, rhs, adjoint_rhs)
            if result is not None:
                prof_count("linsolve.path.sparse")
                return result
        if freqs.size >= SPECTRAL_MIN_FREQS:
            solver = self.spectral()
            if solver is not None:
                result = solver.solve(freqs, rhs, adjoint_rhs)
                if result is not None:
                    prof_count("linsolve.path.spectral")
                    return result
                # Rejection is per sweep (e.g. one near-degenerate grid);
                # other grids on this context may still use the fast path.
                prof_count("linsolve.spectral_rejected")
                event("linsolve.spectral_rejected", "warn",
                      circuit=self.system.circuit.name,
                      n_freqs=int(freqs.size),
                      resid=solver.last_rejected_residual)
        prof_count("linsolve.path.stacked")
        return solve_stacked(self.g, self.c, freqs, rhs, adjoint_rhs)

    def _solve_sparse(
        self,
        freqs: np.ndarray,
        rhs: np.ndarray | None,
        adjoint_rhs: np.ndarray | None,
    ) -> tuple[np.ndarray | None, np.ndarray | None] | None:
        """Per-frequency ``splu`` solve for systems above the sparse
        threshold.

        ``G``/``C`` are cached once in CSC form; each frequency's
        ``A = G + 2j*pi*f*C`` is factorized with SuperLU and the factors
        serve every forward column and the transposed adjoint columns
        (``trans="T"``).  Every solution passes the same scaled-residual
        acceptance gate as :class:`SpectralSolver`; any failure marks
        the path dead for this context and returns ``None`` so the
        caller falls back to the dense ladder.
        """
        if self._sparse_dead:
            return None
        from scipy import sparse
        from scipy.sparse.linalg import splu

        if self._sparse_gc is None:
            self._sparse_gc = (sparse.csc_matrix(self.g), sparse.csc_matrix(self.c))
        sg, sc = self._sparse_gc
        n = self.n
        bf = _as_rhs_matrix(rhs, n) if rhs is not None else None
        ba = _as_rhs_matrix(adjoint_rhs, n) if adjoint_rhs is not None else None
        fwd = np.empty((freqs.size, n, bf.shape[1]), dtype=complex) if bf is not None else None
        adj = np.empty((freqs.size, n, ba.shape[1]), dtype=complex) if ba is not None else None

        for k, f in enumerate(freqs):
            a = (sg + (2j * np.pi * float(f)) * sc).tocsc()
            try:
                with np.errstate(all="ignore"):
                    lu = splu(a)
                prof_count("linsolve.sparse_splu")
            except (RuntimeError, ValueError) as exc:
                self._latch_sparse_dead(
                    f"splu factorization failed: {type(exc).__name__}",
                    freq=float(f))
                return None
            a_norm = float(np.abs(a).sum(axis=1).max())
            at_norm = float(np.abs(a).sum(axis=0).max())
            if bf is not None:
                xk = lu.solve(bf)
                res = self._sparse_residual(a, xk, bf, a_norm)
                if res > SPECTRAL_RESIDUAL_TOL:
                    self._latch_sparse_dead(
                        "forward solve rejected on scaled residual",
                        freq=float(f), resid=res)
                    return None
                fwd[k] = xk
            if ba is not None:
                pk = lu.solve(ba, trans="T")
                res = self._sparse_residual(a.T, pk, ba, at_norm)
                if res > SPECTRAL_RESIDUAL_TOL:
                    self._latch_sparse_dead(
                        "adjoint solve rejected on scaled residual",
                        freq=float(f), resid=res)
                    return None
                adj[k] = pk
        return fwd, adj

    @staticmethod
    def _sparse_residual(a, x: np.ndarray, b: np.ndarray,
                         a_norm: float) -> float:
        """Worst scaled residual for one sparse solve (per column);
        ``inf`` for a non-finite solution.  The caller compares against
        :data:`SPECTRAL_RESIDUAL_TOL` and keeps the rejecting value for
        the dead-latch event."""
        if not np.all(np.isfinite(x)):
            return float("inf")
        resid = np.abs(a @ x - b).max(axis=0)
        x_norm = np.abs(x).max(axis=0)
        b_norm = np.abs(b).max(axis=0) + 1e-300
        return float(np.max(resid / (a_norm * x_norm + b_norm)))

    def ac_solutions(self, freqs: np.ndarray) -> np.ndarray:
        """Extended AC solutions (n_freq, size+1) for the current stimulus."""
        freqs = np.asarray(freqs, dtype=float)
        fwd, _ = self.solve(freqs, rhs=self.rhs_ac())
        out = np.zeros((freqs.size, self.system.size + 1), dtype=complex)
        out[:, : self.n] = fwd[:, :, 0]
        return out

    def output_selector(self, out_p: str, out_n: str | None = None) -> np.ndarray:
        """Unit selector ``e_out`` for a (differential) output, reduced size."""
        e_out = np.zeros(self.n)
        if not is_ground(out_p):
            e_out[self.system.node(out_p)] = 1.0
        if out_n is not None and not is_ground(out_n):
            e_out[self.system.node(out_n)] -= 1.0
        return e_out

    def probe(self, solutions: np.ndarray, out_p: str, out_n: str | None = None) -> np.ndarray:
        """Read a (differential) voltage out of reduced solution columns.

        ``solutions`` has node values along axis 1 (e.g. the ``fwd`` array
        of :meth:`solve`); ground probes read as zero.
        """
        zero = np.zeros(solutions.shape[0:1] + solutions.shape[2:], dtype=solutions.dtype)
        vp = zero if is_ground(out_p) else solutions[:, self.system.node(out_p)]
        if out_n is None or is_ground(out_n):
            return vp
        return vp - solutions[:, self.system.node(out_n)]

    def transfer(self, freqs: np.ndarray, out_p: str, out_n: str | None = None) -> np.ndarray:
        """Complex transfer from the configured AC stimulus to an output."""
        freqs = np.asarray(freqs, dtype=float)
        fwd, _ = self.solve(freqs, rhs=self.rhs_ac())
        return self.probe(fwd[:, :, 0], out_p, out_n)


class BatchedSmallSignalContext:
    """Single-frequency solves batched over a leading *unit* axis.

    Where :class:`SmallSignalContext` batches one circuit over many
    frequencies, this context batches many same-topology circuits (a
    campaign group, see :mod:`repro.spice.batch`) at the probe
    frequencies the campaign measurements use (one or two RHS columns at
    1 kHz).  The factorization of each ``A_u = G_u + 2j*pi*f*C_u`` is
    cached per frequency and shared by every measurement of the group —
    the unit-axis analogue of the serial path's per-unit LU reuse.

    Bitwise contract: the matrix assembly replays
    :func:`solve_stacked`'s scalar ops per unit and factors and solves
    each unit with the same ``zgetrf``/``zgetrs`` kernel, so a batched
    column equals the serial solution byte for byte.
    :meth:`solve_checked` additionally verifies a scaled residual per
    unit (mirroring :class:`SpectralSolver`'s acceptance test); callers
    loop rejected units back through the serial per-unit path.
    """

    def __init__(self, g: np.ndarray, c: np.ndarray) -> None:
        if g.ndim != 3 or g.shape != c.shape or g.shape[1] != g.shape[2]:
            raise ValueError(f"need matching (N, n, n) tensors, got {g.shape}/{c.shape}")
        self.g = g
        self.c = c
        self.n_units = g.shape[0]
        self.n = g.shape[1]
        self._factors: dict[float, tuple] = {}
        self._a_norms: dict[float, np.ndarray] = {}

    def _factor(self, freq: float):
        ent = self._factors.get(freq)
        if ent is None:
            # Same scalar sequence as solve_stacked: w = 2j*pi*f,
            # then A = G + w*C elementwise.
            w = 2j * np.pi * float(freq)
            a = self.g + w * self.c
            factors = [_getrf(a[u]) for u in range(self.n_units)]
            prof_count("batch.zgetrf", self.n_units)
            ent = (a, factors)
            self._factors[freq] = ent
        return ent

    def solve(self, freq: float, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A_u x_u = rhs_u`` for every unit; ``rhs`` is (N, n, k)."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[:2] != (self.n_units, self.n) or rhs.ndim != 3:
            raise ValueError(
                f"rhs must be ({self.n_units}, {self.n}, k), got {rhs.shape}"
            )
        _, factors = self._factor(float(freq))
        out = np.empty_like(rhs)
        for u, (lu, piv) in enumerate(factors):
            out[u], _ = _lapack.zgetrs(lu, piv, rhs[u])
        prof_count("batch.zgetrs", self.n_units)
        return out

    def solve_checked(self, freq: float, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`solve` plus a per-unit scaled-residual acceptance mask.

        Returns ``(solutions, ok)``; ``ok[u]`` is False when unit *u*'s
        solution is non-finite or its scaled residual exceeds
        ``SPECTRAL_RESIDUAL_TOL`` — the caller should recompute that
        unit through the serial per-unit path (the batched analogue of
        ``SpectralSolver.solve`` returning ``None``).
        """
        rhs = np.asarray(rhs, dtype=complex)
        x = self.solve(freq, rhs)
        a, _ = self._factor(float(freq))
        resid = np.abs(a @ x - rhs).max(axis=1)               # (N, k)
        a_norm = self._a_norms.get(float(freq))
        if a_norm is None:
            a_norm = np.abs(a).sum(axis=2).max(axis=1)        # (N,)
            self._a_norms[float(freq)] = a_norm
        x_norm = np.abs(x).max(axis=1)                        # (N, k)
        b_norm = np.abs(rhs).max(axis=1) + 1e-300             # (N, k)
        with np.errstate(invalid="ignore"):
            scaled = (resid / (a_norm[:, None] * x_norm + b_norm)).max(axis=1)
        ok = np.isfinite(scaled) & (scaled <= SPECTRAL_RESIDUAL_TOL)
        return x, ok
