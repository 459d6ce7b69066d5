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
  substitution, vectorised over the whole frequency axis *and* a
  leading unit axis: one operating point is ``N = 1``, a tensor group's
  noise sweep runs every unit in one pass (each unit's bits are its
  serial ones).  Solutions are residual-verified per unit at spread
  sample points plus the sweep's worst-conditioned frequency, falling
  back to :func:`solve_stacked` (or, in a tensor group, to the unit's
  serial measurement) if the check fails.
* The tests keep a per-frequency reference loop through the scipy
  wrappers (``lu_factor``/``lu_solve``, the same LAPACK routines) and
  pin :func:`solve_stacked` to it bit for bit and the Schur path to
  ``rtol=1e-9``; a frozen copy of the one-unit Schur solver pins the
  unit-axis one bit for bit.
* :class:`SmallSignalContext` caches the linearized ``G``/``C``, the
  Schur decomposition and each probe frequency's LU factors of one
  operating point so AC, noise and PSRR stop re-calling
  ``system.linearize(op.x)`` (and refactoring ``A(1 kHz)``) per metric.
  It is created lazily through
  :meth:`repro.spice.dc.OperatingPoint.small_signal`.
  :class:`BatchedSmallSignalContext` is its unit-axis analogue for the
  probes of a tensor group.
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
    factors: dict | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-frequency LU solve of ``A x = rhs`` and ``A^T psi = adjoint_rhs``.

    One ``zgetrf`` factorization per frequency serves every forward RHS
    column and every adjoint column (plain transpose, not conjugate —
    the adjoint noise method needs ``A^T``, and the ``trans=1`` solve
    reuses the factors of ``A`` directly).  ``factors``, when given,
    keeps each frequency's factors across calls (keyed by the frequency
    as a float), so later probes at that frequency solve without
    refactoring.

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
    factored = 0
    for k in range(nf):
        ent = None if factors is None else factors.get(float(freqs[k]))
        if ent is None:
            ent = _getrf(g + w[k] * c)
            factored += 1
            if factors is not None:
                factors[float(freqs[k])] = ent
        lu, piv = ent
        if bf is not None:
            fwd[k], _ = _lapack.zgetrs(lu, piv, bf)
        if ba is not None:
            adj[k], _ = _lapack.zgetrs(lu, piv, ba, trans=1)
    prof_count("linsolve.lu_factor", factored)
    prof_count("linsolve.lu_solve", nf * ((bf is not None) + (ba is not None)))
    return fwd, adj


class SpectralSolver:
    """Shared-factorization solver for dense frequency sweeps, over a
    leading *unit* axis.

    ``(G + 2j*pi*f*C) x = b`` is rewritten as ``G (I + jw*M) x = b`` with
    ``M = G^{-1} C``; one complex Schur decomposition ``M = Q T Q^H``
    per unit then reduces every frequency to a triangular substitution
    in the Schur basis.  The adjoint system ``A^T psi = e`` reuses the
    *same* decomposition (``I + jw*T^T`` is lower triangular), so AC
    gain, noise transimpedances and any number of injections all ride
    on a single factorization.

    ``g``/``c`` are one system's ``(n, n)`` matrices (a serial context,
    ``N = 1``) or a unit-stacked ``(N, n, n)`` pair (a tensor group).
    The per-unit ``lu_factor``/``lu_solve``/``schur`` stay scipy calls
    and keep their own layouts; the substitution runs over the unit and
    frequency axes together, so one pass serves every unit.  Each unit's
    arithmetic is the serial solver's, elementwise and kernel for
    kernel, so a unit's solution is its serial solution bit for bit.

    Accuracy: Schur with a unitary ``Q`` is backward stable, and
    :meth:`solve_units` checks each unit's scaled residuals at spread
    samples plus the sweep's worst-conditioned frequency; a rejected
    unit is left to the caller's fallback (:func:`solve_stacked` for a
    serial context, the unit's serial measurement for a tensor group).
    A unit whose decomposition fails raises for a serial context; in a
    stacked one its solutions are non-finite, so the gate rejects it.
    """

    def __init__(self, g: np.ndarray, c: np.ndarray) -> None:
        stacked = g.ndim == 3
        self.g = g if stacked else g[None]
        self.c = c if stacked else c[None]
        self.n_units, self.n = n_units, n = self.g.shape[:2]
        # scipy returns Fortran-ordered factors; each unit keeps that
        # layout (the substitution reads T's columns contiguously).
        self.t = np.empty((n_units, n, n), dtype=complex).transpose(0, 2, 1)
        self.q = np.empty((n_units, n, n), dtype=complex).transpose(0, 2, 1)
        self.lu_g: list = []     # None for a unit whose decomposition failed
        for u in range(n_units):
            try:
                lu_g = sla.lu_factor(self.g[u])
                m = sla.lu_solve(lu_g, self.c[u])
                if not np.all(np.isfinite(m)):
                    raise np.linalg.LinAlgError("G^-1 C is not finite")
                self.t[u], self.q[u] = sla.schur(m, output="complex")
            except (np.linalg.LinAlgError, ValueError):
                if not stacked:
                    raise
                self.t[u] = self.q[u] = np.nan
                lu_g = None
            self.lu_g.append(lu_g)
        self.t_diag = np.diagonal(self.t, axis1=1, axis2=2).copy()
        self.q_conj = self.q.conj()
        # Inf-norms for the scaled residual check (row sums for A,
        # column sums for the transposed adjoint system), per unit.
        self._g_norm = np.abs(self.g).sum(axis=2).max(axis=1)
        self._c_norm = np.abs(self.c).sum(axis=2).max(axis=1)
        self._gt_norm = np.abs(self.g).sum(axis=1).max(axis=1)
        self._ct_norm = np.abs(self.c).sum(axis=1).max(axis=1)

    def _rhs(self, rhs: np.ndarray) -> np.ndarray:
        """One ``(n,)``/``(n, k)`` RHS spec, shared by every unit, as a
        read-only ``(N, n, k)`` view."""
        b = _as_rhs_matrix(rhs, self.n)
        return np.broadcast_to(b, (self.n_units,) + b.shape)

    def _per_unit(self, fn, arrays) -> np.ndarray:
        """``fn(u, *rows)`` for every unit, stacked; NaN for a unit whose
        decomposition failed."""
        out = None
        for u in range(self.n_units):
            if self.lu_g[u] is None:
                continue
            val = fn(u, *(a[u] for a in arrays))
            if out is None:
                out = np.full((self.n_units,) + val.shape, np.nan, dtype=complex)
            out[u] = val
        if out is None:
            raise np.linalg.LinAlgError("no unit has a Schur decomposition")
        return out

    def _substitute(self, r: np.ndarray, jw: np.ndarray,
                    inv_diag: np.ndarray, lower: bool) -> np.ndarray:
        """Solve ``(I + jw*T) z = r`` (or the lower-triangular transpose)
        for every unit and frequency at once; ``r`` is (N, n, k), result
        (N, nf, k, n)."""
        n, nf, k = self.n, jw.size, r.shape[2]
        t = self.t
        z = np.empty((self.n_units, nf, k, n), dtype=complex)
        jw_col = jw[:, None]
        order = range(n) if lower else range(n - 1, -1, -1)
        for i in order:
            # Column (lower) or row (upper) i of each unit's T as a
            # (N, 1, len, 1) stack: one matrix-vector product per unit
            # and frequency, the serial kernel's.
            if lower:
                coupled = (z[..., :i] @ t[:, None, :i, i, None])[..., 0] if i else 0.0
            else:
                coupled = (z[..., i + 1:] @ t[:, None, i, i + 1:, None])[..., 0] \
                    if i < n - 1 else 0.0
            z[..., i] = (r[:, i][:, None, :] - jw_col * coupled) \
                * inv_diag[:, :, i][:, :, None]
        return z

    def _scaled_residual(self, u: int, freqs: np.ndarray, jw: np.ndarray,
                         x_raw: np.ndarray, b: np.ndarray, adjoint: bool,
                         worst_idx: int) -> float:
        """Max scaled residual of unit ``u`` over a spread of sample
        frequencies plus the worst-conditioned point of the sweep (where
        ``1 + jw*t_ii`` comes closest to zero — the one place the
        triangular substitution could lose accuracy between evenly
        spaced samples).  ``x_raw`` is the unit's (nf, k, n) solution.
        Every sample's ``A_s`` is formed at once and multiplied in one
        stacked matmul, each sample's product the serial one's."""
        nf = freqs.size
        samples = np.unique(np.append(
            np.linspace(0, nf - 1, min(nf, 8)).astype(int), worst_idx
        ))
        # A_s = jw_s C + G (IEEE addition commutes, so these are the bits
        # of G + jw_s C), or its transpose for the adjoint system, in the
        # layout the serial gate's one-sample matrix had.
        a = np.multiply(jw[samples][:, None, None], self.c[u])
        a += self.g[u]
        if adjoint:
            a = a.transpose(0, 2, 1)
        g_norm = (self._gt_norm if adjoint else self._g_norm)[u]
        c_norm = (self._ct_norm if adjoint else self._c_norm)[u]
        x = x_raw[samples].transpose(0, 2, 1)                  # (S, n, k)
        b_norm = np.abs(b).max(axis=0) + 1e-300                # per RHS column
        resid = np.abs(a @ x - b).max(axis=1)                  # (S, k)
        a_norm = g_norm + np.abs(jw[samples]) * c_norm          # (S,)
        x_norm = np.abs(x).max(axis=1)
        return float(np.max(resid / (a_norm[:, None] * x_norm + b_norm)))

    def _gate(self, freqs, jw, raw, b, adjoint, worst_idx) -> np.ndarray:
        """Per-unit scaled residual of one solution set; NaN where the
        solution is not finite."""
        res = np.full(self.n_units, np.nan)
        finite = np.isfinite(raw).all(axis=(1, 2, 3))
        for u in np.flatnonzero(finite):
            res[u] = self._scaled_residual(u, freqs, jw, raw[u], b[u],
                                           adjoint, worst_idx[u])
        return res

    def solve_units(
        self,
        freqs: np.ndarray,
        rhs: np.ndarray | None = None,
        adjoint_rhs: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
        """Forward and adjoint sweeps of every unit.

        Returns ``(fwd, adj, resid)``: ``fwd``/``adj`` are ``(N, nf, n,
        k)`` (``None`` where not requested) and ``resid[u]`` is unit
        *u*'s gate value: its worst scaled residual, or the first one
        over :data:`SPECTRAL_RESIDUAL_TOL` in forward-then-adjoint
        order, NaN for a non-finite solution.  A unit is accepted iff
        ``resid[u] <= SPECTRAL_RESIDUAL_TOL``.
        """
        if rhs is None and adjoint_rhs is None:
            raise ValueError("need at least one of rhs / adjoint_rhs")
        freqs = np.asarray(freqs, dtype=float)
        jw = 2j * np.pi * freqs
        nf, n = freqs.size, self.n
        with np.errstate(invalid="ignore"):     # NaN rows of a failed unit
            inv_diag = 1.0 / (1.0 + jw[:, None] * self.t_diag[:, None, :])  # (N, nf, n)
        worst_idx = np.abs(inv_diag).max(axis=2).argmax(axis=1)

        fwd = adj = None
        gates = []
        if rhs is not None:
            bf = self._rhs(rhs)
            # x = Q (I + jw T)^-1 Q^H G^-1 b
            r = self._per_unit(
                lambda u, q, b: q.conj().T @ sla.lu_solve(self.lu_g[u], b),
                (self.q, bf))
            z = self._substitute(r, jw, inv_diag, lower=False)
            raw = z @ self.q.transpose(0, 2, 1)[:, None]        # (N, nf, k, n)
            fwd = raw.transpose(0, 1, 3, 2)
            gates.append(self._gate(freqs, jw, raw, bf, False, worst_idx))
        if adjoint_rhs is not None:
            ba = self._rhs(adjoint_rhs)
            k = ba.shape[2]
            # psi = G^-T conj(Q) (I + jw T^T)^-1 Q^T e
            u_ = self._per_unit(lambda u, q, b: q.T @ b, (self.q, ba))
            y = self._substitute(u_, jw, inv_diag, lower=True)
            p0 = y @ self.q_conj.transpose(0, 2, 1)[:, None]
            raw = self._per_unit(
                lambda u, p: sla.lu_solve(self.lu_g[u], p.reshape(nf * k, n).T,
                                          trans=1).T.reshape(nf, k, n),
                (p0,))
            adj = raw.transpose(0, 1, 3, 2)
            gates.append(self._gate(freqs, jw, raw, ba, True, worst_idx))

        # A unit rejected by the forward gate keeps that value.
        resid = np.zeros(self.n_units)
        rejected = np.zeros(self.n_units, dtype=bool)
        for res in gates:
            resid = np.where(rejected, resid, np.maximum(resid, res))
            rejected |= ~(resid <= SPECTRAL_RESIDUAL_TOL)
        return fwd, adj, resid

    #: The scaled residual that last rejected this solver's fast path
    #: (``None`` if never rejected, or rejected on a non-finite result).
    last_rejected_residual: float | None = None

    def solve(
        self,
        freqs: np.ndarray,
        rhs: np.ndarray | None = None,
        adjoint_rhs: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None] | None:
        """A serial (``N = 1``) solver's sweep, with the contract of
        :func:`solve_stacked`; ``None`` means the residual check
        rejected the fast path (caller should fall back)."""
        fwd, adj, resid = self.solve_units(freqs, rhs, adjoint_rhs)
        res = float(resid[0])
        if not res <= SPECTRAL_RESIDUAL_TOL:
            self.last_rejected_residual = None if np.isnan(res) else res
            return None
        return (None if fwd is None else fwd[0]), (None if adj is None else adj[0])


def output_selector(system, out_p: str, out_n: str | None = None) -> np.ndarray:
    """Unit selector ``e_out`` of ``system`` for a (differential) output,
    reduced size."""
    e_out = np.zeros(system.size)
    if not is_ground(out_p):
        e_out[system.node(out_p)] = 1.0
    if out_n is not None and not is_ground(out_n):
        e_out[system.node(out_n)] -= 1.0
    return e_out


class SmallSignalContext:
    """Linearization of one operating point, shared across analyses.

    ``G`` and ``C`` depend only on the operating point, so they are
    computed once here; :meth:`rhs_ac` re-reads the configured AC
    stimulus through the system's cached ``rhs_ac``.  PSRR/CMRR-style
    excitations are RHS columns built with override dicts
    (:func:`repro.spice.mna.ac_rhs`), not source mutations.
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
        self._factors: dict[float, tuple] = {}
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
        probes use :func:`solve_stacked`, a single-frequency probe on
        factors cached per frequency; any rejected fast path falls
        back down this ladder.  All paths agree with the tests' looped
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
        # Single-frequency probes (gain, PSRR, CMRR at 1 kHz) share one
        # factorization per frequency; sweeps are not kept.
        return solve_stacked(self.g, self.c, freqs, rhs, adjoint_rhs,
                             factors=self._factors if freqs.size == 1 else None)

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
        return output_selector(self.system, out_p, out_n)

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
