"""The adjoint noise analysis as one operating point at a time, frozen.

A copy of the serial noise path as it stood before the noise solve got
its leading unit axis: the per-source enumeration (one record per
generator), the one-unit Schur solver with its per-sample residual loop
and the PSD reduction.  The bitwise noise tests pin
:func:`repro.spice.noise.noise_analysis` and the tensor group's
``noise_voice`` to it byte for byte.  Frozen: do not change it to follow
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from looped_reference import solve_looped
from repro.constants import BOLTZMANN, kelvin
from repro.spice.elements import Resistor, Switch
from repro.spice.linsolve import SPECTRAL_MIN_FREQS, _as_rhs_matrix
from repro.spice.netlist import is_ground
from repro.spice.noise import NoiseResult


@dataclass
class NoiseSource:
    """A single current-noise generator between two nodes."""

    device: str
    mechanism: str
    node_a: int
    node_b: int
    psd_flat: float
    psd_flicker: float = 0.0
    af: float = 1.0


def noise_sources(system, x_ext: np.ndarray) -> list[NoiseSource]:
    """Every noise generator of a compiled system at ``x_ext``."""
    sources: list[NoiseSource] = []
    kt4 = 4.0 * BOLTZMANN * kelvin(system.temp_c)

    for el in system.circuit:
        if isinstance(el, Resistor) and el.noisy:
            sources.append(NoiseSource(
                el.name, "thermal", system.node(el.n1), system.node(el.n2),
                kt4 / el.value_at(system.temp_c)))
        elif isinstance(el, Switch) and el.noisy and el.closed:
            sources.append(NoiseSource(
                el.name, "thermal", system.node(el.n1), system.node(el.n2),
                kt4 / el.ron))

    if system.mos_group is not None:
        grp = system.mos_group
        ev = grp.evaluate(x_ext)
        thermal = kt4 * (2.0 / 3.0 * ev.gm + ev.gds_channel)
        flicker_coeff = grp.kf / (grp.cox * grp.w * grp.l * grp.m) * ev.gm**2
        for k, name in enumerate(grp.names):
            sources.append(NoiseSource(name, "thermal", int(grp.d[k]),
                                       int(grp.s[k]), float(thermal[k])))
            if flicker_coeff[k] > 0.0:
                sources.append(NoiseSource(
                    name, "flicker", int(grp.d[k]), int(grp.s[k]), 0.0,
                    float(flicker_coeff[k]), float(grp.af[k])))

    if system.bjt_group is not None:
        grp = system.bjt_group
        ev = grp.evaluate(x_ext)
        sic, sib = grp.shot_noise_psd(ev)
        fl = grp.kf * np.power(np.abs(ev.ib), grp.af)
        for k, name in enumerate(grp.names):
            sources.append(NoiseSource(name, "shot_c", int(grp.c[k]),
                                       int(grp.e[k]), float(sic[k])))
            sources.append(NoiseSource(name, "shot_b", int(grp.b[k]),
                                       int(grp.e[k]), float(sib[k]),
                                       float(fl[k]), float(grp.af[k])))

    if system.diode_group is not None:
        grp = system.diode_group
        ev = grp.evaluate(x_ext)
        shot = grp.shot_noise_psd(ev)
        for k, name in enumerate(grp.names):
            sources.append(NoiseSource(name, "shot", int(grp.np_idx[k]),
                                       int(grp.nn_idx[k]), float(shot[k])))
    return sources


class SpectralSolver:
    """The one-unit Schur sweep solver (``G (I + jw M)``, ``M = G^-1 C``)."""

    def __init__(self, g: np.ndarray, c: np.ndarray, tol: float) -> None:
        self.g = g
        self.c = c
        self.tol = tol
        self.n = g.shape[0]
        self.lu_g = sla.lu_factor(g)
        m = sla.lu_solve(self.lu_g, c)
        if not np.all(np.isfinite(m)):
            raise np.linalg.LinAlgError("G^-1 C is not finite")
        self.t, self.q = sla.schur(m, output="complex")
        self.t_diag = self.t.diagonal().copy()
        self.q_conj = self.q.conj()
        self._g_norm = float(np.abs(g).sum(axis=1).max())
        self._c_norm = float(np.abs(c).sum(axis=1).max())
        self._gt_norm = float(np.abs(g).sum(axis=0).max())
        self._ct_norm = float(np.abs(c).sum(axis=0).max())
        self.residuals: list[float] = []

    def _substitute(self, r, jw, inv_diag, lower):
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

    def _scaled_residual(self, freqs, jw, x, b, adjoint, worst_idx):
        nf = freqs.size
        samples = np.unique(np.append(
            np.linspace(0, nf - 1, min(nf, 8)).astype(int), worst_idx
        ))
        a_base = (self.g.T if adjoint else self.g).astype(complex)
        c_base = self.c.T if adjoint else self.c
        g_norm = self._gt_norm if adjoint else self._g_norm
        c_norm = self._ct_norm if adjoint else self._c_norm
        b_norm = np.abs(b).max(axis=0) + 1e-300
        worst = 0.0
        for s in samples:
            a = a_base + jw[s] * c_base
            resid = np.abs(a @ x[s] - b).max(axis=0)
            a_norm = g_norm + np.abs(jw[s]) * c_norm
            x_norm = np.abs(x[s]).max(axis=0)
            worst = max(worst, float(np.max(resid / (a_norm * x_norm + b_norm))))
        return worst

    def solve(self, freqs, rhs=None, adjoint_rhs=None):
        """``(fwd, adj)``, or ``None`` when the residual gate rejects;
        each gate value is appended to :attr:`residuals`."""
        freqs = np.asarray(freqs, dtype=float)
        jw = 2j * np.pi * freqs
        nf, n = freqs.size, self.n
        inv_diag = 1.0 / (1.0 + jw[:, None] * self.t_diag[None, :])
        worst_idx = int(np.argmax(np.abs(inv_diag).max(axis=1)))

        fwd = adj = None
        if rhs is not None:
            bf = _as_rhs_matrix(rhs, n)
            r = self.q.conj().T @ sla.lu_solve(self.lu_g, bf)
            z = self._substitute(r, jw, inv_diag, lower=False)
            fwd = (z @ self.q.T).transpose(0, 2, 1)
            if not np.all(np.isfinite(fwd)):
                return None
            res = self._scaled_residual(freqs, jw, fwd, bf, False, worst_idx)
            self.residuals.append(res)
            if res > self.tol:
                return None
        if adjoint_rhs is not None:
            ba = _as_rhs_matrix(adjoint_rhs, n)
            u = self.q.T @ ba
            y = self._substitute(u, jw, inv_diag, lower=True)
            p0 = (y @ self.q_conj.T).reshape(nf * ba.shape[1], n)
            adj = sla.lu_solve(self.lu_g, p0.T, trans=1).T.reshape(nf, ba.shape[1], n)
            adj = adj.transpose(0, 2, 1)
            if not np.all(np.isfinite(adj)):
                return None
            res = self._scaled_residual(freqs, jw, adj, ba, True, worst_idx)
            self.residuals.append(res)
            if res > self.tol:
                return None
        return fwd, adj


def noise_analysis(op, freqs, out_p, out_n=None, tol: float = 1e-10,
                   solvers: list | None = None) -> NoiseResult:
    """The serial noise analysis: Schur sweep for 16 or more
    frequencies, per-frequency LU otherwise or when the gate rejects.
    The solver used is appended to ``solvers`` when given."""
    freqs = np.asarray(freqs, dtype=float)
    system = op.system
    n = system.size
    g = np.ascontiguousarray(system.linearize(op.x)[:n, :n])
    c = np.ascontiguousarray(system.c_static[:n, :n])
    b_in = system.rhs_ac()[:n]
    e_out = np.zeros(n)
    if not is_ground(out_p):
        e_out[system.node(out_p)] = 1.0
    if out_n is not None and not is_ground(out_n):
        e_out[system.node(out_n)] -= 1.0

    sources = noise_sources(system, op.x)
    keys = [(s.device, s.mechanism) for s in sources]
    group_keys = list(dict.fromkeys(keys))
    key_to_id = {key: i for i, key in enumerate(group_keys)}
    idx_a = np.array([s.node_a for s in sources], dtype=np.intp)
    idx_b = np.array([s.node_b for s in sources], dtype=np.intp)
    psd_flat = np.array([s.psd_flat for s in sources])
    psd_flicker = np.array([s.psd_flicker for s in sources])
    af = np.array([s.af for s in sources])
    group_ids = np.array([key_to_id[key] for key in keys], dtype=np.intp)

    result = None
    if freqs.size >= SPECTRAL_MIN_FREQS:
        solver = SpectralSolver(g, c, tol)
        if solvers is not None:
            solvers.append(solver)
        result = solver.solve(freqs, adjoint_rhs=e_out)
    if result is None:
        result = solve_looped(g, c, freqs, adjoint_rhs=e_out)
    psi = result[1][:, :, 0]
    gain = np.abs(psi @ b_in)

    n_freq = len(freqs)
    psi_ext = np.zeros((n_freq, system.size + 1), dtype=complex)
    psi_ext[:, : system.size] = psi
    transfer_sq = np.abs(psi_ext[:, idx_a] - psi_ext[:, idx_b]) ** 2

    psd_f = np.broadcast_to(psd_flat, (n_freq, len(sources))).copy()
    fl = psd_flicker != 0.0
    if np.any(fl):
        psd_f[:, fl] += psd_flicker[fl] / freqs[:, None] ** af[fl]

    contrib = (transfer_sq * psd_f).T
    output_psd = contrib.sum(axis=0)
    input_psd = output_psd / np.maximum(gain, 1e-300) ** 2

    group_psd = np.zeros((len(group_keys), n_freq))
    np.add.at(group_psd, group_ids, contrib)
    return NoiseResult(freqs=freqs, output_psd=output_psd, gain=gain,
                       input_psd=input_psd,
                       contributions={key: group_psd[i]
                                      for i, key in enumerate(group_keys)})
