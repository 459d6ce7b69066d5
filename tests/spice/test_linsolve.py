"""Small-signal engine: equivalence against the looped reference.

The stacked LU path must equal the kept per-frequency reference path bit
for bit, and the Schur path and the analyses built on them must match it
to rtol=1e-9, on the real paper circuits — any deviation means the
shared factorization or the vectorised PSD bookkeeping broke.
"""

import numpy as np
import pytest

from repro.analysis.psrr import _signal_sources, measure_psrr
from repro.circuits.micamp import build_mic_amp
from repro.obs import Recorder
from repro.process import CMOS12
from repro.spice import Circuit, ac_analysis, dc_operating_point, noise_analysis
from repro.spice.analysis import log_freqs
from repro.spice.linsolve import SpectralSolver, solve_stacked
from repro.spice.noise import _integrate_band

from looped_reference import _ac_analysis_looped, _noise_analysis_looped, solve_looped

FREQS = log_freqs(10.0, 1e6, 10)


def assert_solutions_close(actual, expected, rtol=1e-9):
    """rtol=1e-9 equivalence with an atol floor at 1e-12 of the solution
    scale, so numerically-meaningless tiny entries don't dominate."""
    atol = 1e-12 * float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


class TestSolveStacked:
    def _random_system(self, n=7, seed=3):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + n * np.eye(n)
        c = rng.standard_normal((n, n)) * 1e-6
        return g, c

    def test_forward_and_adjoint_match_dense_solve(self):
        g, c = self._random_system()
        freqs = np.array([10.0, 1e3, 1e5])
        rhs = np.arange(7.0)
        adj = np.eye(7)[:, :2]
        fwd, psi = solve_stacked(g, c, freqs, rhs=rhs, adjoint_rhs=adj)
        for k, f in enumerate(freqs):
            a = g + 2j * np.pi * f * c
            np.testing.assert_allclose(fwd[k, :, 0], np.linalg.solve(a, rhs), rtol=1e-9)
            np.testing.assert_allclose(psi[k], np.linalg.solve(a.T, adj), rtol=1e-9)

    @pytest.mark.parametrize("n_freqs", [1, 49])
    @pytest.mark.parametrize("which", ["micamp", "buffer"])
    def test_bitwise_equal_to_looped(self, which, n_freqs, request):
        """``zgetrf``/``zgetrs`` called directly give the scipy wrappers'
        bytes, forward and adjoint, on the paper circuits."""
        design = request.getfixturevalue(
            "mic_amp_40db" if which == "micamp" else "buffer_inverting")
        op = request.getfixturevalue("mic_amp_op" if which == "micamp" else "buffer_op")
        ctx = op.small_signal()
        freqs = np.logspace(1, 6, n_freqs)
        rhs = ctx.rhs_ac()
        adj = ctx.output_selector(design.outp, design.outn)
        fwd, psi = solve_stacked(ctx.g, ctx.c, freqs, rhs=rhs, adjoint_rhs=adj)
        fwd_ref, psi_ref = solve_looped(ctx.g, ctx.c, freqs, rhs=rhs, adjoint_rhs=adj)
        assert fwd.tobytes() == fwd_ref.tobytes()
        assert psi.tobytes() == psi_ref.tobytes()

    def test_requires_some_rhs(self):
        g, c = self._random_system()
        with pytest.raises(ValueError, match="at least one"):
            solve_stacked(g, c, np.array([1.0]))


class TestSpectralSolver:
    """The Schur fast path against the looped LU reference on the real
    paper circuits (dense sweeps route through it automatically)."""

    def _gcb(self, op):
        ctx = op.small_signal()
        return ctx.g, ctx.c, ctx.rhs_ac()

    @pytest.mark.parametrize("which", ["micamp", "buffer"])
    def test_forward_and_adjoint_match_looped(self, which, request):
        request.getfixturevalue("mic_amp_40db" if which == "micamp" else "buffer_inverting")
        op = request.getfixturevalue("mic_amp_op" if which == "micamp" else "buffer_op")
        g, c, b = self._gcb(op)
        e = op.small_signal().output_selector(
            op.system.node_names[0], op.system.node_names[1]
        )
        solver = SpectralSolver(g, c)
        result = solver.solve(FREQS, rhs=b, adjoint_rhs=e)
        assert result is not None, "residual check must accept the paper circuits"
        fwd, adj = result
        fwd_ref, adj_ref = solve_looped(g, c, FREQS, rhs=b, adjoint_rhs=e)
        assert_solutions_close(fwd, fwd_ref)
        assert_solutions_close(adj, adj_ref)

    def test_context_routes_dense_sweeps_through_spectral(self, mic_amp_40db, mic_amp_op):
        ctx = mic_amp_op.small_signal()
        assert len(FREQS) >= 16
        ctx.solve(FREQS, rhs=ctx.rhs_ac())
        assert ctx._spectral is not None  # cached after first dense sweep
        # single-frequency probes stay on the LU path and also agree
        one = np.array([1e3])
        fwd, _ = ctx.solve(one, rhs=ctx.rhs_ac())
        ref, _ = solve_looped(ctx.g, ctx.c, one, rhs=ctx.rhs_ac())
        assert_solutions_close(fwd, ref)


class TestProbeFactorCache:
    """Single-frequency probes on one context share one factorization
    per frequency; the cached factors give the uncached bytes."""

    def test_probes_at_one_frequency_factor_once(self, mic_amp_40db):
        ctx = dc_operating_point(mic_amp_40db.circuit).small_signal()
        one = np.array([1e3])
        b = ctx.rhs_ac()
        e = ctx.output_selector(mic_amp_40db.outp, mic_amp_40db.outn)
        rec = Recorder()
        with rec.activate():
            fwd, _ = ctx.solve(one, rhs=b)
            again, adj = ctx.solve(one, rhs=np.stack([b, 2 * b], axis=1),
                                   adjoint_rhs=e)
        assert rec.profile()["counts"]["linsolve.lu_factor"] == 1
        ref, ref_adj = solve_stacked(ctx.g, ctx.c, one,
                                     rhs=np.stack([b, 2 * b], axis=1), adjoint_rhs=e)
        assert fwd.tobytes() == ref[:, :, :1].tobytes()
        assert again.tobytes() == ref.tobytes()
        assert adj.tobytes() == ref_adj.tobytes()


class TestSpectralFallback:
    """The residual check -> LU fallback path: an ill-conditioned sweep
    must be *rejected* by the Schur fast path and silently served by
    ``solve_stacked``, matching the looped reference."""

    def _ill_conditioned(self, n=12, seed=0):
        """A Hilbert-matrix G (condition number ~1e16): the Schur basis is
        computed from an inaccurate M = G^-1 C, so the substituted
        solutions carry O(1e-4) relative error — far beyond the 1e-10
        scaled-residual gate — while plain LU on A = G + jwC stays
        backward-stable and accurate."""
        from scipy.linalg import hilbert

        rng = np.random.default_rng(seed)
        g = hilbert(n) + 1e-14 * np.eye(n)
        c = rng.standard_normal((n, n)) * 1e-9
        return g, c, rng.standard_normal(n)

    def test_residual_check_rejects_ill_conditioned_sweep(self):
        g, c, rhs = self._ill_conditioned()
        freqs = np.logspace(1, 6, 24)
        solver = SpectralSolver(g, c)  # construction itself succeeds
        assert solver.solve(freqs, rhs=rhs) is None

    def test_fallback_result_matches_looped_reference(self):
        """What the caller actually receives after the rejection: the
        stacked-LU answer, equivalent to the per-frequency loop."""
        g, c, rhs = self._ill_conditioned()
        freqs = np.logspace(1, 6, 24)
        adj = np.eye(12)[:, :2]
        fwd, psi = solve_stacked(g, c, freqs, rhs=rhs, adjoint_rhs=adj)
        fwd_ref, psi_ref = solve_looped(g, c, freqs, rhs=rhs, adjoint_rhs=adj)
        assert_solutions_close(fwd, fwd_ref)
        assert_solutions_close(psi, psi_ref)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_a_stacked_unit_whose_decomposition_fails_is_rejected_alone(
            self, mic_amp_op):
        ctx = mic_amp_op.small_signal()
        g = np.stack([ctx.g, np.zeros_like(ctx.g)])
        fwd, _, resid = SpectralSolver(g, np.stack([ctx.c, ctx.c])).solve_units(
            FREQS, rhs=ctx.rhs_ac())
        assert resid[0] <= 1e-10 and np.isnan(resid[1])
        ref, _ = SpectralSolver(ctx.g, ctx.c).solve(FREQS, rhs=ctx.rhs_ac())
        assert fwd[0].tobytes() == ref.tobytes()

    def test_adjoint_rejection_also_falls_back(self):
        g, c, rhs = self._ill_conditioned(seed=3)
        freqs = np.logspace(1, 6, 24)
        solver = SpectralSolver(g, c)
        assert solver.solve(freqs, adjoint_rhs=np.eye(12)[:, :1]) is None

    def test_context_falls_back_when_residual_gate_trips(
            self, mic_amp_40db, mic_amp_op, monkeypatch):
        """End-to-end wiring on a real circuit: force the gate shut and
        assert SmallSignalContext.solve silently serves the stacked-LU
        answer (identical to the looped reference) for a dense sweep
        that would otherwise ride the Schur path."""
        import repro.spice.linsolve as linsolve

        ctx = mic_amp_op.small_signal()
        b = ctx.rhs_ac()
        assert ctx.spectral() is not None  # healthy circuit, fast path alive
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        assert ctx.spectral().solve(FREQS, rhs=b) is None  # gate now trips
        fwd, _ = ctx.solve(FREQS, rhs=b)
        ref, _ = solve_looped(ctx.g, ctx.c, FREQS, rhs=b)
        assert_solutions_close(fwd, ref)

    def test_rejection_is_per_sweep_not_sticky(self, mic_amp_40db, mic_amp_op,
                                               monkeypatch):
        """A rejected sweep must not kill the fast path for later sweeps
        (the context keeps the decomposition; only _spectral_dead —
        construction failure — is permanent)."""
        import repro.spice.linsolve as linsolve

        ctx = mic_amp_op.small_signal()
        b = ctx.rhs_ac()
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        ctx.solve(FREQS, rhs=b)               # rejected, served by LU
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", 1e-10)
        assert not ctx._spectral_dead
        assert ctx.spectral().solve(FREQS, rhs=b) is not None


class TestAcEquivalence:
    def test_micamp_batched_matches_looped(self, mic_amp_40db, mic_amp_op):
        batched = ac_analysis(mic_amp_op, FREQS)
        looped = _ac_analysis_looped(mic_amp_op, FREQS)
        assert_solutions_close(batched._x, looped._x)

    def test_powerbuffer_batched_matches_looped(self, buffer_inverting, buffer_op):
        batched = ac_analysis(buffer_op, FREQS)
        looped = _ac_analysis_looped(buffer_op, FREQS)
        assert_solutions_close(batched._x, looped._x)


class TestNoiseEquivalence:
    def _check(self, op, out_p, out_n):
        freqs = log_freqs(10.0, 100e3, 8)
        batched = noise_analysis(op, freqs, out_p, out_n)
        looped = _noise_analysis_looped(op, freqs, out_p, out_n)
        np.testing.assert_allclose(batched.output_psd, looped.output_psd, rtol=1e-9)
        np.testing.assert_allclose(batched.gain, looped.gain, rtol=1e-9)
        np.testing.assert_allclose(batched.input_psd, looped.input_psd, rtol=1e-9)
        assert set(batched.contributions) == set(looped.contributions)
        # negligible contributions get an atol floor: their transimpedance
        # is a near-cancelling difference, where elementwise rtol is
        # numerically meaningless
        atol = 1e-12 * float(looped.output_psd.max())
        for key, psd in looped.contributions.items():
            np.testing.assert_allclose(
                batched.contributions[key], psd, rtol=1e-9, atol=atol
            )

    def test_micamp(self, mic_amp_40db, mic_amp_op):
        self._check(mic_amp_op, mic_amp_40db.outp, mic_amp_40db.outn)

    def test_powerbuffer(self, buffer_inverting, buffer_op):
        self._check(buffer_op, buffer_inverting.outp, buffer_inverting.outn)


def _seed_style_psrr(circuit, supply_source, input_sources, out_p, out_n, freq):
    """The pre-batching PSRR procedure: two full looped AC analyses."""
    ins = _signal_sources(circuit, input_sources)
    sup = _signal_sources(circuit, (supply_source,))[0]
    saved = [(el, el.ac, el.ac_phase) for el in (*ins, sup)]
    try:
        op = dc_operating_point(circuit)
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
        sup.ac = 0.0
        h_sig = abs(_ac_analysis_looped(op, np.array([freq])).vdiff(out_p, out_n)[0])
        for el in ins:
            el.ac = 0.0
        sup.ac = 1.0
        sup.ac_phase = 0.0
        h_sup = abs(_ac_analysis_looped(op, np.array([freq])).vdiff(out_p, out_n)[0])
    finally:
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
    return h_sig, h_sup


class TestPsrrEquivalence:
    def test_micamp_multi_rhs_matches_seed_path(self):
        design = build_mic_amp(CMOS12, gain_code=5)
        res = measure_psrr(
            design.circuit, "vdd_src", ("vin_p", "vin_n"), design.outp, design.outn
        )
        h_sig, h_sup = _seed_style_psrr(
            design.circuit, "vdd_src", ("vin_p", "vin_n"),
            design.outp, design.outn, 1e3,
        )
        assert res.gain_signal == pytest.approx(h_sig, rel=1e-9)
        assert res.gain_disturb == pytest.approx(h_sup, rel=1e-9)

    def test_sources_restored(self):
        design = build_mic_amp(CMOS12, gain_code=5)
        before = [(el.name, el.ac, el.ac_phase)
                  for el in design.circuit if hasattr(el, "ac")]
        measure_psrr(
            design.circuit, "vdd_src", ("vin_p", "vin_n"), design.outp, design.outn
        )
        after = [(el.name, el.ac, el.ac_phase)
                 for el in design.circuit if hasattr(el, "ac")]
        assert before == after


class TestRhsCaching:
    def _circuit(self):
        ckt = Circuit("rhs_cache")
        ckt.vsource("v1", "a", "gnd", dc=1.0, ac=1.0)
        ckt.isource("i1", "a", "b", dc=2e-3)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 1e3)
        return ckt

    def test_rhs_dc_cache_hit_and_invalidation(self):
        ckt = self._circuit()
        system = ckt.compile()
        b1 = system.rhs_dc()
        assert system.rhs_dc() is b1  # cache hit: same array object
        ckt.element("v1").dc = 2.5
        b2 = system.rhs_dc()
        assert b2 is not b1
        assert b2[system.branch("v1")] == pytest.approx(2.5)

    def test_rhs_dc_matches_hand_stamp(self):
        ckt = self._circuit()
        system = ckt.compile()
        b = system.rhs_dc()
        expected = np.zeros(system.size + 1)
        expected[system.branch("v1")] = 1.0
        expected[system.node("a")] -= 2e-3
        expected[system.node("b")] += 2e-3
        np.testing.assert_allclose(b, expected)

    def test_rhs_ac_cache_hit_and_invalidation(self):
        ckt = self._circuit()
        system = ckt.compile()
        b1 = system.rhs_ac()
        assert system.rhs_ac() is b1
        ckt.element("v1").ac = 0.25
        b2 = system.rhs_ac()
        assert b2 is not b1
        assert b2[system.branch("v1")] == pytest.approx(0.25)
        ckt.element("v1").ac_phase = np.pi
        b3 = system.rhs_ac()
        assert b3[system.branch("v1")] == pytest.approx(-0.25)


class TestIntegrateBandRegression:
    """Band-edge interpolation of _integrate_band, pinned analytically."""

    FREQS = np.array([10.0, 100.0, 1000.0])
    PSD = np.array([1.0, 2.0, 3.0])

    def test_edges_between_samples(self):
        # interp(30)=11/9, interp(300)=20/9; trapezoids over [30,100,300]
        expected = (11 / 9 + 2.0) / 2 * 70 + (2.0 + 20 / 9) / 2 * 200
        assert _integrate_band(self.FREQS, self.PSD, 30.0, 300.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(535.0)

    def test_band_inside_one_segment(self):
        # both edges inside [10, 100]: pure interpolation, no samples used
        expected = (4 / 3 + 14 / 9) / 2 * 20
        assert _integrate_band(self.FREQS, self.PSD, 40.0, 60.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_full_span_equals_trapezoid(self):
        expected = float(np.trapezoid(self.PSD, self.FREQS))
        assert _integrate_band(self.FREQS, self.PSD, 10.0, 1000.0) == pytest.approx(
            expected, rel=1e-12
        )
