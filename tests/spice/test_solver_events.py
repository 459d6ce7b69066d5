"""Engine degradation events and solver-health forensics.

Every silent numeric fallback in the DC/AC solvers must leave a
retrievable trace: a reason string on the operating point
(``op.latch_reason`` / ``op.health()``), a latch reason on the
small-signal context (``ctx.latch_reasons()``), and — when the
recorder is armed — a structured event naming the circuit, the residual and
(for non-convergence) a condition estimate.
"""

import numpy as np
import pytest

import repro.spice.dc as dc_mod
import repro.spice.linsolve as linsolve
from repro.circuits.micamp import build_mic_amp
from repro.obs import Recorder, deactivate
from repro.spice import Circuit
from repro.spice.batch import BatchedSystem, newton_batch
from repro.spice.dc import ConvergenceError, NewtonOptions, dc_operating_point
from repro.spice.mna import MnaSystem

from looped_reference import solve_looped


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()


def _unsolvable(tech):
    """Conflicting current sources: no DC solution within the supplies."""
    ckt = Circuit("bad")
    ckt.vsource("vdd", "vdd", "gnd", dc=2.6)
    ckt.isource("i1", "vdd", "d1", dc=100e-6)
    ckt.mosfet("mp1", "d1", "d1", "vdd", "vdd", tech.pmos, 100e-6, 2e-6)
    return ckt


class TestHealthSidecar:
    def test_converged_solve_reports_health(self, mic_amp_op):
        health = mic_amp_op.health()
        assert health["strategy"] == "newton"
        assert health["iterations"] >= 1
        assert health["worst_resid"] is not None
        assert health["worst_resid"] < 1e-6
        assert "latch_reason" not in health

    def test_dense_latch_reason_retrievable(self, tech, monkeypatch):
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 1)
        monkeypatch.setattr(dc_mod, "_sparse_newton_step",
                            lambda *a, **k: None)
        rec = Recorder()
        with rec.activate():
            op = dc_operating_point(build_mic_amp(tech, gain_code=5).circuit)
        assert op.latch_reason is not None
        assert "sparse step rejected at iteration 1" in op.latch_reason
        assert op.health()["latch_reason"] == op.latch_reason
        (latch,) = rec.events(name="dc.dense_latch")
        assert latch["severity"] == "warn"
        assert latch["fields"]["reason"] == op.latch_reason
        assert latch["fields"]["iteration"] == 1

    def test_healthy_solve_has_no_latch(self, mic_amp_op):
        assert mic_amp_op.latch_reason is None


class TestEscalationEvents:
    def test_nonconvergence_emits_forensics(self, tech):
        rec = Recorder()
        with rec.activate():
            with pytest.raises(ConvergenceError):
                dc_operating_point(_unsolvable(tech),
                                   options=NewtonOptions(max_iterations=40))
        escalations = rec.events(name="dc.strategy_escalation")
        assert escalations, "strategy ladder climbed without events"
        first = escalations[0]
        assert first["fields"]["from_strategy"] == "newton"
        assert first["fields"]["to_strategy"] == "gmin-stepping"
        assert isinstance(first["fields"]["resid_norm"], float)
        # Each escalation says why the stage it leaves failed, and so
        # does the failure of the last stage, gmin stepping.
        assert [e["fields"]["reason"] for e in escalations] == ["budget"]
        assert all("clamped_streak" not in e["fields"] for e in escalations)
        failures = rec.events(name="dc.nonconvergence", severity="error")
        assert failures, "non-convergence never recorded"
        assert failures[-1]["fields"]["circuit"] == "bad"
        assert failures[-1]["fields"]["stage"] == "gmin-stepping"
        assert failures[-1]["fields"]["reason"] == "budget"
        # The cheap 1-norm condition estimate rode along (it may be
        # None only if LAPACK refused the factorization).
        assert "cond1_est" in failures[-1]["fields"]

    def test_disarmed_solve_emits_nothing_and_still_raises(self, tech):
        with pytest.raises(ConvergenceError):
            dc_operating_point(_unsolvable(tech),
                               options=NewtonOptions(max_iterations=40))


class TestCondEstimate:
    def test_well_conditioned_near_one(self, mic_amp_op):
        system = mic_amp_op.system
        est = system.cond1_estimate(mic_amp_op.x, system.rhs_dc())
        assert est is not None
        assert est >= 1.0

    def test_garbage_input_returns_none(self, mic_amp_op):
        system = mic_amp_op.system
        x = np.full_like(mic_amp_op.x, np.nan)
        assert system.cond1_estimate(x, system.rhs_dc()) is None


class TestLinsolveLatches:
    def _sparse_ctx(self, tech, monkeypatch):
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 1)
        op = dc_operating_point(build_mic_amp(tech, gain_code=5).circuit)
        return op, op.small_signal()

    def test_sparse_rejection_latches_with_reason(self, tech, monkeypatch):
        op, ctx = self._sparse_ctx(tech, monkeypatch)
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        rec = Recorder()
        freqs = np.logspace(1, 5, 8)
        with rec.activate():
            fwd, _ = ctx.solve(freqs, rhs=ctx.rhs_ac())
        assert fwd is not None  # dense ladder still served the answer
        reasons = ctx.latch_reasons()
        assert "rejected on scaled residual" in reasons["sparse"]
        (latch,) = rec.events(name="linsolve.sparse_dead_latch")
        assert latch["fields"]["reason"] == reasons["sparse"]
        assert "resid" in latch["fields"]
        # Health sidecar folds the context latches in.
        assert op.health()["small_signal_latches"] == reasons

    def test_splu_failure_latches(self, tech, monkeypatch):
        _, ctx = self._sparse_ctx(tech, monkeypatch)

        def broken_splu(a):
            raise RuntimeError("Factor is exactly singular")

        import scipy.sparse.linalg

        monkeypatch.setattr(scipy.sparse.linalg, "splu", broken_splu)
        rec = Recorder()
        with rec.activate():
            fwd, _ = ctx.solve(np.logspace(1, 5, 8), rhs=ctx.rhs_ac())
        assert fwd is not None
        assert "splu factorization failed" in ctx.latch_reasons()["sparse"]
        assert rec.events(name="linsolve.sparse_dead_latch")

    def test_spectral_rejection_event_carries_residual(
            self, mic_amp_40db, monkeypatch):
        op = dc_operating_point(mic_amp_40db.circuit)
        ctx = op.small_signal()
        b = ctx.rhs_ac()
        assert ctx.spectral() is not None
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        rec = Recorder()
        freqs = np.logspace(1, 6, 24)
        with rec.activate():
            ctx.solve(freqs, rhs=b)
        events = rec.events(name="linsolve.spectral_rejected")
        assert events, "spectral rejection never recorded"
        assert events[0]["fields"]["n_freqs"] == 24
        assert events[0]["fields"]["resid"] > 0.0

    def test_healthy_context_reports_no_latches(self, mic_amp_op):
        ctx = mic_amp_op.small_signal()
        ctx.solve(np.logspace(1, 5, 8), rhs=ctx.rhs_ac())
        assert ctx.latch_reasons() == {}


def _floating(v1_dc: float = 1.0) -> Circuit:
    """A divider with a capacitor-only node ``f``: no DC path, so the DC
    Jacobian and ``G`` are exactly singular, while ``G + jwC`` is not."""
    ckt = Circuit("floating")
    ckt.vsource("v1", "a", "gnd", dc=v1_dc, ac=1.0)
    ckt.resistor("r1", "a", "b", 1e3)
    ckt.resistor("r2", "b", "gnd", 1e3)
    ckt.capacitor("c1", "b", "f", 1e-12)
    ckt.capacitor("c2", "f", "gnd", 1e-12)
    return ckt


class TestFloatingNode:
    """The two guards only a node with no DC path reaches: the
    singular-Jacobian jitter (serial and tensor Newton) and the spectral
    dead latch."""

    def test_jitter_rung_converges_serial_newton(self):
        system = _floating().compile()
        rec = Recorder()
        with rec.activate():
            converged, x, iters = dc_mod._newton(
                system, dc_mod._initial_guess(system), system.rhs_dc(),
                0.0, NewtonOptions())
        assert converged and iters == 2
        assert x[system.node("b")] == pytest.approx(0.5)
        singular = rec.events(name="dc.jacobian_singular")
        assert [e["fields"]["iteration"] for e in singular] == [1, 2]
        assert all(e["fields"]["gmin"] == 0.0 for e in singular)
        assert all(e["fields"]["circuit"] == "floating" for e in singular)
        op = dc_operating_point(system)
        assert (op.strategy, op.iterations) == ("newton", 2)

    def test_jitter_rung_in_tensor_newton_gives_serial_bytes(self):
        circuits = [_floating(1.0), _floating(2.0)]
        pattern = circuits[0].compile()
        bs = BatchedSystem(pattern, circuits, [25.0, 25.0])
        converged, x, iterations = newton_batch(bs, bs.initial_guess(), bs.rhs_dc())
        assert converged.all()
        for u, circ in enumerate(circuits):
            op = dc_operating_point(circ)
            assert iterations[u] == op.iterations, f"unit {u}"
            assert x[u].tobytes() == op.x.tobytes(), f"unit {u}"
        assert list(iterations) == [2, 3]  # the 2 V unit takes a clamped step

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_spectral_dead_latch_serves_the_lu_path(self):
        op = dc_operating_point(_floating())
        ctx = op.small_signal()
        freqs = np.logspace(1, 6, linsolve.SPECTRAL_MIN_FREQS)
        with pytest.raises(np.linalg.LinAlgError, match="G\\^-1 C is not finite"):
            linsolve.SpectralSolver(ctx.g, ctx.c)
        rec = Recorder()
        with rec.activate():
            fwd, _ = ctx.solve(freqs, rhs=ctx.rhs_ac())
            again, _ = ctx.solve(freqs, rhs=ctx.rhs_ac())
        ref, _ = solve_looped(ctx.g, ctx.c, freqs, rhs=ctx.rhs_ac())
        assert fwd.tobytes() == ref.tobytes() == again.tobytes()
        reason = "eigendecomposition failed: LinAlgError: G^-1 C is not finite"
        assert ctx.latch_reasons() == {"spectral": reason}
        assert op.health()["small_signal_latches"] == {"spectral": reason}
        # The latch is permanent: the second sweep never retries.
        (latch,) = rec.events(name="linsolve.spectral_dead_latch")
        assert latch["fields"] == {"circuit": "floating", "reason": reason}
        counts = rec.profile()["counts"]
        assert counts["linsolve.path.stacked"] == 2
        assert "linsolve.path.spectral" not in counts
