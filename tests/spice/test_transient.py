"""Transient integration: analytic RC/RL responses, steady state, the
companion-system Newton against a frozen reference integrator."""

import numpy as np
import pytest

import repro.analysis.distortion as distortion
import repro.analysis.slew as slew
import repro.spice.transient as transient_mod
from repro.circuits.powerbuffer import build_power_buffer
from repro.obs import Recorder, deactivate
from repro.spice import Circuit, Pulse, Sine, transient_analysis
from repro.spice.dc import NewtonOptions, dc_operating_point
from repro.spice.mna import MnaSystem
from repro.spice.transient import TransientResult
from repro.spice.waveform import Waveform


class TestRcStep:
    def make(self, dt_rise=1e-9):
        ckt = Circuit("rc")
        ckt.vsource("vin", "a", "gnd", dc=0.0,
                    wave=Pulse(v1=0.0, v2=1.0, delay=0.0, rise=dt_rise,
                               fall=dt_rise, width=1.0, period=2.0))
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.capacitor("c1", "b", "gnd", 1e-9)
        return ckt

    def test_exponential_charge(self):
        ckt = self.make()
        tr = transient_analysis(ckt, 5e-6, 5e-9)
        tau = 1e-6
        expected = 1.0 - np.exp(-tr.t / tau)
        err = np.max(np.abs(tr.v("b") - expected))
        assert err < 0.01

    def test_final_value(self):
        ckt = self.make()
        tr = transient_analysis(ckt, 10e-6, 10e-9)
        assert tr.v("b")[-1] == pytest.approx(1.0, abs=1e-4)

    def test_initial_condition_from_dc(self):
        ckt = self.make()
        # Pulse starts at v1=0, so the cap starts discharged.
        tr = transient_analysis(ckt, 1e-6, 10e-9)
        assert abs(tr.v("b")[0]) < 1e-9


class TestRlStep:
    def test_inductor_current_ramp(self):
        ckt = Circuit("rl")
        ckt.vsource("vin", "a", "gnd", dc=0.0,
                    wave=Pulse(v1=0.0, v2=1.0, delay=0.0, rise=1e-9,
                               width=1.0, period=2.0))
        ckt.resistor("r1", "a", "b", 100.0)
        ckt.inductor("l1", "b", "gnd", 1e-3)
        tr = transient_analysis(ckt, 50e-6, 50e-9)
        tau = 1e-3 / 100.0
        i_expected = (1.0 / 100.0) * (1.0 - np.exp(-tr.t / tau))
        err = np.max(np.abs(tr.i("l1") - i_expected))
        assert err < 2e-4


class TestSineSteadyState:
    def test_rc_sine_amplitude_and_phase(self):
        ckt = Circuit("rcs")
        ckt.vsource("vin", "a", "gnd", dc=0.0,
                    wave=Sine(amplitude=1.0, freq=1e3))
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.capacitor("c1", "b", "gnd", 159.154943e-9)
        tr = transient_analysis(ckt, 5e-3, 1e-6)
        w_out = Waveform(tr.t, tr.v("b")).last_cycles(1e3, 2)
        w_in = Waveform(tr.t, tr.v("a")).last_cycles(1e3, 2)
        comp_out = w_out.fourier_component(1e3)
        comp_in = w_in.fourier_component(1e3)
        assert abs(comp_out) == pytest.approx(1 / np.sqrt(2), rel=5e-3)
        phase = np.degrees(np.angle(comp_out / comp_in))
        assert phase == pytest.approx(-45.0, abs=1.0)

    def test_vsource_follows_wave_exactly(self):
        ckt = Circuit("src")
        ckt.vsource("vin", "a", "gnd", dc=0.0, wave=Sine(amplitude=0.5, freq=2e3))
        ckt.resistor("r1", "a", "gnd", 1e3)
        tr = transient_analysis(ckt, 1e-3, 1e-6)
        expected = 0.5 * np.sin(2 * np.pi * 2e3 * tr.t)
        assert np.max(np.abs(tr.v("a") - expected)) < 1e-9


class TestRobustness:
    def test_rejects_bad_grid(self):
        ckt = Circuit("bad")
        ckt.vsource("v", "a", "gnd", dc=1.0)
        ckt.resistor("r", "a", "gnd", 1.0)
        with pytest.raises(ValueError):
            transient_analysis(ckt, -1.0, 1e-9)
        with pytest.raises(ValueError):
            transient_analysis(ckt, 1e-6, 0.0)

    def test_nonlinear_clipping_survives(self, tech):
        """A hard-clipped amplifier stage must integrate without failure."""
        ckt = Circuit("clip")
        ckt.vsource("vdd", "vdd", "gnd", dc=2.6)
        ckt.vsource("vin", "in", "gnd", dc=0.9,
                    wave=Sine(offset=0.9, amplitude=0.8, freq=10e3))
        ckt.resistor("rl", "vdd", "out", 10e3, noisy=False)
        ckt.mosfet("m1", "out", "in", "gnd", "gnd", tech.nmos, 50e-6, 2e-6)
        ckt.capacitor("cl", "out", "gnd", 1e-12)
        tr = transient_analysis(ckt, 2e-4, 2e-7)
        out = tr.v("out")
        assert out.min() > -0.1
        assert out.max() < 2.7

    def test_result_accessors(self):
        ckt = Circuit("acc")
        ckt.vsource("v", "a", "gnd", dc=1.0)
        ckt.resistor("r", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 1e3)
        tr = transient_analysis(ckt, 1e-6, 1e-7)
        assert tr.dt == pytest.approx(1e-7)
        assert np.allclose(tr.vdiff("a", "b"), tr.v("a") - tr.v("b"))
        assert np.allclose(tr.v("gnd"), 0.0)


# ----------------------------------------------------------------------
# Every step is a DC Newton solve of the companion system G + C/h
# ----------------------------------------------------------------------
def _rc_pulse(name="rc"):
    ckt = Circuit(name)
    ckt.vsource("vin", "a", "gnd", dc=0.0,
                wave=Pulse(v1=0.0, v2=1.0, delay=0.0, rise=1e-9,
                           fall=1e-9, width=1.0, period=2.0))
    ckt.resistor("r1", "a", "b", 1e3)
    ckt.capacitor("c1", "b", "gnd", 1e-9)
    return ckt


def _frozen_newton(system, x_guess, rhs, c_over_h, hist, options):
    """The transient Newton loop as it stood before steps ran through
    ``dc._newton``: G x + I(x) + C_h x - (rhs + hist) = 0, dense LAPACK,
    no jitter and no KCL residual test.  Returns ``None`` on failure."""
    n = system.size
    x = x_guess.copy()
    for _ in range(options.max_iterations):
        jac, resid, _ = system.assemble(x, rhs)
        resid = resid + c_over_h @ x - hist
        jac = jac + c_over_h
        dx = np.linalg.solve(jac[:n, :n], -resid[:n])
        nv = system.num_nodes
        dx_nodes = np.clip(dx[:nv], -options.vlimit, options.vlimit)
        limited = not np.array_equal(dx_nodes, dx[:nv])
        x[:nv] += dx_nodes
        x[nv:n] += dx[nv:n]
        if not limited and float(np.max(np.abs(dx_nodes), initial=0.0)) < options.vntol:
            return x
    return None


def frozen_transient(circuit, t_stop, dt, temp_c=25.0):
    """Reference backward-Euler integrator on its own Newton loop, with
    the retry from the previous solution when the predicted start fails."""
    system = circuit.compile(temp_c=temp_c)
    opts = NewtonOptions(vntol=1e-8, max_iterations=60)
    zero_c = np.zeros_like(system.c_static)
    no_hist = np.zeros(system.size + 1)
    x0 = _frozen_newton(system, dc_operating_point(system).x,
                        system.rhs_transient(0.0), zero_c, no_hist, opts)
    assert x0 is not None
    n_steps = int(round(t_stop / dt)) + 1
    t = np.arange(n_steps) * dt
    xs = np.zeros((n_steps, system.size + 1))
    xs[0] = x0
    c_over_h = system.c_static / dt
    x_prev, xdot_prev = x0.copy(), np.zeros(system.size + 1)
    for k in range(1, n_steps):
        rhs, hist = system.rhs_transient(t[k]), c_over_h @ x_prev
        x_new = _frozen_newton(system, x_prev + xdot_prev * dt, rhs,
                               c_over_h, hist, opts)
        if x_new is None:
            x_new = _frozen_newton(system, x_prev, rhs, c_over_h, hist, opts)
        assert x_new is not None
        xdot_prev = (x_new - x_prev) / dt
        x_prev = xs[k] = x_new
    return TransientResult(system, t, xs)


def _rel(a, b):
    return abs(a - b) / abs(b)


class TestCompanionNewton:
    @pytest.fixture(autouse=True)
    def disarm_after(self):
        yield
        deactivate()

    def test_sense_only_node_runs_through_the_jitter_rung(self):
        """Node ``f`` is touched only by a VCVS control terminal, so every
        Jacobian is singular; the DC loop's 1e-12 jitter solves it."""
        ckt = _rc_pulse("sense_only")
        ckt.vcvs("e1", "o", "gnd", "b", "f", 2.0)
        ckt.resistor("rl", "o", "gnd", 1e3)
        rec = Recorder()
        with rec.activate():
            tr = transient_analysis(ckt, 2e-6, 2e-8)
        assert tr.v("o")[-1] == pytest.approx(1.7239340656, abs=1e-6)
        # 2 * (1 - (1 + h/tau)^-100): the backward-Euler RC charge.
        assert tr.v("o")[-1] == pytest.approx(2.0 * (1.0 - 1.02 ** -100),
                                              rel=1e-12)
        singular = rec.events(name="dc.jacobian_singular")
        assert len(singular) > len(tr.t)
        assert rec.profile()["counts"]["dc.newton_iterations"] >= len(tr.t)

    def test_rc_pulse_matches_the_frozen_integrator(self):
        tr = transient_analysis(_rc_pulse(), 5e-6, 5e-9)
        ref = frozen_transient(_rc_pulse(), 5e-6, 5e-9)
        np.testing.assert_allclose(tr.v("b"), ref.v("b"), rtol=1e-9, atol=1e-15)

    def test_buffer_slew_matches_the_frozen_integrator(self, tech, monkeypatch):
        def run():
            design = build_power_buffer(tech, feedback="inverting",
                                        load="resistive")
            return slew.measure_slew_rate(
                design.circuit, "vsrc_p", "vsrc_n", "outp", "outn",
                step=1.0, duration=20e-6, dt=25e-9).slew_v_per_s

        new = run()
        monkeypatch.setattr(slew, "transient_analysis", frozen_transient)
        assert _rel(new, run()) < 1e-9

    @staticmethod
    def _buffer_thd(tech, amplitude, points_per_cycle):
        design = build_power_buffer(tech, feedback="inverting",
                                    load="resistive", vdd=1.5, vss=-1.5)
        thd, _ = distortion.transient_thd(
            design.circuit, "vsrc_p", "vsrc_n", "outp", "outn",
            amplitude=amplitude, cycles=3, points_per_cycle=points_per_cycle)
        return thd

    def test_buffer_thd_at_4vpp_matches_the_frozen_integrator(self, tech, monkeypatch):
        new = self._buffer_thd(tech, 2.0, 200)
        monkeypatch.setattr(distortion, "transient_analysis", frozen_transient)
        assert _rel(new, self._buffer_thd(tech, 2.0, 200)) < 1e-9

    def test_clipping_retries_an_overshooting_prediction(self, tech, monkeypatch):
        """Hard clipping (4 V differential in, 1.5 V rails) at 20 points
        per cycle: the extrapolated start of some steps fails to converge
        and the retry from the previous solution solves them."""
        outcomes = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            outcomes.append(result[0])
            return result

        real = transient_mod._newton
        monkeypatch.setattr(transient_mod, "_newton", spy)
        new = self._buffer_thd(tech, 4.0, 20)
        assert outcomes.count(False) >= 1
        monkeypatch.setattr(distortion, "transient_analysis", frozen_transient)
        assert _rel(new, self._buffer_thd(tech, 4.0, 20)) < 1e-9

    def test_failed_prediction_hands_over_at_the_stall_bound(self, tech,
                                                             monkeypatch):
        """4 V differential in, 1.5 V rails, 20 points per cycle: each of
        the six predicted starts that fail stops after
        ``PREDICTED_STALL`` clamped steps instead of the 60-iteration
        budget, and the retry from the previous solution gives the
        waveform of a run without the bound, bit for bit."""
        calls = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((kwargs.get("stall"), result[0], result[2]))
            return result

        def run():
            design = build_power_buffer(tech, feedback="inverting",
                                        load="resistive", vdd=1.5, vss=-1.5)
            thd, wave = distortion.transient_thd(
                design.circuit, "vsrc_p", "vsrc_n", "outp", "outn",
                amplitude=4.0, cycles=3, points_per_cycle=20)
            return thd, wave.y.tobytes()

        real = transient_mod._newton
        monkeypatch.setattr(transient_mod, "_newton", spy)
        bounded = run()
        stall = transient_mod.PREDICTED_STALL
        failed = [k for k, (bound, ok, _) in enumerate(calls)
                  if bound is not None and not ok]
        assert [calls[k] for k in failed] == [(stall, False, stall)] * 6
        assert all(calls[k + 1][:2] == (None, True) for k in failed)
        monkeypatch.setattr(transient_mod, "PREDICTED_STALL", None)
        assert run() == bounded

    def test_sparse_steps_match_the_dense_waveform(self, monkeypatch):
        """Above ``sparse_threshold`` the steps take the SuperLU path.  The
        t = 0 solve fills the system's sparse triplets with G alone, so a
        companion that kept them would step on a Jacobian without C/h."""
        dense = transient_analysis(_rc_pulse(), 3e-6, 1e-8)
        monkeypatch.setattr(MnaSystem, "sparse_threshold", 1)
        rec = Recorder()
        with rec.activate():
            sparse = transient_analysis(_rc_pulse(), 3e-6, 1e-8)
        counts = rec.profile()["counts"]
        assert counts["dc.sparse_steps"] >= len(sparse.t)
        assert "dc.dense_solves" not in counts
        assert not rec.events(name="dc.dense_latch")
        assert np.max(np.abs(sparse.v("b") - dense.v("b"))) < 1e-9
