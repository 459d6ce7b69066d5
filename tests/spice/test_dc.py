"""DC solver: convergence strategies, sweeps, operating-point access."""

import numpy as np
import pytest

from repro.spice import Circuit, dc_operating_point, dc_sweep
from repro.spice.dc import ConvergenceError, NewtonOptions
from repro.spice.devices.diode import DiodeModel


class TestNewton:
    def test_diode_resistor(self, tech):
        ckt = Circuit("dr")
        ckt.vsource("v1", "a", "gnd", dc=2.0)
        ckt.resistor("r1", "a", "d", 1e3)
        ckt.diode("d1", "d", "gnd", DiodeModel(is_sat=1e-15))
        op = dc_operating_point(ckt)
        vd = op.v("d")
        i_r = (2.0 - vd) / 1e3
        # diode current must equal resistor current
        from repro.constants import thermal_voltage

        i_d = 1e-15 * (np.exp(vd / thermal_voltage(25.0)) - 1)
        assert i_d == pytest.approx(i_r, rel=1e-4)

    def test_mos_diode_from_cold_start(self, tech):
        ckt = Circuit("md")
        ckt.vsource("v1", "a", "gnd", dc=2.0)
        ckt.resistor("r1", "a", "d", 10e3)
        ckt.mosfet("m1", "d", "d", "gnd", "gnd", tech.nmos, 50e-6, 2e-6)
        op = dc_operating_point(ckt)
        assert 0.7 < op.v("d") < 1.4
        assert op.strategy == "newton"

    def test_nodesets_respected(self, tech):
        ckt = Circuit("ns")
        ckt.vsource("v1", "a", "gnd", dc=2.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 1e3)
        ckt.nodeset("b", 0.9)
        op = dc_operating_point(ckt)
        assert op.v("b") == pytest.approx(1.0, rel=1e-9)

    def test_supply_seeded_initial_guess(self, tech):
        """Nodes tied to ground by DC sources start at the source value."""
        from repro.spice.dc import _initial_guess

        ckt = Circuit("seed")
        ckt.vsource("vdd", "vdd", "gnd", dc=2.6)
        ckt.vsource("vneg", "gnd", "vss", dc=1.3)
        ckt.resistor("r", "vdd", "vss", 1e3)
        system = ckt.compile()
        x0 = _initial_guess(system)
        assert x0[system.node("vdd")] == pytest.approx(2.6)
        assert x0[system.node("vss")] == pytest.approx(-1.3)

    def test_unsolvable_circuit_raises(self, tech):
        """Two current sources forcing conflicting KCL at a node."""
        ckt = Circuit("bad")
        ckt.vsource("vdd", "vdd", "gnd", dc=2.6)
        # Both the PMOS and the source push current INTO node d1 --
        # there is no DC solution within the supplies.
        ckt.isource("i1", "vdd", "d1", dc=100e-6)
        ckt.mosfet("mp1", "d1", "d1", "vdd", "vdd", tech.pmos, 100e-6, 2e-6)
        with pytest.raises(ConvergenceError):
            dc_operating_point(ckt, options=NewtonOptions(max_iterations=40))


class TestOperatingPoint:
    def test_accessors(self, mic_amp_op):
        assert mic_amp_op.v("gnd") == 0.0
        assert mic_amp_op.vdiff("outp", "outn") == pytest.approx(
            mic_amp_op.v("outp") - mic_amp_op.v("outn"))

    def test_mos_op_unknown_name(self, mic_amp_op):
        with pytest.raises(KeyError):
            mic_amp_op.mos_op("not_a_device")

    def test_saturation_report_clean(self, mic_amp_op):
        assert mic_amp_op.saturation_report() == []

    def test_all_mos_op_evaluates_the_group_once(self, mic_amp_op, monkeypatch):
        """One group evaluation serves every device, and each record
        equals the single-device lookup."""
        from repro.spice.devices.mosfet import MosGroup

        calls = []
        evaluate = MosGroup.evaluate

        def counting(grp, volts):
            calls.append(grp)
            return evaluate(grp, volts)

        monkeypatch.setattr(MosGroup, "evaluate", counting)
        ops = mic_amp_op.all_mos_op()
        assert len(calls) == 1
        assert list(ops) == mic_amp_op.system.mos_group.names
        assert len(ops) == 30
        for name, op in ops.items():
            assert op == mic_amp_op.mos_op(name)
        assert len(calls) == 31

    def test_supply_current_positive(self, mic_amp_op):
        assert mic_amp_op.supply_current("vdd_src") > 1e-3


class TestDcSweep:
    def test_linear_sweep_matches_formula(self):
        ckt = Circuit("sweep")
        ckt.vsource("vin", "a", "gnd", dc=0.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.resistor("r2", "b", "gnd", 3e3)
        values = np.linspace(-2, 2, 9)
        data = dc_sweep(ckt, "vin", values, ["b", "i(vin)"])
        assert np.allclose(data["b"], values * 0.75, atol=1e-9)
        assert np.allclose(data["i(vin)"], -values / 4e3, atol=1e-12)

    def test_sweep_restores_source(self):
        ckt = Circuit("restore")
        ckt.vsource("vin", "a", "gnd", dc=0.123)
        ckt.resistor("r1", "a", "gnd", 1e3)
        dc_sweep(ckt, "vin", np.array([1.0, 2.0]), ["a"])
        assert ckt.element("vin").dc == 0.123

    def test_sweep_rejects_non_source(self):
        ckt = Circuit("bad")
        ckt.resistor("r1", "a", "gnd", 1e3)
        with pytest.raises(TypeError):
            dc_sweep(ckt, "r1", np.array([1.0]), ["a"])


class TestStrategies:
    def test_bias_circuit_without_nodesets_finds_valid_solution(self, tech):
        """Strip the nodesets: the solver must still satisfy KCL.

        Self-biased references are multistable; without hints Newton may
        legitimately land on the degenerate low-current equilibrium (on
        the bench, that's what the start-up circuit exists to leave).
        The solver contract is a *valid* solution, checked here; finding
        the *operating* one with hints is checked in the bias tests.
        """
        from repro.circuits.bias import build_bias_circuit

        design = build_bias_circuit(tech)
        design.circuit.nodesets.clear()
        op = dc_operating_point(design.circuit)
        system = op.system
        _, resid, _ = system.assemble(op.x, system.rhs_dc())
        assert np.max(np.abs(resid[: system.num_nodes])) < 1e-8

    def test_bias_circuit_with_nodesets_finds_operating_state(self, tech):
        from repro.circuits.bias import build_bias_circuit

        design = build_bias_circuit(tech)
        op = dc_operating_point(design.circuit)
        assert op.v("iout") / 10e3 > 10e-6
