"""Every DC sweep is one continuation walk, pinned against the frozen loops.

``tests/sweep_reference.py`` keeps the four warm-start loops the walk
replaced.  Away from the anchor level the walk repeats their arithmetic
solve for solve, so each public sweep matches its frozen copy bit for
bit.  A level equal to the anchor now gets the anchor's own solution
instead of a warm re-solve there, which moves that chain by round-off.
"""

from __future__ import annotations

import numpy as np
import pytest

import sweep_reference as frozen
from repro.analysis.distortion import measure_static_transfer, transient_thd
from repro.circuits.bandgap import build_bandgap
from repro.circuits.library import build_cascode_mirror_cell
from repro.circuits.powerbuffer import build_power_buffer
from repro.spice import sweeps
from repro.spice.dc import ConvergenceError, dc_operating_point
from repro.spice.elements import Sine
from repro.spice.sweeps import (
    continuation_walk,
    dc_sweep,
    restoring_sources,
    source_value_sweep,
    temperature_sweep,
)

SUPPLY = 2.6   # Table 2 buffer supply: +/-1.3 V


def _table2_buffer(tech):
    return build_power_buffer(tech, feedback="inverting", load="resistive",
                              vdd=SUPPLY / 2, vss=-SUPPLY / 2)


def _unity_follower(tech):
    return build_power_buffer(tech, feedback="unity", load="none",
                              vdd=SUPPLY / 2, vss=-SUPPLY / 2)


def _max_dx(ops, ref_ops) -> float:
    return max(float(np.max(np.abs(a.x - b.x))) for a, b in zip(ops, ref_ops))


class TestBitForBit:
    @pytest.mark.parametrize("points", [31, 61])
    def test_table2_buffer_transfer(self, tech, points):
        design = _table2_buffer(tech)
        args = (design.circuit, "vsrc_p", "vsrc_n", design.outp, design.outn)
        new = measure_static_transfer(*args, amplitude=1.25 * SUPPLY,
                                      points=points)
        ref = frozen.measure_static_transfer(*args, amplitude=1.25 * SUPPLY,
                                             points=points)
        assert len(new.vin) == points
        assert np.array_equal(new.vin, ref.vin)
        assert np.array_equal(new.vout, ref.vout)

    def test_unity_follower_input_range(self, tech):
        circuit = _unity_follower(tech).circuit
        levels = np.linspace(-SUPPLY / 2, SUPPLY / 2, 16)
        assert 0.0 not in levels
        ops = source_value_sweep(circuit, "vsrc_p", levels, anchor=0.0)
        ref = frozen.source_value_sweep(circuit, "vsrc_p", levels, anchor=0.0)
        for a, b in zip(ops, ref):
            assert np.array_equal(a.x, b.x)

    def test_descending_mirror_dc_sweep(self, tech):
        cell = build_cascode_mirror_cell(tech)
        volts = np.linspace(2.5, 0.0, 126)
        outputs = [f"i({cell.sweep_source})", "dm"]
        new = dc_sweep(cell.circuit, cell.sweep_source, volts, outputs)
        ref = frozen.dc_sweep(cell.circuit, cell.sweep_source, volts, outputs)
        assert list(new) == list(ref)
        for key in ref:
            assert np.array_equal(new[key], ref[key])

    def test_bandgap_away_from_the_anchor(self, tech):
        circuit = build_bandgap(tech).circuit
        temps = np.array([-20.0, -5.0, 10.0, 40.0, 62.5, 85.0])
        ops = temperature_sweep(circuit, temps)
        ref = frozen.temperature_sweep(circuit, temps)
        for a, b in zip(ops, ref):
            assert np.array_equal(a.x, b.x)


class TestAnchorLevel:
    def test_bandgap_level_at_the_anchor(self, tech):
        circuit = build_bandgap(tech).circuit
        temps = np.linspace(-20, 85, 8)
        i_anchor = int(np.flatnonzero(temps == sweeps.TEMP_ANCHOR_C)[0])
        ops = temperature_sweep(circuit, temps)
        cold = dc_operating_point(circuit, temp_c=sweeps.TEMP_ANCHOR_C)
        assert np.array_equal(ops[i_anchor].x, cold.x)
        assert _max_dx(ops, frozen.temperature_sweep(circuit, temps)) <= 1e-15

    def test_unity_follower_level_at_the_anchor(self, tech):
        circuit = _unity_follower(tech).circuit
        levels = np.linspace(-SUPPLY / 2, SUPPLY / 2, 27)
        assert 0.0 in levels
        ops = source_value_sweep(circuit, "vsrc_p", levels, anchor=0.0)
        ref = frozen.source_value_sweep(circuit, "vsrc_p", levels, anchor=0.0)
        i_anchor = int(np.flatnonzero(levels == 0.0)[0])
        assert np.array_equal(ops[i_anchor].x, dc_operating_point(circuit).x)
        assert _max_dx(ops, ref) <= 1e-15

    def test_walk_solves_the_anchor_once_and_walks_outward(self):
        calls = []

        def solve(level, x0):
            calls.append((level, None if x0 is None else float(x0[0])))
            return type("Op", (), {"x": np.array([level])})()

        ops = continuation_walk(np.array([1.0, 3.0, 2.0, 0.0, 2.0]), 2.0, solve)
        assert calls == [(2.0, None), (1.0, 2.0), (0.0, 1.0), (3.0, 2.0)]
        assert [float(op.x[0]) for op in ops] == [1.0, 3.0, 2.0, 0.0, 2.0]
        assert ops[2] is ops[4]


class TestSourcesRestored:
    def test_convergence_error_mid_walk_restores_every_source(
            self, tech, monkeypatch):
        design = _table2_buffer(tech)
        ckt = design.circuit
        ckt.element("vsrc_n").wave = Sine(offset=0.0, amplitude=0.1, freq=1e3)
        before = {name: (ckt.element(name).dc, ckt.element(name).wave)
                  for name in ("vsrc_p", "vsrc_n")}
        calls = []

        def failing(system, **kw):
            calls.append(kw.get("x0"))
            if len(calls) == 4:
                raise ConvergenceError("injected mid-walk")
            return dc_operating_point(system, **kw)

        monkeypatch.setattr(sweeps, "dc_operating_point", failing)
        with pytest.raises(ConvergenceError):
            measure_static_transfer(ckt, "vsrc_p", "vsrc_n", design.outp,
                                    design.outn, amplitude=1.0, points=21)
        assert len(calls) == 4 and calls[3] is not None
        for name, (dc, wave) in before.items():
            assert ckt.element(name).dc == dc
            assert ckt.element(name).wave is wave

    def test_transient_thd_with_a_wrong_name_changes_nothing(self, tech):
        ckt = _table2_buffer(tech).circuit
        with pytest.raises(KeyError):
            transient_thd(ckt, "vsrc_p", "nope", "outp", "outn",
                          amplitude=0.2)
        assert ckt.element("vsrc_p").wave is None

    def test_a_non_source_is_rejected_before_any_change(self):
        from repro.spice import Circuit

        ckt = Circuit("mixed")
        ckt.vsource("vin", "a", "gnd", dc=0.5)
        ckt.resistor("r1", "a", "gnd", 1e3)
        with pytest.raises(TypeError):
            with restoring_sources(ckt, ["vin", "r1"]) as sources:
                sources[0].dc = 9.0
        assert ckt.element("vin").dc == 0.5
