"""Mirror cells: the Sec. 2 cascode-compliance argument."""

import pytest

from repro.circuits.library import (
    build_cascode_mirror_cell,
    build_simple_mirror_cell,
    mirror_compliance_voltage,
    mirror_saturation_compliance,
)
from repro.spice import dc_operating_point


class TestSimpleMirror:
    def test_copies_reference_current(self, tech):
        cell = build_simple_mirror_cell(tech, i_ref=50e-6)
        op = dc_operating_point(cell.circuit)
        assert abs(op.mos_op("mn2").ids) == pytest.approx(50e-6, rel=0.1)

    def test_saturation_compliance_is_one_vdsat(self, tech):
        cell = build_simple_mirror_cell(tech, i_ref=50e-6)
        v_min = mirror_saturation_compliance(cell)
        op = dc_operating_point(cell.circuit)
        vdsat = op.mos_op("mn2").vdsat
        assert v_min == pytest.approx(vdsat, abs=0.15)

    def test_current_collapse_below_saturation(self, tech):
        cell = build_simple_mirror_cell(tech, i_ref=50e-6)
        v_current = mirror_compliance_voltage(cell)
        assert 0.05 < v_current < 0.5


class TestCascodeMirror:
    def test_compliance_is_vth_plus_2vdsat(self, tech):
        """Sec. 2: 'minimum supply voltage needed for proper operation of
        a regulated cascode current mirror must be greater than
        V_th + 2 V_dssat' (about 1.1 V; the plain stacked-diode cascode
        built here is even a little worse)."""
        cell = build_cascode_mirror_cell(tech, i_ref=50e-6)
        v_min = mirror_saturation_compliance(cell)
        op = dc_operating_point(cell.circuit)
        vth = op.mos_op("mn2").vth
        vdsat = op.mos_op("mn2").vdsat
        assert v_min > vth + vdsat  # > Vth + 2Vdsat-ish, >> one Vdsat
        assert 1.0 < v_min < 1.7

    def test_cascode_needs_far_more_headroom_than_simple(self, tech):
        simple = mirror_saturation_compliance(build_simple_mirror_cell(tech))
        cascode = mirror_saturation_compliance(build_cascode_mirror_cell(tech))
        # the paper's whole low-voltage argument in one inequality:
        assert cascode > simple + 0.5

    def test_cascode_copies_current_when_high(self, tech):
        cell = build_cascode_mirror_cell(tech, i_ref=50e-6)
        op = dc_operating_point(cell.circuit)
        assert abs(op.mos_op("mn2").ids) == pytest.approx(50e-6, rel=0.1)

    def test_compliance_exceeds_half_supply_of_split_rails(self, tech):
        """At +/-1.3 V rails a cascoded source would eat the entire
        half-swing: the quantitative reason 'cascoding is not possible'."""
        cascode = mirror_saturation_compliance(build_cascode_mirror_cell(tech))
        assert cascode > 0.5 * tech.vdd_nominal

    def test_cascode_output_resistance_advantage(self, tech):
        """What the headroom buys: far higher output resistance while it
        *is* saturated — the trade the paper had to give up."""
        import numpy as np
        from repro.spice.sweeps import dc_sweep

        r_out = {}
        for kind, build in (("simple", build_simple_mirror_cell),
                            ("cascode", build_cascode_mirror_cell)):
            cell = build(tech, i_ref=50e-6)
            volts = np.array([2.0, 2.4])
            data = dc_sweep(cell.circuit, "vo", volts, ["i(vo)"])
            di = abs(data["i(vo)"][1] - data["i(vo)"][0])
            r_out[kind] = 0.4 / max(di, 1e-15)
        assert r_out["cascode"] > 10.0 * r_out["simple"]
