"""Technology model: parameters, derived helpers, overrides."""

import pytest

from repro.process import CMOS12
from repro.process.technology import PolyResistorSpec, Technology


class TestCmos12:
    def test_paper_thresholds(self):
        """'typical threshold voltage of 0.7 V'."""
        assert CMOS12.nmos.vth0 == pytest.approx(0.70)
        assert CMOS12.pmos.vth0 == pytest.approx(0.70)

    def test_minimum_length_is_1_2_um(self):
        assert CMOS12.l_min == pytest.approx(1.2e-6)

    def test_split_supply_totals_2_6(self):
        assert CMOS12.supply_total == pytest.approx(2.6)
        assert CMOS12.vdd_nominal == pytest.approx(1.3)

    def test_nmos_stronger_than_pmos(self):
        assert CMOS12.nmos.kp > 2.0 * CMOS12.pmos.kp

    def test_mos_lookup(self):
        assert CMOS12.mos("nmos") is CMOS12.nmos
        assert CMOS12.mos("pmos") is CMOS12.pmos
        with pytest.raises(ValueError):
            CMOS12.mos("finfet")

    def test_scaled_overrides(self):
        t = CMOS12.scaled(nmos={"vth0": 0.8})
        assert t.nmos.vth0 == pytest.approx(0.8)
        assert t.pmos.vth0 == pytest.approx(CMOS12.pmos.vth0)


class TestPolyResistor:
    def test_squares(self):
        spec = PolyResistorSpec(sheet_ohm=25.0)
        assert spec.squares(2.5e3) == pytest.approx(100.0)

    def test_area_scales_with_width_squared(self):
        spec = PolyResistorSpec(sheet_ohm=25.0)
        assert spec.area_um2(1e3, width_um=4.0) == pytest.approx(
            4.0 * spec.area_um2(1e3, width_um=2.0)
        )

    def test_positive_tempco(self):
        """Poly tc1 > 0 is what flattens the PTAT bias slope (Sec. 2.1)."""
        assert CMOS12.poly.tc1 > 0.0
