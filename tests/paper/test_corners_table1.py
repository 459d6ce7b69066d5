"""Corner x temperature robustness of the microphone amplifier.

The paper's Sec. 2: "process variations have a large influence on the
system behaviour if the design approach is chosen incorrectly".  This
module runs the Table 1 quick characterisation at the skew corners and
temperature extremes and checks the design approach held: noise, gain
accuracy and IQ stay within their bands everywhere.
"""

import numpy as np

from repro.circuits.micamp import build_mic_amp
from repro.process import iter_pvt
from repro.spice.ac import ac_analysis
from repro.spice.analysis import log_freqs
from repro.spice.dc import dc_operating_point
from repro.spice.noise import noise_analysis


def _measure(tech, temp_c):
    design = build_mic_amp(tech, gain_code=5)
    op = dc_operating_point(design.circuit, temp_c=temp_c)
    ac = ac_analysis(op, np.array([1e3]))
    gain_db = 20 * np.log10(abs(ac.vdiff("outp", "outn")[0]))
    nr = noise_analysis(op, log_freqs(100, 50e3, 6), "outp", "outn")
    # distinguish hard triode (broken) from grazing the soft EKV vdsat
    # boundary (margin erosion at skewed corners, but functional)
    hard = [
        name for name, dev in op.all_mos_op().items()
        if abs(dev.ids) > 1e-9 and dev.vds < dev.vdsat - 0.06
    ]
    return {
        "iq_ma": abs(op.i("vdd_src")) * 1e3,
        "gain_db": gain_db,
        "avg_nv": nr.average_input_density(300, 3400) * 1e9,
        "marginal": len(op.saturation_report()),
        "hard_triode": len(hard),
    }


def test_corners_and_temperature(tech, save_report):
    points = list(iter_pvt(tech))

    def run_all():
        return [(p.corner.name, p.temp_c, _measure(p.tech, p.temp_c))
                for p in points]

    rows = run_all()
    lines = ["Table 1 over corners x temperature", "",
             "corner  T[degC]   IQ[mA]   gain[dB]   avg noise [nV/rtHz] "
             " marginal  hard"]
    for corner, temp, m in rows:
        lines.append(f"  {corner}    {temp:6.0f}    {m['iq_ma']:5.2f}"
                     f"    {m['gain_db']:7.3f}     {m['avg_nv']:6.2f}"
                     f"            {m['marginal']}        {m['hard_triode']}")
    save_report("corners_table1", "\n".join(lines))

    for corner, temp, m in rows:
        # the closed-loop gain is resistor-ratio set: corners barely move it
        assert abs(m["gain_db"] - 40.0) < 0.25, (corner, temp)
        # noise band widens at the hot/slow extreme but stays in spec band
        assert m["avg_nv"] < 5.1 * 1.5, (corner, temp)
        # no device falls into hard triode at any corner (a few devices
        # may graze the soft vdsat boundary at skew extremes)
        assert m["hard_triode"] == 0, (corner, temp)
        assert m["marginal"] <= 3, (corner, temp)
        assert m["iq_ma"] < 3.4, (corner, temp)

    # who-wins structure: ff is the fastest/most current, ss the least
    by_corner = {c: m for c, t, m in rows if t == 25.0}
    assert by_corner["ff"]["iq_ma"] > by_corner["ss"]["iq_ma"]
