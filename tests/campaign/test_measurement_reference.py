"""Every campaign measurement against its earlier code, frozen.

The campaign measurements are written once: operating-point reads over
``UnitReads`` and small-signal measurements as probes plus a reduction,
resolved per unit or over a unit axis.  The functions below are the
earlier per-measurement code, frozen verbatim: the serial wrappers
(``rt``-based, through ``rt.ctx().transfer`` for the gain) and the
PSRR/CMRR drivers that set each source's ``.ac``/``.ac_phase`` between
two ``rhs_ac`` reads and restore them afterwards.  Do not change them
to follow the campaign code.

Every record of the golden qualification spec and of the executor
equivalence specs, from the per-unit runtime and from the tensor path,
must equal the frozen record bit for bit (values, key order); the
public ``measure_psrr``/``measure_cmrr`` must equal the frozen drivers.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.psrr import measure_cmrr, measure_psrr
from repro.campaign import CampaignSpec, batchrun, run_chunk
from repro.campaign.runner import ChunkCache, UnitRuntime
from repro.obs import Recorder
from repro.spice.dc import dc_operating_point
from repro.spice.elements import VoltageSource

from test_executor_equivalence import BUILDER_SPECS
from test_golden import SPEC as GOLDEN_SPEC


# ----------------------------------------------------------------------
# Frozen PSRR/CMRR drivers (mutate the sources, restore them)
# ----------------------------------------------------------------------
@dataclass
class _Rejection:
    freq: float
    gain_signal: float
    gain_disturb: float
    ratio_db: float


def _signal_sources(circuit, names):
    sources = []
    for name in names:
        el = circuit.element(name)
        if not isinstance(el, VoltageSource):
            raise TypeError(f"{name!r} is not a voltage source")
        sources.append(el)
    return sources


def _rejection(ctx, freq, b_signal, b_disturb, out_p, out_n):
    fwd, _ = ctx.solve(np.array([freq]), rhs=np.stack([b_signal, b_disturb], axis=1))
    h = np.abs(ctx.probe(fwd, out_p, out_n)[0])
    h_sig, h_dist = float(h[0]), float(h[1])
    ratio = h_sig / max(h_dist, 1e-30)
    return _Rejection(freq, h_sig, h_dist, 20.0 * float(np.log10(ratio)))


def frozen_measure_psrr(circuit, supply_source, input_sources, out_p, out_n,
                        freq=1e3, temp_c=25.0, op=None):
    ins = _signal_sources(circuit, input_sources)
    sup = _signal_sources(circuit, (supply_source,))[0]
    saved = [(el, el.ac, el.ac_phase) for el in (*ins, sup)]
    try:
        if op is None:
            op = dc_operating_point(circuit, temp_c=temp_c)
        ctx = op.small_signal()

        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
        sup.ac = 0.0
        b_sig = ctx.rhs_ac().copy()

        for el in ins:
            el.ac = 0.0
        sup.ac = 1.0
        sup.ac_phase = 0.0
        b_sup = ctx.rhs_ac().copy()
    finally:
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph

    return _rejection(ctx, freq, b_sig, b_sup, out_p, out_n)


def frozen_measure_cmrr(circuit, input_sources, out_p, out_n, freq=1e3,
                        temp_c=25.0, op=None):
    el_p, el_n = _signal_sources(circuit, input_sources)
    saved = [(el, el.ac, el.ac_phase) for el in (el_p, el_n)]
    try:
        if op is None:
            op = dc_operating_point(circuit, temp_c=temp_c)
        ctx = op.small_signal()

        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph
        b_diff = ctx.rhs_ac().copy()

        for el in (el_p, el_n):
            el.ac = 1.0
            el.ac_phase = 0.0
        b_cm = ctx.rhs_ac().copy()
    finally:
        for el, ac, ph in saved:
            el.ac, el.ac_phase = ac, ph

    return _rejection(ctx, freq, b_diff, b_cm, out_p, out_n)


# ----------------------------------------------------------------------
# Frozen serial measurement wrappers
# ----------------------------------------------------------------------
def _offset(rt):
    return {"offset_v": rt.op.vdiff(rt.built.out_p, rt.built.out_n)}


def _iq(rt):
    return {"iq_ma": abs(rt.op.i(rt.built.supply_source)) * 1e3}


def _gain(rt):
    ctx = rt.ctx()
    h = abs(ctx.transfer(np.array([1e3]), rt.built.out_p, rt.built.out_n)[0])
    gain_db = 20.0 * math.log10(max(h, 1e-30))
    out = {"gain_1khz_db": gain_db}
    if rt.built.nominal_gain_db is not None:
        out["gain_error_db"] = gain_db - rt.built.nominal_gain_db
    return out


def _psrr(rt):
    if not rt.built.input_sources:
        raise ValueError(
            f"psrr needs a signal input; builder {rt.spec.builder!r} "
            "exposes no input sources"
        )
    res = frozen_measure_psrr(
        rt.built.circuit, rt.built.supply_source, rt.built.input_sources,
        rt.built.out_p, rt.built.out_n, op=rt.op,
    )
    return {"psrr_1khz_db": res.ratio_db}


def _cmrr(rt):
    if len(rt.built.input_sources) != 2:
        raise ValueError(
            f"cmrr needs two input sources, builder exposes {rt.built.input_sources}"
        )
    res = frozen_measure_cmrr(
        rt.built.circuit, tuple(rt.built.input_sources),
        rt.built.out_p, rt.built.out_n, op=rt.op,
    )
    return {"cmrr_1khz_db": res.ratio_db}


def _area(rt):
    from repro.layout.area import estimate_area_mm2

    return {"area_mm2": estimate_area_mm2(rt.built.circuit, rt.tech).total_mm2}


def _bias_current(rt):
    node = rt.built.probes.get("iout_node")
    r_load = rt.built.probes.get("r_load")
    if node is None or r_load is None:
        raise ValueError(
            f"builder {rt.spec.builder!r} publishes no iout_node/r_load probes"
        )
    return {"bias_current_ua": rt.op.v(str(node)) / float(r_load) * 1e6}


def _vref(rt):
    return {"vref_mv": rt.op.vdiff(rt.built.out_p, rt.built.out_n) * 1e3}


FROZEN = {
    "offset_v": _offset,
    "iq_ma": _iq,
    "gain_1khz_db": _gain,
    "psrr_1khz_db": _psrr,
    "cmrr_1khz_db": _cmrr,
    "area_mm2": _area,
    "bias_current_ua": _bias_current,
    "vref_mv": _vref,
}


def frozen_records(spec):
    """Each unit's record through the frozen code, on a fresh per-unit
    operating point (the walk of ``run_chunk``)."""
    cache = ChunkCache(spec)
    records = []
    for unit in spec.expand():
        built = cache.built(unit)
        rt = UnitRuntime(spec=spec, unit=unit, tech=cache.tech(unit.corner),
                         built=built,
                         op=dc_operating_point(built.circuit, temp_c=unit.temp_c))
        record = {}
        for name in spec.measurements:
            record.update(FROZEN[name](rt))
        records.append(record)
    return records


def _bits(record: dict) -> list:
    return [(key, float(value).hex()) for key, value in record.items()]


SPECS = {"golden": GOLDEN_SPEC, **BUILDER_SPECS}
SPECS["micamp-area"] = CampaignSpec(
    builder="micamp", corners=("tt", "ss"), temps_c=(25.0, 85.0),
    seeds=(0, 1), gain_codes=(5,), measurements=("area_mm2", "gain_1khz_db"))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_records_equal_frozen_code(name):
    spec = SPECS[name]
    assert set(spec.measurements) <= set(FROZEN)
    expected = [_bits(r) for r in frozen_records(spec)]
    units = spec.expand()
    assert [_bits(r) for r in run_chunk(spec, units)] == expected
    rec = Recorder()
    with rec.activate():
        batched = batchrun.run_chunk_batched(spec, units)
    assert [_bits(r) for r in batched] == expected
    # Only meaningful if the tensor path measured every unit.
    counts = rec.profile()["counts"]
    assert counts["batch.units_stamped"] == spec.n_units
    assert "campaign.batch_group_fallbacks" not in counts


@pytest.mark.parametrize("builder", ["micamp", "powerbuffer"])
def test_public_drivers_equal_frozen_drivers(builder):
    spec = BUILDER_SPECS[builder]
    cache = ChunkCache(spec)
    for unit in spec.expand()[:4]:
        built = cache.built(unit)
        op = dc_operating_point(built.circuit, temp_c=unit.temp_c)
        ins = tuple(built.input_sources)
        new = measure_psrr(built.circuit, built.supply_source, ins,
                           built.out_p, built.out_n, op=op)
        old = frozen_measure_psrr(built.circuit, built.supply_source, ins,
                                  built.out_p, built.out_n, op=op)
        assert vars(new) == vars(old)
        new = measure_cmrr(built.circuit, ins, built.out_p, built.out_n, op=op)
        old = frozen_measure_cmrr(built.circuit, ins, built.out_p, built.out_n,
                                  op=op)
        assert vars(new) == vars(old)
    # Without an operating point, both drivers solve DC at ``temp_c``.
    new = measure_psrr(built.circuit, built.supply_source, ins,
                       built.out_p, built.out_n, freq=3e3, temp_c=85.0)
    old = frozen_measure_psrr(built.circuit, built.supply_source, ins,
                              built.out_p, built.out_n, freq=3e3, temp_c=85.0)
    assert vars(new) == vars(old)
