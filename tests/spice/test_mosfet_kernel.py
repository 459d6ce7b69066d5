"""Bit-identity of the MOSFET kernel against a frozen reference.

``MosGroup.evaluate`` runs inside every Newton iteration, so it is kept
lean: one ``exp(-|x|)`` per argument shared by the soft-log and the
sigmoid, voltage-independent terms hoisted to construction, and
``into_drain``/``vdsat`` computed only when read.  None of that may move
a bit.  ``_reference_evaluate`` below is the earlier kernel, frozen
verbatim (boolean-mask sigmoid, per-call constants, index gathers); every
``MosEval`` field must equal it bitwise, serial and unit-stacked, on
random voltages that swap source and drain and push |x| past 700.
"""

import numpy as np
import pytest

from repro.circuits.micamp import build_mic_amp
from repro.process import CMOS12, MismatchSampler
from repro.spice.batch import BatchedSystem

FIELDS = ("ids", "into_drain", "gm", "gds", "gds_channel", "gmb", "swapped",
          "vgs", "vds", "vsb", "veff", "vdsat", "vth")


def _softlog(x):
    out = np.where(x > 0.0, x, 0.0)
    return out + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_evaluate(grp, volts):
    vd = volts[..., grp.d]
    vg = volts[..., grp.g]
    vs = volts[..., grp.s]
    vb = volts[..., grp.b]
    sign = grp.sign
    vds_raw = sign * (vd - vs)
    swapped = vds_raw < 0.0
    eff_d = np.where(swapped, grp.s, grp.d)
    eff_s = np.where(swapped, grp.d, grp.s)
    if volts.ndim == 1:
        ved = volts[eff_d]
        ves = volts[eff_s]
    else:
        ved = np.take_along_axis(volts, eff_d, axis=-1)
        ves = np.take_along_axis(volts, eff_s, axis=-1)
    vgs = sign * (vg - ves)
    vds = sign * (ved - ves)
    vsb = sign * (ves - vb)
    vsb_c = np.maximum(vsb, -grp.phi + 1e-3)
    sqrt_term = np.sqrt(grp.phi + vsb_c)
    vth = grp.vth0 + grp.gamma * (sqrt_term - np.sqrt(grp.phi))
    dvth_dvsb = grp.gamma / (2.0 * sqrt_term)
    veff = vgs - vth
    n_ut = grp.n_slope * grp.ut
    xf = veff / (2.0 * n_ut)
    xr = (veff - grp.n_slope * vds) / (2.0 * n_ut)
    ff = _softlog(xf)
    fr = _softlog(xr)
    sf = _sigmoid(xf)
    sr = _sigmoid(xr)
    clm = 1.0 + grp.lam * vds
    i0 = grp.isat * (ff * ff - fr * fr)
    ids = i0 * clm
    gm = grp.isat * (ff * sf - fr * sr) / n_ut * clm
    gds_channel = grp.isat * fr * sr / grp.ut * clm
    gds = gds_channel + i0 * grp.lam + grp.gmin
    gmb = gm * dvth_dvsb
    into_drain = sign * np.where(swapped, -ids, ids)
    vdsat = np.maximum(veff, 0.0) / grp.n_slope + 4.0 * grp.ut
    return dict(ids=ids, into_drain=into_drain, gm=gm, gds=gds,
                gds_channel=gds_channel, gmb=gmb, swapped=swapped, vgs=vgs,
                vds=vds, vsb=vsb, veff=veff, vdsat=vdsat, vth=vth)


def _random_volts(rng, shape, ground):
    """Node voltages at three scales: around the rails, well past them,
    and far enough out that |veff / (2 n U_T)| exceeds 700."""
    scale = rng.choice([1.5, 8.0, 120.0], size=shape[:-1] + (1,))
    v = rng.uniform(-1.0, 1.0, size=shape) * scale
    v[..., ground] = 0.0
    return v


def _assert_bitwise(ev, ref):
    for name in FIELDS:
        got = getattr(ev, name)
        want = ref[name]
        assert got.shape == want.shape, name
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), f"{name} differs"


def _mismatch_circuits(n_units):
    circuits, temps = [], []
    for seed in range(n_units):
        sampler = MismatchSampler(CMOS12, np.random.default_rng(seed))
        circuits.append(build_mic_amp(CMOS12, gain_code=5,
                                      mismatch=sampler).circuit)
        temps.append((-20.0, 25.0, 85.0)[seed % 3])
    return circuits, temps


@pytest.fixture(scope="module")
def micamp_system():
    return build_mic_amp(CMOS12, gain_code=5).circuit.compile(temp_c=25.0)


def test_random_voltages_reach_the_extremes(micamp_system):
    grp = micamp_system.mos_group
    rng = np.random.default_rng(1)
    volts = _random_volts(rng, (400, micamp_system.size + 1),
                          micamp_system.ground_index)
    ref = _reference_evaluate(grp, volts)
    assert ref["swapped"].any() and not ref["swapped"].all()
    x = ref["veff"] / (2.0 * grp.n_slope * grp.ut)
    assert (x >= 700.0).any() and (x <= -700.0).any()


def test_serial_kernel_matches_reference(micamp_system):
    grp = micamp_system.mos_group
    rng = np.random.default_rng(2026)
    for _ in range(300):
        volts = _random_volts(rng, (micamp_system.size + 1,),
                              micamp_system.ground_index)
        _assert_bitwise(grp.evaluate(volts), _reference_evaluate(grp, volts))


@pytest.mark.parametrize("n_units", [1, 3, 18])
def test_stacked_kernel_matches_reference_and_serial(n_units):
    circuits, temps = _mismatch_circuits(n_units)
    pattern = circuits[0].compile(temp_c=temps[0])
    bs = BatchedSystem(pattern, circuits, temps)
    serial = [c.compile(temp_c=t).mos_group for c, t in zip(circuits, temps)]
    rng = np.random.default_rng(n_units)
    for _ in range(20):
        volts = _random_volts(rng, (n_units, bs.dim), bs.ground_index)
        ev = bs.mos_group.evaluate(volts)
        _assert_bitwise(ev, _reference_evaluate(bs.mos_group, volts))
        for u, grp in enumerate(serial):
            row = _reference_evaluate(grp, volts[u])
            for name in FIELDS:
                assert getattr(ev, name)[u].tobytes() == row[name].tobytes(), (
                    f"unit {u} {name} differs from the serial kernel")


def test_unit_view_matches_full_group():
    """The live-unit view lockstep Newton assembles from slices every
    per-unit parameter row, so a view's rows equal the full group's."""
    circuits, temps = _mismatch_circuits(6)
    pattern = circuits[0].compile(temp_c=temps[0])
    bs = BatchedSystem(pattern, circuits, temps)
    units = np.array([1, 4, 5])
    view = bs.take(units)
    volts = _random_volts(np.random.default_rng(7), (6, bs.dim),
                          bs.ground_index)
    full = bs.mos_group.evaluate(volts)
    part = view.mos_group.evaluate(volts[units])
    for name in FIELDS:
        assert getattr(part, name).tobytes() == getattr(full, name)[units].tobytes()
