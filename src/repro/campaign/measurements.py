"""Measurement registry: what to record at each work unit.

A measurement is a function ``fn(rt: UnitRuntime) -> dict[str, float]``
registered under a name a :class:`~repro.campaign.spec.CampaignSpec`
can reference.  All measurements of one unit share the unit's single DC
operating point and its cached
:class:`~repro.spice.linsolve.SmallSignalContext` (``rt.ctx()``): the
gain probe, PSRR/CMRR injections and noise adjoint solves all ride one
linearisation/factorization per (corner, temperature, supply, seed,
code) point instead of each re-solving DC and re-linearising — that
sharing is where the campaign engine's serial throughput win over the
legacy hand-rolled loops comes from (``tests/campaign/test_runner.py``
pins the campaign rows to that loop's numbers).

A measurement may emit several columns (the noise measurement emits the
1 kHz spot density and the voice-band average); the union of emitted
keys defines the metric columns of the campaign's
:class:`~repro.campaign.result.CampaignResult`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.campaign.runner import UnitRuntime

MeasurementFn = Callable[["UnitRuntime"], dict[str, float]]

MEASUREMENTS: dict[str, MeasurementFn] = {}


def register_measurement(name: str) -> Callable[[MeasurementFn], MeasurementFn]:
    """Decorator: expose a measurement to campaign specs as ``name``."""

    def deco(fn: MeasurementFn) -> MeasurementFn:
        if name in MEASUREMENTS:
            raise ValueError(f"measurement {name!r} already registered")
        MEASUREMENTS[name] = fn
        return fn

    return deco


@register_measurement("offset_v")
def _offset(rt: "UnitRuntime") -> dict[str, float]:
    """DC differential output offset [V] — the mismatch story of Sec. 1."""
    return {"offset_v": rt.op.vdiff(rt.built.out_p, rt.built.out_n)}


@register_measurement("iq_ma")
def _iq(rt: "UnitRuntime") -> dict[str, float]:
    """Quiescent supply current [mA] (Table 1/2 "I(Q)" rows)."""
    return {"iq_ma": abs(rt.op.i(rt.built.supply_source)) * 1e3}


@register_measurement("gain_1khz_db")
def _gain(rt: "UnitRuntime") -> dict[str, float]:
    """Closed-loop gain at 1 kHz [dB] plus the error vs the nominal code
    table when the builder publishes one (Table 1 gain accuracy)."""
    ctx = rt.ctx()
    h = abs(ctx.transfer(np.array([1e3]), rt.built.out_p, rt.built.out_n)[0])
    gain_db = 20.0 * math.log10(max(h, 1e-30))
    out = {"gain_1khz_db": gain_db}
    if rt.built.nominal_gain_db is not None:
        out["gain_error_db"] = gain_db - rt.built.nominal_gain_db
    return out


@register_measurement("psrr_1khz_db")
def _psrr(rt: "UnitRuntime") -> dict[str, float]:
    """PSRR at 1 kHz [dB], on the unit's shared factorization."""
    from repro.analysis.psrr import measure_psrr

    if not rt.built.input_sources:
        raise ValueError(
            f"psrr needs a signal input; builder {rt.spec.builder!r} "
            "exposes no input sources"
        )
    res = measure_psrr(
        rt.built.circuit, rt.built.supply_source, rt.built.input_sources,
        rt.built.out_p, rt.built.out_n, op=rt.op,
    )
    return {"psrr_1khz_db": res.ratio_db}


@register_measurement("cmrr_1khz_db")
def _cmrr(rt: "UnitRuntime") -> dict[str, float]:
    """CMRR at 1 kHz [dB], on the unit's shared factorization."""
    from repro.analysis.psrr import measure_cmrr

    if len(rt.built.input_sources) != 2:
        raise ValueError(
            f"cmrr needs two input sources, builder exposes {rt.built.input_sources}"
        )
    res = measure_cmrr(
        rt.built.circuit, tuple(rt.built.input_sources),
        rt.built.out_p, rt.built.out_n, op=rt.op,
    )
    return {"cmrr_1khz_db": res.ratio_db}


@register_measurement("noise_voice")
def _noise(rt: "UnitRuntime") -> dict[str, float]:
    """Input-referred noise: 300 Hz / 1 kHz spot densities and the
    300..3400 Hz band average [nV/sqrt(Hz)] (Table 1 rows 3-5)."""
    from repro.spice.analysis import log_freqs
    from repro.spice.noise import noise_analysis

    freqs = log_freqs(10.0, 100e3, 12)
    nr = noise_analysis(rt.op, freqs, rt.built.out_p, rt.built.out_n)
    return {
        "vnin_300hz_nv": nr.input_nv_at(300.0),
        "vnin_1khz_nv": nr.input_nv_at(1e3),
        "vnin_avg_nv": nr.average_input_density(300.0, 3400.0) * 1e9,
    }


@register_measurement("area_mm2")
def _area(rt: "UnitRuntime") -> dict[str, float]:
    """Estimated silicon area [mm^2] from the layout model — the third
    axis of the optimizer's noise/current/area Pareto front."""
    from repro.layout.area import estimate_area_mm2

    return {"area_mm2": estimate_area_mm2(rt.built.circuit, rt.tech).total_mm2}


@register_measurement("bias_current_ua")
def _bias_current(rt: "UnitRuntime") -> dict[str, float]:
    """PTAT output current [uA] read across the bias builder's load."""
    node = rt.built.probes.get("iout_node")
    r_load = rt.built.probes.get("r_load")
    if node is None or r_load is None:
        raise ValueError(
            f"builder {rt.spec.builder!r} publishes no iout_node/r_load probes"
        )
    return {"bias_current_ua": rt.op.v(str(node)) / float(r_load) * 1e6}


@register_measurement("vref_mv")
def _vref(rt: "UnitRuntime") -> dict[str, float]:
    """Differential reference voltage [mV] (bandgap builder)."""
    return {"vref_mv": rt.op.vdiff(rt.built.out_p, rt.built.out_n) * 1e3}
