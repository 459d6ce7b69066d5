"""Measurement registry: what to record at each work unit.

A measurement is a callable ``fn(rt: UnitRuntime) -> dict[str, float]``
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

The built-in measurements are :class:`UnitMeasurement`\\ s, written
once for the per-unit ``run_unit`` and the tensor group of
:mod:`repro.campaign.batchrun` over a :class:`UnitReads` (which has no
small-signal context).  An operating-point read is ``fn(m)``.  A
probed measurement adds ``probe(m)``, which returns a
:class:`~repro.analysis.psrr.Probe` (a frequency, one ``ac_rhs``
override dict per RHS column, the output pair) or raises the reference
error; ``fn(m, values)`` is then its *reduction* of the probed complex
outputs, one per column.

A plain ``fn(rt)`` runs per unit on both runtimes (the tensor group
wraps the batch's operating point for it).  A measurement may emit
several columns (the noise measurement emits the 1 kHz spot density and
the voice-band average); the union of emitted keys defines the metric
columns of the campaign's :class:`~repro.campaign.result.CampaignResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.psrr import Probe, cmrr_probe, psrr_probe, rejection, solve_probe
from repro.spice.dc import OperatingPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.campaign.builders import BuiltUnit
    from repro.campaign.runner import UnitRuntime
    from repro.campaign.spec import CampaignSpec
    from repro.process.technology import Technology
    from repro.spice.mna import MnaSystem

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


@dataclass
class UnitReads:
    """What a :class:`UnitMeasurement` reads of one unit.  ``x`` is its
    DC solution, indexed through ``system``: the unit's own compile per
    unit, the group's shared pattern on the tensor path."""

    spec: CampaignSpec
    built: BuiltUnit
    tech: Technology
    system: MnaSystem
    x: np.ndarray

    # OperatingPoint's own reads, on this unit's solution.
    v = OperatingPoint.v
    vdiff = OperatingPoint.vdiff
    i = OperatingPoint.i


@dataclass(frozen=True)
class UnitMeasurement:
    """``fn(UnitReads)``, or with a ``probe`` the reduction
    ``fn(UnitReads, values)`` of the values ``probe(UnitReads)`` yields."""

    fn: Callable[..., dict[str, float]]
    probe: Callable[[UnitReads], Probe] | None = None

    def __call__(self, rt: UnitRuntime) -> dict[str, float]:
        m = UnitReads(rt.spec, rt.built, rt.tech, rt.op.system, rt.op.x)
        if self.probe is None:
            return self.fn(m)
        return self.fn(m, solve_probe(rt.op, self.probe(m)))


@register_measurement("offset_v")
@UnitMeasurement
def _offset(m: UnitReads) -> dict[str, float]:
    """DC differential output offset [V] — the mismatch story of Sec. 1."""
    return {"offset_v": m.vdiff(m.built.out_p, m.built.out_n)}


@register_measurement("iq_ma")
@UnitMeasurement
def _iq(m: UnitReads) -> dict[str, float]:
    """Quiescent supply current [mA] (Table 1/2 "I(Q)" rows)."""
    return {"iq_ma": abs(m.i(m.built.supply_source)) * 1e3}


def _gain_probe(m: UnitReads) -> Probe:
    return Probe(1e3, ({},), m.built.out_p, m.built.out_n)


@register_measurement("gain_1khz_db")
@partial(UnitMeasurement, probe=_gain_probe)
def _gain(m: UnitReads, values: np.ndarray) -> dict[str, float]:
    """Closed-loop gain at 1 kHz [dB] plus the error vs the nominal code
    table when the builder publishes one (Table 1 gain accuracy)."""
    h = abs(values[0])
    gain_db = 20.0 * math.log10(max(h, 1e-30))
    out = {"gain_1khz_db": gain_db}
    if m.built.nominal_gain_db is not None:
        out["gain_error_db"] = gain_db - m.built.nominal_gain_db
    return out


def _psrr_probe(m: UnitReads) -> Probe:
    built = m.built
    if not built.input_sources:
        raise ValueError(
            f"psrr needs a signal input; builder {m.spec.builder!r} "
            "exposes no input sources"
        )
    return psrr_probe(built.circuit, built.supply_source, built.input_sources,
                      built.out_p, built.out_n)


@register_measurement("psrr_1khz_db")
@partial(UnitMeasurement, probe=_psrr_probe)
def _psrr(m: UnitReads, values: np.ndarray) -> dict[str, float]:
    """PSRR at 1 kHz [dB], both columns on one factorization."""
    return {"psrr_1khz_db": rejection(1e3, values).ratio_db}


def _cmrr_probe(m: UnitReads) -> Probe:
    built = m.built
    if len(built.input_sources) != 2:
        raise ValueError(
            f"cmrr needs two input sources, builder exposes {built.input_sources}"
        )
    return cmrr_probe(built.circuit, tuple(built.input_sources),
                      built.out_p, built.out_n)


@register_measurement("cmrr_1khz_db")
@partial(UnitMeasurement, probe=_cmrr_probe)
def _cmrr(m: UnitReads, values: np.ndarray) -> dict[str, float]:
    """CMRR at 1 kHz [dB], both columns on one factorization."""
    return {"cmrr_1khz_db": rejection(1e3, values).ratio_db}


@register_measurement("noise_voice")
def _noise(rt: UnitRuntime) -> dict[str, float]:
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
@UnitMeasurement
def _area(m: UnitReads) -> dict[str, float]:
    """Estimated silicon area [mm^2] from the layout model — the third
    axis of the optimizer's noise/current/area Pareto front."""
    from repro.layout.area import estimate_area_mm2

    return {"area_mm2": estimate_area_mm2(m.built.circuit, m.tech).total_mm2}


@register_measurement("bias_current_ua")
@UnitMeasurement
def _bias_current(m: UnitReads) -> dict[str, float]:
    """PTAT output current [uA] read across the bias builder's load."""
    node = m.built.probes.get("iout_node")
    r_load = m.built.probes.get("r_load")
    if node is None or r_load is None:
        raise ValueError(
            f"builder {m.spec.builder!r} publishes no iout_node/r_load probes"
        )
    return {"bias_current_ua": m.v(str(node)) / float(r_load) * 1e6}


@register_measurement("vref_mv")
@UnitMeasurement
def _vref(m: UnitReads) -> dict[str, float]:
    """Differential reference voltage [mV] (bandgap builder)."""
    return {"vref_mv": m.vdiff(m.built.out_p, m.built.out_n) * 1e3}
