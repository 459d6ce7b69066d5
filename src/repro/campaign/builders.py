"""Circuit-builder registry: names a campaign spec can sweep over.

Each builder adapts one of the paper's blocks to the campaign protocol:
given a (corner-skewed) technology, a mismatch sampler, an optional
total supply voltage and an optional gain code, return a
:class:`BuiltUnit` — the circuit plus the port names every measurement
needs (differential output, input sources, supply source) and optional
builder-specific probes (e.g. the bias generator's load resistance).

Builders are addressed by *name* so a :class:`~repro.campaign.spec.CampaignSpec`
stays picklable; register new ones with :func:`register_builder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.process.mismatch import MismatchSampler
from repro.process.technology import Technology
from repro.spice.netlist import Circuit


@dataclass
class BuiltUnit:
    """A built circuit plus the ports the measurement registry reads."""

    circuit: Circuit
    out_p: str
    out_n: str
    input_sources: tuple[str, ...] = ()
    supply_source: str = "vdd_src"
    nominal_gain_db: float | None = None
    probes: dict[str, float | str] = field(default_factory=dict)
    design: object | None = None


BuilderFn = Callable[[Technology, MismatchSampler, float | None, int | None], BuiltUnit]

BUILDERS: dict[str, BuilderFn] = {}


def register_builder(name: str, *,
                     batchable: bool = True) -> Callable[[BuilderFn], BuilderFn]:
    """Decorator: expose a builder function to campaign specs as ``name``.

    ``batchable=False`` marks builders whose circuits the tensor engine
    must not stack (arbitrary ingested structure, potentially above the
    sparse threshold where dense ``(N, dim, dim)`` tensors are
    prohibitive); the campaign runner sends their units straight to
    :func:`~repro.campaign.runner.run_unit` instead.
    """

    def deco(fn: BuilderFn) -> BuilderFn:
        if name in BUILDERS:
            raise ValueError(f"builder {name!r} already registered")
        fn.batchable = batchable
        BUILDERS[name] = fn
        return fn

    return deco


def build_unit_circuit(
    name: str,
    tech: Technology,
    sampler: MismatchSampler,
    supply: float | None,
    gain_code: int | None,
    builder_kwargs: tuple[tuple[str, float], ...] = (),
) -> BuiltUnit:
    """Instantiate builder ``name`` for one work unit.

    ``builder_kwargs`` are the spec-wide extra keyword arguments (see
    :class:`~repro.campaign.spec.CampaignSpec.builder_kwargs`); builders
    that take none reject them with a normal ``TypeError``.
    """
    try:
        fn = BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown builder {name!r}; available: {sorted(BUILDERS)}") from None
    return fn(tech, sampler, supply, gain_code, **dict(builder_kwargs))


def _split_rails(supply: float | None) -> tuple[float | None, float | None]:
    """Total supply -> symmetric (vdd, vss); None keeps builder defaults."""
    if supply is None:
        return None, None
    return supply / 2.0, -supply / 2.0


@register_builder("micamp")
def _build_micamp(tech: Technology, sampler: MismatchSampler,
                  supply: float | None, gain_code: int | None) -> BuiltUnit:
    """The Figs. 4/5 microphone amplifier; gain codes 0..5 (default 5)."""
    from repro.circuits.micamp import build_mic_amp

    code = 5 if gain_code is None else gain_code
    vdd, vss = _split_rails(supply)
    design = build_mic_amp(tech, gain_code=code, mismatch=sampler, vdd=vdd, vss=vss)
    return BuiltUnit(
        circuit=design.circuit,
        out_p=design.outp,
        out_n=design.outn,
        input_sources=("vin_p", "vin_n"),
        supply_source="vdd_src",
        nominal_gain_db=design.gain.gain_db(code),
        design=design,
    )


@register_builder("micamp_sized")
def _build_micamp_sized(tech: Technology, sampler: MismatchSampler,
                        supply: float | None, gain_code: int | None,
                        **params: float) -> BuiltUnit:
    """The microphone amplifier re-sized from flattened sizing-walk inputs.

    ``params`` is the :data:`repro.pga.design.MIC_AMP_PARAM_DEFAULTS`
    vocabulary (``split_*`` budget fractions, ``i_pair``, ``l_input``,
    ``l_load``, ``r_total``) shipped through the spec's
    ``builder_kwargs`` — this is how ``repro.optimize`` scores one
    candidate design across a whole PVT x mismatch campaign.
    """
    from repro.circuits.micamp import build_mic_amp
    from repro.pga.design import mic_amp_parts_from_params

    sizes, gain = mic_amp_parts_from_params(tech, params)
    code = 5 if gain_code is None else gain_code
    vdd, vss = _split_rails(supply)
    design = build_mic_amp(tech, gain_code=code, sizes=sizes, gain=gain,
                           mismatch=sampler, vdd=vdd, vss=vss)
    return BuiltUnit(
        circuit=design.circuit,
        out_p=design.outp,
        out_n=design.outn,
        input_sources=("vin_p", "vin_n"),
        supply_source="vdd_src",
        nominal_gain_db=design.gain.gain_db(code),
        design=design,
    )


@register_builder("powerbuffer")
def _build_powerbuffer(tech: Technology, sampler: MismatchSampler,
                       supply: float | None, gain_code: int | None) -> BuiltUnit:
    """The Fig. 8 class-AB line driver (inverting feedback, 50 ohm load)."""
    from repro.circuits.powerbuffer import build_power_buffer

    if gain_code is not None:
        raise ValueError("powerbuffer has no gain codes; use gain_codes=(None,)")
    vdd, vss = _split_rails(supply)
    design = build_power_buffer(tech, feedback="inverting", load="resistive",
                                vdd=vdd, vss=vss, mismatch=sampler)
    return BuiltUnit(
        circuit=design.circuit,
        out_p=design.outp,
        out_n=design.outn,
        input_sources=("vsrc_p", "vsrc_n"),
        supply_source="vdd_src",
        nominal_gain_db=0.0,
        design=design,
    )


@register_builder("bias")
def _build_bias(tech: Technology, sampler: MismatchSampler,
                supply: float | None, gain_code: int | None) -> BuiltUnit:
    """The Fig. 2 PTAT bias generator; probes carry the load resistance."""
    from repro.circuits.bias import build_bias_circuit

    if gain_code is not None:
        raise ValueError("bias has no gain codes; use gain_codes=(None,)")
    design = build_bias_circuit(tech, supply=supply, mismatch=sampler)
    return BuiltUnit(
        circuit=design.circuit,
        out_p=design.out_node,
        out_n="gnd",
        input_sources=(),
        supply_source="vsup",
        probes={"iout_node": design.out_node, "r_load": 10e3},
        design=design,
    )


@register_builder("ingested", batchable=False)
def _build_ingested(tech: Technology, sampler: MismatchSampler,
                    supply: float | None, gain_code: int | None, *,
                    netlist: str = "", binding: str = "{}",
                    top: str = "") -> BuiltUnit:
    """An external SPICE deck compiled by :mod:`repro.ingest`.

    ``netlist`` is the deck text (the front doors pass the *canonical
    flattened* form so store keys are content-addressed), ``binding``
    the port-binding JSON (see :mod:`repro.ingest.binding`) and ``top``
    an optional subcircuit name to elaborate as the top cell.  The
    supply axis overrides the binding's supply-port DC; mismatch seeds
    and gain codes have no meaning for a foreign deck and are rejected
    so every store key maps to a distinct simulation.
    """
    from repro.ingest import apply_binding, compile_deck

    if not netlist:
        raise ValueError("ingested builder needs builder_kwargs['netlist'] "
                         "(SPICE deck text)")
    if gain_code is not None:
        raise ValueError("ingested netlists have no gain codes; "
                         "use gain_codes=(None,)")
    if sampler is not None and getattr(sampler, "enabled", False):
        raise ValueError("mismatch seeds are not supported for ingested "
                         "netlists; use seeds=(None,)")
    compiled = compile_deck(netlist, name="ingested", top=top or None)
    bound = apply_binding(compiled.circuit, binding, supply=supply)
    return BuiltUnit(
        circuit=compiled.circuit,
        out_p=bound.out_p,
        out_n=bound.out_n,
        input_sources=bound.input_sources,
        supply_source=bound.supply_source or "vdd_src",
        design=None,
    )


@register_builder("bandgap")
def _build_bandgap(tech: Technology, sampler: MismatchSampler,
                   supply: float | None, gain_code: int | None) -> BuiltUnit:
    """The Fig. 3 fully differential bandgap reference."""
    from repro.circuits.bandgap import build_bandgap

    if gain_code is not None:
        raise ValueError("bandgap has no gain codes; use gain_codes=(None,)")
    design = build_bandgap(tech, supply=supply, mismatch=sampler)
    return BuiltUnit(
        circuit=design.circuit,
        out_p=design.vrefp,
        out_n=design.vrefn,
        input_sources=(),
        supply_source="vdd_src",
        design=design,
    )
