"""Declarative sweep specifications: axes in, work units out.

A :class:`CampaignSpec` names the five characterization axes of the
paper's robustness story — process corner, temperature, total supply
voltage, Pelgrom mismatch seed and PGA gain code — plus a registered
circuit builder and a set of registered measurements.  :meth:`expand`
turns the cross-product into an ordered list of :class:`WorkUnit`\\ s
that the runner executes and the columnar
:class:`~repro.campaign.result.CampaignResult` indexes.

The expansion order is part of the contract: units are yielded
``corner -> supply -> seed -> gain_code -> temp`` (temperature
innermost), so all temperatures of one physical circuit are adjacent:
the runner's build cache gets maximal reuse and structure-sharing units
form contiguous tensor groups.

Everything in a spec is plain data (axes are plain tuples, builders and
measurements are registry *names*), which is what lets the store key
units by content.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from repro.process.corners import CONSUMER_TEMPS_C, CORNERS
from repro.process.technology import CMOS12, Technology


@dataclass(frozen=True)
class WorkUnit:
    """One point of the campaign cross-product.

    ``supply`` is the *total* supply voltage in volts (split evenly into
    +/- rails by the builders) or ``None`` for the technology nominal;
    ``seed`` is ``None`` for nominal (mismatch-free) devices; ``gain_code``
    is ``None`` for the builder's default configuration.
    """

    index: int
    corner: str
    temp_c: float
    supply: float | None
    seed: int | None
    gain_code: int | None

    def circuit_key(self) -> tuple:
        """Cache key of the physical circuit this unit measures.

        Temperature is deliberately absent: the same built circuit serves
        every temperature, only the DC solve differs.
        """
        return (self.corner, self.supply, self.seed, self.gain_code)


def _as_axis(values, name: str) -> tuple:
    if values is None:
        raise TypeError(f"axis {name!r} must be a non-empty sequence, got None")
    if isinstance(values, (str, bytes)):
        raise TypeError(f"axis {name!r} must be a sequence, not a bare string")
    out = tuple(values)
    if not out:
        raise ValueError(f"axis {name!r} must not be empty")
    return out


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one characterization campaign.

    Axes default to the paper's qualification space: all five corners,
    the -20/25/85 degC consumer grid, nominal supply, nominal devices and
    the builder's default gain code.  ``builder`` and ``measurements``
    are names in :data:`repro.campaign.builders.BUILDERS` and
    :data:`repro.campaign.measurements.MEASUREMENTS`.
    """

    builder: str = "micamp"
    corners: Sequence[str] = tuple(CORNERS)
    temps_c: Sequence[float] = CONSUMER_TEMPS_C
    supplies: Sequence[float | None] = (None,)
    seeds: Sequence[int | None] = (None,)
    gain_codes: Sequence[int | None] = (None,)
    measurements: Sequence[str] = ("offset_v", "iq_ma")
    tech: Technology = field(default=CMOS12)
    #: Extra keyword arguments handed to the builder for *every* unit
    #: (e.g. a candidate sizing for ``micamp_sized``).  Accepts a mapping
    #: or ``(name, value)`` pairs; canonicalised to a name-sorted tuple of
    #: ``(str, float)`` pairs so the spec stays hashable and picklable.
    builder_kwargs: Sequence[tuple[str, float]] = ()

    def __post_init__(self) -> None:
        # Canonicalise every axis to a tuple so specs hash/pickle cleanly
        # and accidental generator arguments fail loudly here, not in a
        # worker process.
        object.__setattr__(self, "corners",
                           tuple(str(c).lower() for c in _as_axis(self.corners, "corners")))
        object.__setattr__(self, "temps_c",
                           tuple(float(t) for t in _as_axis(self.temps_c, "temps_c")))
        object.__setattr__(self, "supplies",
                           tuple(None if s is None else float(s)
                                 for s in _as_axis(self.supplies, "supplies")))
        object.__setattr__(self, "seeds",
                           tuple(None if s is None else int(s)
                                 for s in _as_axis(self.seeds, "seeds")))
        object.__setattr__(self, "gain_codes",
                           tuple(None if g is None else int(g)
                                 for g in _as_axis(self.gain_codes, "gain_codes")))
        object.__setattr__(self, "measurements",
                           tuple(_as_axis(self.measurements, "measurements")))
        kwargs = self.builder_kwargs
        pairs = sorted(kwargs.items()) if hasattr(kwargs, "items") else list(kwargs)
        # Numeric values normalise to float (so 2 and 2.0 hash alike in
        # store keys); strings pass through untouched — the ingested
        # builder rides its canonical deck and binding text here.
        object.__setattr__(self, "builder_kwargs",
                           tuple(sorted((str(k), v if isinstance(v, str) else float(v))
                                        for k, v in pairs)))

        unknown = [c for c in self.corners if c not in CORNERS]
        if unknown:
            raise KeyError(f"unknown corners {unknown}; available: {sorted(CORNERS)}")
        # Builder/measurement names are validated against the registries
        # lazily (import cycle: builders import circuits which import
        # process), but early enough to beat any worker dispatch.
        from repro.campaign.builders import BUILDERS
        from repro.campaign.measurements import MEASUREMENTS

        if self.builder not in BUILDERS:
            raise KeyError(
                f"unknown builder {self.builder!r}; available: {sorted(BUILDERS)}"
            )
        bad = [m for m in self.measurements if m not in MEASUREMENTS]
        if bad:
            raise KeyError(
                f"unknown measurements {bad}; available: {sorted(MEASUREMENTS)}"
            )

    @property
    def n_units(self) -> int:
        """Size of the expanded cross-product."""
        return (len(self.corners) * len(self.temps_c) * len(self.supplies)
                * len(self.seeds) * len(self.gain_codes))

    def expand(self) -> list[WorkUnit]:
        """The ordered cross-product (see the module docstring for order)."""
        units: list[WorkUnit] = []
        index = 0
        for corner in self.corners:
            for supply in self.supplies:
                for seed in self.seeds:
                    for code in self.gain_codes:
                        for temp in self.temps_c:
                            units.append(WorkUnit(
                                index=index, corner=corner, temp_c=temp,
                                supply=supply, seed=seed, gain_code=code,
                            ))
                            index += 1
        return units


def mc_seeds(n_trials: int, base_seed: int = 2026) -> tuple[int, ...]:
    """Derive ``n_trials`` mismatch seeds the way the characterization
    drivers always have: one master generator seeded with ``base_seed``
    handing out 63-bit child seeds.  Keeping the derivation here means a
    campaign reproduces the exact Monte-Carlo population of the legacy
    hand-rolled loops (same master seed, same draw order)."""
    import numpy as np

    rng = np.random.default_rng(base_seed)
    return tuple(int(rng.integers(2 ** 63)) for _ in range(n_trials))
