"""Deterministic content-addressed keys for campaign units and designs.

Every cached artifact is addressed by the SHA-256 of a *canonical JSON*
rendering of everything its value depends on — and nothing else:

* a **campaign unit record** depends on the builder name, the
  spec-wide builder kwargs, the ordered measurement tuple, the base
  technology and the unit's own coordinates (corner, temperature,
  supply, seed, gain code).  The *other* axis values of the spec are
  deliberately absent: shrinking or growing an axis re-uses every
  overlapping unit, which is what makes incremental campaign execution
  work at the unit level rather than the whole-result level.
* a **design evaluation** depends on the quantized design vector, the
  full design-space definition (names, bounds, log flags, quantization
  steps), the evaluator context (builder, measurements, gain code,
  robust grid) and the technology.  The objective is *not* part of the
  key: the store holds raw metrics and the score is recomputed on load,
  so re-weighting a cost function never invalidates simulations.

Both key kinds are salted with :data:`SCHEMA_VERSION`.  Bump it whenever
the meaning of a stored record changes (a measurement's definition, the
record encoding, the mismatch-sampling scheme): every old entry then
silently becomes a miss instead of a wrong answer.

Canonical JSON: mappings are key-sorted, sequences ordered, dataclasses
tagged with their type name, floats rendered by ``repr`` (shortest
round-trip form — identical for identical bits on every CPython), and
non-finite floats tokenised so the text stays strict JSON.  The same
spec therefore hashes to the same key in any process on any host, which
``tests/store/test_keys.py`` pins with a subprocess round-trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from repro.campaign.spec import CampaignSpec, WorkUnit

#: Version salt of every key. Bump on any change to record semantics:
#: measurement definitions, the payload encoding, sampler derivations.
SCHEMA_VERSION = 1


def canonical_payload(obj):
    """Recursively normalise ``obj`` into plain JSON-encodable data.

    Dataclasses are tagged with their type name (two specs that happen
    to flatten to the same fields but mean different things must not
    collide); numpy scalars/arrays become Python numbers/lists;
    non-finite floats become ``{"$nf": ...}`` tokens.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical_payload(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"$type": type(obj).__qualname__, "fields": fields}
    if isinstance(obj, np.ndarray):
        return [canonical_payload(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return {"$nf": "nan"}
        if math.isinf(obj):
            return {"$nf": "inf" if obj > 0 else "-inf"}
        return obj
    if isinstance(obj, dict):
        # No pre-sort: canonical_json's sort_keys=True orders the
        # stringified keys (a pre-sort would also choke on mixed-type
        # keys before the str() normalisation gets to them).
        return {str(k): canonical_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__}: {obj!r}")


def canonical_json(obj) -> str:
    """The canonical (sorted, compact, strict) JSON text of ``obj``."""
    return json.dumps(canonical_payload(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def canonical_hash(obj) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Campaign-unit keys
# ----------------------------------------------------------------------
def tech_fingerprint(tech) -> dict:
    """Everything a technology contributes to a measurement."""
    return canonical_payload(tech)


def spec_fingerprint(spec: CampaignSpec) -> dict:
    """The unit-invariant part of a campaign spec: what a single unit's
    record depends on besides its own coordinates.  Axis *contents* are
    excluded on purpose (see the module docstring)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "campaign-unit",
        "builder": spec.builder,
        "builder_kwargs": canonical_payload(spec.builder_kwargs),
        "measurements": list(spec.measurements),
        "tech": tech_fingerprint(spec.tech),
    }


def campaign_key(spec: CampaignSpec) -> str:
    """Whole-campaign identity: the unit-invariant fingerprint *plus*
    every axis — two specs share it iff they expand to the same units
    measured the same way.  Used for grouping/metadata, not lookup."""
    return UnitKeyer(spec).campaign_key()


class UnitKeyer:
    """Per-unit key factory amortising the spec fingerprint.

    The spec fingerprint is serialised once, here, and serves both the
    unit keys and :meth:`campaign_key`.  Hashing it once and folding
    only the unit coordinates per call keeps key generation ~O(units),
    not O(units x spec size) — partitioning a thousand-unit campaign is
    a few hundred microseconds.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self._fingerprint = canonical_json(spec_fingerprint(spec))
        self._base = hashlib.sha256(
            self._fingerprint.encode("utf-8")).hexdigest()

    def campaign_key(self) -> str:
        """:func:`campaign_key` of the keyer's spec."""
        spec = self.spec
        axes = canonical_json({
            "corners": list(spec.corners),
            "temps_c": canonical_payload(spec.temps_c),
            "supplies": canonical_payload(spec.supplies),
            "seeds": canonical_payload(spec.seeds),
            "gain_codes": canonical_payload(spec.gain_codes),
        })
        # The canonical text of {"base": fingerprint, **axes}: "base"
        # sorts before every axis name.
        text = '{"base":' + self._fingerprint + "," + axes[1:]
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def key(self, unit: WorkUnit) -> str:
        coords = canonical_json({
            "corner": unit.corner,
            "temp_c": unit.temp_c,
            "supply": unit.supply,
            "seed": unit.seed,
            "gain_code": unit.gain_code,
        })
        return hashlib.sha256(
            f"{self._base}|{coords}".encode("utf-8")
        ).hexdigest()


def unit_key(spec: CampaignSpec, unit: WorkUnit) -> str:
    """One-shot form of :meth:`UnitKeyer.key`."""
    return UnitKeyer(spec).key(unit)


# ----------------------------------------------------------------------
# Design-evaluation keys
# ----------------------------------------------------------------------
def space_fingerprint(space) -> dict:
    """Full definition of a :class:`~repro.optimize.space.DesignSpace`:
    parameter names, bounds, defaults, log flags and quantization steps
    (any of which changes what a quantized vector *means*)."""
    return {"parameters": [canonical_payload(p) for p in space.parameters]}


def evaluator_fingerprint(*, space, tech, builder: str,
                          measurements, gain_code, robust) -> dict:
    """The design-invariant context of a
    :class:`~repro.optimize.evaluate.CandidateEvaluator`."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "design-eval",
        "space": space_fingerprint(space),
        "tech": tech_fingerprint(tech),
        "builder": builder,
        "measurements": list(measurements),
        "gain_code": gain_code,
        "robust": canonical_payload(robust) if robust is not None else None,
    }


def design_key(context: dict, x) -> str:
    """Key of one quantized design vector under an evaluator context
    (pass :func:`evaluator_fingerprint` output, or its precomputed
    :func:`canonical_hash`, as ``context``)."""
    base = context if isinstance(context, str) else canonical_hash(context)
    return hashlib.sha256(
        f"{base}|{canonical_json(list(x))}".encode("utf-8")
    ).hexdigest()
