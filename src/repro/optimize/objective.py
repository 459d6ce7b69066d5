"""Objectives and constraints, derived from the paper's spec tables.

The optimizer minimises a weighted cost (quiescent current, silicon
area) subject to the rows of a :class:`repro.pga.specs.Spec` — the same
tables the characterisation drivers are checked against, so "meets the
spec" means exactly the same thing in both places.

Two constraint modes:

* **penalty** — score = cost + weight * sum(normalised violations);
  the classic soft-constraint scalarisation, useful when the feasible
  region may be empty and "least infeasible" is still informative;
* **feasibility** — feasible candidates are compared by cost alone and
  *always* beat infeasible ones, which are ranked by total violation
  (a lexicographic ordering, Deb's rule).  This is the default: the
  paper's Table 1 is a hard datasheet, not a preference.

Violations are normalised by the limit magnitude so "0.3 nV over a
6 nV noise limit" and "0.1 mA over a 2.6 mA current limit" are
commensurable.  ``INFO`` rows never constrain; metrics the evaluator
did not emit are skipped, mirroring :meth:`Spec.check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.pga.specs import Bound, Spec, SpecLimit

#: Score offset separating every infeasible candidate from every
#: feasible one in feasibility mode.  Large but finite, so infeasible
#: candidates still rank among themselves by violation.
INFEASIBLE_OFFSET = 1e9


def _violation(limit: SpecLimit, value: float) -> float:
    """Normalised constraint violation (0 when the row passes): the
    negative part of the row's margin over the bound's magnitude."""
    margin = limit.margin(value)
    if margin is None:  # INFO
        return 0.0
    edges = limit.limit if limit.bound is Bound.RANGE else (limit.limit,)
    return max(0.0, -margin) / max(*(abs(e) for e in edges), 1e-30)


def worst_sense(bound: Bound) -> str:
    """Which tail of a PVT/mismatch population a bound cares about:
    the worst case of a floor spec is the minimum, of a ceiling the
    maximum, of a symmetric error the absolute maximum."""
    if bound is Bound.MIN:
        return "min"
    if bound is Bound.ABS_MAX:
        return "absmax"
    return "max"


@dataclass(frozen=True)
class Objective:
    """Scalar score of a measured candidate: cost + spec compliance.

    ``minimize`` weights are applied to raw metric values; the default
    (supply current in mA plus silicon area in mm^2, roughly equal
    magnitudes for this design) is the paper's own trade-off — Sec. 3.1
    blames the noise spec for both.
    """

    spec: Spec | None = None
    minimize: tuple[tuple[str, float], ...] = (("iq_ma", 1.0), ("area_mm2", 1.0))
    mode: str = "feasibility"
    penalty_weight: float = 100.0

    def __post_init__(self) -> None:
        if self.mode not in ("feasibility", "penalty"):
            raise ValueError(
                f"mode must be 'feasibility' or 'penalty', got {self.mode!r}"
            )
        object.__setattr__(self, "minimize",
                           tuple((str(m), float(w)) for m, w in self.minimize))

    # ------------------------------------------------------------------
    def cost(self, measured: dict[str, float]) -> float:
        """The weighted minimisation target (no constraints)."""
        total = 0.0
        for metric, weight in self.minimize:
            value = measured.get(metric)
            if value is None or not math.isfinite(value):
                return math.inf
            total += weight * value
        return total

    def violations(self, measured: dict[str, float]) -> dict[str, float]:
        """Normalised violation per constrained metric (only rows whose
        metric was measured; non-finite measurements count as violated
        by 1.0 — a failed simulation is not a feasible design)."""
        if self.spec is None:
            return {}
        out: dict[str, float] = {}
        for limit in self.spec.limits:
            if limit.bound is Bound.INFO or limit.metric not in measured:
                continue
            value = measured[limit.metric]
            out[limit.metric] = (1.0 if not math.isfinite(value)
                                 else _violation(limit, value))
        return out

    def feasible(self, measured: dict[str, float]) -> bool:
        return all(v == 0.0 for v in self.violations(measured).values())

    def score(self, measured: dict[str, float]) -> float:
        """Scalar fitness (lower is better)."""
        cost = self.cost(measured)
        total_violation = sum(self.violations(measured).values())
        if not math.isfinite(cost):
            return INFEASIBLE_OFFSET * 2.0 + total_violation
        if self.mode == "penalty":
            return cost + self.penalty_weight * total_violation
        if total_violation > 0.0:
            return INFEASIBLE_OFFSET + total_violation
        return cost

    def _limit(self, metric: str) -> SpecLimit | None:
        if self.spec is not None:
            for limit in self.spec.limits:
                if limit.metric == metric and limit.bound is not Bound.INFO:
                    return limit
        return None

    def worst_sense(self, metric: str) -> str:
        """Aggregation direction for robust (multi-unit) scoring."""
        limit = self._limit(metric)
        return worst_sense(limit.bound) if limit is not None else "max"

    def worst_case(self, metric: str, values) -> float:
        """Collapse a population of measurements to the spec-relevant
        worst case.  RANGE bounds are two-sided, so neither extreme alone
        represents them: the returned value is whichever population
        extreme violates the range more (the maximum when both comply —
        a conservative ceiling for cost metrics)."""
        values = np.asarray(values, dtype=float)
        limit = self._limit(metric)
        if limit is not None and limit.bound is Bound.RANGE:
            lo, hi = float(np.min(values)), float(np.max(values))
            return lo if _violation(limit, lo) > _violation(limit, hi) else hi
        sense = self.worst_sense(metric)
        if sense == "min":
            return float(np.min(values))
        if sense == "absmax":
            # keep the sign of the worst excursion, |worst| largest
            return float(values[np.argmax(np.abs(values))])
        return float(np.max(values))
