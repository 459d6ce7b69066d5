"""Candidate evaluation: one campaign per design, one cache above it.

A :class:`CandidateEvaluator` turns a quantized design vector into
``{metric: value}`` measurements by running the PR 2 campaign engine
over the ``micamp_sized`` builder:

* **typical mode** (``robust=None``) — a single-unit campaign (tt
  corner, 25 degC, nominal devices): build the circuit once, solve one
  DC operating point, and read every metric off the unit's shared
  :class:`~repro.spice.linsolve.SmallSignalContext` factorization;
* **robust mode** — the same candidate swept across a PVT x mismatch
  :class:`RobustSettings` grid in one campaign, then collapsed to the spec-relevant worst case per metric
  (:meth:`Objective.worst_sense`: floors take the minimum, ceilings the
  maximum, symmetric errors the absolute maximum).

Results are memoised in an **evaluation cache keyed on the quantized
design vector** (:meth:`DesignSpace.key`), so optimizer moves that
revisit a grid cell — population clustering near convergence, the
coordinate-descent probes — cost a dict lookup instead of a Newton
solve.  ``benchmarks/bench_optimize.py`` measures the combined effect
against a naive per-candidate rebuild loop.

Passing ``store=`` (a :class:`repro.store.ResultStore`) adds a
**persistent backend** beneath the in-memory memo: every measured
candidate is written to disk under a content-addressed key (quantized
vector + full space definition + evaluator context, see
:func:`repro.store.keys.design_key`), and misses consult the store
before simulating — so a repeated or extended search resumes across
processes.  Only measured metrics and the error string are persisted;
score and feasibility are recomputed from the *current* objective on
load, so re-weighting a cost function never invalidates stored
simulations.  (In robust mode the stored metrics are worst-case
aggregates whose direction follows the spec's bound structure, so that
structure joins the key — see :meth:`CandidateEvaluator._aggregation_fingerprint`.)
:meth:`CandidateEvaluator.stats` reports both cache levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.campaign import CampaignSpec, run_campaign
from repro.obs.recorder import prof_count
from repro.optimize.objective import Objective
from repro.optimize.space import DesignSpace
from repro.process.technology import CMOS12, Technology

#: Measurements taken per work unit: the optimizer's cost metrics
#: (current, area) plus every Table 1 row the shared factorization can
#: serve cheaply (all three noise spots, gain error, PSRR).  The rows
#: left unmeasured — hd_0v2_db, snr_40db_db, supply_min_v — each need
#: their own sweep (distortion staircase, psophometric integral, supply
#: search) and are checked by `repro table1`, not per candidate; the CLI
#: lists them as unsearched so a "PASS" verdict is read in context.
DEFAULT_MEASUREMENTS: tuple[str, ...] = (
    "iq_ma", "noise_voice", "gain_1khz_db", "psrr_1khz_db", "area_mm2",
)


@dataclass(frozen=True)
class RobustSettings:
    """The PVT x mismatch grid one candidate is scored across."""

    corners: tuple[str, ...] = ("tt", "ss", "ff")
    temps_c: tuple[float, ...] = (25.0,)
    supplies: tuple[float | None, ...] = (None,)
    seeds: tuple[int | None, ...] = (None,)

    def __post_init__(self) -> None:
        from repro.process.corners import CORNERS

        object.__setattr__(self, "corners",
                           tuple(str(c).lower() for c in self.corners))
        unknown = [c for c in self.corners if c not in CORNERS]
        if unknown:
            raise KeyError(
                f"unknown corners {unknown}; available: {sorted(CORNERS)}"
            )
        # Same numeric canonicalisation as CampaignSpec: the grid's
        # content hash (serve-layer fingerprints, design-eval store
        # keys) must not depend on whether a temperature arrived as
        # JSON 25 or CLI-parsed 25.0.
        object.__setattr__(self, "temps_c",
                           tuple(float(t) for t in self.temps_c))
        object.__setattr__(self, "supplies",
                           tuple(None if s is None else float(s)
                                 for s in self.supplies))
        object.__setattr__(self, "seeds",
                           tuple(None if s is None else int(s)
                                 for s in self.seeds))

    @property
    def n_units(self) -> int:
        return (len(self.corners) * len(self.temps_c)
                * len(self.supplies) * len(self.seeds))


@dataclass
class Evaluation:
    """One scored candidate (the evaluator's cache line)."""

    x: np.ndarray                    # quantized design vector
    metrics: dict[str, float]        # worst-case over the grid in robust mode
    score: float
    feasible: bool
    error: str | None = None         # build/solve failure, if any
    #: True when ``error`` came from infrastructure (exhausted memory,
    #: OS failure), not from the candidate itself — such a result
    #: must never be persisted as the design's permanent verdict.
    transient: bool = False


class CandidateEvaluator:
    """Evaluate design vectors through the campaign engine, with a memo
    cache keyed on the quantized vector."""

    def __init__(
        self,
        space: DesignSpace,
        objective: Objective,
        tech: Technology = CMOS12,
        *,
        builder: str = "micamp_sized",
        measurements: Sequence[str] = DEFAULT_MEASUREMENTS,
        gain_code: int = 5,
        robust: RobustSettings | None = None,
        store=None,
    ) -> None:
        self.space = space
        self.objective = objective
        self.tech = tech
        self.builder = builder
        self.measurements = tuple(measurements)
        self.gain_code = gain_code
        self.robust = robust
        self.store = store
        self.cache: dict[tuple, Evaluation] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self._store_context: str | None = None

    # ------------------------------------------------------------------
    @property
    def n_evaluations(self) -> int:
        """Evaluations requested (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        n = self.n_evaluations
        return self.cache_hits / n if n else 0.0

    def stats(self) -> dict:
        """Both cache levels in one dict: in-memory memo hits/misses and
        hit rate, plus persistent-backend (store) hits/misses and the
        number of candidates that actually reached a simulation."""
        return {
            "evaluations": self.n_evaluations,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hit_rate,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "simulated": self.cache_misses - self.store_hits,
        }

    def units_per_candidate(self) -> int:
        return self.robust.n_units if self.robust is not None else 1

    # ------------------------------------------------------------------
    def _campaign_spec(self, params: dict[str, float]) -> CampaignSpec:
        rb = self.robust or RobustSettings(corners=("tt",))
        return CampaignSpec(
            builder=self.builder,
            corners=rb.corners,
            temps_c=rb.temps_c,
            supplies=rb.supplies,
            seeds=rb.seeds,
            gain_codes=(self.gain_code,),
            measurements=self.measurements,
            tech=self.tech,
            builder_kwargs=params,
        )

    def _aggregate(self, result) -> dict[str, float]:
        """Collapse a campaign table to the spec-relevant worst case
        (bound-direction-aware, two-sided for RANGE limits)."""
        return {metric: self.objective.worst_case(metric, result.metric(metric))
                for metric in result.metrics}

    def _measure(self, x: np.ndarray) -> Evaluation:
        from repro.faults import TRANSIENT_INFRA_ERRORS

        params = self.space.as_dict(x)
        transient = False
        try:
            result = run_campaign(self._campaign_spec(params))
            metrics = self._aggregate(result)
            error = None
        except Exception as exc:  # infeasible region: no operating point,
            # switch overdrive collapse, budget split > 1, ...
            metrics = {}
            error = f"{type(exc).__name__}: {exc}"
            # ... unless the *infrastructure* failed, which says nothing
            # about the design and must not become its cached verdict
            # (the shared taxonomy in repro.faults).
            transient = isinstance(exc, TRANSIENT_INFRA_ERRORS)
        score = self.objective.score(metrics) if metrics else math.inf
        feasible = bool(metrics) and self.objective.feasible(metrics)
        return Evaluation(x=x, metrics=metrics, score=score,
                          feasible=feasible, error=error,
                          transient=transient)

    # ------------------------------------------------------------------
    # Persistent backend (repro.store)
    # ------------------------------------------------------------------
    def _aggregation_fingerprint(self):
        """What the stored metrics' *aggregation* depends on.

        In typical mode (one unit) the campaign table collapses to the
        single row for every bound sense, so stored metrics are truly
        objective-independent and this is ``None``.  In robust mode the
        stored values are :meth:`Objective.worst_case` aggregates, whose
        direction (and, for RANGE rows, the lo/hi limits) comes from the
        objective's spec — so that bound structure must be part of the
        key, or a re-sensed spec would revive wrongly-aggregated
        metrics.  Cost weights and penalty mode stay excluded: they
        never shape the stored values.
        """
        from repro.pga.specs import Bound

        if self.robust is None or self.robust.n_units <= 1:
            return None
        spec = self.objective.spec
        if spec is None:
            return ()
        return sorted(
            (limit.metric, limit.bound.name,
             list(limit.limit) if isinstance(limit.limit, tuple)
             else float(limit.limit))
            for limit in spec.limits if limit.bound is not Bound.INFO
        )

    def _design_key(self, key: tuple) -> str:
        from repro.store import canonical_hash, design_key, evaluator_fingerprint

        if self._store_context is None:
            fingerprint = evaluator_fingerprint(
                space=self.space, tech=self.tech, builder=self.builder,
                measurements=self.measurements, gain_code=self.gain_code,
                robust=self.robust,
            )
            fingerprint["aggregation"] = self._aggregation_fingerprint()
            self._store_context = canonical_hash(fingerprint)
        return design_key(self._store_context, key)

    def _revive(self, q: np.ndarray, payload: dict) -> Evaluation:
        """Rebuild an :class:`Evaluation` from stored metrics, scoring
        against the *current* objective (mirrors :meth:`_measure`)."""
        metrics = {str(k): float(v) for k, v in payload["metrics"].items()}
        error = payload.get("error")
        score = self.objective.score(metrics) if metrics else math.inf
        feasible = bool(metrics) and self.objective.feasible(metrics)
        return Evaluation(x=q, metrics=metrics, score=score,
                          feasible=feasible, error=error)

    def _persist(self, key: tuple, ev: Evaluation) -> None:
        self.store.put(self._design_key(key), {
            "x": [float(v) for v in key],
            "metrics": {k: float(v) for k, v in ev.metrics.items()},
            "error": ev.error,
        }, kind="design-eval", meta={
            "builder": self.builder,
            "gain_code": self.gain_code,
            "n_units": self.units_per_candidate(),
            "feasible_under_current_objective": ev.feasible,
        })

    # ------------------------------------------------------------------
    def evaluate(self, x: np.ndarray) -> Evaluation:
        """Score one design vector: quantize, then consult the in-memory
        memo, then the persistent store (if any), then simulate."""
        q = self.space.quantize(np.asarray(x, dtype=float))
        key = self.space.key(q)
        hit = self.cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            prof_count("optimize.memo_hits")
            return hit
        self.cache_misses += 1
        prof_count("optimize.memo_misses")
        if self.store is not None:
            payload = self.store.get(self._design_key(key))
            if payload is not None:
                self.store_hits += 1
                prof_count("optimize.store_hits")
                ev = self._revive(q, payload)
                self.cache[key] = ev
                return ev
            self.store_misses += 1
            prof_count("optimize.store_misses")
        prof_count("optimize.simulated")
        ev = self._measure(q)
        if not ev.transient:
            # An infrastructure failure is no verdict on the design:
            # keep it out of both cache levels so a revisit retries.
            self.cache[key] = ev
            if self.store is not None:
                self._persist(key, ev)
        return ev

    def evaluate_population(self, xs: np.ndarray) -> list[Evaluation]:
        """Score a ``(n, d)`` population (row order preserved)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return [self.evaluate(row) for row in xs]

    def scores(self, xs: np.ndarray) -> np.ndarray:
        return np.array([ev.score for ev in self.evaluate_population(xs)])
