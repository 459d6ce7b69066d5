"""The candidate-by-candidate search, frozen from an earlier optimizer.

The optimizer scores each DE generation as one population
(``CandidateEvaluator.evaluate_population``), so same-structure units
of different candidates share tensor groups.  This module keeps the loop it replaced: every
candidate is one ``CandidateEvaluator.evaluate`` call, and every memo
miss is that candidate's own ``run_campaign``.  It is the reference the
equivalence tests pin the batched search against, bit for bit.  Frozen:
do not change it to follow the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.campaign import run_campaign
from repro.optimize.evaluate import CandidateEvaluator, Evaluation
from repro.optimize.optimizers import (
    OptimizationResult,
    _distinct_triples,
    latin_hypercube,
)
from repro.optimize.pareto import DEFAULT_OBJECTIVES, ParetoFront
from repro.optimize.space import DesignSpace


class SerialEvaluator(CandidateEvaluator):
    """``evaluate`` and ``_measure`` as they were: memo, then store, then
    one campaign per candidate (a fresh corner technology per campaign)."""

    def _measure(self, x: np.ndarray) -> Evaluation:
        from repro.faults import TRANSIENT_INFRA_ERRORS

        params = self.space.as_dict(x)
        transient = False
        try:
            result = run_campaign(self._campaign_spec(params))
            metrics = self._aggregate(result)
            error = None
        except Exception as exc:
            metrics = {}
            error = f"{type(exc).__name__}: {exc}"
            transient = isinstance(exc, TRANSIENT_INFRA_ERRORS)
        score = self.objective.score(metrics) if metrics else math.inf
        feasible = bool(metrics) and self.objective.feasible(metrics)
        return Evaluation(x=x, metrics=metrics, score=score,
                          feasible=feasible, error=error,
                          transient=transient)

    def evaluate(self, x: np.ndarray) -> Evaluation:
        q = self.space.quantize(np.asarray(x, dtype=float))
        key = self.space.key(q)
        hit = self.cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        if self.store is not None:
            payload = self.store.get(self._design_key(key))
            if payload is not None:
                self.store_hits += 1
                ev = self._revive(q, payload)
                self.cache[key] = ev
                return ev
            self.store_misses += 1
        ev = self._measure(q)
        if not ev.transient:
            self.cache[key] = ev
            if self.store is not None:
                self._persist(key, ev)
        return ev


@dataclass
class _SearchState:
    evaluator: CandidateEvaluator
    space: DesignSpace
    budget: int
    front: ParetoFront
    calls: int = 0
    best: Evaluation | None = None
    history: list[tuple[int, float]] = field(default_factory=list)
    progress: Callable[[int, int], None] | None = None

    def exhausted(self) -> bool:
        return self.calls >= self.budget

    def evaluate(self, u: np.ndarray) -> Evaluation:
        ev = self.evaluator.evaluate(self.space.from_unit(u))
        self.calls += 1
        if self.progress is not None:
            self.progress(self.calls, self.budget)
        self.front.add(ev.metrics, self.space.as_dict(ev.x), ev.feasible)
        if self.best is None or ev.score < self.best.score:
            self.best = ev
            self.history.append((self.calls, ev.score))
        return ev


def serial_optimize(
    space: DesignSpace,
    evaluator: CandidateEvaluator,
    *,
    budget: int = 150,
    seed: int = 2026,
    pop_size: int | None = None,
    de_f: float = 0.6,
    de_cr: float = 0.8,
    refine: bool = True,
    refine_scale: float = 8.0,
    seed_points: Sequence[np.ndarray] = (),
    pareto_objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    progress: Callable[[int, int], None] | None = None,
) -> OptimizationResult:
    """``optimize`` as it was: every stage walks candidate by candidate."""
    rng = np.random.default_rng(seed)
    d = space.dim
    n = pop_size or int(np.clip(4 * d, 8, max(8, budget // 4)))

    hits0, misses0 = evaluator.cache_hits, evaluator.cache_misses
    state = _SearchState(evaluator=evaluator, space=space, budget=budget,
                         front=ParetoFront(pareto_objectives),
                         progress=progress)

    pop_u = latin_hypercube(n, d, rng)
    for i, x in enumerate(seed_points):
        if i >= n:
            break
        pop_u[i] = space.to_unit(np.asarray(x, dtype=float))
    scores = np.full(n, np.inf)
    for i in range(n):
        if state.exhausted():
            break
        scores[i] = state.evaluate(pop_u[i]).score

    refine_reserve = min(budget // 3, 12 * d) if refine else 0
    while state.calls < budget - refine_reserve:
        best_u = space.to_unit(state.best.x)
        donors = _distinct_triples(n, rng)
        mutant = (pop_u
                  + de_f * (best_u[None, :] - pop_u)
                  + de_f * (pop_u[donors[:, 0]] - pop_u[donors[:, 1]]))
        mutant = np.clip(mutant, 0.0, 1.0)
        cross = rng.random((n, d)) < de_cr
        cross[np.arange(n), rng.integers(d, size=n)] = True
        trial_u = np.where(cross, mutant, pop_u)
        for i in range(n):
            if state.calls >= budget - refine_reserve:
                break
            trial_score = state.evaluate(trial_u[i]).score
            if trial_score <= scores[i]:
                pop_u[i] = trial_u[i]
                scores[i] = trial_score

    if refine and state.best is not None:
        u_best = space.to_unit(state.best.x)
        quantum = space.unit_step()
        scale = max(1.0, refine_scale)
        while scale >= 1.0 and not state.exhausted():
            improved = False
            best_key = space.key(space.from_unit(u_best))
            for j in range(d):
                for sign in (1.0, -1.0):
                    if state.exhausted():
                        break
                    cand = u_best.copy()
                    cand[j] = float(np.clip(cand[j] + sign * scale * quantum[j],
                                            0.0, 1.0))
                    if space.key(space.from_unit(cand)) == best_key:
                        continue
                    prev = state.best
                    state.evaluate(cand)
                    if state.best is not prev:
                        u_best = cand
                        improved = True
                        best_key = space.key(space.from_unit(u_best))
            if not improved:
                scale /= 2.0

    return OptimizationResult(
        best=state.best,
        space=space,
        pareto=state.front,
        history=state.history,
        n_evaluations=state.calls,
        cache_hits=evaluator.cache_hits - hits0,
        cache_misses=evaluator.cache_misses - misses0,
        feasible_found=state.best.feasible,
        evaluator_stats=evaluator.stats(),
    )
