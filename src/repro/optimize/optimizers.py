"""Population search: Latin-hypercube seeding, differential evolution,
coordinate-descent refinement.

The search runs in the unit cube of a :class:`~repro.optimize.space.DesignSpace`
and is NumPy-vectorised over the population: stratified seeding, DE
mutation/crossover and selection all operate on ``(n, d)`` arrays —
only the circuit simulations themselves walk candidate by candidate,
and those are deduplicated by the evaluator's quantized-vector cache.

Determinism is a hard contract, matching the campaign engine's: every
random draw comes from one ``np.random.default_rng(seed)``, candidates
are proposed and evaluated in a fixed order, and candidate measurements
are byte-identical campaign exports — so a fixed seed reproduces the
identical search (``tests/optimize`` pins this).

The three stages earn their keep differently: LHS covers the box so DE
starts informed; DE (current-to-best/1/bin) handles the coupled,
cliff-ridden feasible region (a budget split summing past 1 is a hard
wall, not a slope); the closing pattern search — coordinate descent
with a halving step, from 16 quantization steps down to one — polishes
the winner onto the design grid, which a converged population is slow
to do on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs.recorder import active
from repro.optimize.evaluate import CandidateEvaluator, Evaluation
from repro.optimize.pareto import DEFAULT_OBJECTIVES, ParetoFront
from repro.optimize.space import DesignSpace


def latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, dim)`` stratified samples in ``[0, 1)``: each axis gets one
    point per stratum, independently shuffled — the classic space-filling
    seed for a population optimizer."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    strata = np.tile(np.arange(n, dtype=float)[:, None], (1, dim))
    for j in range(dim):
        rng.shuffle(strata[:, j])
    return (strata + rng.random((n, dim))) / n


@dataclass
class OptimizationResult:
    """Everything a run produced: the winner, the trade surface, the trace."""

    best: Evaluation
    space: DesignSpace
    pareto: ParetoFront
    history: list[tuple[int, float]]       # (evaluations used, best score)
    n_evaluations: int                     # evaluations requested by this run
    cache_hits: int
    cache_misses: int
    feasible_found: bool
    #: Cumulative evaluator.stats() snapshot at the end of the run —
    #: includes persistent-store hit counts when a store is attached.
    evaluator_stats: dict | None = None

    @property
    def best_params(self) -> dict[str, float]:
        return self.space.as_dict(self.best.x)

    @property
    def cache_hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.n_evaluations} evaluations "
            f"({self.cache_misses} simulated, {self.cache_hits} cache hits, "
            f"hit rate {self.cache_hit_rate:.0%})",
            f"best score {self.best.score:.6g} "
            f"({'feasible' if self.best.feasible else 'INFEASIBLE'})",
        ]
        for name, value in self.best_params.items():
            lines.append(f"  {name:<22s} {value:.6g}")
        for metric, value in sorted(self.best.metrics.items()):
            lines.append(f"  -> {metric:<19s} {value:.6g}")
        return "\n".join(lines)


@dataclass
class _SearchState:
    """Budget accounting and best-so-far tracking shared by the stages."""

    evaluator: CandidateEvaluator
    space: DesignSpace
    budget: int
    front: ParetoFront
    calls: int = 0
    best: Evaluation | None = None
    history: list[tuple[int, float]] = field(default_factory=list)
    log: Callable[[str], None] | None = None
    progress: Callable[[int, int], None] | None = None

    def exhausted(self) -> bool:
        return self.calls >= self.budget

    def evaluate(self, u: np.ndarray) -> Evaluation:
        """One budgeted evaluation of a unit-cube candidate."""
        ev = self.evaluator.evaluate(self.space.from_unit(u))
        self.calls += 1
        if self.progress is not None:
            self.progress(self.calls, self.budget)
        self.front.add(ev.metrics, self.space.as_dict(ev.x), ev.feasible)
        if self.best is None or ev.score < self.best.score:
            self.best = ev
            self.history.append((self.calls, ev.score))
            if self.log is not None:
                self.log(f"eval {self.calls}: best score {ev.score:.6g} "
                         f"({'feasible' if ev.feasible else 'infeasible'})")
        return ev


def _distinct_triples(n: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, 2)`` donor indices, each row distinct from its own position —
    the r1/r2 difference pair of DE current-to-best/1."""
    out = np.empty((n, 2), dtype=int)
    for i in range(n):
        choices = rng.permutation(n - 1)[:2]
        out[i] = np.where(choices >= i, choices + 1, choices)
    return out


def optimize(
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
    log: Callable[[str], None] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> OptimizationResult:
    """Search a design space for the best-scoring candidate.

    ``budget`` caps *requested* evaluations (cache hits included, so the
    run time is bounded even when the search has converged onto a few
    grid cells).  ``seed_points`` are physical vectors injected into the
    initial population — pass ``space.default()`` to warm-start from the
    paper's design point.

    ``log`` receives a line per best-score improvement; ``progress``
    receives ``(evaluations_done, budget)`` after *every* budgeted
    evaluation (cache hits included) — the hook job-wrapped runs (the
    serve layer) use to report live search progress.  Neither affects
    the search trajectory.
    """
    if budget < 2:
        raise ValueError(f"budget must be >= 2, got {budget}")
    if pop_size is not None and pop_size < 4:
        raise ValueError(  # DE needs self + two distinct donors
            f"pop_size must be >= 4, got {pop_size}")
    rng = np.random.default_rng(seed)
    d = space.dim
    n = pop_size or int(np.clip(4 * d, 8, max(8, budget // 4)))

    hits0, misses0 = evaluator.cache_hits, evaluator.cache_misses
    state = _SearchState(evaluator=evaluator, space=space, budget=budget,
                         front=ParetoFront(pareto_objectives), log=log,
                         progress=progress)

    # --- stage 1: Latin-hypercube population (+ warm starts) ---
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

    # --- stage 2: differential evolution (current-to-best/1/bin) ---
    # The best member steers every mutant: the feasible region of a spec
    # table is a needle (most of the box violates something), so pure
    # rand/1 diffusion wastes evaluations that best-guided moves don't.
    refine_reserve = min(budget // 3, 12 * d) if refine else 0
    while state.calls < budget - refine_reserve:
        best_u = space.to_unit(state.best.x)
        donors = _distinct_triples(n, rng)
        mutant = (pop_u
                  + de_f * (best_u[None, :] - pop_u)
                  + de_f * (pop_u[donors[:, 0]] - pop_u[donors[:, 1]]))
        mutant = np.clip(mutant, 0.0, 1.0)
        cross = rng.random((n, d)) < de_cr
        cross[np.arange(n), rng.integers(d, size=n)] = True  # j_rand
        trial_u = np.where(cross, mutant, pop_u)
        for i in range(n):
            if state.calls >= budget - refine_reserve:
                break
            trial_score = state.evaluate(trial_u[i]).score
            if trial_score <= scores[i]:
                pop_u[i] = trial_u[i]
                scores[i] = trial_score

    # --- stage 3: pattern search on the winner, down to the grid ---
    # Start at ``refine_scale`` quantization steps and halve on stalled
    # sweeps: the coarse probes escape constraint cliffs the population
    # hasn't resolved, the final unit-step sweeps polish onto the grid.
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
                        continue  # clipped/quantized back onto the incumbent
                    prev = state.best
                    state.evaluate(cand)
                    if state.best is not prev:  # strict improvement promoted it
                        u_best = cand
                        improved = True
                        best_key = space.key(space.from_unit(u_best))
            if not improved:
                scale /= 2.0

    if state.best is None:
        raise RuntimeError("budget exhausted before any evaluation completed")
    evaluator_stats = (evaluator.stats() if hasattr(evaluator, "stats")
                       else None)
    rec = active()
    if evaluator_stats is not None and rec is not None:
        evaluator_stats["profile"] = rec.profile()
    return OptimizationResult(
        best=state.best,
        space=space,
        pareto=state.front,
        history=state.history,
        n_evaluations=state.calls,
        cache_hits=evaluator.cache_hits - hits0,
        cache_misses=evaluator.cache_misses - misses0,
        feasible_found=state.best.feasible,
        evaluator_stats=evaluator_stats,
    )
