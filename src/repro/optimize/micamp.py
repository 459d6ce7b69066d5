"""The shipped workload: size the Table 1 microphone amplifier.

One call wires the pieces together the way the paper's Sec. 3 does by
hand: the Table 1 rows the evaluator can measure become constraints,
supply current and silicon area become the cost, and the Sec. 3.2
sizing walk becomes the search space (warm-started from the paper's
own design point unless told otherwise).
"""

from __future__ import annotations

from typing import Callable

from repro.optimize.evaluate import CandidateEvaluator, RobustSettings
from repro.optimize.objective import Objective
from repro.optimize.optimizers import OptimizationResult, optimize
from repro.optimize.space import DesignSpace, mic_amp_design_space
from repro.pga.specs import MIC_AMP_SPEC, Spec
from repro.process.technology import CMOS12, Technology


def mic_amp_objective(spec: Spec = MIC_AMP_SPEC,
                      mode: str = "feasibility") -> Objective:
    """Minimise I_Q + area subject to the Table 1 rows (Sec. 3.1's
    trade, stated as an optimization problem)."""
    return Objective(spec=spec,
                     minimize=(("iq_ma", 1.0), ("area_mm2", 1.0)),
                     mode=mode)


def optimize_mic_amp(
    tech: Technology = CMOS12,
    *,
    budget: int = 150,
    seed: int = 2026,
    spec: Spec = MIC_AMP_SPEC,
    mode: str = "feasibility",
    robust: RobustSettings | None = None,
    space: DesignSpace | None = None,
    warm_start: bool = True,
    log: Callable[[str], None] | None = None,
    store=None,
    progress: Callable[[int, int], None] | None = None,
) -> OptimizationResult:
    """Search the Sec. 3.2 sizing space for a spec-compliant minimum
    current/area design.  ``robust`` switches the evaluation from the
    typical point to worst-case over a PVT x mismatch campaign grid;
    ``store`` (a :class:`repro.store.ResultStore`) persists every
    measured candidate so repeated or extended searches resume across
    processes; ``progress`` receives ``(evaluations_done, budget)``
    per evaluation (the serve layer's job-status hook)."""
    space = space or mic_amp_design_space()
    evaluator = CandidateEvaluator(space, mic_amp_objective(spec, mode),
                                   tech, robust=robust, store=store)
    seeds = (space.default(),) if warm_start else ()
    return optimize(space, evaluator, budget=budget, seed=seed,
                    seed_points=seeds, log=log, progress=progress)
