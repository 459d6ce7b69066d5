"""Pareto-front collection over the noise / current / area trade.

The paper's Sec. 3.1 point — "a relatively large area ... and supply
current are needed to achieve the noise requirements" — is a statement
about a Pareto surface.  :class:`ParetoFront` materialises it: every
evaluated candidate is offered to the collector, dominated points are
pruned with a vectorised comparison, and the surviving front exports to
CSV/JSON for plotting.

All objectives are *minimised*; metrics where better is larger (none of
the default three) should be negated by the caller before collection.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: The default axes: Eq. 2's noise target vs the two costs it drives.
DEFAULT_OBJECTIVES: tuple[str, ...] = ("vnin_avg_nv", "iq_ma", "area_mm2")


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated candidate: objective values plus its design."""

    values: tuple[float, ...]
    params: dict[str, float]
    metrics: dict[str, float]
    feasible: bool


class ParetoFront:
    """Incrementally maintained set of mutually non-dominated points."""

    def __init__(self, objectives: Sequence[str] = DEFAULT_OBJECTIVES) -> None:
        if not objectives:
            raise ValueError("need at least one objective")
        self.objectives = tuple(objectives)
        self.points: list[ParetoPoint] = []
        self.n_offered = 0

    def __len__(self) -> int:
        return len(self.points)

    def _values(self, metrics: dict[str, float]) -> tuple[float, ...] | None:
        vals = []
        for name in self.objectives:
            v = metrics.get(name)
            if v is None or not math.isfinite(v):
                return None
            vals.append(float(v))
        return tuple(vals)

    def add(self, metrics: dict[str, float], params: dict[str, float],
            feasible: bool = True) -> bool:
        """Offer a candidate; returns True iff it joins the front.

        A point is rejected if an existing point dominates it (<= in
        every objective, < in at least one, ties rejected as duplicates);
        on acceptance every point it dominates is pruned.
        """
        self.n_offered += 1
        values = self._values(metrics)
        if values is None:
            return False
        cand = np.array(values)
        if self.points:
            existing = np.array([p.values for p in self.points])
            leq = existing <= cand
            dominated_by = np.all(leq, axis=1) & (
                np.any(existing < cand, axis=1) | np.all(existing == cand, axis=1)
            )
            if np.any(dominated_by):
                return False
            geq = existing >= cand
            dominates = np.all(geq, axis=1) & np.any(existing > cand, axis=1)
            if np.any(dominates):
                self.points = [p for p, d in zip(self.points, dominates) if not d]
        self.points.append(ParetoPoint(values=values, params=dict(params),
                                       metrics=dict(metrics), feasible=feasible))
        return True

    # ------------------------------------------------------------------
    def sorted_points(self) -> list[ParetoPoint]:
        """Points ordered by the first objective (stable for export)."""
        return sorted(self.points, key=lambda p: p.values)

    def format(self, max_rows: int = 12) -> str:
        header = "  ".join(f"{o:>14}" for o in self.objectives) + "  feasible"
        lines = [f"Pareto front: {len(self)} points "
                 f"(of {self.n_offered} offered)", header]
        for p in self.sorted_points()[:max_rows]:
            row = "  ".join(f"{v:>14.5g}" for v in p.values)
            lines.append(f"{row}  {'yes' if p.feasible else 'no'}")
        if len(self) > max_rows:
            lines.append(f"  ... ({len(self) - max_rows} more points)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_csv(self, path) -> None:
        """One row per front point: objectives, feasibility, parameters."""
        points = self.sorted_points()
        param_names = sorted({k for p in points for k in p.params})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.objectives) + ["feasible"] + param_names)
            for p in points:
                writer.writerow(list(p.values) + [int(p.feasible)]
                                + [p.params.get(k, "") for k in param_names])

    def to_json(self, path=None) -> str:
        payload = {
            "objectives": list(self.objectives),
            "n_offered": self.n_offered,
            "points": [
                {"values": list(p.values), "feasible": p.feasible,
                 "params": p.params, "metrics": p.metrics}
                for p in self.sorted_points()
            ],
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text_or_path) -> "ParetoFront":
        """Inverse of :meth:`to_json` (accepts JSON text or a file path)."""
        text = str(text_or_path)
        if not text.lstrip().startswith("{"):
            with open(text_or_path) as fh:
                text = fh.read()
        payload = json.loads(text)
        front = cls(tuple(payload["objectives"]))
        front.n_offered = int(payload.get("n_offered", 0))
        front.points = [
            ParetoPoint(values=tuple(pt["values"]), params=dict(pt["params"]),
                        metrics=dict(pt.get("metrics", {})),
                        feasible=bool(pt["feasible"]))
            for pt in payload["points"]
        ]
        return front
