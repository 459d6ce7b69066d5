"""Design spaces: named, bounded, quantized parameter vectors.

A :class:`DesignSpace` is the optimizer's coordinate system.  Each
:class:`Parameter` carries physical bounds, an optional log scale (for
quantities like currents and resistances that span decades) and an
optional quantization step; the optimizers work in the unit cube
``[0, 1]^d`` and the space maps whole *populations* between unit and
physical coordinates with vectorised NumPy transforms.

Quantization serves two masters: it models real design grids (currents
in 25 uA steps, lengths on the litho grid) and it makes the evaluation
cache effective — :meth:`DesignSpace.key` of a quantized vector is the
cache key of :class:`~repro.optimize.evaluate.CandidateEvaluator`, so
two optimizer moves that land in the same grid cell pay for one
simulation.

:func:`mic_amp_design_space` is the shipped instance: the Sec. 3.2
sizing-walk inputs of :func:`repro.pga.design.mic_amp_parts_from_params`
(Eqs. 3-5 budget fractions, input-pair current, channel lengths, the
Fig. 5 string) with the paper's values as defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Parameter:
    """One named axis of a design space.

    ``step`` quantizes in physical units for linear parameters and in
    *decades* for log parameters (a step of 0.05 is ~12 % resolution —
    about what a layout re-spin can actually hit).  ``default`` is the
    warm-start value (the paper's design point for the mic-amp space).
    """

    name: str
    lower: float
    upper: float
    default: float | None = None
    log: bool = False
    step: float | None = None

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(
                f"{self.name}: bounds must satisfy lower < upper, "
                f"got [{self.lower}, {self.upper}]"
            )
        if self.log and self.lower <= 0.0:
            raise ValueError(f"{self.name}: log-scale bounds must be positive")
        if self.step is not None and self.step <= 0.0:
            raise ValueError(f"{self.name}: step must be positive")
        if self.default is not None and not (
            self.lower <= self.default <= self.upper
        ):
            raise ValueError(
                f"{self.name}: default {self.default} outside "
                f"[{self.lower}, {self.upper}]"
            )


class DesignSpace:
    """An ordered set of parameters with vectorised coordinate maps.

    All array methods accept ``(d,)`` vectors or ``(n, d)`` populations
    and preserve the shape; physical vectors are always returned
    **quantized and clipped**, so every vector the optimizers hand to an
    evaluator lies on the design grid.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        if not parameters:
            raise ValueError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.parameters = tuple(parameters)
        self.names = tuple(names)
        self._log = np.array([p.log for p in self.parameters])
        lo = np.array([p.lower for p in self.parameters], dtype=float)
        hi = np.array([p.upper for p in self.parameters], dtype=float)
        # Internal coordinates: log10 for log axes, identity otherwise
        # (the inner where keeps log10 off linear axes' possibly <= 0 bounds).
        self._tlo = np.where(self._log, np.log10(np.where(self._log, lo, 1.0)), lo)
        self._thi = np.where(self._log, np.log10(np.where(self._log, hi, 1.0)), hi)
        self._step = np.array([np.nan if p.step is None else p.step
                               for p in self.parameters], dtype=float)
        self.lower = lo
        self.upper = hi

    @property
    def dim(self) -> int:
        return len(self.parameters)

    # ------------------------------------------------------------------
    # Coordinate maps (vectorised over leading axes)
    # ------------------------------------------------------------------
    def _to_internal(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(self._log, np.log10(np.maximum(x, 1e-300)), x)

    def _from_internal(self, t: np.ndarray) -> np.ndarray:
        return np.where(self._log, 10.0 ** t, t)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Snap physical vectors to the design grid and clip to bounds."""
        t = self._to_internal(x)
        t = np.clip(t, self._tlo, self._thi)
        has_step = np.isfinite(self._step)
        step = np.where(has_step, self._step, 1.0)
        snapped = self._tlo + np.round((t - self._tlo) / step) * step
        t = np.where(has_step, np.minimum(snapped, self._thi), t)
        return self._from_internal(t)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Unit-cube coordinates -> quantized physical vectors."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        return self.quantize(self._from_internal(self._tlo + u * (self._thi - self._tlo)))

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        """Physical vectors -> unit-cube coordinates."""
        t = np.clip(self._to_internal(x), self._tlo, self._thi)
        return (t - self._tlo) / (self._thi - self._tlo)

    def unit_step(self) -> np.ndarray:
        """One quantization step per axis, in unit-cube units (axes
        without a step get 1/64 — the coordinate-descent probe size)."""
        span = self._thi - self._tlo
        return np.where(np.isfinite(self._step), self._step, span / 64.0) / span

    # ------------------------------------------------------------------
    # Named access
    # ------------------------------------------------------------------
    def default(self) -> np.ndarray:
        """The warm-start vector (quantized); parameters without a
        default sit at the geometric/arithmetic centre of their range."""
        centre = self._from_internal(0.5 * (self._tlo + self._thi))
        x = np.array([c if p.default is None else p.default
                      for p, c in zip(self.parameters, centre)])
        return self.quantize(x)

    def as_dict(self, x: np.ndarray) -> dict[str, float]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got {x.shape}")
        return {name: float(v) for name, v in zip(self.names, x)}

    def key(self, x: np.ndarray) -> tuple:
        """Hashable cache key of a design vector (quantized, rounded to
        12 significant digits so float noise cannot split cache lines)."""
        q = self.quantize(x)
        return tuple(float(f"{v:.12g}") for v in np.atleast_1d(q))


def mic_amp_design_space() -> DesignSpace:
    """The Sec. 3.2 sizing walk as a searchable space.

    Axes are the flattened inputs of
    :func:`repro.pga.design.mic_amp_parts_from_params`: the five Eq. 3-5
    budget fractions (their sum <= 1 is a *constraint*, enforced by the
    evaluator, not the box), the per-pair tail current, the two channel
    lengths and the Fig. 5 string total.  Defaults are the paper's
    point; log axes get a 0.02-decade grid (~5 % steps), fractions a
    0.005 grid.
    """
    frac = dict(step=0.005)
    geom = dict(log=True, step=0.02)
    return DesignSpace([
        Parameter("split_input_thermal", 0.10, 0.70, default=0.40, **frac),
        Parameter("split_load_thermal", 0.02, 0.30, default=0.12, **frac),
        Parameter("split_network", 0.05, 0.50, default=0.27, **frac),
        Parameter("split_switches", 0.01, 0.10, default=0.035, **frac),
        Parameter("split_flicker", 0.03, 0.40, default=0.17, **frac),
        Parameter("i_pair", 0.2e-3, 1.6e-3, default=0.8e-3, **geom),
        Parameter("l_input", 3e-6, 20e-6, default=8e-6, **geom),
        Parameter("l_load", 8e-6, 60e-6, default=25e-6, **geom),
        Parameter("r_total", 8e3, 80e3, default=25e3, **geom),
    ])
