"""Columnar campaign results: NumPy record arrays, reducers, export.

A :class:`CampaignResult` stores one row per executed work unit: five
axis columns (``corner``, ``temp_c``, ``supply``, ``seed``,
``gain_code``) followed by one float64 column per emitted metric, in a
single structured NumPy array.  ``None`` axis values are encoded as
``nan`` (supply) or ``-1`` (seed / gain_code) so the array stays purely
numeric apart from the corner name.

Reducers answer the paper's statistical claims directly:

* ``sigma_by("gain_error_db", by=("gain_code",))`` — sigma of the gain
  error per code (the 0.05 dB accuracy claim);
* ``worst_by("psrr_1khz_db", by=("corner",), sense="min")`` — worst-case
  PSRR per corner (Table 1/2 quote guaranteed minima);
* ``yield_fraction("psrr_1khz_db", lo=75.0)`` — fraction of units
  meeting a spec limit.

``to_csv`` / ``to_json`` (and ``from_json``) round-trip the full table
for external tooling.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.campaign.spec import CampaignSpec, WorkUnit

#: Axis columns present in every result, in storage order.
AXIS_COLUMNS: tuple[str, ...] = ("corner", "temp_c", "supply", "seed", "gain_code")

_AXIS_DTYPES = [("corner", "U8"), ("temp_c", "f8"), ("supply", "f8"),
                ("seed", "i8"), ("gain_code", "i8")]


@functools.lru_cache(maxsize=256)
def _record_dtype(metrics: tuple[str, ...]) -> np.dtype:
    """The structured row dtype for ``metrics``, shared between results
    (a long-lived service retains thousands of small results with a
    handful of distinct metric sets)."""
    return np.dtype(_AXIS_DTYPES + [(m, "f8") for m in metrics])


def _axis_values(unit: WorkUnit) -> tuple:
    return (
        unit.corner,
        unit.temp_c,
        np.nan if unit.supply is None else unit.supply,
        -1 if unit.seed is None else unit.seed,
        -1 if unit.gain_code is None else unit.gain_code,
    )


class CampaignResult:
    """One structured array of axis + metric columns, plus reducers."""

    #: Set by store-backed ``run_campaign`` runs: ``{"reused_units",
    #: "executed_units", "store_root"}``; ``None`` for plain runs.
    store_stats: dict | None = None

    #: Observability sidecar (``{"profile", "solver_health", "events"}``)
    #: attached by ``run_campaign`` while the :mod:`repro.obs.recorder`
    #: is armed; ``None`` otherwise.  Telemetry only — never serialised
    #: by :meth:`to_json`, so armed and disarmed runs export identical
    #: bytes.
    stats: dict | None = None

    def __init__(self, data: np.ndarray, metrics: tuple[str, ...],
                 spec: CampaignSpec | None = None) -> None:
        self.data = data
        self.metrics = metrics
        self.spec = spec

    # ------------------------------------------------------------------
    # Construction / export
    # ------------------------------------------------------------------
    @classmethod
    def from_units(cls, spec: CampaignSpec, units: Sequence[WorkUnit],
                   records: Sequence[dict[str, float]]) -> "CampaignResult":
        """Assemble the columnar table from per-unit metric dicts."""
        if len(units) != len(records):
            raise ValueError(
                f"{len(units)} units but {len(records)} records — the runner "
                "dropped or duplicated work"
            )
        metrics: list[str] = []
        for rec in records:
            for key in rec:
                if key not in metrics:
                    metrics.append(key)
        data = np.empty(len(units), dtype=_record_dtype(tuple(metrics)))
        for i, (unit, rec) in enumerate(zip(units, records)):
            data[i] = _axis_values(unit) + tuple(
                float(rec.get(m, np.nan)) for m in metrics
            )
        return cls(data, tuple(metrics), spec)

    @property
    def columns(self) -> tuple[str, ...]:
        return AXIS_COLUMNS + self.metrics

    def __len__(self) -> int:
        return self.data.shape[0]

    def metric(self, name: str) -> np.ndarray:
        """One metric column as a float64 array (row order = unit order)."""
        if name not in self.metrics:
            raise KeyError(f"unknown metric {name!r}; have {self.metrics}")
        return np.asarray(self.data[name], dtype=float)

    def column(self, name: str) -> np.ndarray:
        """Any axis or metric column."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; have {self.columns}")
        return np.asarray(self.data[name])

    def to_csv(self, path) -> None:
        """Write the full table as CSV (one row per unit)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.data:
                writer.writerow([row[c] for c in self.columns])

    @staticmethod
    def _json_value(v):
        """Strict-JSON encoding of one cell: NaN -> null, +/-inf ->
        ``"Infinity"`` / ``"-Infinity"`` string tokens (failed units
        produce such values, and bare ``Infinity`` literals are not
        valid JSON)."""
        if isinstance(v, float):
            if math.isnan(v):
                return None
            if math.isinf(v):
                return "Infinity" if v > 0 else "-Infinity"
        return v

    @staticmethod
    def _from_json_value(v):
        if v is None:
            return math.nan
        if v == "Infinity":
            return math.inf
        if v == "-Infinity":
            return -math.inf
        return v

    def to_json(self, path=None) -> str:
        """Serialise as JSON ``{"metrics": [...], "columns": {name: [...]}}``;
        returns the JSON text and optionally writes it to ``path``.

        The output is *strict* JSON even for non-finite metric values
        (see :meth:`_json_value`), and re-serialising
        ``from_json(to_json(r))`` reproduces the text byte-for-byte —
        floats are rendered in their shortest round-trip form.
        """
        payload = {
            "metrics": list(self.metrics),
            "columns": {
                name: [self._json_value(v) for v in self.data[name].tolist()]
                for name in self.columns
            },
        }
        text = json.dumps(payload, indent=2, allow_nan=False)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text_or_path) -> "CampaignResult":
        """Inverse of :meth:`to_json` (accepts JSON text or a file path)."""
        text = str(text_or_path)
        if not text.lstrip().startswith("{"):
            with open(text_or_path) as fh:
                text = fh.read()
        payload = json.loads(text)
        metrics = tuple(payload["metrics"])
        cols = payload["columns"]
        n = len(cols["corner"])
        data = np.empty(n, dtype=_record_dtype(metrics))
        for name in data.dtype.names:
            if name == "corner":
                data[name] = cols[name]
            else:
                data[name] = [cls._from_json_value(v) for v in cols[name]]
        return cls(data, metrics)

    # ------------------------------------------------------------------
    # Reducers
    # ------------------------------------------------------------------
    def group_reduce(
        self,
        metric: str,
        by: Iterable[str] = ("corner",),
        fn: Callable[[np.ndarray], float] = np.mean,
    ) -> dict[tuple, float]:
        """Apply ``fn`` to ``metric`` within each group of distinct ``by``
        axis values.  Keys are tuples in first-appearance (unit) order."""
        by = tuple(by)
        for b in by:
            if b not in self.columns:
                raise KeyError(f"unknown group column {b!r}")
        values = self.metric(metric)
        groups: dict[tuple, list[int]] = {}
        for i, row in enumerate(self.data):
            key = tuple(row[b] for b in by)
            groups.setdefault(key, []).append(i)
        return {key: float(fn(values[idx])) for key, idx in groups.items()}

    def sigma_by(self, metric: str, by: Iterable[str] = ("gain_code",)) -> dict[tuple, float]:
        """Per-group standard deviation, e.g. sigma of gain error per code."""
        return self.group_reduce(metric, by, np.std)

    def worst_by(self, metric: str, by: Iterable[str] = ("corner",),
                 sense: str = "max") -> dict[tuple, float]:
        """Per-group worst case; ``sense="min"`` for floor specs (PSRR),
        ``"max"`` for ceilings, ``"absmax"`` for symmetric errors."""
        fns = {"max": np.max, "min": np.min,
               "absmax": lambda v: np.max(np.abs(v))}
        try:
            fn = fns[sense]
        except KeyError:
            raise ValueError(f"sense must be one of {sorted(fns)}, got {sense!r}") from None
        return self.group_reduce(metric, by, fn)

    def percentile(self, metric: str, q: float | Sequence[float]):
        """Percentile(s) of a metric over all units."""
        return np.percentile(self.metric(metric), q)

    def yield_fraction(self, metric: str, lo: float | None = None,
                       hi: float | None = None) -> float:
        """Fraction of units with ``lo <= metric <= hi`` (one-sided when
        a bound is omitted) — the campaign-level yield against a spec."""
        if lo is None and hi is None:
            raise ValueError("need at least one of lo / hi")
        values = self.metric(metric)
        ok = np.ones(values.shape, dtype=bool)
        if lo is not None:
            ok &= values >= lo
        if hi is not None:
            ok &= values <= hi
        return float(np.mean(ok))

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Per-metric min/median/max over the whole campaign."""
        lines = [f"{len(self)} units x {len(self.metrics)} metrics"]
        for m in self.metrics:
            v = self.metric(m)
            finite = v[np.isfinite(v)]
            if finite.size == 0:
                lines.append(f"  {m:<18} (no finite values)")
                continue
            lines.append(
                f"  {m:<18} min {np.min(finite):11.4g}   "
                f"median {np.median(finite):11.4g}   max {np.max(finite):11.4g}"
            )
        return "\n".join(lines)

    def format_table(self, max_rows: int = 20) -> str:
        """A plain-text view of the first ``max_rows`` rows."""
        header = "  ".join(f"{c:>12}" for c in self.columns)
        lines = [header]
        for row in self.data[:max_rows]:
            cells = []
            for c in self.columns:
                v = row[c]
                cells.append(f"{v:>12}" if isinstance(v, str)
                             else f"{float(v):>12.5g}")
            lines.append("  ".join(cells))
        if len(self) > max_rows:
            lines.append(f"  ... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)
