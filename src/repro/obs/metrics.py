"""Fixed-bucket histograms, gauges, and Prometheus text exposition.

:class:`Histogram` is the latency primitive behind
``ServiceMetrics.observe``: a fixed set of upper bounds chosen at
construction, one integer count per bucket, O(log n_buckets) per
observation under a lock — no per-sample storage, so a year of traffic
costs the same memory as a minute.  Quantiles are estimated by linear
interpolation inside the owning bucket (the classic Prometheus
``histogram_quantile`` scheme); the estimate is exact at bucket edges
and off by at most one bucket width inside, which the test suite pins
against ``numpy.quantile`` on known data.

:func:`render_prometheus` serialises counters/gauges/histograms in the
Prometheus text exposition format (``# HELP``/``# TYPE`` lines,
cumulative ``_bucket{le=...}`` series, ``_sum``/``_count``) for
``GET /metrics`` — dependency-free, parseable by any Prometheus scraper.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 1 ms to 60 s, roughly log-spaced —
#: wide enough for a warm store hit (sub-ms) and a cold robust optimize
#: (tens of seconds) on one axis.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Histogram:
    """Thread-safe fixed-bucket histogram (counts per upper bound, plus
    an implicit ``+Inf`` overflow bucket)."""

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)      # last = overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """``{"count", "sum", "buckets": [{"le", "count"}, ...]}`` with
        *cumulative* bucket counts ending in the ``+Inf`` total —
        exactly the Prometheus histogram shape, consistent even
        mid-observe (taken under the lock)."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        cum = 0
        buckets = []
        for bound, n in zip(self.bounds, counts):
            cum += n
            buckets.append({"le": bound, "count": cum})
        buckets.append({"le": "+Inf", "count": total})
        return {"count": total, "sum": total_sum, "buckets": buckets}

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (``q`` in [0, 1]) by linear interpolation
        within the owning bucket.  Empty histograms return ``nan``;
        overflow-bucket quantiles clamp to the largest finite bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return math.nan
        rank = q * total
        cum = 0
        for i, n in enumerate(counts[:-1]):
            if n == 0:
                cum += n
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - cum) / n
                return lo + (hi - lo) * max(0.0, min(1.0, frac))
            cum += n
        return self.bounds[-1]      # overflow bucket: clamp

    def quantiles(self, qs=(0.5, 0.95, 0.99)) -> dict[str, float]:
        """p-labelled quantile dict, e.g. ``{"p50": ..., "p99": ...}``."""
        return {f"p{round(100 * q) if q < 1 else 100}": self.quantile(q)
                for q in qs}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Help strings for the well-known series (fallback is generated).
HELP: dict[str, str] = {
    "requests": "HTTP requests served, by handler outcome",
    "request_latency": "HTTP request wall time in seconds, per route",
    "job_latency": "job execution wall time in seconds, per kind",
    "queue_depth": "jobs waiting in the queue right now",
    "workers_busy": "worker threads currently running a job",
    "store_entries": "payload entries in the attached result store",
    "jobs_done": "jobs finished successfully",
    "jobs_failed": "jobs finished in failure",
    "warm_hits": "campaign submissions answered entirely from the store",
    "events.armed": "1 when the observability recorder is armed",
    "events.info": "info-severity events recorded (monotone)",
    "events.warn": "warn-severity events recorded (monotone)",
    "events.error": "error-severity events recorded (monotone)",
    "events.recorded": "structured events recorded in total (monotone)",
    "events.dropped": "records (spans or events) evicted by ring-buffer overflow",
}


def sanitize(name: str) -> str:
    """A metric name valid for Prometheus (dots and dashes become
    underscores)."""
    return _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(counters: dict | None = None,
                      gauges: dict | None = None,
                      histograms: dict | None = None,
                      prefix: str = "repro") -> str:
    """The ``GET /metrics`` document: counters as ``<name>_total``,
    gauges bare, histograms as cumulative ``_bucket``/``_sum``/
    ``_count`` series.  ``histograms`` maps name → :class:`Histogram`
    *or* an already-taken :meth:`Histogram.snapshot` dict."""
    lines: list[str] = []

    def emit_header(name: str, kind: str, base: str) -> None:
        help_text = HELP.get(base, f"repro {kind} {base}")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for raw, value in sorted((counters or {}).items()):
        name = f"{prefix}_{sanitize(raw)}_total"
        emit_header(name, "counter", raw)
        lines.append(f"{name} {_fmt(value)}")

    for raw, value in sorted((gauges or {}).items()):
        name = f"{prefix}_{sanitize(raw)}"
        emit_header(name, "gauge", raw)
        lines.append(f"{name} {_fmt(value)}")

    for raw, hist in sorted((histograms or {}).items()):
        snap = hist.snapshot() if isinstance(hist, Histogram) else hist
        name = f"{prefix}_{sanitize(raw)}"
        emit_header(name, "histogram", raw)
        for bucket in snap["buckets"]:
            le = bucket["le"]
            le_text = le if le == "+Inf" else _fmt(le)
            lines.append(f'{name}_bucket{{le="{le_text}"}} {bucket["count"]}')
        lines.append(f"{name}_sum {_fmt(snap['sum'])}")
        lines.append(f"{name}_count {snap['count']}")

    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, dict]:
    """A minimal parser for the exposition format (the CI smoke and
    tests use it to assert structure): returns ``{series_name:
    {"type", "help", "samples": [(labels_text, value), ...]}}``."""
    series: dict[str, dict] = {}
    current: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            current[name] = help_text
            series.setdefault(name, {"help": help_text, "type": None,
                                     "samples": []})
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            series.setdefault(name, {"help": current.get(name, ""),
                                     "type": None, "samples": []})
            series[name]["type"] = kind.strip()
        elif line.startswith("#"):
            continue
        else:
            name_and_labels, _, value = line.rpartition(" ")
            name, labels = name_and_labels, ""
            if "{" in name_and_labels:
                name, _, labels = name_and_labels.partition("{")
                labels = "{" + labels
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in series:
                    base = name[: -len(suffix)]
                    break
            target = series.setdefault(
                base, {"help": "", "type": None, "samples": []})
            target["samples"].append((name + labels, float(value)))
    return series
