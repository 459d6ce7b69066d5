"""Benchmark-trajectory drift watchdog over ``BENCH_perf.json``.

Every perf bench appends one point to its ``*_trajectory`` list on each
full run (``campaign_trajectory``, ``serve_trajectory``, ...).  This
module reads the file back and answers two questions:

1. *What moved?* — per trajectory and per numeric metric, the previous
   -> latest delta and the full first -> latest drift, exactly as the
   old ``tools/bench_report.py`` printed them (that script now
   delegates here).

2. *Did it move too far?* — an exponentially-weighted moving average
   baseline (mean and variance, ``alpha`` per point) is folded over the
   historical points of each metric, and the latest point is flagged
   when its z-score against that baseline exceeds ``z_threshold``.
   Smoke points are excluded from the baseline and never judged: they
   run truncated workloads whose numbers are not comparable to full
   runs.  A metric needs ``min_points`` full historical points before
   it is judged at all — with fewer, there is no baseline worth
   trusting.

The EWMA (rather than a plain mean over all history) makes the baseline
track slow legitimate drift — a host upgrade, a deliberate perf PR —
while still catching a step change: after a few runs the baseline
re-centres and the watchdog re-arms around the new normal.

Exit codes: always 0 without ``--gate``.  With ``--gate``, drift flags
exit 1 — unless ``--warn-only`` also given, which prints the flags but
exits 0 (the CI rollout mode: visible, not yet blocking).

Usage::

    python -m repro.obs.drift [BENCH_perf.json] [--gate] [--warn-only]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_PATH = REPO_ROOT / "BENCH_perf.json"

#: Relative moves larger than this are flagged in the delta report
#: (informational only — the z-score watchdog is what gates).
DRIFT_THRESHOLD = 0.10

#: EWMA weight of each new point (higher = baseline adapts faster).
DEFAULT_ALPHA = 0.3

#: Latest-point z-scores beyond this are drift flags.
DEFAULT_Z = 3.0

#: Full (non-smoke) historical points required before judging a metric.
MIN_BASELINE_POINTS = 3

#: Relative std floor: hosts jitter a few percent run to run even when
#: nothing changed, so a suspiciously tight baseline must not turn that
#: jitter into a flag.
REL_STD_FLOOR = 0.02

PROVENANCE_KEYS = ("platform", "cpu_count", "single_cpu", "numpy", "scipy",
                   "blas_threads")


def _numeric_keys(points: list[dict]) -> list[str]:
    """Metric keys worth comparing: numeric, non-bool, present in the
    latest point."""
    latest = points[-1]
    return [k for k, v in latest.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)]


def ewma_baseline(values: list[float],
                  alpha: float = DEFAULT_ALPHA) -> tuple[float, float]:
    """Exponentially-weighted mean and standard deviation of ``values``
    (oldest first).  Variance uses the standard EW recurrence
    ``var = (1 - alpha) * (var + alpha * delta**2)`` so one outlier
    widens the band instead of permanently shifting it."""
    mean = float(values[0])
    var = 0.0
    for v in values[1:]:
        delta = float(v) - mean
        mean += alpha * delta
        var = (1.0 - alpha) * (var + alpha * delta * delta)
    return mean, math.sqrt(var)


def analyze(payload: dict, *, alpha: float = DEFAULT_ALPHA,
            z_threshold: float = DEFAULT_Z,
            min_points: int = MIN_BASELINE_POINTS) -> list[dict]:
    """Drift flags for the latest point of every trajectory metric.

    Returns one dict per flagged metric: ``{"trajectory", "metric",
    "latest", "mean", "std", "z"}``.  An empty list means no drift (or
    not enough history to judge)."""
    flags: list[dict] = []
    for key in sorted(k for k in payload if k.endswith("_trajectory")):
        points = [p for p in payload[key] if isinstance(p, dict)]
        if not points or points[-1].get("smoke"):
            continue
        latest = points[-1]
        baseline_points = [p for p in points[:-1] if not p.get("smoke")]
        if len(baseline_points) < min_points:
            continue
        for metric in _numeric_keys(points):
            history = [p[metric] for p in baseline_points
                       if isinstance(p.get(metric), (int, float))
                       and not isinstance(p.get(metric), bool)
                       and math.isfinite(p[metric])]
            value = latest[metric]
            if len(history) < min_points or not math.isfinite(value):
                continue
            mean, std = ewma_baseline(history, alpha=alpha)
            floor = REL_STD_FLOOR * abs(mean)
            spread = max(std, floor)
            if spread <= 0.0:
                # Constant-zero history: any nonzero latest is a flag.
                if value != mean:
                    flags.append({"trajectory": key, "metric": metric,
                                  "latest": value, "mean": mean,
                                  "std": std, "z": math.inf})
                continue
            z = (value - mean) / spread
            if abs(z) > z_threshold:
                flags.append({"trajectory": key, "metric": metric,
                              "latest": value, "mean": mean,
                              "std": std, "z": z})
    return flags


# ----------------------------------------------------------------------
# The human-facing report (delta lines + watchdog verdict)
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _delta_line(name: str, old, new, label: str) -> str:
    line = f"    {name:<28} {_fmt(old):>10} -> {_fmt(new):>10}  ({label})"
    if isinstance(old, (int, float)) and old:
        rel = (new - old) / abs(old)
        line += f"  {rel:+.1%}"
        if abs(rel) > DRIFT_THRESHOLD:
            line += "  DRIFT"
    return line


def report(payload: dict) -> list[str]:
    lines: list[str] = []
    trajectories = sorted(k for k in payload if k.endswith("_trajectory"))
    if not trajectories:
        return ["no *_trajectory keys found — run a full bench first"]
    for key in trajectories:
        points = [p for p in payload[key] if isinstance(p, dict)]
        if not points:
            continue
        bench = key[: -len("_trajectory")]
        n_smoke = sum(1 for p in points if p.get("smoke"))
        lines.append(f"{bench}: {len(points)} point(s)"
                     + (f" ({n_smoke} smoke)" if n_smoke else ""))
        entry = payload.get(bench)
        if isinstance(entry, dict):
            prov = {k: entry[k] for k in PROVENANCE_KEYS if k in entry}
            if prov:
                lines.append(f"  latest host: {prov}")
        latest = points[-1]
        first = points[0]
        prev = points[-2] if len(points) > 1 else None
        for metric in _numeric_keys(points):
            if prev is not None and metric in prev:
                lines.append(_delta_line(metric, prev[metric],
                                         latest[metric], "prev -> latest"))
            if len(points) > 1 and metric in first:
                lines.append(_delta_line(metric, first[metric],
                                         latest[metric], "first -> latest"))
        lines.append("")
    return lines


def format_flags(flags: list[dict]) -> list[str]:
    if not flags:
        return ["drift watchdog: no drift flagged"]
    lines = [f"drift watchdog: {len(flags)} metric(s) drifted:"]
    for f in flags:
        lines.append(
            f"  {f['trajectory']}.{f['metric']}: latest {_fmt(f['latest'])} "
            f"vs EWMA {_fmt(f['mean'])} (+/-{_fmt(f['std'])}), "
            f"z={f['z']:+.1f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.drift",
        description="benchmark trajectory report + EWMA drift watchdog")
    parser.add_argument("path", nargs="?", default=str(DEFAULT_PATH),
                        help="BENCH_perf.json location")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when the watchdog flags drift")
    parser.add_argument("--warn-only", action="store_true",
                        help="with --gate: print flags but still exit 0")
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help=f"EWMA weight per point "
                             f"(default {DEFAULT_ALPHA})")
    parser.add_argument("--z", type=float, default=DEFAULT_Z,
                        help=f"z-score flag threshold (default {DEFAULT_Z})")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    path = pathlib.Path(args.path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"[drift] {path} does not exist — nothing to report")
        return 0
    except json.JSONDecodeError as exc:
        print(f"[drift] {path} is not valid JSON: {exc}")
        return 0

    print(f"[drift] trajectories in {path} "
          f"(delta flag threshold {DRIFT_THRESHOLD:.0%})")
    for line in report(payload):
        print(line)
    flags = analyze(payload, alpha=args.alpha, z_threshold=args.z)
    for line in format_flags(flags):
        print(line)
    if flags and args.gate:
        if args.warn_only:
            print("[drift] --warn-only: drift flagged but not gating")
            return 0
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
