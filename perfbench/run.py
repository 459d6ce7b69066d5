"""The repo benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_cli --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same timed window, replays its exact operations with every layer
wrapped, and prints the per-layer metrics (see ``perfbench/README.md``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts before any import
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parent.parent

#: End-to-end metrics and units, printed by every ``--trace 0`` run.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "units_per_s": "1/s",
    "cpu_ms_per_unit": "ms",
    "req_per_s": "1/s",
    "cold_latency_p50_ms": "ms",
    "cold_latency_p95_ms": "ms",
    "warm_latency_p50_ms": "ms",
    "warm_latency_p90_ms": "ms",
    "evals_per_s": "1/s",
    "cpu_ms_per_eval": "ms",
}

#: Per-layer metrics and units, printed by every ``--trace 1`` run.
PER_LAYER = {
    "campaign.build_s": "s",
    "campaign.build_calls": "count",
    "spice.compile_s": "s",
    "spice.compile_calls": "count",
    "spice.stamp_s": "s",
    "spice.newton_s": "s",
    "spice.newton_iterations": "count",
    "spice.smallsignal_s": "s",
    "spice.smallsignal_solves": "count",
    "spice.noise_s": "s",
    "campaign.measure_s": "s",
    "campaign.run_self_s": "s",
    "campaign.batched_share": "ratio",
    "campaign.serialize_s": "s",
    "campaign.serialized_mb": "MB",
    "campaign.reduce_s": "s",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.probe_s": "s",
    "store.reuse_ratio": "ratio",
    "serve.validate_s": "s",
    "serve.queue_wait_ms_p50": "ms",
    "serve.job_ms_p50": "ms",
    "serve.outside_job_ms_p50": "ms",
    "ingest.canonicalize_s": "s",
    "ingest.decks": "count",
    "optimize.evaluate_s": "s",
    "optimize.simulated": "count",
    "optimize.memo_hit_ratio": "ratio",
    "optimize.search_self_s": "s",
    "cli.parse_s": "s",
    "bench.self_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Layer self times plus the host probes must account for the traced wall
#: this closely (see ``perfbench.tracing.unexplained``).
RECONCILE_TOLERANCE = 0.10
#: Setup probes run in fresh processes besides the workload's own setup.
SETUP_PROBES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("campaign_cli", "serve_mixed", "optimize_de"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)   # set up, report, exit
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct_ms(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) in ms; 0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1] * 1e3


def end_to_end(phase, setup_s: float) -> dict:
    """End-to-end metrics of an untraced phase, in reference seconds."""
    ok = [op for op in phase.ops if op.error is None]
    wall, cpu = phase.reference("wall_s"), phase.reference("cpu_s")
    units = sum(op.units for op in ok)
    evals = sum(op.evals for op in ok)
    cold, warm = phase.latencies(False), phase.latencies(True)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "units_per_s": units / wall,
        "cpu_ms_per_unit": _ratio(cpu * 1e3, units),
        "req_per_s": len(ok) / wall,
        "cold_latency_p50_ms": _pct_ms(cold, 50),
        "cold_latency_p95_ms": _pct_ms(cold, 95),
        "warm_latency_p50_ms": _pct_ms(warm, 50),
        "warm_latency_p90_ms": _pct_ms(warm, 90),
        "evals_per_s": evals / wall,
        "cpu_ms_per_eval": _ratio(cpu * 1e3, evals),
    }


def per_layer(traced, untraced, rec) -> tuple[dict, float]:
    """Per-layer metrics of the traced phase, plus the share of its wall
    that no layer explains (raw seconds, host probes excluded)."""
    from perfbench.tracing import BENCH_OP, attribute, unexplained

    t0, t1 = traced.t0, traced.t0 + traced.wall_s
    self_s, unattributed = attribute(rec.spans, t0, t1)
    s = lambda name: self_s.get(name, 0.0)      # noqa: E731
    c = lambda name: rec.counts.get(name, 0)    # noqa: E731
    jobs = [(op, op.job) for op in traced.ops if op.job is not None]
    ran = [j for _, j in jobs if j["started_at"] is not None]
    hits = sum(e.cache_hits for e in rec.evaluators.values())
    misses = sum(e.cache_misses for e in rec.evaluators.values())
    reused = traced.extra.get("units_reused", 0)
    executed = traced.extra.get("units_executed", 0)

    def p50_ms(values):
        return statistics.median(values) * 1e3 if values else 0.0

    metrics = {
        "campaign.build_s": s("campaign.build"),
        "campaign.build_calls": c("campaign.build.calls"),
        "spice.compile_s": s("spice.compile"),
        "spice.compile_calls": c("spice.compile.calls"),
        "spice.stamp_s": s("spice.stamp"),
        "spice.newton_s": s("spice.newton"),
        "spice.newton_iterations": c("spice.newton_iterations"),
        "spice.smallsignal_s": s("spice.smallsignal"),
        "spice.smallsignal_solves": c("spice.smallsignal.calls"),
        "spice.noise_s": s("spice.noise"),
        "campaign.measure_s": s("campaign.measure"),
        "campaign.run_self_s": s("campaign.run"),
        "campaign.batched_share": _ratio(c("campaign.batched_units"),
                                         c("campaign.units_run")),
        "campaign.serialize_s": s("campaign.serialize"),
        "campaign.serialized_mb": c("campaign.serialized_bytes") / 1e6,
        "campaign.reduce_s": s("campaign.reduce"),
        "store.read_s": s("store.read"),
        "store.write_s": s("store.write"),
        "store.probe_s": s("store.probe"),
        "store.reuse_ratio": _ratio(reused, reused + executed),
        "serve.validate_s": s("serve.validate"),
        "serve.queue_wait_ms_p50": p50_ms(
            [j["started_at"] - j["created_at"] for j in ran]),
        "serve.job_ms_p50": p50_ms(
            [j["finished_at"] - j["started_at"] for j in ran]),
        "serve.outside_job_ms_p50": p50_ms(
            [op.latency_s - (j["finished_at"] - j["created_at"])
             for op, j in jobs]),
        "ingest.canonicalize_s": s("ingest.canonicalize"),
        "ingest.decks": c("ingest.canonicalize.calls"),
        "optimize.evaluate_s": s("optimize.evaluate"),
        "optimize.simulated": sum(e.cache_misses - e.store_hits
                                  for e in rec.evaluators.values()),
        "optimize.memo_hit_ratio": _ratio(hits, hits + misses),
        "optimize.search_self_s": s("optimize.search"),
        "cli.parse_s": s("cli.parse"),
        "bench.self_s": s(BENCH_OP),
        "trace.unattributed_share": unattributed / traced.wall_s,
        "trace.overhead_ratio": (traced.reference("wall_s")
                                 / untraced.reference("wall_s")),
    }
    # Layer times in reference seconds, at the window's mean host speed.
    epochs_s = sum(e.wall_s for e in traced.epochs)
    scale = traced.reference("wall_s") / epochs_s
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms"):
            metrics[name] *= scale
    # The window outside the epochs is the host probes: the program idles.
    return metrics, unexplained(self_s, traced.wall_s, traced.wall_s - epochs_s)


def _setup_probe(args) -> float:
    """Time a full set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _traced_replay(workload, phase):
    """Replay ``phase`` with every layer wrapped; returns the traced
    phase, the recorder and the bindings that failed to restore."""
    from perfbench.tracing import BENCH, BENCH_OP, Recorder, layer_targets

    workload.prepare_replay()
    rec = Recorder()
    rec.install(layer_targets())
    try:
        traced = workload.replay(
            phase, around=lambda fn, i: rec.call(BENCH_OP, BENCH, fn, i))
    finally:
        unrestored = rec.uninstall()
    return traced, rec, unrestored


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<28s} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import hostspeed, verify
    from perfbench.fingerprint import numerics_fingerprint
    from perfbench.workloads import WORKLOADS

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                            dir=out_dir))
    workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        workload.setup()
        own_setup = ((time.perf_counter() - T_START)
                     * hostspeed.factor(hostspeed.probe()))
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup] + [_setup_probe(args) for _ in
                                       range(0 if args.trace else SETUP_PROBES)]
        fingerprint = numerics_fingerprint()

        phase = workload.run(args.seconds)
        failures = verify.check(workload, phase, args.seed)
        problems = []
        if args.trace:
            traced, rec, unrestored = _traced_replay(workload, phase)
            failures.update(verify.check_replay(phase, traced))
            metrics, error = per_layer(traced, phase, rec)
            units = PER_LAYER
            if error > RECONCILE_TOLERANCE:
                problems.append(f"{error:.1%} of the traced wall is explained "
                                f"by no layer (limit "
                                f"{RECONCILE_TOLERANCE:.0%})")
            if unrestored:
                problems.append(f"wrappers not restored: {unrestored}")
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
            rec.write_jsonl(trace_path, {
                "workload": args.workload, "seed": args.seed,
                "window": [traced.t0, traced.t0 + traced.wall_s],
                "fingerprint": fingerprint})
            print(f"trace: {len(rec.spans)} spans -> {trace_path} "
                  f"({error:.1%} of the traced wall explained by no layer)")
        else:
            metrics = end_to_end(phase, statistics.median(setup_samples))
            units = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(phase.ops)
    failed = len(failures)
    for pos, message in sorted(failures.items())[:10]:
        print(f"FAILED op {pos}: {message}")
    for message in problems:
        print(f"FAILED: {message}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations "
          f"in {phase.wall_s:.2f} s, error_rate {failed / max(attempted, 1):.4f}, "
          f"latency samples cold {len(phase.latencies(False))} "
          f"warm {len(phase.latencies(True))}, "
          f"setup samples {[round(s, 3) for s in setup_samples]}")
    probes = [e.probe_s * 1e3 for e in phase.epochs]
    print(f"host probe {statistics.median(probes):.3f} ms median over "
          f"{len(probes)} epochs (range {min(probes):.3f}-{max(probes):.3f}, "
          f"reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); times are in "
          f"reference seconds")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    _print_table("per-layer metrics (traced replay)" if args.trace
                 else "end-to-end metrics", metrics, units)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
