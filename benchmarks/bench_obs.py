#!/usr/bin/env python
"""Overhead benchmark for the observability layer (``repro.obs``).

The obs contract is that **disarmed** hooks — ``span()`` /
``trace_point()`` / ``prof_count()`` with no tracer or profiler
active — cost one module-global load and a falsy check, so production
runs pay (near) nothing for the instrumentation.  This bench turns that
contract into a number and gates it:

* ``micro``    — tight-loop cost of each disarmed hook in ns/call
  (loop overhead included, so the figures are conservative upper
  bounds);
* ``campaign`` — the bench_campaign batched workload: disarmed
  best-of CPU time, one armed run (tracer + profiler) to *count* how
  many hooks the workload actually fires, and the analytic disarmed
  overhead fraction ``firings x ns_per_hook / disarmed_cpu_s``;
* ``serve``    — the bench_serve warm regime: a live server answering
  fully-cached campaign requests, warm req/s disarmed vs armed, plus
  the same analytic disarmed fraction.

The analytic fraction is the gated quantity (full mode: <= 2 % on both
workloads).  The armed-vs-disarmed macro ratios are reported for
context but not gated — a 2 % budget sits below run-to-run noise on
shared hosts, while the analytic bound is stable: hook firings are
deterministic for a fixed workload and the per-hook cost is measured
over millions of calls.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--smoke] [--out PATH]

Full mode merges an ``obs`` entry (with ``overhead``) into
``BENCH_perf.json`` and enforces the 2 % budget via exit code;
``--smoke`` shrinks the workloads for CI and asserts nothing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import tempfile
import time

from provenance import provenance_block

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

#: Disarmed hooks must cost no more than this fraction of either
#: workload's runtime (the ISSUE acceptance budget).
OVERHEAD_BUDGET = 0.02


# ----------------------------------------------------------------------
# Micro: ns per disarmed hook
# ----------------------------------------------------------------------
def _ns_per_call(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return 1e9 * (time.perf_counter() - t0) / n


def micro_bench(smoke: bool) -> dict:
    from repro.obs.events import active_event_log, event
    from repro.obs.profile import active_profiler, prof_count
    from repro.obs.trace import active_tracer, span, trace_point

    assert (active_tracer() is None and active_profiler() is None
            and active_event_log() is None), \
        "micro bench needs the hooks disarmed (unset REPRO_OBS)"
    n = 200_000 if smoke else 2_000_000

    def span_hook():
        with span("bench.noop"):
            pass

    out = {
        "n_calls": n,
        "span_ns": _ns_per_call(span_hook, n),
        "trace_point_ns": _ns_per_call(lambda: trace_point("bench.noop"), n),
        "prof_count_ns": _ns_per_call(lambda: prof_count("bench.noop"), n),
        "event_ns": _ns_per_call(lambda: event("bench.noop"), n),
    }
    out["worst_ns"] = max(out["span_ns"], out["trace_point_ns"],
                          out["prof_count_ns"], out["event_ns"])
    return out


def _firings(tracer, profiler, log) -> int:
    """Hook firings observed by an armed run: spans recorded plus
    profile counter bumps plus structured events.  Counters accumulated
    with ``n > 1`` count their full ``n`` — an overestimate, which only
    makes the analytic overhead bound more conservative."""
    snap = profiler.snapshot()
    return (tracer.recorded
            + sum(snap["counts"].values())
            + len(snap["times_s"])
            + log.recorded)


# ----------------------------------------------------------------------
# Campaign leg
# ----------------------------------------------------------------------
def _campaign_spec(smoke: bool):
    from repro.campaign import CampaignSpec

    if smoke:
        return CampaignSpec(
            builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
            seeds=(0, 1), gain_codes=(5,),
            measurements=("offset_v", "iq_ma", "gain_1khz_db"),
        )
    return CampaignSpec(
        builder="micamp", corners=("tt", "ff", "ss", "fs", "sf"),
        temps_c=(-20.0, 25.0, 85.0), seeds=(0, 1, 2, 3), gain_codes=(5,),
        measurements=("offset_v", "iq_ma", "gain_1khz_db",
                      "psrr_1khz_db", "cmrr_1khz_db"),
    )


def campaign_bench(smoke: bool, worst_ns: float) -> dict:
    from repro.campaign import run_campaign
    from repro.obs.events import EventLog
    from repro.obs.profile import Profiler
    from repro.obs.trace import Tracer

    spec = _campaign_spec(smoke)
    repeats = 1 if smoke else 3

    best_cpu = float("inf")
    disarmed_json = None
    for _ in range(repeats):
        c0 = time.process_time()
        disarmed_json = run_campaign(spec).to_json()
        best_cpu = min(best_cpu, time.process_time() - c0)

    tracer, profiler, log = Tracer(), Profiler(), EventLog()
    with tracer.activate(), profiler.activate(), log.activate():
        c0 = time.process_time()
        armed_json = run_campaign(spec).to_json()
        armed_cpu = time.process_time() - c0
    assert armed_json == disarmed_json, \
        "tracing/profiling/events armed changed the campaign export bytes"

    firings = _firings(tracer, profiler, log)
    frac = firings * worst_ns * 1e-9 / best_cpu
    return {
        "n_units": spec.n_units,
        "disarmed_cpu_s": best_cpu,
        "armed_cpu_s": armed_cpu,
        "armed_slowdown": armed_cpu / best_cpu,
        "hook_firings": firings,
        "disarmed_overhead_frac": frac,
        "byte_identical_armed": True,
    }


# ----------------------------------------------------------------------
# Serve leg
# ----------------------------------------------------------------------
def _serve_payloads(smoke: bool) -> list[dict]:
    if smoke:
        return [{"builder": "bias", "corners": ["tt"],
                 "temps_c": [25.0, 85.0],
                 "measurements": ["bias_current_ua"],
                 "seeds": [seed]} for seed in range(3)]
    return [{"builder": "micamp", "corners": ["tt"],
             "temps_c": [25.0, 85.0],
             "seeds": [2 * i, 2 * i + 1],
             "measurements": ["offset_v", "iq_ma", "gain_1khz_db"]}
            for i in range(6)]


def serve_bench(smoke: bool, worst_ns: float) -> dict:
    from repro.obs.events import EventLog
    from repro.obs.profile import Profiler
    from repro.obs.trace import Tracer
    from repro.serve import CharacterizationService, ServeClient, serve_background
    from repro.store import ResultStore

    payloads = _serve_payloads(smoke)
    passes = 2 if smoke else 5

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_obs_"))
    service = server = None
    try:
        store = ResultStore(workdir / "store")
        service = CharacterizationService(store=store, workers=2).start()
        server, _thread = serve_background(service)
        host, port = server.server_address[:2]
        client = ServeClient(f"http://{host}:{port}")
        client.wait_until_up()

        def warm_pass() -> None:
            for payload in payloads:
                view = client.run("campaign", payload, timeout=600)
                assert view["state"] == "done", view
                client.result_bytes(view["id"])

        warm_pass()                      # cold fill (untimed)
        warm_baseline = client.result_bytes(client.jobs()[0]["id"])

        t0 = time.perf_counter()
        for _ in range(passes):
            warm_pass()
        t_disarmed = time.perf_counter() - t0

        tracer, profiler, log = Tracer(), Profiler(), EventLog()
        with tracer.activate(), profiler.activate(), log.activate():
            t0 = time.perf_counter()
            for _ in range(passes):
                warm_pass()
            t_armed = time.perf_counter() - t0
        assert client.result_bytes(client.jobs()[0]["id"]) == warm_baseline, \
            "tracing/profiling/events armed changed the served bytes"

        n_requests = passes * len(payloads)
        firings = _firings(tracer, profiler, log)
        frac = firings * worst_ns * 1e-9 / t_disarmed
        return {
            "n_requests": n_requests,
            "warm_rps_disarmed": n_requests / t_disarmed,
            "warm_rps_armed": n_requests / t_armed,
            "armed_slowdown": t_armed / t_disarmed,
            "hook_firings": firings,
            "disarmed_overhead_frac": frac,
            "byte_identical_armed": True,
        }
    finally:
        if server is not None:
            server.shutdown()
        if service is not None:
            service.stop()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
def run_bench(smoke: bool) -> dict:
    micro = micro_bench(smoke)
    print(f"[bench_obs] disarmed hook cost over {micro['n_calls']} calls: "
          f"span {micro['span_ns']:.0f} ns, "
          f"trace_point {micro['trace_point_ns']:.0f} ns, "
          f"prof_count {micro['prof_count_ns']:.0f} ns, "
          f"event {micro['event_ns']:.0f} ns")

    campaign = campaign_bench(smoke, micro["worst_ns"])
    print(f"  campaign (batched, {campaign['n_units']} units): "
          f"{campaign['hook_firings']} hook firings over "
          f"{campaign['disarmed_cpu_s']:.2f}s cpu -> disarmed overhead "
          f"{100 * campaign['disarmed_overhead_frac']:.4f}% "
          f"(armed run {campaign['armed_slowdown']:.2f}x, bytes identical)")

    serve = serve_bench(smoke, micro["worst_ns"])
    print(f"  serve (warm, {serve['n_requests']} requests): "
          f"{serve['warm_rps_disarmed']:.1f} req/s disarmed, "
          f"{serve['warm_rps_armed']:.1f} req/s armed -> disarmed overhead "
          f"{100 * serve['disarmed_overhead_frac']:.4f}% (bytes identical)")

    return {
        "budget_frac": OVERHEAD_BUDGET,
        "micro": micro,
        "campaign": campaign,
        "serve": serve,
    }


def _merge_out(out: pathlib.Path, overhead: dict, smoke: bool) -> None:
    """Merge into the trajectory file without clobbering other benches."""
    payload: dict = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload["obs"] = {
        "smoke": smoke,
        **provenance_block(),
        "overhead": overhead,
    }
    payload.setdefault("obs_trajectory", []).append({
        "worst_hook_ns": overhead["micro"]["worst_ns"],
        "campaign_disarmed_overhead_frac":
            overhead["campaign"]["disarmed_overhead_frac"],
        "serve_disarmed_overhead_frac":
            overhead["serve"]["disarmed_overhead_frac"],
        "smoke": smoke,
    })
    out.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads for CI; no overhead budget")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help=f"output JSON (default: {DEFAULT_OUT} in full "
                             "mode, bench_obs_smoke.json in smoke mode)")
    args = parser.parse_args(argv)

    results = run_bench(args.smoke)

    out = args.out or (pathlib.Path("bench_obs_smoke.json") if args.smoke
                       else DEFAULT_OUT)
    _merge_out(out, results, args.smoke)
    print(f"[bench_obs] wrote {out}")

    if args.smoke:
        return 0
    failed = False
    for leg in ("campaign", "serve"):
        frac = results[leg]["disarmed_overhead_frac"]
        if frac > OVERHEAD_BUDGET:
            print(f"FAIL: disarmed obs overhead on the {leg} workload above "
                  f"the {OVERHEAD_BUDGET:.0%} budget ({100 * frac:.3f}%)")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
