#!/usr/bin/env python
"""Warm-rerun benchmark for the persistent result store (repro.store).

Runs the Table-1-style qualification campaign of ``bench_campaign.py``
— 5 corners x 3 temperatures x 4 mismatch seeds = 60 work units, five
metrics each — twice against one store root:

* ``cold``  — a fresh store: every unit is executed through the
  campaign engine and written back (this is a plain campaign run plus
  keying/write-back overhead, which is also what the entry records);
* ``warm``  — a second process-equivalent run (fresh ``ResultStore``
  handle, cold sqlite connection): the partition finds every unit
  cached, the engine runs **zero** units, and the merged
  ``CampaignResult`` must be byte-identical to the cold one.

The byte-identity check is a hard gate: the structured arrays are
compared with ``tobytes()`` and the JSON exports as text before any
timing is reported.  Full mode additionally requires the campaign to
have >= 60 units and the warm rerun to clear the **>= 10x** floor over
cold, and merges a ``store`` entry (and appends to
``store_trajectory``) into ``BENCH_perf.json`` without disturbing the
other benchmarks' keys; ``--smoke`` shrinks the campaign for CI and
asserts only correctness, not speed.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py [--smoke] [--out PATH]
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

MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db",
                "cmrr_1khz_db")


def _make_spec(smoke: bool):
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
        measurements=MEASUREMENTS,
    )


def run_bench(smoke: bool) -> dict:
    from repro.campaign import run_campaign
    from repro.store import ResultStore

    spec = _make_spec(smoke)
    n = spec.n_units
    print(f"[bench_store] {n} units "
          f"({len(spec.corners)} corners x {len(spec.temps_c)} temps x "
          f"{len(spec.seeds)} seeds), {len(spec.measurements)} measurements")

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        root = workdir / "store"

        t0 = time.perf_counter()
        cold = run_campaign(spec, store=ResultStore(root))
        t_cold = time.perf_counter() - t0
        assert cold.store_stats["executed_units"] == n
        print(f"  cold run (execute + write-back): {t_cold:.3f}s "
              f"({n / t_cold:.1f} units/s)")

        # Warm reruns always open a fresh handle: cold sqlite connection,
        # no Python-side caches — the same position a new process is in.
        t_warm, warm = float("inf"), None
        for _ in range(1 if smoke else 3):
            t0 = time.perf_counter()
            result = run_campaign(spec, store=ResultStore(root))
            t_warm = min(t_warm, time.perf_counter() - t0)
            warm = result
        assert warm.store_stats["executed_units"] == 0, \
            "warm rerun executed units — store keys are unstable"
        assert warm.store_stats["reused_units"] == n
        print(f"  warm rerun (all units cached):   {t_warm:.3f}s "
              f"({n / t_warm:.1f} units/s, {t_cold / t_warm:.1f}x)")

        # Byte-identity gate: merged warm result == cold result, exactly.
        assert warm.metrics == cold.metrics, "metric columns diverged"
        assert warm.data.tobytes() == cold.data.tobytes(), \
            "warm CampaignResult is not byte-identical to cold"
        assert warm.to_json() == cold.to_json(), "JSON exports diverged"
        print("  byte-identity: warm merged result == cold result")

        store_bytes = ResultStore(root).stat()["bytes"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "n_units": n,
        "n_measurements": len(spec.measurements),
        "cold_s": t_cold,
        "warm_s": t_warm,
        "cold_units_per_s": n / t_cold,
        "warm_units_per_s": n / t_warm,
        "warm_speedup_vs_cold": t_cold / t_warm,
        "store_bytes": store_bytes,
        "byte_identical": True,
    }


def _merge_out(out: pathlib.Path, results: dict, smoke: bool) -> None:
    """Merge into the trajectory file without clobbering other benches."""
    payload: dict = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload["store"] = {
        "smoke": smoke,
        **provenance_block(),
        **results,
    }
    payload.setdefault("store_trajectory", []).append({
        "cold_units_per_s": results["cold_units_per_s"],
        "warm_units_per_s": results["warm_units_per_s"],
        "warm_speedup_vs_cold": results["warm_speedup_vs_cold"],
        "smoke": smoke,
    })
    out.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny campaign for CI; correctness only, "
                             "no speedup floor")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help=f"output JSON (default: {DEFAULT_OUT} in full "
                             "mode, bench_store_smoke.json in smoke mode)")
    args = parser.parse_args(argv)

    results = run_bench(args.smoke)

    out = args.out or (pathlib.Path("bench_store_smoke.json") if args.smoke
                       else DEFAULT_OUT)
    _merge_out(out, results, args.smoke)
    print(f"[bench_store] wrote {out}")

    if args.smoke:
        return 0
    failed = False
    if results["n_units"] < 60:
        print(f"FAIL: full-mode campaign must have >= 60 units, "
              f"got {results['n_units']}")
        failed = True
    if results["warm_speedup_vs_cold"] < 10.0:
        print("FAIL: warm rerun below the 10x floor over cold "
              f"({results['warm_speedup_vs_cold']:.2f}x)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
