#!/usr/bin/env python
"""Throughput benchmark for the campaign engine (units/s).

Runs a Table-1-style qualification campaign of the microphone amplifier
— 5 corners x 3 temperatures x 4 mismatch seeds = 60 work units, five
metrics each (offset, IQ, gain, PSRR, CMRR) — three ways and records
units/second for each:

* ``naive``     — the pre-campaign idiom this PR retires: a hand-rolled
  loop that rebuilds the circuit and re-solves the DC operating point
  *per measurement family* (offset/IQ, gain, PSRR, CMRR each pay their
  own build + Newton solve + linearisation), exactly like the old
  ``examples/process_variation_study.py`` / ``characterize`` loops.
* ``serial``    — :func:`repro.campaign.runner.run_chunk`, the per-unit
  oracle: one operating point and one shared ``SmallSignalContext``
  factorization per unit, circuits cached across the temperature axis.
* ``batched``   — :func:`repro.campaign.run_campaign`, the one execution
  path: the 60 structure-sharing units run as one tensor group.

The same-run cross-check asserts the per-unit engine reproduces the
naive loop's numbers to ``rtol=1e-12`` — and ``run_campaign`` the
oracle's *bytes* — before any timing is trusted.

Timing basis: every leg is timed in both wall-clock and process-CPU
seconds, and the speedup floors gate on the CPU ratios — on shared
hosts with hypervisor steal, short wall measurements are off by integer
factors run-to-run while CPU time only accrues when the code actually
executes.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--smoke] [--out PATH]

Full mode merges a ``campaign`` entry (and appends to
``campaign_trajectory``) into ``BENCH_perf.json`` without disturbing the
other benchmarks' keys, and enforces the speedup floors via exit code;
``--smoke`` shrinks the campaign for CI and asserts nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np

from provenance import provenance_block

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db", "cmrr_1khz_db")


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


def _naive_records(spec) -> list[dict]:
    """The retired idiom: one rebuild + DC solve per measurement family."""
    from repro.analysis.psrr import measure_cmrr, measure_psrr
    from repro.circuits.micamp import build_mic_amp
    from repro.process import MismatchSampler, apply_corner
    from repro.spice.dc import dc_operating_point

    def build(tech, unit):
        sampler = (MismatchSampler.nominal(tech) if unit.seed is None
                   else MismatchSampler(tech, np.random.default_rng(unit.seed)))
        code = 5 if unit.gain_code is None else unit.gain_code
        return build_mic_amp(tech, gain_code=code, mismatch=sampler)

    records = []
    for unit in spec.expand():
        tech = apply_corner(spec.tech, unit.corner)
        rec: dict[str, float] = {}
        # offset + IQ study
        d = build(tech, unit)
        op = dc_operating_point(d.circuit, temp_c=unit.temp_c)
        rec["offset_v"] = op.vdiff(d.outp, d.outn)
        rec["iq_ma"] = abs(op.i("vdd_src")) * 1e3
        # gain study
        d = build(tech, unit)
        op = dc_operating_point(d.circuit, temp_c=unit.temp_c)
        h = abs(op.small_signal().transfer(np.array([1e3]), d.outp, d.outn)[0])
        rec["gain_1khz_db"] = 20.0 * np.log10(h)
        code = 5 if unit.gain_code is None else unit.gain_code
        rec["gain_error_db"] = rec["gain_1khz_db"] - d.gain.gain_db(code)
        if "psrr_1khz_db" in spec.measurements:
            d = build(tech, unit)
            rec["psrr_1khz_db"] = measure_psrr(
                d.circuit, "vdd_src", ("vin_p", "vin_n"), d.outp, d.outn,
                temp_c=unit.temp_c,
            ).ratio_db
        if "cmrr_1khz_db" in spec.measurements:
            d = build(tech, unit)
            rec["cmrr_1khz_db"] = measure_cmrr(
                d.circuit, ("vin_p", "vin_n"), d.outp, d.outn, temp_c=unit.temp_c,
            ).ratio_db
        records.append(rec)
    return records


def _best_of(fn, repeats: int):
    """Best wall-clock and best process-CPU time over ``repeats`` runs.

    Wall time is what a user experiences; CPU time is what the code
    costs.  On shared hosts with hypervisor steal the wall numbers can
    be off by integer factors run-to-run, so the speedup *floors* gate
    on CPU time.
    """
    best_wall, best_cpu, result = float("inf"), float("inf"), None
    for _ in range(repeats):
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = fn()
        best_cpu = min(best_cpu, time.process_time() - c0)
        best_wall = min(best_wall, time.perf_counter() - w0)
    return best_wall, best_cpu, result


def run_bench(smoke: bool) -> dict:
    from repro.campaign import run_campaign, run_chunk
    from repro.campaign.result import CampaignResult

    spec = _make_spec(smoke)
    units = spec.expand()
    n = spec.n_units
    repeats = 1 if smoke else 3
    cpus = os.cpu_count() or 1

    print(f"[bench_campaign] {n} units "
          f"({len(spec.corners)} corners x {len(spec.temps_c)} temps x "
          f"{len(spec.seeds)} seeds), {len(spec.measurements)} measurements, "
          f"{cpus} CPU(s)")

    t_naive, cpu_naive, naive = _best_of(lambda: _naive_records(spec), repeats)
    print(f"  naive per-measurement loop: {t_naive:.2f}s wall / {cpu_naive:.2f}s cpu "
          f"({n / cpu_naive:.1f} units/cpu-s)")

    t_serial, cpu_serial, serial_result = _best_of(
        lambda: CampaignResult.from_units(spec, units, run_chunk(spec, units)),
        repeats)
    print(f"  serial (per-unit oracle):   {t_serial:.2f}s wall / {cpu_serial:.2f}s cpu "
          f"({n / cpu_serial:.1f} units/cpu-s)")

    t_batched, cpu_batched, batched_result = _best_of(
        lambda: run_campaign(spec), repeats)
    print(f"  batched (run_campaign):     {t_batched:.2f}s wall / {cpu_batched:.2f}s cpu "
          f"({n / cpu_batched:.1f} units/cpu-s)")

    # Same-run equivalence: the engine must reproduce the naive loop's
    # numbers — and run_campaign the oracle's *bytes* — before any
    # timing is trusted.
    assert batched_result.to_json() == serial_result.to_json(), \
        "run_campaign export differs from the per-unit oracle"
    for metric in serial_result.metrics:
        ref = np.array([r[metric] for r in naive])
        np.testing.assert_allclose(serial_result.metric(metric), ref, rtol=1e-12)

    return {
        "n_units": n,
        "n_measurements": len(spec.measurements),
        "cpu_count": cpus,
        # The speedups are CPU-time ratios: hypervisor steal on shared
        # hosts distorts short wall measurements by integer factors,
        # while process CPU time only accrues when the code actually
        # runs.
        "timing_basis": "process_cpu_time",
        "naive_s": t_naive,
        "serial_s": t_serial,
        "batched_s": t_batched,
        "naive_cpu_s": cpu_naive,
        "serial_cpu_s": cpu_serial,
        "batched_cpu_s": cpu_batched,
        "naive_units_per_s": n / cpu_naive,
        "serial_units_per_s": n / cpu_serial,
        "batched_units_per_s": n / cpu_batched,
        "engine_speedup_vs_naive": cpu_naive / cpu_serial,
        "batched_speedup_vs_naive": cpu_naive / cpu_batched,
        "batched_speedup_vs_serial": cpu_serial / cpu_batched,
    }


def _merge_out(out: pathlib.Path, campaign: dict, smoke: bool) -> None:
    """Merge into the trajectory file without clobbering other benches."""
    payload: dict = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except json.JSONDecodeError:
            payload = {}
    entry = {
        "smoke": smoke,
        **provenance_block(),
        **campaign,
    }
    payload["campaign"] = entry
    payload.setdefault("campaign_trajectory", []).append({
        "serial_units_per_s": campaign["serial_units_per_s"],
        "batched_units_per_s": campaign["batched_units_per_s"],
        "batched_speedup_vs_naive": campaign["batched_speedup_vs_naive"],
        "cpu_count": campaign["cpu_count"],
        "smoke": smoke,
    })
    out.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny campaign for CI; no speedup floors")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help=f"output JSON (default: {DEFAULT_OUT} in full mode, "
                             "bench_campaign_smoke.json in smoke mode)")
    args = parser.parse_args(argv)

    results = run_bench(args.smoke)

    out = args.out or (pathlib.Path("bench_campaign_smoke.json") if args.smoke
                       else DEFAULT_OUT)
    _merge_out(out, results, args.smoke)
    print(f"[bench_campaign] wrote {out}")

    if args.smoke:
        return 0
    failed = False
    if results["engine_speedup_vs_naive"] < 3.0:
        print("FAIL: engine throughput below the 3x floor over the naive loop "
              f"({results['engine_speedup_vs_naive']:.2f}x)")
        failed = True
    if results["batched_speedup_vs_naive"] < 10.0:
        print("FAIL: run_campaign below the 10x floor over the naive loop "
              f"({results['batched_speedup_vs_naive']:.2f}x)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
