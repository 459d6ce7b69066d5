"""Tests of the benchmark itself: streams, classification, output contract."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import threading
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, streams  # noqa: E402
from perfbench.tracing import (BENCH, BENCH_OP, LAYER, Recorder, Span,  # noqa: E402
                               attribute, layer_targets, unexplained)
from perfbench.workloads import ServeMixed, body_units  # noqa: E402

DECK_DIR = ROOT / "tests" / "ingest" / "decks"


def deck_texts() -> dict:
    return {d: ((DECK_DIR / f"{d}.sp").read_text(),
                (DECK_DIR / f"{d}.binding.json").read_text())
            for d in streams.DECKS}


STREAMS = {
    "campaign_cli": lambda seed: streams.cli_stream(seed, n=300),
    "serve_mixed": lambda seed: streams.serve_stream(seed, deck_texts(), n=300),
    "optimize_de": lambda seed: streams.optimize_stream(seed, n=60),
}


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_same_seed_same_stream(workload):
    def encode(stream):
        return json.dumps(stream, sort_keys=True).encode()

    make = STREAMS[workload]
    assert encode(make(5)) == encode(make(5))
    assert encode(make(5)) != encode(make(6))


def test_stream_corners_are_registered():
    from repro.process.corners import CORNERS

    assert set(streams.CORNERS) == set(CORNERS)


def test_repeats_and_grown_requests_point_backwards():
    stream = streams.serve_stream(3, deck_texts(), n=400)
    kinds = {e["kind"] for e in stream}
    assert kinds == {"new", "grown", "repeat", "netlist"}
    for i, e in enumerate(stream):
        if e["kind"] == "repeat":
            assert i - e["of"] >= streams.LAG
            assert e["body"] == stream[e["of"]]["body"]
        elif e["kind"] == "grown":
            shared = set(e["body"]["seeds"]) & set(stream[e["of"]]["body"]["seeds"])
            assert len(shared) == 1
    assert {body_units(e["body"]) for e in stream} == {12}


@pytest.fixture(scope="module")
def serve_phase(tmp_path_factory):
    workload = ServeMixed(2, ROOT, tmp_path_factory.mktemp("serve"))
    workload.setup()
    try:
        phase = workload.run(2.0)
        jobs = {op.index: workload.service.queue.get(op.job["id"])
                for op in phase.ops if op.job is not None}
        yield phase, jobs
    finally:
        workload.close()


def test_cold_and_warm_follow_job_warm(serve_phase):
    phase, jobs = serve_phase
    assert phase.ops and all(op.error is None for op in phase.ops)
    for op in phase.ops:
        assert op.warm == jobs[op.index].warm
        if op.kind == "new":
            assert not op.warm        # fresh mismatch seeds cannot be stored
    assert len(phase.latencies(True)) == sum(op.warm for op in phase.ops) > 0
    assert len(phase.latencies(False)) == sum(not op.warm for op in phase.ops) > 0


def test_warm_latency_is_below_the_first_poll_step(serve_phase):
    """``ServeClient.wait`` first polls after 50 ms; a served warm hit
    measured below that cannot be measuring the poll schedule."""
    phase, _ = serve_phase
    assert run.end_to_end(phase, 1.0)["warm_latency_p50_ms"] < 50.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(STREAMS)


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_command_prints_the_declared_metrics(trace, table):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_cli",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def binding(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_wrappers_are_restored():
    targets = layer_targets()
    before = [(owner, attr, binding(owner, attr)) for _, owner, attr, _ in targets]
    rec = Recorder()
    rec.install(targets)
    assert all(binding(o, a) is not f for o, a, f in before)
    assert rec.uninstall() == []
    assert all(binding(o, a) is f for o, a, f in before)


def test_attribution_splits_concurrent_layers_and_reconciles():
    spans = [
        Span("bench.op", 0.0, 10.0, 1, 0, 1, BENCH),   # client waiting
        Span("a", 2.0, 6.0, 2, 0, 2, LAYER),            # worker thread
        Span("b", 3.0, 4.0, 3, 2, 2, LAYER),            # child of a
        Span("c", 5.0, 7.0, 4, 0, 3, LAYER),            # another thread
    ]
    self_s, unattributed = attribute(spans, -1.0, 11.0)
    assert self_s == pytest.approx({"bench.op": 5.0, "a": 2.5, "b": 1.0,
                                    "c": 1.5})
    assert unattributed == pytest.approx(2.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(12.0)


def test_reconciliation_fails_when_a_layer_is_unwrapped():
    """Time that escapes every layer span counts against the limit."""
    def share(wrap_program: bool) -> float:
        rec = Recorder()
        inner = rec.wrapper("inner", lambda: time.sleep(0.02))

        def program():
            inner()
            time.sleep(0.02)              # the program's own work

        top = rec.wrapper("outer", program) if wrap_program else program
        t0 = time.perf_counter()
        rec.call(BENCH_OP, BENCH, top)
        t1 = time.perf_counter()
        self_s, _ = attribute(rec.spans, t0, t1)
        return unexplained(self_s, t1 - t0, idle_s=0.0)

    assert share(wrap_program=True) < run.RECONCILE_TOLERANCE
    assert share(wrap_program=False) > 0.4


def test_recorder_nests_spans_per_thread():
    rec = Recorder()
    inner = rec.wrapper("inner", lambda: threading.get_ident())
    outer = rec.wrapper("outer", lambda: inner())
    outer()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert rec.counts == {"outer.calls": 1, "inner.calls": 1}
    assert rec._stack() == []
