"""The three workloads: ``campaign_cli``, ``serve_mixed``,
``optimize_de``.

Each workload owns one seeded input stream and exposes the same life
cycle: :meth:`setup` (imports, server start, a warm-up operation on
inputs the stream never uses), :meth:`run` (the timed window: epochs
of operations with a host probe between them, see
:mod:`perfbench.hostspeed`), :meth:`replay` (issue exactly the
operations of an earlier phase again, for the traced run) and
:meth:`close`.  A phase records every operation
with its latency, its class (cold: first time this input is seen;
warm: a repeat), the work it carried and its output bytes, which
:mod:`perfbench.verify` checks after the window closes.

Workloads use the program's public doors only: ``repro.cli.main``,
``serve_background`` plus HTTP through ``ServeClient`` (completion is
observed with ``Job.wait`` on ``service.queue``, never by polling), and
``repro.optimize``'s evaluator and search.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from perfbench import hostspeed, streams

#: Mismatch / optimizer seeds at or above this value are reserved for
#: warm-up operations; streams draw below it.
WARM_SEED = 2 ** 31
#: Target length of one epoch of work between two host probes [s].
EPOCH_S = 1.0


@dataclass
class Op:
    """One top-level operation of a phase."""

    index: int                 # position in the workload's stream
    kind: str
    warm: bool
    latency_s: float
    units: int                 # campaign units the operation delivered
    evals: int                 # evaluations it carried (see README)
    output: bytes | None = None
    error: str | None = None
    job: dict | None = None    # serve: job timestamps and class
    #: Latency samples [s]: the operation itself, or (optimize_de) each
    #: candidate evaluation.
    samples: list = field(default_factory=list)
    epoch: int = -1


@dataclass
class Epoch:
    wall_s: float
    cpu_s: float
    probe_s: float             # mean host probe before and after

    @property
    def factor(self) -> float:
        return hostspeed.factor(self.probe_s)


@dataclass
class Phase:
    ops: list[Op]
    epochs: list[Epoch]
    t0: float                  # perf_counter at the start of the window
    wall_s: float              # the whole window, probes included
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)

    def reference(self, attr: str) -> float:
        """Epoch wall or CPU time summed in reference seconds."""
        return sum(getattr(e, attr) * e.factor for e in self.epochs)

    def latencies(self, warm: bool) -> list[float]:
        """Reference-second latency samples of one class."""
        return [s * self.epochs[op.epoch].factor for op in self.ops
                if op.error is None and op.warm == warm for s in op.samples]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def body_units(body: dict) -> int:
    """Unit count of a campaign body (every stream body names its axes)."""
    n = 1
    for axis in ("corners", "temps_c", "supplies", "seeds", "gain_codes"):
        n *= len(body.get(axis, [None]))
    return n


def _epochs(run_epoch, seconds: float | None) -> tuple[list[Epoch], float, float]:
    """Alternate host probes with epochs of work.

    ``run_epoch(deadline, e)`` issues operations until ``deadline`` and
    returns False once the work runs out.  Stops after ``seconds`` of
    epoch time (``None``: when the work runs out).  Returns the epochs,
    the window start and the window length.
    """
    epochs: list[Epoch] = []
    t0 = time.perf_counter()
    active = 0.0
    before = hostspeed.probe()
    more = True
    while more and (seconds is None or active < seconds):
        e0, c0 = time.perf_counter(), time.process_time()
        more = run_epoch(e0 + EPOCH_S, len(epochs))
        wall, cpu = time.perf_counter() - e0, time.process_time() - c0
        after = hostspeed.probe()
        epochs.append(Epoch(wall, cpu, (before + after) / 2))
        active += wall
        before = after
    return epochs, t0, time.perf_counter() - t0


def _serial_phase(issue, indices, seconds: float | None, around=None) -> Phase:
    """Issue ``issue(i)`` over ``indices`` from one thread; ``around(issue,
    i)``, if given, makes each call (the traced run opens a span there)."""
    cursor = iter(indices)
    ops: list[Op] = []

    def run_epoch(deadline: float, e: int) -> bool:
        while time.perf_counter() < deadline:
            i = next(cursor, None)
            if i is None:
                return False
            op = issue(i) if around is None else around(issue, i)
            op.epoch = e
            ops.append(op)
        return True

    epochs, t0, wall = _epochs(run_epoch, seconds)
    return Phase(ops, epochs, t0, wall, peak_rss_mb())


class _SerialWorkload:
    """Life cycle of a one-thread workload; ``_issue(i)`` runs stream
    entry ``i`` and returns its :class:`Op`."""

    def run(self, seconds: float) -> Phase:
        return _serial_phase(self._issue, range(len(self.stream)), seconds)

    def prepare_replay(self) -> None:
        pass

    def replay(self, phase: Phase, around=None) -> Phase:
        return _serial_phase(self._issue, [op.index for op in phase.ops],
                             None, around)

    def close(self) -> None:
        pass


class CampaignCli(_SerialWorkload):
    """``repro campaign --spec FILE --json OUT`` invocations, in-process."""

    name = "campaign_cli"

    def __init__(self, seed: int, root: pathlib.Path, workdir: pathlib.Path):
        self.stream = streams.cli_stream(seed)
        self.workdir = workdir

    def _cli(self, argv: list[str]) -> int:
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def setup(self) -> None:
        warm = [
            {"builder": "micamp", "corners": list(streams.CORNERS),
             "temps_c": streams.TEMPS_C, "seeds": [WARM_SEED],
             "gain_codes": list(range(6)),
             "measurements": streams.TABLE1_MEASURE + ["noise_voice"]},
            {"builder": "powerbuffer", "corners": list(streams.CORNERS),
             "temps_c": streams.TEMPS_C, "seeds": [WARM_SEED],
             "measurements": streams.TABLE2_MEASURE},
        ]
        for k, spec in enumerate(warm):
            rc = self.invoke(-1 - k, spec).error
            if rc is not None:
                raise RuntimeError(f"warm-up campaign failed: {rc}")

    def invoke(self, index: int, spec: dict, kind: str = "warmup",
               warm: bool = False) -> Op:
        spec_path = self.workdir / f"spec-{index}.json"
        out_path = self.workdir / f"out-{index}.json"
        spec_path.write_text(json.dumps(spec))
        t0 = time.perf_counter()
        try:
            rc = self._cli(["campaign", "--spec", str(spec_path),
                            "--json", str(out_path)])
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:          # an operation failure, counted
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        output = out_path.read_bytes() if error is None else None
        spec_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
        units = body_units(spec)
        return Op(index, kind, warm, latency, units,
                  units * len(spec["measurements"]), output, error,
                  samples=[latency])

    def _issue(self, i: int) -> Op:
        entry = self.stream[i]
        return self.invoke(i, entry["spec"], entry["kind"],
                           warm=entry["kind"] == "rerun")

    def payload(self, op: Op) -> dict:
        return self.stream[op.index]["spec"]


class ServeMixed:
    """A closed loop of 2 clients against an in-process server."""

    name = "serve_mixed"
    clients = 2

    def __init__(self, seed: int, root: pathlib.Path, workdir: pathlib.Path):
        deck_dir = root / "tests" / "ingest" / "decks"
        self.decks = {d: ((deck_dir / f"{d}.sp").read_text(),
                          (deck_dir / f"{d}.binding.json").read_text())
                      for d in streams.DECKS}
        self.stream = streams.serve_stream(seed, self.decks)
        self.workdir = workdir
        self.server = None

    # -- server life cycle --------------------------------------------
    def _start(self) -> None:
        from repro.serve.api import serve_background
        from repro.serve.client import ServeClient
        from repro.serve.service import CharacterizationService
        from repro.store import ResultStore

        self._stop()
        self.store_dir = pathlib.Path(tempfile.mkdtemp(prefix="store-",
                                                       dir=self.workdir))
        self.service = CharacterizationService(
            store=ResultStore(self.store_dir))
        self.server, self.thread = serve_background(self.service)
        host, port = self.server.server_address[:2]
        self.client = ServeClient(f"http://{host}:{port}")
        warm = [{"builder": "micamp", "corners": list(streams.CORNERS),
                 "temps_c": streams.TEMPS_C, "seeds": [WARM_SEED],
                 "gain_codes": [0, 5],
                 "measurements": streams.TABLE1_MEASURE}]
        warm += [streams.netlist_body(d, self.decks, streams.CORNERS, [27.5])
                 for d in streams.DECKS]
        for body in warm + warm[:1]:      # the repeat takes the warm path
            op = self.request(-1, body, "warmup")
            if op.error is not None:
                raise RuntimeError(f"warm-up request failed: {op.error}")

    def _stop(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10.0)
        self.service.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.server = None

    def setup(self) -> None:
        self._start()

    def close(self) -> None:
        self._stop()

    # -- one request ----------------------------------------------------
    def request(self, index: int, body: dict, kind: str) -> Op:
        units = body_units(body)
        evals = units * len(body["measurements"])
        t0 = time.perf_counter()
        try:
            view = self.client.submit("campaign", body)
            job = self.service.queue.get(view["id"])
            if not job.wait(120.0):
                raise TimeoutError(f"job {job.id} did not finish in 120 s")
            if job.state != "done":
                raise RuntimeError(f"job {job.id} {job.state}: {job.error}")
            output = self.client.result_bytes(job.id)
        except Exception as exc:          # an operation failure, counted
            return Op(index, kind, False, time.perf_counter() - t0, units,
                      evals, error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        return Op(index, kind, job.warm, latency, units, evals, output,
                  samples=[latency],
                  job={"id": job.id, "created_at": job.created_at,
                       "started_at": job.started_at,
                       "finished_at": job.finished_at})

    def _closed_loop(self, indices: list[int], seconds: float | None,
                     around=None) -> Phase:
        """Each epoch, ``clients`` threads take the next index until the
        epoch deadline (or the list) runs out, and finish the request
        in hand; ``around(fn, i)`` wraps each request."""
        lock = threading.Lock()
        cursor = iter(indices)
        ops: list[Op] = []
        m0 = self.service.metrics.snapshot()

        def run_epoch(deadline: float, e: int) -> bool:
            exhausted = []

            def client() -> None:
                while time.perf_counter() < deadline:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        exhausted.append(True)
                        return
                    op = (self._issue(i) if around is None
                          else around(self._issue, i))
                    op.epoch = e
                    with lock:
                        ops.append(op)

            threads = [threading.Thread(target=client,
                                        name=f"bench-client-{k}")
                       for k in range(self.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return not exhausted

        epochs, t0, wall = _epochs(run_epoch, seconds)
        m1 = self.service.metrics.snapshot()
        ops.sort(key=lambda op: op.index)
        return Phase(ops, epochs, t0, wall, peak_rss_mb(),
                     extra={k: m1.get(k, 0) - m0.get(k, 0)
                            for k in ("units_reused", "units_executed")})

    def _issue(self, i: int) -> Op:
        entry = self.stream[i]
        return self.request(i, entry["body"], entry["kind"])

    def run(self, seconds: float) -> Phase:
        return self._closed_loop(list(range(len(self.stream))), seconds)

    def prepare_replay(self) -> None:
        self._start()                     # fresh store and server

    def replay(self, phase: Phase, around=None) -> Phase:
        return self._closed_loop([op.index for op in phase.ops], None, around)

    def payload(self, op: Op) -> dict:
        return self.stream[op.index]["body"]


class OptimizeDe(_SerialWorkload):
    """``repro optimize`` searches (differential evolution), in-process.

    Each search wires ``CandidateEvaluator`` and ``optimize`` exactly as
    ``optimize_mic_amp`` (the CLI's call) does, keeping the evaluator in
    hand, and timestamps every evaluation through the progress callback.
    About half the candidates of a search fail in microseconds (an
    infeasible sizing raises before any solve) and a few hit the memo,
    so latency is sampled over the evaluations that simulated a design
    to completion; a p50 over the mix would sit between the two modes.
    For the same reason only typical-mode searches give latency samples:
    a robust evaluation simulates one design per PVT point and takes
    about three times as long, so the window's share of robust samples
    would move every percentile.
    """

    name = "optimize_de"

    def __init__(self, seed: int, root: pathlib.Path, workdir: pathlib.Path):
        self.stream = streams.optimize_stream(seed)
        self.workdir = workdir

    def setup(self) -> None:
        for robust in (None, {"corners": list(streams.CORNERS),
                              "temps_c": [-20.0, 85.0]}):
            op = self.invoke(-1, {"kind": "warmup", "budget": 12,
                                  "seed": WARM_SEED, "mode": "feasibility",
                                  "robust": robust})
            if op.error is not None:
                raise RuntimeError(f"warm-up search failed: {op.error}")

    def invoke(self, index: int, entry: dict) -> Op:
        from repro.optimize import (CandidateEvaluator, RobustSettings,
                                    mic_amp_design_space, mic_amp_objective,
                                    optimizers)

        robust = None
        if entry["robust"] is not None:
            robust = RobustSettings(corners=tuple(entry["robust"]["corners"]),
                                    temps_c=tuple(entry["robust"]["temps_c"]))
        space = mic_amp_design_space()
        evaluator = CandidateEvaluator(
            space, mic_amp_objective(mode=entry["mode"]), robust=robust)
        samples: list[float] = []
        t0 = time.perf_counter()
        seen = {"t": t0, "hits": 0, "cached": 0}

        def progress(done: int, budget: int) -> None:
            now = time.perf_counter()
            fresh = len(evaluator.cache) > seen["cached"]
            if fresh and evaluator.cache_hits == seen["hits"] \
                    and next(reversed(evaluator.cache.values())).error is None:
                samples.append(now - seen["t"])
            seen.update(t=now, hits=evaluator.cache_hits,
                        cached=len(evaluator.cache))

        try:
            result = optimizers.optimize(
                space, evaluator, budget=entry["budget"], seed=entry["seed"],
                seed_points=(space.default(),), progress=progress)
        except Exception as exc:          # an operation failure, counted
            return Op(index, entry["kind"], False, time.perf_counter() - t0,
                      0, 0, error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        grid = robust.n_units if robust is not None else 1
        units = result.evaluator_stats["simulated"] * grid
        output = (result.pareto.to_json() + "\n").encode("utf-8")
        return Op(index, entry["kind"], entry["kind"] == "rerun", latency,
                  units, result.n_evaluations, output,
                  samples=samples if robust is None else [])

    def _issue(self, i: int) -> Op:
        return self.invoke(i, self.stream[i])

    def payload(self, op: Op) -> dict:
        return self.stream[op.index]


WORKLOADS = {w.name: w for w in (CampaignCli, ServeMixed, OptimizeDe)}

