"""Correctness checks, run after the timed window closes.

Every check compares against a reference computed in the same process,
never against pinned digests: exported bytes depend on the numerics
fingerprint (the BLAS thread count among it), so only a same-process
reference is a fair oracle.

Each check returns ``{op position: message}`` for the operations that
failed; the benchmark counts them into ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

#: Units per run re-executed through the per-unit reference path.
SAMPLE_UNITS = 8


def _same(a, b) -> bool:
    a, b = float(a), float(b)
    return a == b or (math.isnan(a) and math.isnan(b))


def check_campaign_docs(workload, phase, rng: random.Random) -> dict[int, str]:
    """Byte-compare every export / served document with
    ``run_campaign(spec).to_json()``, then check a seeded sample of
    units bit for bit against :func:`repro.campaign.runner.run_chunk`."""
    from repro.campaign import run_campaign
    from repro.campaign.runner import run_chunk
    from repro.serve.validate import campaign_spec_from_dict

    failures: dict[int, str] = {}
    refs: dict[str, tuple] = {}
    users: dict[str, list[int]] = {}
    for pos, op in enumerate(phase.ops):
        if op.error is not None:
            failures[pos] = op.error
            continue
        key = json.dumps(workload.payload(op), sort_keys=True)
        if key not in refs:
            spec = campaign_spec_from_dict(workload.payload(op))
            result = run_campaign(spec)
            refs[key] = (spec, result, (result.to_json() + "\n").encode())
        users.setdefault(key, []).append(pos)
        if op.output != refs[key][2]:
            failures[pos] = "document differs from run_campaign(spec).to_json()"

    for key in rng.sample(sorted(refs), min(SAMPLE_UNITS, len(refs))):
        spec, result, _ = refs[key]
        units = spec.expand()
        k = rng.randrange(len(units))
        record = run_chunk(spec, [units[k]])[0]
        bad = [m for m, v in record.items() if not _same(v, result.data[m][k])]
        if bad:
            for pos in users[key]:
                failures[pos] = (f"unit {k} differs from run_chunk on "
                                 f"{', '.join(sorted(bad))}")
    return failures


def _optimize_argv(entry: dict, pareto_path: str) -> list[str]:
    argv = ["optimize", "--budget", str(entry["budget"]),
            "--seed", str(entry["seed"]), "--mode", entry["mode"],
            "--no-progress", "--pareto-json", pareto_path]
    if entry["robust"] is not None:
        argv += ["--robust", "--corners", ",".join(entry["robust"]["corners"]),
                 "--temps=" + ",".join(str(t) for t in entry["robust"]["temps_c"])]
    return argv


def check_optimize(workload, phase, rng: random.Random) -> dict[int, str]:
    """Reruns must reproduce their first run's Pareto JSON, and one
    seeded search is re-run through ``repro optimize --pareto-json``."""
    from repro.cli import main

    failures: dict[int, str] = {}
    first: dict[str, bytes] = {}
    done = []
    for pos, op in enumerate(phase.ops):
        if op.error is not None:
            failures[pos] = op.error
            continue
        entry = workload.payload(op)
        key = json.dumps({k: entry[k] for k in ("budget", "seed", "mode",
                                                "robust")}, sort_keys=True)
        if first.setdefault(key, op.output) != op.output:
            failures[pos] = "rerun Pareto JSON differs from the first run"
        done.append(pos)
    if not done:
        return failures
    pos = rng.choice(done)
    path = workload.workdir / "pareto-check.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(_optimize_argv(workload.payload(phase.ops[pos]), str(path)))
    # Exit 1 means "search finished, best design misses the spec".
    if rc not in (0, 1) or not path.exists() \
            or path.read_bytes() != phase.ops[pos].output:
        failures[pos] = f"`repro optimize` re-run differs (exit {rc})"
    path.unlink(missing_ok=True)
    return failures


def check(workload, phase, seed: int) -> dict[int, str]:
    rng = random.Random(f"verify-{seed}")
    if workload.name == "optimize_de":
        return check_optimize(workload, phase, rng)
    return check_campaign_docs(workload, phase, rng)


def check_replay(untraced, traced) -> dict[int, str]:
    """The traced replay must produce byte-identical outputs."""
    failures = {}
    for pos, (a, b) in enumerate(zip(untraced.ops, traced.ops)):
        if a.index != b.index or a.output != b.output:
            failures[pos] = "traced output differs from untraced output"
    if len(untraced.ops) != len(traced.ops):
        failures[len(traced.ops)] = "traced replay ran a different op count"
    return failures
