"""``repro doctor`` — one-shot stack self-checks with a triaged verdict.

Each check probes one layer the way an operator would by hand — solve a
known circuit, read-verify the store, hit ``/healthz``, re-run the
bench drift watchdog, triage the recent event log — and reports
``pass`` / ``warn`` / ``fail`` with a one-line detail.  The process
exit code is the worst status seen: 0 all-pass, 1 any warn, 2 any
fail — pinned by tests, so scripts and CI can branch on it.

Severity semantics: *fail* means the stack cannot be trusted (the
sanity solve did not converge, the store holds corrupt or missing
payloads, the service is unreachable); *warn* means the stack works
but something deserves a look (bench metrics drifted, error-severity
events in the log, a solver fallback on the sanity circuit).  Checks
that have nothing to examine (no store directory, no bench file, no
event log) pass with a "skipped" detail rather than inventing a
problem.

The check functions are module-level and individually importable so
tests can exercise them against fixtures (and monkeypatch the sanity
solve to simulate a sick engine) without going through the CLI.
"""

from __future__ import annotations

import json
import pathlib

PASS, WARN, FAIL = "pass", "warn", "fail"

#: Worst KCL residual the sanity solve may leave before the engine is
#: considered sick (the tier-1 tests pin 1e-8 on the same circuit; the
#: doctor leaves headroom for host jitter).
SANITY_RESID_LIMIT = 1e-6


def _check(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def check_engine() -> dict:
    """DC-solve the Fig. 2 bias generator and inspect its health
    sidecar: non-convergence is a *fail*, a strategy fallback or dense
    latch on this easy circuit is a *warn*."""
    try:
        from repro.circuits.bias import build_bias_circuit
        from repro.process.technology import CMOS12
        from repro.spice.dc import dc_operating_point

        op = dc_operating_point(build_bias_circuit(CMOS12).circuit)
    except Exception as exc:
        return _check("engine", FAIL,
                      f"sanity solve failed: {type(exc).__name__}: {exc}")
    health = op.health()
    resid = health.get("worst_resid")
    if resid is not None and resid > SANITY_RESID_LIMIT:
        return _check("engine", FAIL,
                      f"sanity solve residual {resid:.2e} exceeds "
                      f"{SANITY_RESID_LIMIT:.0e}")
    detail = (f"bias solve converged in {health.get('iterations')} "
              f"iteration(s), strategy={health.get('strategy')}")
    if health.get("strategy") not in (None, "newton"):
        return _check("engine", WARN, detail + " (fallback strategy "
                      "on a circuit newton should handle)")
    if health.get("latch_reason"):
        return _check("engine", WARN,
                      f"{detail}; dense latch: {health['latch_reason']}")
    return _check("engine", PASS, detail)


def check_store(root) -> dict:
    """Read-verify every payload in the store at ``root`` against its
    hash: any quarantined or missing payload is a *fail*."""
    root = pathlib.Path(root)
    if not root.exists():
        return _check("store", PASS, f"skipped: no store at {root}")
    try:
        from repro.store.backend import ResultStore

        with ResultStore(root) as store:
            stats = store.verify()
    except Exception as exc:
        return _check("store", FAIL,
                      f"verify failed: {type(exc).__name__}: {exc}")
    if stats["quarantined"] or stats["missing"]:
        return _check(
            "store", FAIL,
            f"{stats['quarantined']} quarantined, {stats['missing']} "
            f"missing of {stats['checked']} payload(s)")
    return _check("store", PASS,
                  f"{stats['intact']}/{stats['checked']} payload(s) intact")


def check_serve(url: str) -> dict:
    """Hit ``<url>/healthz``: unreachable or non-200 is a *fail*, a
    degraded status (hung workers, detached store) is a *warn*."""
    import urllib.error
    import urllib.request

    target = url.rstrip("/") + "/healthz"
    try:
        with urllib.request.urlopen(target, timeout=10.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return _check("serve", FAIL, f"{target} unreachable: {exc}")
    status = payload.get("status")
    detail = (f"{target}: status={status}, "
              f"workers_alive={payload.get('workers_alive')}, "
              f"queue_depth={payload.get('queue_depth')}")
    if status != "ok":
        return _check("serve", WARN, detail)
    return _check("serve", PASS, detail)


def check_bench(path) -> dict:
    """Run the EWMA drift watchdog over ``BENCH_perf.json``: flagged
    metrics are a *warn* (perf drift deserves a look, not a page)."""
    from repro.obs import drift

    path = pathlib.Path(path)
    if not path.exists():
        return _check("bench", PASS, f"skipped: no bench file at {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return _check("bench", WARN, f"{path} is not valid JSON: {exc}")
    flags = drift.analyze(payload)
    if flags:
        worst = max(flags, key=lambda f: abs(f["z"]))
        return _check(
            "bench", WARN,
            f"{len(flags)} metric(s) drifted; worst "
            f"{worst['trajectory']}.{worst['metric']} z={worst['z']:+.1f}")
    n = sum(1 for k in payload if k.endswith("_trajectory"))
    return _check("bench", PASS, f"no drift across {n} trajectory(ies)")


def check_events(path=None) -> dict:
    """Triage the recent events — the active recorder's, or a JSONL
    export's when ``path`` is given: any error-severity events are a
    *warn* (the error already happened; the doctor's job is to make
    sure somebody reads it)."""
    from repro.obs.recorder import active, load_jsonl

    if path is not None:
        path = pathlib.Path(path)
        if not path.exists():
            return _check("events", PASS,
                          f"skipped: no event log at {path}")
        try:
            events = [r for r in load_jsonl(path)
                      if r.get("kind", "event") == "event"]
        except (OSError, json.JSONDecodeError) as exc:
            return _check("events", WARN, f"unreadable event log: {exc}")
        source = str(path)
    else:
        rec = active()
        if rec is None:
            return _check("events", PASS,
                          "skipped: recorder disarmed (REPRO_OBS=1 arms it)")
        events = rec.events()
        source = "active recorder"
    errors = [e for e in events if e.get("severity") == "error"]
    if errors:
        names = sorted({e["name"] for e in errors})
        return _check("events", WARN,
                      f"{len(errors)} error event(s) in {source}: "
                      + ", ".join(names[:5]))
    return _check("events", PASS,
                  f"{len(events)} event(s) in {source}, none at error "
                  "severity")


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_doctor(store=None, url: str | None = None, bench=None,
               events=None) -> tuple[list[dict], int]:
    """Run every applicable check; return ``(checks, exit_code)`` with
    exit 2 on any fail, 1 on any warn, else 0."""
    checks = [check_engine()]
    if store is not None:
        checks.append(check_store(store))
    if url is not None:
        checks.append(check_serve(url))
    if bench is not None:
        checks.append(check_bench(bench))
    checks.append(check_events(events))
    statuses = {c["status"] for c in checks}
    code = 2 if FAIL in statuses else (1 if WARN in statuses else 0)
    return checks, code


def format_report(checks: list[dict], code: int) -> list[str]:
    lines = ["repro doctor"]
    for c in checks:
        lines.append(f"  [{c['status'].upper():<4}] "
                     f"{c['name']:<7} {c['detail']}")
    verdict = {0: "healthy", 1: "needs attention", 2: "unhealthy"}[code]
    lines.append(f"verdict: {verdict} (exit {code})")
    return lines


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.obs.doctor", description="stack self-checks")
    parser.add_argument("--store", default=None,
                        help="result-store root to read-verify")
    parser.add_argument("--url", default=None,
                        help="running service base URL (checks /healthz)")
    parser.add_argument("--bench", default=None,
                        help="BENCH_perf.json for the drift watchdog")
    parser.add_argument("--events", default=None,
                        help="event-log JSONL export to triage")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    checks, code = run_doctor(store=args.store, url=args.url,
                              bench=args.bench, events=args.events)
    for line in format_report(checks, code):
        print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
