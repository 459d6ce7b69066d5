"""``repro doctor``: per-check verdicts and the pinned exit codes.

The contract scripts and CI branch on: exit 0 healthy, 1 any warn
(bench drift flagged, error events in the log), 2 any fail (store
corruption, a sanity solve that does not converge).
"""

import json

import pytest

from repro.obs import Recorder, deactivate, doctor, event, span
from repro.obs.doctor import (
    check_bench,
    check_engine,
    check_events,
    check_store,
    format_report,
    run_doctor,
)
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()


def _drifting_bench(tmp_path):
    points = [{"units_per_s": v, "smoke": False}
              for v in (100.0, 101.0, 99.0, 100.0, 55.0)]
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"campaign_trajectory": points}))
    return path


def _stable_bench(tmp_path):
    points = [{"units_per_s": v, "smoke": False}
              for v in (100.0, 101.0, 99.0, 100.0, 100.3)]
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"campaign_trajectory": points}))
    return path


class TestChecks:
    def test_engine_passes_on_healthy_tree(self):
        check = check_engine()
        assert check["status"] == "pass"
        assert "converged" in check["detail"]

    def test_engine_fails_on_nonconvergence(self, monkeypatch):
        from repro.spice import dc

        def no_converge(circuit, **kw):
            raise dc.ConvergenceError("did not converge in 200 iterations")

        monkeypatch.setattr(dc, "dc_operating_point", no_converge)
        check = check_engine()
        assert check["status"] == "fail"
        assert "ConvergenceError" in check["detail"]

    def test_store_passes_when_intact(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
        check = check_store(tmp_path / "s")
        assert check["status"] == "pass"
        assert "1/1" in check["detail"]

    def test_store_fails_on_corruption(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            store._object_path("k1").write_text("{torn")
        check = check_store(tmp_path / "s")
        assert check["status"] == "fail"
        assert "quarantined" in check["detail"]

    def test_store_skips_when_absent(self, tmp_path):
        assert check_store(tmp_path / "nope")["status"] == "pass"

    def test_bench_warns_on_drift(self, tmp_path):
        check = check_bench(_drifting_bench(tmp_path))
        assert check["status"] == "warn"
        assert "drifted" in check["detail"]

    def test_bench_passes_when_stable(self, tmp_path):
        assert check_bench(_stable_bench(tmp_path))["status"] == "pass"

    def test_events_warn_on_errors_in_active_log(self):
        rec = Recorder()
        with rec.activate():
            event("store.quarantine", "error", key="k")
            check = check_events()
        assert check["status"] == "warn"
        assert "store.quarantine" in check["detail"]

    def test_events_triage_from_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        rec = Recorder(export_path=path)
        with rec.activate():
            with span("serve.job"):     # spans in the export are skipped
                event("serve.worker_died", "error", worker="w0")
        rec.close()
        check = check_events(path)
        assert check["status"] == "warn"
        assert "serve.worker_died" in check["detail"]

    def test_events_pass_when_disarmed(self):
        assert check_events()["status"] == "pass"


class TestExitCodes:
    def test_healthy_tree_exits_zero(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
        checks, code = run_doctor(store=tmp_path / "s",
                                  bench=_stable_bench(tmp_path))
        assert code == 0
        assert all(c["status"] == "pass" for c in checks)

    def test_bench_drift_exits_one(self, tmp_path):
        _, code = run_doctor(bench=_drifting_bench(tmp_path))
        assert code == 1

    def test_corrupted_store_exits_two(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            store._object_path("k1").write_text("{torn")
        _, code = run_doctor(store=tmp_path / "s")
        assert code == 2

    def test_fail_beats_warn(self, tmp_path, monkeypatch):
        from repro.spice import dc

        monkeypatch.setattr(
            dc, "dc_operating_point",
            lambda circuit, **kw: (_ for _ in ()).throw(
                dc.ConvergenceError("stuck")))
        _, code = run_doctor(bench=_drifting_bench(tmp_path))
        assert code == 2

    def test_main_exit_matches_run_doctor(self, tmp_path, capsys):
        assert doctor.main(["--bench", str(_drifting_bench(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert "repro doctor" in out
        assert "[WARN]" in out
        assert "exit 1" in out

    def test_report_has_verdict_line(self):
        checks, code = run_doctor()
        lines = format_report(checks, code)
        assert lines[0] == "repro doctor"
        assert lines[-1].startswith("verdict:")


class TestCli:
    def test_repro_doctor_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
        code = main(["doctor", "--store", str(tmp_path / "s"),
                     "--bench", str(_stable_bench(tmp_path))])
        assert code == 0
        assert "verdict: healthy" in capsys.readouterr().out

    def test_repro_doctor_corrupt_store(self, tmp_path, capsys):
        from repro.cli import main

        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            store._object_path("k1").write_text("{torn")
        code = main(["doctor", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "verdict: unhealthy" in capsys.readouterr().out
