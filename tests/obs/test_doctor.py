"""``repro doctor``: per-check verdicts and the pinned exit codes.

The contract scripts and CI branch on: exit 0 healthy, 1 any warn
(error events in the log, a store mixing numerics fingerprints, BLAS
off one thread), 2 any fail (store corruption, a sanity solve that does
not converge).
"""

import pytest

from repro.obs import Recorder, deactivate, event, span
from repro.obs.doctor import (
    check_engine,
    check_events,
    check_numerics,
    check_store,
    format_report,
    run_doctor,
)
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    deactivate()


def _tear(store, key):
    """Truncate ``key``'s payload in place, as a torn write would."""
    with store.conn as conn:
        conn.execute("UPDATE entries SET payload = '{torn' WHERE key = ?",
                     (key,))


def _error_events(tmp_path):
    """A JSONL export holding one error-severity event: a *warn*."""
    path = tmp_path / "events.jsonl"
    rec = Recorder(export_path=path)
    with rec.activate():
        event("serve.worker_died", "error", worker="w0")
    rec.close()
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

    def test_numerics_passes_when_pinned(self):
        check = check_numerics()
        assert check["status"] == "pass"
        assert "=1" in check["detail"]

    @pytest.mark.parametrize("pinned, threads", [(True, 2), (False, 1)])
    def test_numerics_warns_off_one_thread(self, monkeypatch, pinned,
                                           threads):
        import repro.numerics

        fp = {"numpy": "n", "scipy": "s", "pinned": pinned,
              "blas": [{"library": "libopenblas.so", "config": None,
                        "core": None, "threads": threads}],
              "blas_threads": [threads]}
        monkeypatch.setattr(repro.numerics, "fingerprint", lambda: fp)
        check = check_numerics()
        assert check["status"] == "warn"
        assert f"libopenblas.so={threads}" in check["detail"]
        _, code = run_doctor()
        assert code == 1

    def test_store_passes_when_intact(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
        check = check_store(tmp_path / "s")
        assert check["status"] == "pass"
        assert "1/1" in check["detail"]

    def test_store_fails_on_corruption(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            _tear(store, "k1")
        check = check_store(tmp_path / "s")
        assert check["status"] == "fail"
        assert "quarantined" in check["detail"]

    def test_store_warns_on_mixed_numerics(self, tmp_path, monkeypatch):
        from repro import numerics

        real = numerics.fingerprint()
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            monkeypatch.setattr(numerics, "fingerprint",
                                lambda: {**real, "scipy": "0.0.0"})
            numerics.fingerprint_stamp.cache_clear()
            try:
                store.put("k2", {"v": 2})
            finally:
                monkeypatch.undo()
                numerics.fingerprint_stamp.cache_clear()
        check = check_store(tmp_path / "s")
        assert check["status"] == "warn"
        assert "2 numerics fingerprints" in check["detail"]
        assert check["detail"].endswith("differing in: scipy")
        _, code = run_doctor(store=tmp_path / "s")
        assert code == 1

    def test_store_skips_when_absent(self, tmp_path):
        assert check_store(tmp_path / "nope")["status"] == "pass"

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
        checks, code = run_doctor(store=tmp_path / "s")
        assert code == 0
        assert all(c["status"] == "pass" for c in checks)

    def test_error_events_exit_one(self, tmp_path):
        _, code = run_doctor(events=_error_events(tmp_path))
        assert code == 1

    def test_corrupted_store_exits_two(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            _tear(store, "k1")
        _, code = run_doctor(store=tmp_path / "s")
        assert code == 2

    def test_fail_beats_warn(self, tmp_path, monkeypatch):
        from repro.spice import dc

        monkeypatch.setattr(
            dc, "dc_operating_point",
            lambda circuit, **kw: (_ for _ in ()).throw(
                dc.ConvergenceError("stuck")))
        _, code = run_doctor(events=_error_events(tmp_path))
        assert code == 2

    def test_main_exit_matches_run_doctor(self, tmp_path, capsys):
        from repro.cli import main

        events = _error_events(tmp_path)
        assert main(["doctor", "--events", str(events)]) == 1
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
        code = main(["doctor", "--store", str(tmp_path / "s")])
        assert code == 0
        assert "verdict: healthy" in capsys.readouterr().out

    def test_repro_doctor_corrupt_store(self, tmp_path, capsys):
        from repro.cli import main

        with ResultStore(tmp_path / "s") as store:
            store.put("k1", {"v": 1})
            _tear(store, "k1")
        code = main(["doctor", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "verdict: unhealthy" in capsys.readouterr().out
