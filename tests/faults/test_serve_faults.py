"""Serve-layer chaos: timeouts, dead/hung workers, store degradation,
journal torture.

Every scenario drives the public :class:`CharacterizationService` /
:class:`JobQueue` APIs and closes the loop on the stack's contracts:
recovered results byte-identical to fault-free runs, no job lost, no
unit executed twice.
"""

import json
import time

import pytest

from repro.campaign import run_campaign
from repro.faults import FaultCrash, FaultError, FaultPlan, FaultRule
from repro.serve import CharacterizationService
from repro.serve import jobs as J
from repro.serve.validate import campaign_spec_from_dict
from repro.store import ResultStore

PAYLOAD = {"builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
           "measurements": ["bias_current_ua"]}


def _drain(svc):
    svc.queue.close()
    svc.stop(timeout=10.0)


class TestJobTimeout:
    def test_overrunning_job_fails_with_timeout_not_a_wedge(self, tmp_path):
        svc = CharacterizationService(workers=1, job_timeout=0.05,
                                      watchdog_interval=0).start()
        try:
            # the injected stall happens before execution; the budget is
            # anchored at dequeue, so the first progress step detects it
            plan = FaultPlan([FaultRule("serve.job", sleep=0.2, times=1)])
            with plan.activate():
                job = svc.submit_campaign(PAYLOAD)
                assert job.wait(timeout=30)
            assert job.state == J.FAILED
            assert "wall-clock budget" in job.error
            assert svc.metrics.get("jobs_timeout") == 1

            # the worker survived and serves the next job normally
            ok = svc.submit_campaign(PAYLOAD)
            assert ok.wait(timeout=30) and ok.state == J.DONE
        finally:
            _drain(svc)

    def test_overrunning_optimize_job_fails_after_one_generation(self):
        """An optimize job checks its deadline at each evaluation's
        progress step.  A batched generation simulates all of its
        candidates before the first of them reports, so the job stops
        at the first evaluation after the deadline: one generation late
        at most, never wedged."""
        svc = CharacterizationService(workers=1, job_timeout=0.05,
                                      watchdog_interval=0).start()
        try:
            plan = FaultPlan([FaultRule("serve.job", sleep=0.2, times=1)])
            with plan.activate():
                job = svc.submit_optimize({"budget": 6, "seed": 7})
                assert job.wait(timeout=60)
            assert job.state == J.FAILED
            assert "wall-clock budget" in job.error
            assert job.progress == {"evaluations_done": 1, "budget": 6}
            assert svc.metrics.get("jobs_timeout") == 1

            ok = svc.submit_optimize({"budget": 6, "seed": 8})
            assert ok.wait(timeout=60) and ok.state == J.DONE
        finally:
            _drain(svc)

    def test_fast_job_unaffected_by_budget(self):
        svc = CharacterizationService(workers=1, job_timeout=60.0,
                                      watchdog_interval=0).start()
        try:
            job = svc.submit_campaign(PAYLOAD)
            assert job.wait(timeout=30) and job.state == J.DONE
            direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
            assert svc.result_text(job) == direct.to_json() + "\n"
        finally:
            _drain(svc)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            CharacterizationService(job_timeout=0.0)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestDeadWorker:
    """The injected FaultCrash escapes the worker thread by design —
    pytest's unhandled-thread-exception warning is the expected noise of
    a deliberately killed worker."""
    def test_crashed_worker_is_replaced_and_job_requeued(self):
        svc = CharacterizationService(workers=1,
                                      watchdog_interval=0.05).start()
        try:
            plan = FaultPlan([FaultRule("serve.job", raises=FaultCrash,
                                        times=1)])
            with plan.activate():
                job = svc.submit_campaign(PAYLOAD)
                # FaultCrash sails through the except-Exception isolation,
                # kills the worker thread, requeues the job; the watchdog
                # replaces the thread and the replacement completes it.
                assert job.wait(timeout=30)
            assert job.state == J.DONE
            assert job.requeues == 1
            assert svc.metrics.get("workers_died") == 1
            assert svc.metrics.get("jobs_requeued") == 1
            assert svc.metrics.get("workers_replaced") >= 1

            direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
            assert svc.result_text(job) == direct.to_json() + "\n"
            assert svc.health()["status"] == "ok"
        finally:
            _drain(svc)

    def test_job_that_kills_every_worker_eventually_fails(self):
        svc = CharacterizationService(workers=1,
                                      watchdog_interval=0.05).start()
        try:
            # crashes forever: after max_requeues the job must FAIL
            # instead of ping-ponging between replacement workers
            plan = FaultPlan([FaultRule("serve.job", raises=FaultCrash)])
            with plan.activate():
                job = svc.submit_campaign(PAYLOAD)
                assert job.wait(timeout=30)
            assert job.state == J.FAILED
            assert "worker died" in job.error
            assert job.requeues == svc.queue.max_requeues
            assert svc.metrics.get("workers_died") == \
                svc.queue.max_requeues + 1
        finally:
            _drain(svc)


class TestHungWorker:
    def test_hung_worker_retired_and_stop_reports_straggler(self):
        svc = CharacterizationService(workers=1, job_timeout=0.1,
                                      watchdog_interval=0.05).start()
        try:
            # a sleep the cooperative deadline cannot interrupt: the
            # worker is genuinely stuck inside "user" code
            plan = FaultPlan([FaultRule("serve.job", sleep=2.0, times=1)])
            with plan.activate():
                stuck = svc.submit_campaign(PAYLOAD)
                deadline = time.monotonic() + 10
                while (svc.metrics.get("workers_hung") == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
            assert svc.metrics.get("workers_hung") == 1
            assert svc.health()["status"] == "degraded"
            assert svc.health()["hung_workers"] == 1

            # the replacement keeps the pool serving (distinct payload:
            # the stuck job still owns PAYLOAD's coalescing fingerprint)
            ok = svc.submit_campaign(dict(PAYLOAD, temps_c=[25.0]))
            assert ok.wait(timeout=30) and ok.state == J.DONE

            # stop() must return promptly and name the straggler
            t0 = time.monotonic()
            stragglers = svc.stop(timeout=0.3)
            assert time.monotonic() - t0 < 2.0
            assert len(stragglers) == 1
            assert svc.health()["status"] == "degraded"
            assert svc.health()["stragglers"] == stragglers
            assert svc.metrics.get("stop_stragglers") == 1
            # the hung job eventually resolves or stays running; either
            # way the service never blocked on it
            assert stuck.state in (J.QUEUED, J.RUNNING, J.DONE, J.FAILED)
        finally:
            svc.stop(timeout=3.0)


class TestStoreDegradation:
    def _service(self, tmp_path):
        store = ResultStore(tmp_path / "store", index_retries=2,
                            index_backoff_s=0.001)
        return CharacterizationService(store=store, workers=1,
                                       watchdog_interval=0,
                                       store_retry_interval=1000.0).start()

    def test_unavailable_store_degrades_to_engine_only(self, tmp_path):
        svc = self._service(tmp_path)
        try:
            locked = FaultPlan([FaultRule(
                "store.index",
                raises=__import__("sqlite3").OperationalError("locked"))])
            with locked.activate():
                job = svc.submit_campaign(PAYLOAD)
                assert job.wait(timeout=30)
            assert job.state == J.DONE               # job survived
            assert job.result.store_stats is None    # ran engine-only
            assert svc.store_degraded
            assert svc.health()["status"] == "degraded"
            assert svc.health()["store_degraded"] is True
            assert svc.metrics_snapshot()["store_degraded"] is True
            assert svc.metrics.get("store_degraded_events") == 1

            direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
            assert svc.result_text(job) == direct.to_json() + "\n"
        finally:
            _drain(svc)

    def test_store_recovers_via_probe(self, tmp_path):
        svc = self._service(tmp_path)
        try:
            locked = FaultPlan([FaultRule(
                "store.index",
                raises=__import__("sqlite3").OperationalError("locked"))])
            with locked.activate():
                svc.submit_campaign(PAYLOAD).wait(timeout=30)
            assert svc.store_degraded

            svc.store_retry_interval = 0.0           # due for a probe now
            job = svc.submit_campaign(PAYLOAD)
            assert job.wait(timeout=30) and job.state == J.DONE
            assert not svc.store_degraded
            assert svc.metrics.get("store_recovered") == 1
            assert svc.health()["status"] == "ok"
            # the store is live again: this run populated it, so a
            # resubmission is a warm hit that never queues
            warm = svc.submit_campaign(PAYLOAD)
            assert warm.warm and warm.state == J.DONE
        finally:
            _drain(svc)


class TestJournalTorture:
    """Crash at *every* journal write point; restart; count the losses
    (there must be none)."""

    def _drive(self, queue):
        """One full job lifecycle through the queue's public API."""
        job = J.Job(id="torture000j", kind="campaign", payload=dict(PAYLOAD),
                    fingerprint="fp-torture")
        job, _ = queue.submit(job)
        got = queue.next_job()
        assert got is job
        queue.finish(job, J.DONE)

    def test_crash_at_every_write_point_loses_no_job(self, tmp_path):
        # the lifecycle journals 3 times, each with 2 crash stages
        for k in range(6):
            jdir = tmp_path / f"j{k}"
            queue = J.JobQueue(journal_dir=jdir)
            plan = FaultPlan([FaultRule("jobs.journal_write",
                                        raises=FaultError, after=k, times=1)])
            crashed = False
            with plan.activate():
                try:
                    self._drive(queue)
                except FaultError:
                    crashed = True
            assert crashed == (k < 6)
            # the "process" dies here: the in-memory queue is abandoned

            restored = J.JobQueue(journal_dir=jdir)
            assert restored.journal_corrupt == 0     # never a torn file
            if k < 2:
                # crashed before (or mid-replace of) the submit snapshot:
                # the submitter saw the failure, so nothing is lost even
                # though nothing is restored
                assert len(restored) == 0
                continue
            # every later crash point leaves the acknowledged job on
            # disk in its last *completed* snapshot (queued or running);
            # either way the restart re-enqueues it exactly once
            assert len(restored) == 1
            job = restored.get("torture000j")
            assert job is not None
            assert job.state == J.QUEUED
            assert restored.depth() == 1
            assert restored.journal_recovered == 1

    def test_torn_journal_file_is_counted_and_quarantined(self, tmp_path):
        jdir = tmp_path / "j"
        queue = J.JobQueue(journal_dir=jdir)
        job = J.Job(id="okjob000000a", kind="campaign", payload={},
                    fingerprint="fp1", state=J.DONE)
        job.finished_at = job.created_at
        queue.register(job)
        (jdir / "deadbeef0000.json").write_text('{"id": "deadbeef0000", tr')

        restored = J.JobQueue(journal_dir=jdir)
        assert restored.journal_corrupt == 1
        assert restored.journal_recovered == 1       # the intact one
        assert restored.get("okjob000000a") is not None
        assert (jdir / "deadbeef0000.json.corrupt").exists()
        assert not (jdir / "deadbeef0000.json").exists()

    def test_journal_counters_surface_in_service_metrics(self, tmp_path):
        jdir = tmp_path / "j"
        (jdir).mkdir()
        (jdir / "torn00000000.json").write_text("{")
        svc = CharacterizationService(journal_dir=jdir, workers=1,
                                      watchdog_interval=0).start()
        try:
            snap = svc.metrics_snapshot()
            assert snap["journal_corrupt"] == 1
            assert snap["journal_recovered"] == 0
        finally:
            _drain(svc)


class TestRestartRecovery:
    def test_interrupted_job_restarts_with_zero_reexecution(self, tmp_path):
        """Crash after the store write-back but before the final journal
        write: the restarted service must finish the job from the store
        without executing a single unit."""
        store_root = tmp_path / "store"
        jdir = tmp_path / "journal"

        svc1 = CharacterizationService(store=ResultStore(store_root),
                                       journal_dir=jdir, workers=1,
                                       watchdog_interval=0).start()
        job = svc1.submit_campaign(PAYLOAD)
        assert job.wait(timeout=30) and job.state == J.DONE
        text1 = svc1.result_text(job)
        _drain(svc1)

        # simulate the crash window: the store has every unit, but the
        # journal still says the job was mid-flight
        path = jdir / f"{job.id}.json"
        snap = json.loads(path.read_text())
        snap["state"] = J.RUNNING
        path.write_text(json.dumps(snap, sort_keys=True))

        svc2 = CharacterizationService(store=ResultStore(store_root),
                                       journal_dir=jdir, workers=1,
                                       watchdog_interval=0).start()
        try:
            restored = svc2.queue.get(job.id)
            assert restored is not None
            assert restored.wait(timeout=30)
            assert restored.state == J.DONE
            assert svc2.metrics.get("units_executed") == 0    # all warm
            assert svc2.metrics.get("units_reused") == 2
            assert svc2.metrics_snapshot()["journal_recovered"] == 1
            assert svc2.result_text(restored) == text1
        finally:
            _drain(svc2)


class TestServeUnderStoreChaos:
    """A live HTTP service on a fresh store, with sqlite transactions
    and payload reads failing at random under a seeded plan: every
    served document must still equal a fault-free direct run."""

    #: Seeded schedule: 30 % of ``store.index`` and ``store.payload_read``
    #: firings fail.  Seed 8 lands faults in both the cold (index
    #: write-back) and the rerun (warm payload read) windows.
    SEED, P = 8, 0.3
    PAYLOADS = [{"builder": "bias", "corners": ["tt"],
                 "temps_c": [25.0, 85.0],
                 "measurements": ["bias_current_ua"],
                 "seeds": [seed]} for seed in range(3)]

    def test_served_bytes_survive_index_and_read_faults(self, tmp_path):
        import sqlite3

        from repro.serve import ServeClient, serve_background
        from repro.store.keys import campaign_key

        plan = FaultPlan([
            FaultRule("store.index", raises=sqlite3.OperationalError,
                      message="injected: database is locked",
                      probability=self.P),
            FaultRule("store.payload_read", raises=OSError,
                      message="injected: disk I/O error",
                      probability=self.P),
        ], seed=self.SEED)
        svc = CharacterizationService(store=ResultStore(tmp_path / "store"),
                                      workers=2)
        server, _thread = serve_background(svc)
        try:
            host, port = server.server_address[:2]
            client = ServeClient(f"http://{host}:{port}")
            client.wait_until_up()
            with plan.activate():
                for _ in ("cold", "rerun"):
                    for payload in self.PAYLOADS:
                        view = client.run("campaign", payload, timeout=120)
                        assert view["state"] == "done", view
                        client.result_bytes(view["id"])
            assert plan.triggered() > 0, "the fault schedule never fired"

            by_fp = {job["fingerprint"]: job for job in client.jobs()}
            for payload in self.PAYLOADS:
                spec = campaign_spec_from_dict(payload)
                served = client.result_bytes(
                    by_fp[campaign_key(spec)]["id"]).decode("utf-8")
                assert served == run_campaign(spec).to_json() + "\n"
        finally:
            server.shutdown()
            svc.stop()
