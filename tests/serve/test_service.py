"""Service semantics: byte-identity, warm hits, exactly-once execution.

These tests drive :class:`CharacterizationService` in-process (no HTTP)
so the guarantees are pinned where they live; ``test_api.py`` re-checks
the thin HTTP shell on top.
"""

import threading

import pytest

from repro.campaign import run_campaign
from repro.serve import CharacterizationService, SpecValidationError
from repro.serve import jobs as J
from repro.serve.validate import campaign_spec_from_dict
from repro.store import ResultStore

#: A tiny, fast campaign: 2 bias-block units, one measurement.
PAYLOAD = {"builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
           "measurements": ["bias_current_ua"]}


@pytest.fixture
def service(tmp_path):
    svc = CharacterizationService(store=ResultStore(tmp_path / "store"),
                                  workers=2).start()
    yield svc
    svc.stop()


class TestCampaignJobs:
    def test_served_result_is_byte_identical_to_direct_run(self, service):
        job = service.submit_campaign(PAYLOAD)
        assert job.wait(timeout=60)
        assert job.state == J.DONE

        direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
        assert service.result_text(job) == direct.to_json() + "\n"
        assert job.result.data.tobytes() == direct.data.tobytes()

    def test_armed_recorder_leaves_served_bytes_unchanged(self, service):
        from repro.obs import Recorder

        direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
        with Recorder().activate():
            cold = service.submit_campaign(PAYLOAD)
            assert cold.wait(timeout=60) and cold.state == J.DONE
            warm = service.submit_campaign(PAYLOAD)
            assert warm.warm
        for job in (cold, warm):
            assert service.result_text(job) == direct.to_json() + "\n"

    def test_progress_reaches_total(self, service):
        job = service.submit_campaign(PAYLOAD)
        job.wait(timeout=60)
        assert job.progress == {"units_done": 2, "units_total": 2}

    def test_warm_resubmission_skips_queue_and_engine(self, service):
        first = service.submit_campaign(PAYLOAD)
        first.wait(timeout=60)
        executed = service.metrics.get("units_executed")

        warm = service.submit_campaign(PAYLOAD)
        assert warm.state == J.DONE and warm.warm
        assert warm.id != first.id
        assert service.metrics.get("warm_hits") == 1
        assert service.metrics.get("units_executed") == executed  # unchanged
        assert service.result_text(warm) == service.result_text(first)

    def test_axis_growth_reuses_overlap(self, service):
        service.submit_campaign(PAYLOAD).wait(timeout=60)
        grown = dict(PAYLOAD, temps_c=[25.0, 85.0, -20.0])
        job = service.submit_campaign(grown)
        job.wait(timeout=60)
        assert not job.warm                       # one unit was missing
        assert job.result.store_stats["reused_units"] == 2
        assert job.result.store_stats["executed_units"] == 1

    def test_malformed_payload_raises_before_any_job(self, service):
        with pytest.raises(SpecValidationError):
            service.submit_campaign({"corners": "tt"})
        assert len(service.queue) == 0

    def test_result_page_slices_rows(self, service):
        job = service.submit_campaign(PAYLOAD)
        job.wait(timeout=60)
        page = service.result_page(job, offset=1, limit=5)
        assert page["total"] == 2 and page["offset"] == 1
        assert page["columns"]["temp_c"] == [85.0]
        assert page["metrics"] == ["bias_current_ua"]
        with pytest.raises(SpecValidationError):
            service.result_page(job, offset=-1, limit=1)


class TestExactlyOnce:
    def test_concurrent_duplicates_execute_shared_units_once(self, tmp_path):
        """N simultaneous identical submissions -> one execution, one
        shared job, N-1 coalesced attaches — asserted via the service's
        execution counters, per the acceptance criteria."""
        svc = CharacterizationService(store=ResultStore(tmp_path / "s"),
                                      workers=3).start()
        try:
            n = 6
            jobs = [None] * n
            barrier = threading.Barrier(n)

            def submit(i):
                barrier.wait()
                jobs[i] = svc.submit_campaign(PAYLOAD)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for job in jobs:
                assert job.wait(timeout=60) and job.state == J.DONE

            # THE guarantee: across any interleaving, the campaign's
            # units were executed exactly once in total.
            spec = campaign_spec_from_dict(PAYLOAD)
            assert svc.metrics.get("units_executed") == spec.n_units
            # every submission that did not get its own job attached to
            # the in-flight execution; any that raced past a finished
            # winner was answered from the store (warm or zero-missing)
            distinct = {job.id for job in jobs}
            assert svc.metrics.get("coalesced") == n - len(distinct)
            texts = {svc.result_text(job) for job in jobs}
            assert len(texts) == 1
        finally:
            svc.stop()

    def test_sequential_duplicates_without_store_rerun(self, tmp_path):
        """Documented boundary: exactly-once across *sequential*
        duplicates needs the store; without one, each finished spec
        re-executes."""
        svc = CharacterizationService(store=None, workers=1).start()
        try:
            a = svc.submit_campaign(PAYLOAD)
            a.wait(timeout=60)
            b = svc.submit_campaign(PAYLOAD)
            b.wait(timeout=60)
            assert not b.warm
            assert svc.metrics.get("units_executed") == 4
        finally:
            svc.stop()


class TestOptimizeJobs:
    def test_optimize_job_runs_and_reports_progress(self, service):
        job = service.submit_optimize({"budget": 6, "seed": 7})
        assert job.wait(timeout=120)
        assert job.state == J.DONE, job.error
        assert job.progress == {"evaluations_done": 6, "budget": 6}
        text = service.result_text(job)
        assert '"best_params"' in text and '"pareto"' in text
        assert service.metrics.get("optimize_evaluations") == 6

    def test_optimize_pagination_rejected(self, service):
        job = service.submit_optimize({"budget": 6, "seed": 7})
        job.wait(timeout=120)
        with pytest.raises(SpecValidationError, match="campaign results"):
            service.result_page(job, 0, 10)

    def test_identical_optimize_requests_coalesce(self, tmp_path):
        svc = CharacterizationService(store=ResultStore(tmp_path / "s"),
                                      workers=1).start()
        try:
            blocker = svc.submit_campaign(PAYLOAD)  # occupies the worker
            a = svc.submit_optimize({"budget": 6, "seed": 9})
            b = svc.submit_optimize({"budget": 6, "seed": 9})
            c = svc.submit_optimize({"budget": 6, "seed": 10})
            assert b is a and c is not a
            assert svc.metrics.get("coalesced") == 1
            for job in (blocker, a, c):
                assert job.wait(timeout=120) and job.state == J.DONE
        finally:
            svc.stop()


class TestRestartRecovery:
    def test_done_campaign_result_recovered_from_store(self, tmp_path):
        store_root = tmp_path / "store"
        journal = tmp_path / "journal"
        svc = CharacterizationService(store=ResultStore(store_root),
                                      workers=1, journal_dir=journal).start()
        job = svc.submit_campaign(PAYLOAD)
        job.wait(timeout=60)
        text = svc.result_text(job)
        svc.stop()

        svc2 = CharacterizationService(store=ResultStore(store_root),
                                       workers=1, journal_dir=journal).start()
        try:
            restored = svc2.queue.get(job.id)
            assert restored is not None and restored.state == J.DONE
            assert restored.result is None         # results not journalled
            assert svc2.result_text(restored) == text  # warm reconstruction
        finally:
            svc2.stop()
