"""ServiceMetrics and the service's observability surface.

Pins the satellite contracts of the obs PR: the registry is race-free
under N-thread increment/observe storms with consistent mid-storm
snapshots; ``/v1/metrics`` carries the namespaced ``store.*`` /
``journal.*`` sections, the numerics fingerprint and per-route
latency quantiles; the
Prometheus exposition parses with monotone cumulative buckets; and the
trace route answers only while tracing is armed.
"""

import threading

import pytest

from repro.obs import Recorder
from repro.obs.metrics import parse_prometheus
from repro.serve.service import CharacterizationService, ServiceMetrics
from repro.store import ResultStore

#: A tiny, fast campaign: 2 bias-block units, one measurement.
PAYLOAD = {"builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
           "measurements": ["bias_current_ua"]}


@pytest.fixture
def service(tmp_path):
    svc = CharacterizationService(
        store=ResultStore(tmp_path / "store"),
        journal_dir=tmp_path / "journal", workers=2).start()
    yield svc
    svc.stop()


class TestServiceMetricsConcurrency:
    N_THREADS = 8
    PER_THREAD = 2000

    def _storm(self, work):
        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_increments_lose_nothing(self):
        metrics = ServiceMetrics()
        self._storm(lambda: [metrics.incr("hits")
                             for _ in range(self.PER_THREAD)])
        assert metrics.get("hits") == self.N_THREADS * self.PER_THREAD

    def test_concurrent_observes_lose_nothing(self):
        metrics = ServiceMetrics()
        self._storm(lambda: [metrics.observe("lat", 0.01)
                             for _ in range(self.PER_THREAD)])
        total = self.N_THREADS * self.PER_THREAD
        snap = metrics.latency_snapshot()["lat"]
        assert snap["count"] == total
        assert snap["sum"] == pytest.approx(total * 0.01)

    def test_mid_storm_snapshots_are_consistent(self):
        """Snapshots taken while writers run must be internally
        consistent: cumulative buckets monotone, ending at the count."""
        metrics = ServiceMetrics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.incr("jobs_done")
                metrics.observe("lat", 0.005)
                metrics.set_gauge("queue_depth", 1.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                hist = metrics.histogram("lat")
                if hist is None:
                    continue
                snap = hist.snapshot()
                counts = [b["count"] for b in snap["buckets"]]
                assert counts == sorted(counts)
                assert counts[-1] == snap["count"]
                metrics.snapshot()
                metrics.gauges_snapshot()
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_quantiles_nan_maps_to_none_in_latency_snapshot(self):
        metrics = ServiceMetrics()
        metrics.observe("lat", 0.01)
        snap = metrics.latency_snapshot()["lat"]
        assert set(snap) == {"count", "sum", "p50", "p95", "p99"}
        assert all(snap[k] is not None for k in ("p50", "p95", "p99"))


class TestMetricsSnapshotSchema:
    def test_store_and_journal_sections_present(self, service):
        job = service.submit_campaign(PAYLOAD)
        assert job.wait(timeout=60)
        snap = service.metrics_snapshot()
        # namespaced store health (the backend's own fault_stats plus
        # attachment/degradation state)
        assert snap["store.attached"] is True
        assert snap["store.degraded"] is False
        assert snap["store.entries"] >= 2
        for name in service.store.fault_stats():
            assert f"store.{name}" in snap
        # namespaced journal counters
        assert snap["journal.enabled"] is True
        assert snap["journal.recovered"] == 0
        assert snap["journal.corrupt"] == 0

    def test_events_section_zeroed_while_disarmed(self, service):
        snap = service.metrics_snapshot()
        assert snap["events.armed"] is False
        for key in ("events.info", "events.warn", "events.error",
                    "events.recorded", "events.dropped"):
            assert snap[key] == 0, key

    def test_events_section_counts_while_armed(self, service):
        from repro.obs import event

        rec = Recorder()
        with rec.activate():
            event("serve.test_event", "error", detail="x")
            event("serve.test_event", "info")
            snap = service.metrics_snapshot()
        assert snap["events.armed"] is True
        assert snap["events.error"] == 1
        assert snap["events.info"] == 1
        assert snap["events.warn"] == 0
        assert snap["events.recorded"] == 2
        assert snap["events.dropped"] == 0

    def test_events_recorded_counts_events_not_spans(self, service):
        from repro.obs import event, span

        rec = Recorder()
        with rec.activate():
            with span("serve.test_span"):
                event("serve.test_event", "warn")
            snap = service.metrics_snapshot()
        assert rec.recorded == 2
        assert snap["events.recorded"] == 1

    def test_events_dropped_counts_evicted_records_of_any_kind(self,
                                                              service):
        from repro.obs import event, span

        rec = Recorder(buffer=1)
        with rec.activate():
            with span("serve.test_span"):
                pass
            event("serve.test_event", "info")   # evicts the span
            event("serve.test_event", "info")   # evicts the first event
            snap = service.metrics_snapshot()
        assert snap["events.dropped"] == 2
        assert snap["events.recorded"] == 2

    def test_gauges_and_latency_sections_present(self, service):
        job = service.submit_campaign(PAYLOAD)
        assert job.wait(timeout=60)
        snap = service.metrics_snapshot()
        for gauge in ("queue_depth", "jobs", "workers_busy", "store_entries"):
            assert gauge in snap["gauges"], gauge
        lat = snap["latency"]
        assert lat["job.campaign_s"]["count"] == 1
        assert lat["job.queue_wait_s"]["count"] == 1
        assert lat["job.campaign_s"]["p50"] is not None

    def test_counters_survive_unchanged(self, service):
        service.submit_campaign(PAYLOAD).wait(timeout=60)
        snap = service.metrics_snapshot()
        assert snap["counters"]["jobs_done"] == 1
        assert snap["counters"]["units_executed"] == 2

    def test_detached_store_reports_absent(self, tmp_path):
        svc = CharacterizationService(workers=1).start()
        try:
            snap = svc.metrics_snapshot()
            assert snap["store.attached"] is False
            assert "store.entries" not in snap
            assert snap["journal.enabled"] is False
        finally:
            svc.stop()


class TestPrometheusEndpoint:
    def test_exposition_parses_with_monotone_buckets(self, service):
        service.submit_campaign(PAYLOAD).wait(timeout=60)
        series = parse_prometheus(service.prometheus_text())
        assert series["repro_jobs_done_total"]["type"] == "counter"
        assert series["repro_queue_depth"]["type"] == "gauge"
        hist = series["repro_job_campaign_s"]
        assert hist["type"] == "histogram"
        counts = [v for labels, v in hist["samples"] if "_bucket" in labels]
        assert counts and counts == sorted(counts)
        assert ("repro_job_campaign_s_count", 1.0) in hist["samples"]
        # store/journal state lands as gauges (booleans as 0/1)
        assert series["repro_store_attached"]["samples"][0][1] == 1.0
        assert series["repro_journal_enabled"]["samples"][0][1] == 1.0

    def test_events_severity_counters_round_trip(self, service):
        from repro.obs import event

        # Disarmed: the series exist and are zero (schema stability).
        series = parse_prometheus(service.prometheus_text())
        for name in ("repro_events_armed", "repro_events_info",
                     "repro_events_warn", "repro_events_error",
                     "repro_events_recorded", "repro_events_dropped"):
            assert series[name]["type"] == "gauge", name
            assert series[name]["samples"][0][1] == 0.0, name
        # Armed: severity tallies land in the exposition.
        rec = Recorder()
        with rec.activate():
            event("serve.test_event", "warn")
            event("serve.test_event", "error")
            series = parse_prometheus(service.prometheus_text())
        assert series["repro_events_armed"]["samples"][0][1] == 1.0
        assert series["repro_events_warn"]["samples"][0][1] == 1.0
        assert series["repro_events_error"]["samples"][0][1] == 1.0
        assert series["repro_events_recorded"]["samples"][0][1] == 2.0

    def test_numerics_fingerprint_and_blas_threads_gauge(self, service):
        numerics = service.metrics_snapshot()["numerics"]
        assert numerics["pinned"] is True
        assert numerics["blas_threads"] == [1]
        assert {"numpy", "scipy", "blas"} <= set(numerics)
        series = parse_prometheus(service.prometheus_text())
        gauge = series["repro_numerics_blas_threads"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][0][1] == 1.0

    def test_every_series_has_type(self, service):
        for name, entry in parse_prometheus(
                service.prometheus_text()).items():
            assert entry["type"] in ("counter", "gauge", "histogram"), name


class TestJobTrace:
    def test_disarmed_job_has_no_trace(self, service):
        job = service.submit_campaign(PAYLOAD)
        assert job.wait(timeout=60)
        assert job.trace_id is None
        assert service.job_trace(job) is None

    def test_armed_job_exposes_span_tree(self, service):
        rec = Recorder()
        with rec.activate():
            job = service.submit_campaign(PAYLOAD)
            assert job.wait(timeout=60)
            assert job.trace_id is not None
            trace = service.job_trace(job)
        assert trace["trace_id"] == job.trace_id
        names = {s["name"] for s in trace["spans"]}
        assert "serve.job" in names and "campaign.run" in names
        assert all(s["trace_id"] == job.trace_id for s in trace["spans"])

    def test_trace_id_survives_in_view(self, service):
        rec = Recorder()
        with rec.activate():
            job = service.submit_campaign(PAYLOAD)
            assert job.wait(timeout=60)
        assert job.view()["trace_id"] == job.trace_id
