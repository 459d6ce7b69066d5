"""The characterization service: queue + workers + store, one object.

:class:`CharacterizationService` is the engine behind the HTTP API (and
directly usable in-process, which is how the tests pin its semantics):

* **submit** — a validated request becomes a :class:`~repro.serve.jobs.Job`.
  Campaign requests are fingerprinted with
  :func:`repro.store.keys.campaign_key`; optimize requests with a
  canonical hash of their normalised parameters.
* **warm hits** — before a campaign job ever queues, the store is probed
  with one batched :meth:`~repro.store.ResultStore.contains_many` call;
  if *every* unit of the expansion is cached, the result is merged
  inline from the store (``run_campaign`` with zero missing units — the
  engine and the worker threads are never touched) and the job is born
  ``done``.  One :class:`~repro.store.UnitKeyer` derives the campaign
  fingerprint and the unit keys of the probe and the merge; a cold job
  keeps it, so its payload is validated and keyed once.
* **coalescing** — identical in-flight requests attach to one execution
  (see :class:`~repro.serve.jobs.JobQueue.submit`); with a store
  attached, the shared units of *sequential* duplicates are never
  re-executed either, so across any interleaving each unit is executed
  exactly once.
* **workers** — a small thread pool drains the queue; each campaign job
  runs in-process through :func:`repro.campaign.run_campaign`'s keyed
  body with a per-group progress callback feeding the job's status
  view, and each optimize job wraps
  :func:`repro.optimize.optimize_mic_amp` the same way.

Served campaign results are **byte-identical** to a direct
``run_campaign`` of the same spec: the store merge preserves bytes
(PR 4's contract) and the result document is the plain
``CampaignResult.to_json()`` text.

Failure policy (the robustness contract, attacked by ``tests/faults``):

* **per-job timeouts** — with ``job_timeout`` set, every job carries a
  wall-clock deadline enforced *cooperatively* at each progress step
  (after each group of at most ``DEFAULT_BATCH_SIZE`` units for
  campaigns, after each evaluation for optimize); an
  overrun fails the job with a one-line timeout error, never wedges a
  worker forever.  An optimize job overruns by at most one generation:
  the search simulates a whole DE generation (at most its population
  size of candidates) before the first of its evaluations reports.
* **watchdog** — a background thread replaces dead worker threads
  (an escaped ``BaseException``) and retires-and-replaces hung ones
  (running past the cooperative deadline); a dying worker's job is
  requeued (bounded by :attr:`JobQueue.max_requeues`) rather than lost.
* **store degradation** — if the store is unavailable (after the
  backend's own bounded retries), the service falls back to engine-only
  execution: jobs still complete, ``/healthz`` reports ``degraded``,
  ``/v1/metrics`` counts the events, and a periodic probe restores the
  warm path once the store answers again.
"""

from __future__ import annotations

import itertools
import math
import sqlite3
import threading
import time
import traceback

from repro.faults.harness import fault_point
from repro.numerics import fingerprint
from repro.obs.metrics import Histogram, render_prometheus
from repro.obs.recorder import SEVERITIES as EVENT_SEVERITIES
from repro.obs.recorder import active, event, span
from repro.serve import jobs as J
from repro.serve.validate import (
    SpecValidationError,
    campaign_spec_from_dict,
    optimize_request_from_dict,
)

#: What "the store is unavailable" looks like after backend retries.
STORE_ERRORS = (sqlite3.OperationalError, OSError)


class JobTimeout(Exception):
    """A job exceeded the service's per-job wall-clock budget."""


class ServiceMetrics:
    """Counters, gauges and latency histograms behind one registry.

    Counters are monotone integers under one lock (unchanged from the
    original ``/v1/metrics`` surface).  :meth:`observe` feeds a named
    fixed-bucket :class:`~repro.obs.metrics.Histogram` (created on first
    use; each histogram carries its own lock, so observation contention
    is per-series, not global), and gauges are last-write-wins floats —
    together they are everything :func:`~repro.obs.metrics.
    render_prometheus` needs for ``GET /metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    def observe(self, name: str, value: float) -> None:
        """Record one sample (seconds, typically) into the named
        histogram, creating it with the default latency buckets on first
        use."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauges_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def latency_snapshot(self) -> dict[str, dict]:
        """Per-histogram ``{"count", "sum", "p50", "p95", "p99"}`` —
        the JSON-friendly quantile view ``/v1/metrics`` serves."""
        with self._lock:
            hists = dict(self._histograms)
        out: dict[str, dict] = {}
        for name in sorted(hists):
            hist = hists[name]
            snap = hist.snapshot()
            qs = hist.quantiles()
            out[name] = {
                "count": snap["count"],
                "sum": snap["sum"],
                **{k: (None if math.isnan(v) else v) for k, v in qs.items()},
            }
        return out

    def histograms_snapshot(self) -> dict[str, dict]:
        """Full Prometheus-shaped snapshots, name -> snapshot dict."""
        with self._lock:
            hists = dict(self._histograms)
        return {name: hists[name].snapshot() for name in sorted(hists)}


class CharacterizationService:
    """Long-lived front end over campaign + optimize + store.

    ``store`` (a :class:`repro.store.ResultStore` or ``None``) enables
    warm hits and cross-restart result recovery; ``workers`` sizes the
    in-process worker *thread* pool (each runs one job at a time).
    ``journal_dir`` persists job metadata across restarts.  ``max_jobs``
    caps *retention*: past it, the oldest terminal jobs (and their
    in-memory results) are evicted — an evicted campaign answers a fresh
    submission as a store warm hit, so nothing is lost but the job id.

    ``job_timeout`` (seconds, ``None`` = unlimited) bounds each job's
    wall clock; ``watchdog_interval`` paces the dead/hung-worker scan
    (``0`` disables the watchdog); ``store_retry_interval`` paces the
    recovery probe while the store is degraded.
    """

    def __init__(self, store=None, workers: int = 2, journal_dir=None,
                 max_jobs: int = 1024, job_timeout: float | None = None,
                 watchdog_interval: float = 1.0,
                 store_retry_interval: float = 5.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        self.store = store
        self.job_timeout = job_timeout
        self.watchdog_interval = watchdog_interval
        self.store_retry_interval = store_retry_interval
        self.queue = J.JobQueue(journal_dir=journal_dir, max_jobs=max_jobs)
        self.metrics = ServiceMetrics()
        self._n_workers = workers
        self._started = False
        # Worker-pool state (all guarded by _worker_lock).
        self._worker_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._hung_threads: list[threading.Thread] = []
        self._retired: set[str] = set()
        self._active: dict[str, tuple[str, float]] = {}  # name -> (job, t0)
        self._worker_seq = itertools.count()
        self._stragglers: list[str] = []
        self._stop_event = threading.Event()
        self._watchdog: threading.Thread | None = None
        # Store-degradation state.
        self._store_lock = threading.Lock()
        self._store_degraded = False
        self._store_checked_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> threading.Thread:
        t = threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{next(self._worker_seq)}",
                             daemon=True)
        t.start()
        return t

    def start(self) -> "CharacterizationService":
        if self._started:
            return self
        self._started = True
        self._stop_event.clear()
        self._stragglers = []
        with self._worker_lock:
            self._threads = [self._spawn_worker()
                             for _ in range(self._n_workers)]
        if self.watchdog_interval > 0:
            self._watchdog = threading.Thread(target=self._watchdog_loop,
                                              name="serve-watchdog",
                                              daemon=True)
            self._watchdog.start()
        return self

    def stop(self, timeout: float = 10.0) -> list[str]:
        """Drain and join the pool within ``timeout`` seconds **total**.

        Always returns — a worker hung in a job cannot hold shutdown
        hostage.  The names of workers that failed to exit come back as
        *stragglers* (also counted in metrics and reflected in
        :meth:`health`, which keeps ``/healthz`` honest about the
        leftover thread instead of pretending a clean stop).
        """
        self._stop_event.set()
        self.queue.close()
        if self._watchdog is not None:
            self._watchdog.join(timeout)
            self._watchdog = None
        deadline = time.monotonic() + timeout
        stragglers: list[str] = []
        with self._worker_lock:
            threads = self._threads + self._hung_threads
            self._threads = []
            self._hung_threads = []
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                stragglers.append(t.name)
        self._stragglers = stragglers
        if stragglers:
            self.metrics.incr("stop_stragglers", len(stragglers))
        self._started = False
        return stragglers

    def __enter__(self) -> "CharacterizationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._stop_event.wait(self.watchdog_interval):
            try:
                self.watchdog_scan()
            except Exception:       # the watchdog itself must not die
                traceback.print_exc()

    def watchdog_scan(self) -> None:
        """One dead/hung sweep (public so tests can drive it without
        waiting out the interval).

        Dead threads (an escaped ``BaseException``; their job was
        already requeued by the dying worker) are replaced in place.  A
        thread still running one job past the cooperative deadline plus
        two scan intervals is *hung* — it cannot be killed, so it is
        retired (it exits when/if it wakes) and a replacement keeps the
        pool at strength; it remains joined-and-reported at stop time.
        """
        now = time.monotonic()
        hang_after = (None if self.job_timeout is None
                      else self.job_timeout + 2 * self.watchdog_interval)
        with self._worker_lock:
            if self._stop_event.is_set():
                return
            for i, t in enumerate(self._threads):
                if not t.is_alive():
                    self._active.pop(t.name, None)
                    self._threads[i] = self._spawn_worker()
                    self.metrics.incr("workers_replaced")
                    continue
                active = self._active.get(t.name)
                if (hang_after is not None and active is not None
                        and now - active[1] > hang_after):
                    self._retired.add(t.name)
                    self._hung_threads.append(t)
                    self._threads[i] = self._spawn_worker()
                    self.metrics.incr("workers_hung")
                    self.metrics.incr("workers_replaced")
                    event("serve.worker_hung", "error", worker=t.name,
                          job=active[0],
                          busy_s=round(now - active[1], 3))

    # ------------------------------------------------------------------
    # Store degradation
    # ------------------------------------------------------------------
    def _degrade_store(self) -> None:
        with self._store_lock:
            first = not self._store_degraded
            self._store_degraded = True
            self._store_checked_at = time.monotonic()
        self.metrics.incr("store_errors")
        if first:
            self.metrics.incr("store_degraded_events")
            event("serve.store_degraded", "error",
                  retry_interval_s=self.store_retry_interval)

    def _active_store(self):
        """The store if it is believed healthy, else ``None`` (engine-only
        degradation).  While degraded, at most one cheap index probe per
        ``store_retry_interval`` tests for recovery."""
        if self.store is None:
            return None
        with self._store_lock:
            if not self._store_degraded:
                return self.store
            if (time.monotonic() - self._store_checked_at
                    < self.store_retry_interval):
                return None
            self._store_checked_at = time.monotonic()
        try:
            self.store.contains("-recovery-probe-")
        except STORE_ERRORS:
            self.metrics.incr("store_errors")
            return None
        with self._store_lock:
            self._store_degraded = False
        self.metrics.incr("store_recovered")
        event("serve.store_recovered", "info")
        return self.store

    @property
    def store_degraded(self) -> bool:
        with self._store_lock:
            return self._store_degraded

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, kind: str, payload) -> J.Job:
        """Validate and admit one request; returns its (possibly shared,
        possibly already-done) job.  Raises :class:`SpecValidationError`
        on a malformed payload."""
        if kind == "campaign":
            return self.submit_campaign(payload)
        if kind == "optimize":
            return self.submit_optimize(payload)
        raise SpecValidationError(f"unknown request kind {kind!r}; "
                                  "one of ['campaign', 'optimize']")

    def submit_campaign(self, payload) -> J.Job:
        from repro.store import UnitKeyer

        spec = campaign_spec_from_dict(payload)
        keyer = UnitKeyer(spec)
        fingerprint = keyer.campaign_key()
        self.metrics.incr("submitted_campaign")

        warm_job = self._try_warm(keyer, payload, fingerprint)
        if warm_job is not None:
            return warm_job

        job = J.Job(id=J.new_job_id(), kind="campaign",
                    payload=payload if isinstance(payload, dict) else {},
                    fingerprint=fingerprint, keyer=keyer)
        job, coalesced = self.queue.submit(job)
        if coalesced:
            self.metrics.incr("coalesced")
        return job

    def submit_optimize(self, payload) -> J.Job:
        from repro.store.keys import canonical_hash, canonical_payload

        kwargs = optimize_request_from_dict(payload)
        fingerprint = canonical_hash({
            "kind": "optimize",
            "budget": kwargs["budget"],
            "seed": kwargs["seed"],
            "mode": kwargs["mode"],
            "robust": canonical_payload(kwargs["robust"])
            if kwargs["robust"] is not None else None,
        })
        self.metrics.incr("submitted_optimize")
        job = J.Job(id=J.new_job_id(), kind="optimize",
                    payload=payload if isinstance(payload, dict) else {},
                    fingerprint=fingerprint)
        job, coalesced = self.queue.submit(job)
        if coalesced:
            self.metrics.incr("coalesced")
        return job

    def _try_warm(self, keyer, payload, fingerprint) -> J.Job | None:
        """Answer a fully-cached campaign inline, skipping the queue.

        The probe is one batched index query (no payload reads); only a
        complete hit takes the warm path.  Payloads live in their rows,
        so a probed key has its bytes; the subsequent merge re-reads
        through ``get_many``, and if a payload turns out corrupt it is
        quarantined and ``run_campaign`` transparently re-executes just
        those units inline, which is still correct, merely less warm
        than advertised.  An unavailable store degrades to the cold
        path instead of failing the submission.
        """
        store = self._active_store()
        if store is None:
            return None
        from repro.campaign.runner import _run_keyed

        units = keyer.spec.expand()
        keys = [keyer.key(unit) for unit in units]
        try:
            present = store.contains_many(keys)
            if len(present) < len(keys):
                return None
            result = _run_keyed(keyer.spec, units, store, keys)
        except STORE_ERRORS:
            self._degrade_store()
            return None
        job = J.Job(id=J.new_job_id(), kind="campaign",
                    payload=payload if isinstance(payload, dict) else {},
                    fingerprint=fingerprint, state=J.DONE, warm=True,
                    result=result)
        job.finished_at = job.created_at
        job.progress = {"units_done": len(units), "units_total": len(units)}
        self.queue.register(job)
        self.metrics.incr("warm_hits")
        self.metrics.incr("units_reused",
                          result.store_stats["reused_units"])
        self.metrics.incr("units_executed",
                          result.store_stats["executed_units"])
        self.metrics.incr("jobs_done")
        return job

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._worker_lock:
                if name in self._retired:
                    self._retired.discard(name)
                    return
            job = self.queue.next_job()
            if job is None:
                return
            if job.started_at is not None:
                self.metrics.observe("job.queue_wait_s",
                                     max(0.0, job.started_at - job.created_at))
            with self._worker_lock:
                self._active[name] = (job.id, time.monotonic())
            try:
                self._run_job(job)
            except JobTimeout as exc:
                self.metrics.incr("jobs_timeout")
                self.metrics.incr("jobs_failed")
                event("serve.job_timeout", "error", job=job.id,
                      kind=job.kind, error=str(exc))
                self.queue.finish(job, J.FAILED, error=str(exc))
            except SpecValidationError as exc:
                self.metrics.incr("jobs_failed")
                self.queue.finish(job, J.FAILED, error=str(exc))
            except Exception as exc:  # job isolation: one bad request
                self.metrics.incr("jobs_failed")  # must not kill a worker
                traceback.print_exc()
                self.queue.finish(job, J.FAILED,
                                  error=f"{type(exc).__name__}: {exc}")
            except BaseException as exc:
                # The worker itself is dying (injected crash, interpreter
                # teardown).  The job is innocent until it exhausts its
                # requeue budget: execution is idempotent, so putting it
                # back loses nothing — then let the thread die and the
                # watchdog replace it.
                self.metrics.incr("workers_died")
                event("serve.worker_died", "error", worker=name,
                      job=job.id, error=f"{type(exc).__name__}: {exc}")
                if self.queue.requeue(job):
                    self.metrics.incr("jobs_requeued")
                    event("serve.job_requeued", "warn", job=job.id,
                          requeues=job.requeues)
                else:
                    self.metrics.incr("jobs_failed")
                    self.queue.finish(
                        job, J.FAILED,
                        error=f"worker died: {type(exc).__name__}: {exc}")
                raise
            finally:
                with self._worker_lock:
                    self._active.pop(name, None)

    def _deadline_progress(self, job: J.Job, update) -> "callable":
        """Wrap a job's progress updater with the cooperative deadline
        check: every progress step (campaign group / evaluation) both
        reports and gives the timeout a chance to fire.  An optimize
        job's evaluations report after their generation was simulated
        as one batch, so it can run one generation past the deadline."""
        start = job.started_at or time.time()   # anchored at dequeue
        deadline = (None if self.job_timeout is None
                    else start + self.job_timeout)

        def progress(*args) -> None:
            update(*args)
            if deadline is not None and time.time() > deadline:
                raise JobTimeout(
                    f"job {job.id} exceeded the {self.job_timeout}s "
                    f"wall-clock budget at {job.progress}")
        return progress

    def _run_job(self, job: J.Job) -> None:
        fault_point("serve.job", job=job.id, kind=job.kind)
        t0 = time.perf_counter()
        with span("serve.job", job=job.id, kind=job.kind) as sp:
            job.trace_id = getattr(sp, "trace_id", None)
            if job.kind == "campaign":
                self._run_campaign_job(job)
            elif job.kind == "optimize":
                self._run_optimize_job(job)
            else:
                raise SpecValidationError(f"unknown job kind {job.kind!r}")
        self.metrics.observe(f"job.{job.kind}_s", time.perf_counter() - t0)
        self.metrics.incr("jobs_done")
        self.queue.finish(job, J.DONE)

    def _run_campaign_job(self, job: J.Job) -> None:
        from repro.campaign.runner import _run_keyed
        from repro.store import UnitKeyer

        keyer = job.keyer or UnitKeyer(campaign_spec_from_dict(job.payload))

        def update(done: int, total: int) -> None:
            job.progress = {"units_done": done, "units_total": total}

        store = self._active_store()
        units = keyer.spec.expand()
        keys = None if store is None else [keyer.key(unit) for unit in units]
        result = _run_keyed(keyer.spec, units, store, keys,
                            progress=self._deadline_progress(job, update))
        job.result = result
        if result.store_stats is not None:
            if result.store_stats.get("store_errors"):
                self._degrade_store()   # ran engine-only; flag the store
            self.metrics.incr("units_executed",
                              result.store_stats["executed_units"])
            self.metrics.incr("units_reused",
                              result.store_stats["reused_units"])
        else:
            self.metrics.incr("units_executed", len(result))

    def _run_optimize_job(self, job: J.Job) -> None:
        from repro.optimize import optimize_mic_amp

        kwargs = optimize_request_from_dict(job.payload)

        def update(done: int, budget: int) -> None:
            job.progress = {"evaluations_done": done, "budget": budget}

        result = optimize_mic_amp(
            budget=kwargs["budget"], seed=kwargs["seed"],
            mode=kwargs["mode"], robust=kwargs["robust"],
            store=self._active_store(),
            progress=self._deadline_progress(job, update),
        )
        job.result = result
        self.metrics.incr("optimize_evaluations", result.n_evaluations)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def campaign_result(self, job: J.Job):
        """The job's ``CampaignResult``, reconstructed from the store if
        this process never ran it (journal-restored jobs)."""
        if job.result is None:
            store = self._active_store()
            if store is None:
                raise LookupError(
                    f"job {job.id}: result not in memory and no healthy "
                    "store attached to recover it from")
            from repro.campaign import run_campaign

            spec = campaign_spec_from_dict(job.payload)
            job.result = run_campaign(spec, store=store)
        return job.result

    def result_text(self, job: J.Job) -> str:
        """The full result document: for campaigns, the byte-identical
        ``CampaignResult.to_json()`` text (plus trailing newline — the
        exact bytes ``repro campaign --json`` writes)."""
        import json as _json

        if job.kind == "campaign":
            return self.campaign_result(job).to_json() + "\n"
        return _json.dumps(self._optimize_payload(job), indent=2) + "\n"

    def result_page(self, job: J.Job, offset: int, limit: int) -> dict:
        """One page of a campaign result's rows (``offset``/``limit``
        half-open slice in unit order), with the page window echoed."""
        if job.kind != "campaign":
            raise SpecValidationError(
                "pagination applies to campaign results only")
        if offset < 0 or limit < 1:
            raise SpecValidationError(
                f"need offset >= 0 and limit >= 1, got {offset}/{limit}")
        result = self.campaign_result(job)
        sl = slice(offset, offset + limit)
        return {
            "total": len(result),
            "offset": offset,
            "limit": limit,
            "metrics": list(result.metrics),
            "columns": {
                name: [result._json_value(v)
                       for v in result.data[name][sl].tolist()]
                for name in result.columns
            },
        }

    def _optimize_payload(self, job: J.Job) -> dict:
        import json as _json

        result = job.result
        if result is None:
            raise LookupError(
                f"job {job.id}: optimize results are not recoverable "
                "after a restart; re-submit (the evaluation store makes "
                "the rerun warm)")
        return {
            "summary": result.summary(),
            "best_params": result.best_params,
            "best_metrics": dict(result.best.metrics),
            "best_score": result.best.score,
            "feasible": result.best.feasible,
            "n_evaluations": result.n_evaluations,
            "pareto": _json.loads(result.pareto.to_json()),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        with self._worker_lock:
            workers_alive = sum(t.is_alive() for t in self._threads)
            hung = sum(t.is_alive() for t in self._hung_threads)
        degraded = bool(self.store_degraded or hung or self._stragglers)
        return {
            "status": "degraded" if degraded else "ok",
            "workers": self._n_workers,
            "workers_alive": workers_alive,
            "hung_workers": hung,
            "stragglers": list(self._stragglers),
            "queue_depth": self.queue.depth(),
            "jobs": len(self.queue),
            "store": None if self.store is None else str(self.store.root),
            "store_degraded": self.store_degraded,
        }

    def _update_gauges(self) -> None:
        """Refresh the pull-style gauges (queue depth, busy workers,
        store size) — called on every metrics read so scrapes see the
        current state without a background sampler thread."""
        self.metrics.set_gauge("queue_depth", self.queue.depth())
        self.metrics.set_gauge("jobs", len(self.queue))
        with self._worker_lock:
            busy = len(self._active)
        self.metrics.set_gauge("workers_busy", busy)
        if self.store is not None and not self.store_degraded:
            try:
                self.metrics.set_gauge("store_entries", len(self.store))
            except STORE_ERRORS:
                pass                    # a scrape must never fail on the store

    def _store_section(self) -> dict:
        """``store.*``-namespaced store health for ``/v1/metrics``:
        the backend's defect counters (quarantined payloads, read
        errors, absorbed index retries) plus degradation state."""
        section: dict = {"store.attached": self.store is not None,
                         "store.degraded": self.store_degraded}
        if self.store is not None:
            try:
                for name, value in self.store.fault_stats().items():
                    section[f"store.{name}"] = value
                section["store.entries"] = len(self.store)
            except STORE_ERRORS:
                pass
        return section

    def _journal_section(self) -> dict:
        return {
            "journal.enabled": self.queue.journal_dir is not None,
            "journal.recovered": self.queue.journal_recovered,
            "journal.corrupt": self.queue.journal_corrupt,
        }

    def _events_section(self) -> dict:
        """``events.*``-namespaced recorder health: armed state, the
        monotone per-severity tallies and their total, and the records
        (of any kind) evicted from the ring.  All zeros while disarmed,
        so the schema is stable either way."""
        rec = active()
        totals = (rec.event_totals() if rec is not None
                  else {"recorded": 0, "dropped": 0, "by_severity": {}})
        section: dict = {"events.armed": rec is not None}
        for severity in EVENT_SEVERITIES:
            section[f"events.{severity}"] = \
                totals["by_severity"].get(severity, 0)
        section["events.recorded"] = totals["recorded"]
        section["events.dropped"] = totals["dropped"]
        return section

    def metrics_snapshot(self) -> dict:
        self._update_gauges()
        snap = {
            "counters": self.metrics.snapshot(),
            "queue_depth": self.queue.depth(),
            "jobs": len(self.queue),
            "journal_recovered": self.queue.journal_recovered,
            "journal_corrupt": self.queue.journal_corrupt,
            "store_degraded": self.store_degraded,
            "gauges": self.metrics.gauges_snapshot(),
            "latency": self.metrics.latency_snapshot(),
        }
        snap.update(self._store_section())
        snap.update(self._journal_section())
        snap.update(self._events_section())
        snap["numerics"] = fingerprint()
        return snap

    def prometheus_text(self) -> str:
        """The ``GET /metrics`` document (Prometheus text exposition)."""
        self._update_gauges()
        counters = self.metrics.snapshot()
        for name, value in self._store_section().items():
            if isinstance(value, bool):
                self.metrics.set_gauge(name, 1.0 if value else 0.0)
            elif isinstance(value, (int, float)):
                self.metrics.set_gauge(name, value)
        for name, value in self._journal_section().items():
            self.metrics.set_gauge(name,
                                   float(value) if not isinstance(value, bool)
                                   else (1.0 if value else 0.0))
        for name, value in self._events_section().items():
            self.metrics.set_gauge(name,
                                   float(value) if not isinstance(value, bool)
                                   else (1.0 if value else 0.0))
        self.metrics.set_gauge("numerics.blas_threads",
                               max(fingerprint()["blas_threads"], default=0))
        return render_prometheus(
            counters=counters,
            gauges=self.metrics.gauges_snapshot(),
            histograms=self.metrics.histograms_snapshot(),
        )

    def job_trace(self, job: J.Job) -> dict | None:
        """The spans collected for one job's execution, or ``None`` when
        the recorder is disarmed or the job never ran under a span (warm
        hits, journal-restored records)."""
        trace_id = getattr(job, "trace_id", None)
        rec = active()
        if trace_id is None or rec is None:
            return None
        return {"trace_id": trace_id, "spans": rec.spans(trace_id=trace_id)}

    def recent_events(self, limit: int = 100,
                      severity: str | None = None) -> dict | None:
        """The newest ``limit`` structured events (optionally filtered by
        severity), or ``None`` while the recorder is disarmed — the
        ``/v1/events`` route turns that into a 404, mirroring the trace
        route's disarmed behaviour."""
        rec = active()
        if rec is None:
            return None
        events = rec.events(severity=severity)
        return {**rec.event_totals(), "events": events[-max(0, int(limit)):]}
