"""The job subsystem: states, a coalescing queue, an optional journal.

A :class:`Job` is one accepted characterization request.  The
:class:`JobQueue` holds every job the service has ever seen (a table for
status lookups), a FIFO of pending work for the worker pool, and the
**coalescing index**: while a job with a given content fingerprint
(:func:`repro.store.keys.campaign_key` for campaigns, a canonical hash
of the request for optimize runs) is queued or running, submitting the
same fingerprint *attaches* to the existing job instead of enqueuing a
duplicate — identical in-flight requests execute exactly once, and
every submitter waits on the same :class:`threading.Event`.

Persistence is optional but real: with a ``journal_dir``, every state
transition snapshots the job's metadata (not its result) to
``<id>.json`` via the same atomic write-then-replace discipline as the
result store.  A restarted queue re-admits journalled jobs: finished
ones come back as status records (campaign results are re-served from
the shared :class:`~repro.store.ResultStore` warm path), and jobs that
were queued or running when the process died are **re-enqueued** — the
work itself is idempotent because every executed unit lands in the
store under a content-addressed key.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import pathlib
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.faults.harness import fault_point
from repro.obs.recorder import event

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATES = (QUEUED, RUNNING, DONE, FAILED)

_tmp_counter = itertools.count()


def new_job_id() -> str:
    """A short, URL-safe, collision-resistant job id."""
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One accepted request and everything a status poll may ask about.

    ``result`` holds the in-memory product (a ``CampaignResult`` or an
    ``OptimizationResult``) and is deliberately *not* journalled — after
    a restart, campaign results are reconstructed from the result store
    (a pure warm merge), which is cheaper and safer than persisting a
    second copy of the data.  Nor is ``keyer``, the
    :class:`~repro.store.UnitKeyer` a campaign submission validated and
    keyed its payload into; a job restored from the journal parses its
    payload again.
    """

    id: str
    kind: str                       # "campaign" | "optimize"
    payload: dict                   # the validated request body
    fingerprint: str                # coalescing identity
    state: str = QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    progress: dict = field(default_factory=dict)
    #: Submissions answered by this job beyond the first (coalesced).
    attached: int = 0
    #: True when the job was answered from the store without enqueuing.
    warm: bool = False
    #: Times the job went back to the FIFO after losing its worker.
    requeues: int = 0
    #: Trace id of the job's execution span when the recorder was armed
    #: (``REPRO_OBS=1``); ``None`` otherwise.  Telemetry only.
    trace_id: str | None = None
    result: object = None
    keyer: object = None
    _done_event: threading.Event = field(default_factory=threading.Event,
                                         repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done_event.wait(timeout)

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    def view(self) -> dict:
        """The JSON-safe status view served by ``GET /v1/jobs/<id>``."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "progress": dict(self.progress),
            "attached": self.attached,
            "warm": self.warm,
            "requeues": self.requeues,
            "trace_id": self.trace_id,
        }


class JobQueue:
    """Thread-safe job table + pending FIFO + coalescing index.

    All mutation happens under one lock; workers block on the condition
    variable in :meth:`next_job`.  :meth:`close` wakes every worker with
    ``None`` so a service can drain and join its pool.
    """

    def __init__(self, journal_dir=None, max_jobs: int = 1024,
                 max_requeues: int = 2) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: collections.deque[Job] = collections.deque()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}   # fingerprint -> queued/running
        self._closed = False
        #: In-process requeue budget per job (dead-worker recovery).
        self.max_requeues = max_requeues
        #: Journal-replay accounting (constructor-time, exposed by the
        #: service in ``/v1/metrics``): jobs re-admitted from disk, and
        #: journal files that could not be parsed (torn/truncated).
        self.journal_recovered = 0
        self.journal_corrupt = 0
        #: Retention cap: admitting a job beyond this evicts the oldest
        #: *terminal* jobs (and their journal files) — a long-lived
        #: server must not accumulate every result it ever produced in
        #: memory.  Evicted campaign results stay recoverable: the
        #: client re-submits and gets a store-level warm hit.
        self.max_jobs = max_jobs
        self.journal_dir = (None if journal_dir is None
                            else pathlib.Path(journal_dir))
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            self._restore_journal()
            self._evict_locked()

    # ------------------------------------------------------------------
    # Submission / coalescing
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> tuple[Job, bool]:
        """Admit ``job``, or attach to an in-flight twin.

        Returns ``(job, coalesced)``: when a job with the same
        fingerprint is already queued or running, the *existing* job is
        returned with its ``attached`` count bumped and the new one is
        discarded — this is the exactly-once guarantee for concurrent
        duplicate submissions.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("job queue is closed")
            twin = self._inflight.get(job.fingerprint)
            if twin is not None:
                twin.attached += 1
                self._journal(twin)
                return twin, True
            self._jobs[job.id] = job
            self._inflight[job.fingerprint] = job
            self._pending.append(job)
            self._journal(job)
            self._evict_locked()
            self._cond.notify()
            return job, False

    def register(self, job: Job) -> None:
        """Record a job that never queues (warm store hits): it enters
        the table already terminal, visible to status polls, and never
        touches the pending FIFO or the coalescing index."""
        if not job.terminal:
            raise ValueError("register() is for terminal jobs; use submit()")
        with self._lock:
            self._jobs[job.id] = job
            self._journal(job)
            self._evict_locked()
        job._done_event.set()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def next_job(self, timeout: float | None = None) -> Job | None:
        """Block for the next pending job; ``None`` once closed (or on
        timeout)."""
        with self._cond:
            while not self._pending and not self._closed:
                if not self._cond.wait(timeout):
                    return None
            if self._pending:
                job = self._pending.popleft()
                job.state = RUNNING
                job.started_at = time.time()
                self._journal(job)
                return job
            return None

    def requeue(self, job: Job) -> bool:
        """Put a running job back at the head of the line after its
        worker died mid-execution (injected crash, interpreter-level
        failure).  Execution is idempotent — store-backed units already
        computed are reused — so a bounded number of requeues loses no
        work.  Past ``max_requeues`` the job fails instead (returns
        ``False``): a job that kills every worker that touches it must
        not ping-pong forever.
        """
        with self._cond:
            if job.terminal:
                return True
            if job.requeues >= self.max_requeues:
                return False
            job.requeues += 1
            job.state = QUEUED
            job.started_at = None
            job.progress = {}
            self._inflight.setdefault(job.fingerprint, job)
            self._pending.appendleft(job)
            self._journal(job)
            self._cond.notify()
            return True

    def finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Move ``job`` to a terminal state and release its fingerprint
        (later identical submissions start a fresh execution — or, for
        campaigns, hit the store warm path)."""
        if state not in (DONE, FAILED):
            raise ValueError(f"terminal state must be done/failed, got {state}")
        with self._cond:
            job.state = state
            job.error = error
            job.finished_at = time.time()
            if self._inflight.get(job.fingerprint) is job:
                del self._inflight[job.fingerprint]
            self._journal(job)
        job._done_event.set()

    def close(self) -> None:
        """Stop admitting work and wake every blocked worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _evict_locked(self) -> None:
        """Drop the oldest terminal jobs past ``max_jobs`` (caller holds
        the lock).  Queued/running jobs are never evicted — the cap
        bounds *retention*, not admission."""
        if len(self._jobs) <= self.max_jobs:
            return
        terminal = sorted(
            (j for j in self._jobs.values() if j.terminal),
            key=lambda j: j.finished_at or j.created_at,
        )
        for job in terminal:
            if len(self._jobs) <= self.max_jobs:
                break
            del self._jobs[job.id]
            if self.journal_dir is not None:
                (self.journal_dir / f"{job.id}.json").unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, newest submission first."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: j.created_at, reverse=True)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal(self, job: Job) -> None:
        """Atomically snapshot one job's metadata (caller holds the
        lock).  Results are never journalled — see the class docstring."""
        if self.journal_dir is None:
            return
        # Torture hooks: the chaos suite crashes at either stage — before
        # anything hits disk, or with the tmp staged but not yet visible —
        # and asserts a restart loses no job either way.
        fault_point("jobs.journal_write", job=job.id, state=job.state,
                    stage="write")
        path = self.journal_dir / f"{job.id}.json"
        tmp = path.parent / f".{job.id}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        tmp.write_text(json.dumps(job.view() | {"payload": job.payload},
                                  sort_keys=True))
        fault_point("jobs.journal_write", job=job.id, state=job.state,
                    stage="replace")
        os.replace(tmp, path)

    def _restore_journal(self) -> None:
        """Re-admit journalled jobs on startup (constructor-only, before
        any worker exists, so no locking is needed).  Unparseable
        journal files (torn by a crash or filesystem truncation) are
        counted, moved aside as ``<id>.json.corrupt`` for inspection,
        and never silently shadow a future job."""
        for path in sorted(self.journal_dir.glob("*.json")):
            try:
                snap = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
                self.journal_corrupt += 1
                event("serve.journal_corrupt", "error", file=path.name,
                      error=f"{type(exc).__name__}: {exc}")
                try:
                    os.replace(path, path.with_suffix(".json.corrupt"))
                except OSError:
                    pass
                continue
            job = Job(id=snap["id"], kind=snap["kind"],
                      payload=snap.get("payload") or {},
                      fingerprint=snap["fingerprint"],
                      state=snap["state"],
                      created_at=snap.get("created_at") or time.time(),
                      started_at=snap.get("started_at"),
                      finished_at=snap.get("finished_at"),
                      error=snap.get("error"),
                      progress=snap.get("progress") or {},
                      attached=snap.get("attached", 0),
                      warm=snap.get("warm", False),
                      requeues=snap.get("requeues", 0),
                      trace_id=snap.get("trace_id"))
            if job.terminal:
                job._done_event.set()
            else:
                # Interrupted mid-flight: requeue from scratch.  Any unit
                # the dead process finished is already in the store, so
                # the rerun only pays for what was actually lost.
                job.state = QUEUED
                job.started_at = None
                job.progress = {}
                job.requeues = 0       # a fresh process, a fresh budget
                self._inflight[job.fingerprint] = job
                self._pending.append(job)
            self._jobs[job.id] = job
            self.journal_recovered += 1
