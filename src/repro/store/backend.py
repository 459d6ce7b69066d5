"""The on-disk result store: an sqlite index over JSON payload objects.

Layout under the store root::

    <root>/index.db            sqlite: key -> (kind, payload path, meta)
    <root>/objects/ab/<key>.json

Payloads are content-addressed by the caller-supplied key (see
:mod:`repro.store.keys`) and written **atomically**: the JSON is staged
to a unique temporary file in the same directory and ``os.replace``\\ d
into place, then the index row is committed.  A crash between the two
steps leaves an orphan payload (cleaned by :meth:`ResultStore.gc`), a
concurrent reader either sees the complete entry or a miss — never a
torn file.  Index writes go through sqlite's own locking (30 s busy
timeout), so any number of processes can share one store root; two
writers racing on the same key both write the same bytes, because keys
are content hashes of everything the value depends on.

Floats survive exactly: payload JSON renders them via ``repr`` (the
shortest round-trip form), so a record read back from the store is
bit-identical to the one that was written — the foundation of the
"warm rerun is byte-identical" contract that
``benchmarks/bench_store.py`` enforces.  Non-finite values are wrapped
in ``{"$nf": ...}`` tokens to keep every payload strict JSON.

Two defensive layers keep a damaged store from lying or crashing:

* every index row carries the **SHA-256 of the payload bytes**; reads
  verify it, and a corrupt or truncated payload is **quarantined**
  (moved to ``<root>/quarantine/``) and reported as a miss, so the
  caller transparently recomputes instead of serving garbage;
* every index access runs under :meth:`ResultStore._index_retry` —
  bounded exponential backoff over transient
  ``sqlite3.OperationalError`` (locked database), so a burst of writers
  degrades to latency, not tracebacks.

Both paths are exercised deterministically through the
``store.payload_read`` / ``store.index`` fault points
(:mod:`repro.faults`) by ``tests/faults/test_store_faults.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pathlib
import sqlite3
import threading
import time

from repro.faults.harness import fault_point
from repro.obs.recorder import event, prof_count

#: Environment variable naming the default store root for the CLI.
STORE_ENV = "REPRO_STORE"

_tmp_counter = itertools.count()


def default_store_root() -> pathlib.Path:
    """``$REPRO_STORE`` if set, else ``~/.cache/repro-store``."""
    root = os.environ.get(STORE_ENV)
    if root:
        return pathlib.Path(root).expanduser()
    return pathlib.Path("~/.cache/repro-store").expanduser()


def open_store(root=None) -> "ResultStore":
    """Open (creating if needed) the store at ``root`` or the default."""
    return ResultStore(default_store_root() if root is None else root)


# ----------------------------------------------------------------------
# Payload encoding: strict JSON with exact float round-trip
# ----------------------------------------------------------------------
def _encode(value):
    if isinstance(value, float):
        if math.isnan(value):
            return {"$nf": "nan"}
        if math.isinf(value):
            return {"$nf": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, dict):
        if "$nf" in value:
            # "$nf" is the reserved non-finite token key; a record using
            # it would decode to something else.  No repo-produced record
            # (metric names, evaluation payloads) can contain it, so
            # reject loudly rather than corrupt silently.
            raise ValueError("records may not use the reserved key '$nf'")
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


_NF = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _decode(value):
    if isinstance(value, dict):
        if set(value) == {"$nf"}:
            return _NF[value["$nf"]]
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


class ResultStore:
    """Persistent, concurrency-safe ``key -> record`` store.

    ``record`` is any JSON-encodable structure of dicts/lists/strings/
    numbers (campaign-unit metric dicts, design evaluations); the one
    reserved name is the ``"$nf"`` dict key, which the non-finite
    tokenisation owns (``put`` rejects it).  Connections are opened
    lazily and held **per thread** (sqlite objects must not cross
    threads): one store object can be shared by the serve layer's HTTP
    handler threads and worker pool exactly like it is shared by
    processes — sqlite's own file locking arbitrates, and the schema
    bootstrap is idempotent.  Pickling drops the connection state, so a
    store can ride inside structures that cross process boundaries and
    reconnect on first use.
    """

    #: Bounded backoff over transient sqlite errors (locked database):
    #: attempts and the initial delay, doubled per retry.
    INDEX_RETRIES = 5
    INDEX_BACKOFF_S = 0.05

    def __init__(self, root, index_retries: int | None = None,
                 index_backoff_s: float | None = None) -> None:
        self.root = pathlib.Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.index_retries = (self.INDEX_RETRIES if index_retries is None
                              else index_retries)
        self.index_backoff_s = (self.INDEX_BACKOFF_S if index_backoff_s is None
                                else index_backoff_s)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Connection / schema
    # ------------------------------------------------------------------
    @property
    def conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(str(self.root / "index.db"), timeout=30.0)
            with conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " key TEXT PRIMARY KEY,"
                    " kind TEXT NOT NULL,"
                    " path TEXT NOT NULL,"
                    " nbytes INTEGER NOT NULL,"
                    " created_at REAL NOT NULL,"
                    " meta TEXT NOT NULL DEFAULT '{}',"
                    " sha256 TEXT NOT NULL DEFAULT '')"
                )
                conn.execute(
                    "CREATE INDEX IF NOT EXISTS entries_kind ON entries(kind)"
                )
                # Stores written before payload hashing gain the column
                # in place; their rows keep an empty hash, which skips
                # verification (JSON decoding still guards them).
                cols = {row[1] for row in
                        conn.execute("PRAGMA table_info(entries)")}
                if "sha256" not in cols:
                    conn.execute("ALTER TABLE entries "
                                 "ADD COLUMN sha256 TEXT NOT NULL DEFAULT ''")
            self._local.conn = conn
        return conn

    # ------------------------------------------------------------------
    # Fault accounting / retry
    # ------------------------------------------------------------------
    def _count(self, name: str, by: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def fault_stats(self) -> dict[str, int]:
        """Per-instance defect counters: ``quarantined`` (corrupt
        payloads moved aside), ``read_errors`` (payloads unreadable this
        attempt), ``index_retries`` (transient sqlite errors absorbed)."""
        with self._counter_lock:
            return dict(sorted(self._counters.items()))

    def _index_retry(self, fn, op: str):
        """Run one index access with bounded backoff over transient
        ``sqlite3.OperationalError`` (a locked database under writer
        bursts).  The last attempt re-raises: a persistently unavailable
        index is the caller's degradation decision, not ours."""
        delay = self.index_backoff_s
        for attempt in range(self.index_retries):
            try:
                fault_point("store.index", op=op, attempt=attempt)
                return fn()
            except sqlite3.OperationalError as exc:
                self._count("index_retries")
                if attempt == self.index_retries - 1:
                    event("store.index_unavailable", "error", op=op,
                          attempts=self.index_retries, error=str(exc))
                    raise
                event("store.index_retry", "warn", op=op, attempt=attempt,
                      delay_s=delay)
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the *calling thread's* connection (other threads'
        connections close when they are garbage-collected — sqlite
        forbids closing them from here)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_local"] = None
        state["_counter_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()
        self._counter_lock = threading.Lock()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> pathlib.Path:
        return self.objects / key[:2] / f"{key}.json"

    def _stage_payload(self, key: str, record) -> tuple[str, int, str]:
        """Atomically materialise one payload file; returns its
        root-relative path, byte size and content hash."""
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(_encode(record), allow_nan=False,
                          separators=(",", ":"))
        tmp = path.parent / f".{key}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        tmp.write_text(text)
        os.replace(tmp, path)
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return str(path.relative_to(self.root)), len(text), sha

    def put(self, key: str, record, kind: str = "record",
            meta: dict | None = None) -> None:
        """Atomically write ``record`` under ``key`` (idempotent)."""
        self.put_many([(key, record, kind, meta)])

    def put_many(self, items) -> None:
        """Write many ``(key, record, kind, meta)`` entries with one
        index transaction.

        Payload files are still written (atomically) one by one, but the
        N index rows commit together — one journal sync instead of N,
        which is what keeps the write-back of a large cold campaign from
        being serialized on per-unit sqlite commits.
        """
        rows = []
        now = time.time()
        for key, record, kind, meta in items:
            rel, nbytes, sha = self._stage_payload(key, record)
            rows.append((key, kind, rel, nbytes, now,
                         json.dumps(meta or {}, sort_keys=True), sha))
        if not rows:
            return
        prof_count("store.payload_writes", len(rows))

        def _commit():
            with self.conn as conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO entries "
                    "(key, kind, path, nbytes, created_at, meta, sha256) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)", rows,
                )
        self._index_retry(_commit, "write")

    # ------------------------------------------------------------------
    # Verified payload reads
    # ------------------------------------------------------------------
    def _drop_row(self, key: str) -> None:
        def _delete():
            with self.conn as conn:
                conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        self._index_retry(_delete, "write")

    def _quarantine(self, key: str, rel: str, reason: str) -> None:
        """Move a corrupt payload out of the object tree (keeping the
        evidence) and drop its index row, so the key reads as a miss and
        the caller recomputes."""
        path = self.root / rel
        qdir = self.root / "quarantine"
        qdir.mkdir(exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        self._drop_row(key)
        self._count("quarantined")
        event("store.quarantine", "error", key=key, path=rel, reason=reason)

    def _load_payload(self, key: str, rel: str, sha: str):
        """Read + verify one payload; ``None`` means "treat as a miss".

        A vanished file drops the (dangling) row; an I/O error counts as
        transiently unreadable and leaves the row for a later attempt; a
        hash mismatch or truncated/garbled JSON quarantines the file —
        corruption must never crash the reader *or* silently serve a
        wrong record.
        """
        prof_count("store.payload_reads")
        try:
            fault_point("store.payload_read", key=key)
            text = (self.root / rel).read_text()
        except FileNotFoundError:
            self._drop_row(key)
            return None
        except OSError as exc:
            self._count("read_errors")
            event("store.read_error", "warn", key=key,
                  error=f"{type(exc).__name__}: {exc}")
            return None
        if sha and hashlib.sha256(text.encode("utf-8")).hexdigest() != sha:
            self._quarantine(key, rel, "sha256 mismatch")
            return None
        try:
            return _decode(json.loads(text))
        except json.JSONDecodeError:
            self._quarantine(key, rel, "invalid JSON")
            return None

    def get(self, key: str):
        """The record under ``key``, or ``None``.  Dangling, unreadable
        and corrupt entries all read as misses (see
        :meth:`_load_payload`)."""
        row = self._index_retry(
            lambda: self.conn.execute(
                "SELECT path, sha256 FROM entries WHERE key = ?", (key,)
            ).fetchone(), "read")
        if row is None:
            return None
        return self._load_payload(key, row[0], row[1])

    def get_many(self, keys) -> dict:
        """``{key: record}`` for every present, intact key (one query
        per 500; corrupt payloads quarantined and skipped)."""
        keys = list(keys)
        out: dict = {}
        for i in range(0, len(keys), 500):
            batch = keys[i:i + 500]
            marks = ",".join("?" * len(batch))
            rows = self._index_retry(
                lambda b=batch, m=marks: self.conn.execute(
                    f"SELECT key, path, sha256 FROM entries "
                    f"WHERE key IN ({m})", b,
                ).fetchall(), "read")
            for key, rel, sha in rows:
                record = self._load_payload(key, rel, sha)
                if record is not None:
                    out[key] = record
        return out

    def verify(self) -> dict:
        """Read-verify every payload against its stored hash, moving
        corrupt ones to quarantine.  Returns ``{checked, intact,
        quarantined, missing}`` (`repro store verify`)."""
        rows = self._index_retry(
            lambda: self.conn.execute(
                "SELECT key, path, sha256 FROM entries").fetchall(), "read")
        before = self.fault_stats().get("quarantined", 0)
        intact = 0
        for key, rel, sha in rows:
            if self._load_payload(key, rel, sha) is not None:
                intact += 1
        quarantined = self.fault_stats().get("quarantined", 0) - before
        return {
            "checked": len(rows),
            "intact": intact,
            "quarantined": quarantined,
            "missing": len(rows) - intact - quarantined,
        }

    def contains_many(self, keys) -> set:
        """The subset of ``keys`` present in the index, without reading
        a single payload (one batched ``IN`` query per 500 keys).

        This is the serve layer's warm-hit probe: deciding whether a
        whole campaign can be answered from the store must not cost N
        point lookups or N payload reads.  An index row whose payload
        file has since vanished still counts as present here — the
        follow-up :meth:`get_many` self-heals such rows into misses and
        the caller re-executes exactly those units.
        """
        keys = list(keys)
        prof_count("store.index_probes", len(keys))
        out: set = set()
        for i in range(0, len(keys), 500):
            batch = keys[i:i + 500]
            marks = ",".join("?" * len(batch))
            rows = self._index_retry(
                lambda b=batch, m=marks: self.conn.execute(
                    f"SELECT key FROM entries WHERE key IN ({m})", b,
                ).fetchall(), "read")
            out.update(key for (key,) in rows)
        return out

    def contains(self, key: str) -> bool:
        row = self._index_retry(
            lambda: self.conn.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone(), "read")
        return row is not None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return int(self._index_retry(
            lambda: self.conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone(), "read")[0])

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def entries(self, kind: str | None = None):
        """Yield ``(key, kind, nbytes, created_at, meta)`` rows, newest
        first."""
        sql = ("SELECT key, kind, nbytes, created_at, meta FROM entries "
               + ("WHERE kind = ? " if kind else "")
               + "ORDER BY created_at DESC, key")
        args = (kind,) if kind else ()
        rows = self._index_retry(
            lambda: self.conn.execute(sql, args).fetchall(), "read")
        for key, k, nbytes, created, meta in rows:
            yield key, k, nbytes, created, json.loads(meta)

    def keys(self, kind: str | None = None) -> list[str]:
        return [key for key, *_ in self.entries(kind)]

    def stat(self) -> dict:
        """Aggregate counts and bytes, overall and per kind."""
        kinds: dict[str, dict] = {}
        rows = self._index_retry(
            lambda: self.conn.execute(
                "SELECT kind, COUNT(*), COALESCE(SUM(nbytes), 0) "
                "FROM entries GROUP BY kind ORDER BY kind").fetchall(),
            "read")
        for kind, count, nbytes in rows:
            kinds[kind] = {"entries": int(count), "bytes": int(nbytes)}
        return {
            "root": str(self.root),
            "entries": sum(k["entries"] for k in kinds.values()),
            "bytes": sum(k["bytes"] for k in kinds.values()),
            "kinds": kinds,
        }

    def gc(self, grace_s: float = 300.0) -> dict:
        """Restore index/objects consistency.

        Drops index rows whose payload file is gone, deletes payload
        files (and stale ``.tmp`` staging files) the index does not
        reference, and prunes empty fan-out directories.  Safe to run
        concurrently with readers and writers: files younger than
        ``grace_s`` are left alone — a concurrent ``put`` stages its
        payload and commits its index row moments apart, and the grace
        window keeps that in-flight pair out of reach.  Everything
        older that gc removes is either unreachable or the leftover of
        an interrupted write.
        """
        def _drop_dangling() -> int:
            removed = 0
            with self.conn as conn:
                for (key, rel) in conn.execute(
                    "SELECT key, path FROM entries"
                ).fetchall():
                    if not (self.root / rel).exists():
                        conn.execute("DELETE FROM entries WHERE key = ?",
                                     (key,))
                        removed += 1
            return removed
        removed_rows = self._index_retry(_drop_dangling, "write")
        # File walk first, index snapshot second: a payload replaced and
        # committed between the two shows up in `indexed` and is kept.
        candidates = []
        now = time.time()
        for path in sorted(self.objects.rglob("*")):
            if path.is_dir():
                continue
            try:
                if now - path.stat().st_mtime < grace_s:
                    continue
            except FileNotFoundError:
                continue
            candidates.append(path)
        indexed = {rel for (rel,) in self._index_retry(
            lambda: self.conn.execute(
                "SELECT path FROM entries").fetchall(), "read")}
        removed_files = 0
        for path in candidates:
            if str(path.relative_to(self.root)) not in indexed:
                path.unlink(missing_ok=True)
                removed_files += 1
        dir_now = time.time()  # fresh: the unlinks above touched dir mtimes
        for sub in sorted(self.objects.iterdir()):
            try:
                # Same grace rule as for files: a concurrent put mkdirs
                # its fan-out directory moments before staging into it.
                if (sub.is_dir() and dir_now - sub.stat().st_mtime >= grace_s
                        and not any(sub.iterdir())):
                    sub.rmdir()
            except OSError:
                pass  # a writer landed in it between the check and rmdir
        return {
            "removed_rows": removed_rows,
            "removed_files": removed_files,
            "entries": len(self),
        }

    def export(self, path, kind: str | None = None) -> int:
        """Dump entries (optionally one kind) as a single JSON document
        ``{"entries": [{key, kind, created_at, meta, record}, ...]}``;
        returns the number exported."""
        dumped = []
        for key, k, _nbytes, created, meta in self.entries(kind):
            record = self.get(key)
            if record is None:
                continue
            dumped.append({"key": key, "kind": k, "created_at": created,
                           "meta": meta, "record": _encode(record)})
        payload = {"root": str(self.root), "entries": dumped}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return len(dumped)
