"""The on-disk result store: one sqlite database holding every record.

Layout under the store root::

    <root>/index.db    sqlite tables:
                         entries    key -> kind, payload, sha256, meta
                         quarantine corrupt rows moved aside, with a reason
                         numerics   short hash -> numerics fingerprint JSON

Records are content-addressed by the caller-supplied key (see
:mod:`repro.store.keys`) and each row holds its record's canonical JSON
text, so :meth:`ResultStore.put_many` is one ``executemany`` and one
commit, and :meth:`ResultStore.get_many` reads payloads in the query
that finds the keys.  sqlite's journaling (default mode and
``synchronous``) makes a write all-or-nothing, and its locking (30 s
busy timeout) lets any number of processes share one store root.  Two
writers racing on a key write the same bytes, because keys are content
hashes of everything the value depends on.

Floats survive exactly: payload JSON renders them via ``repr`` (the
shortest round-trip form), so a record read back from the store is
bit-identical to the one that was written — the foundation of the
"warm rerun is byte-identical" contract that
``tests/store/test_incremental.py`` pins.  Non-finite values are wrapped
in ``{"$nf": ...}`` tokens to keep every payload strict JSON.

Two defensive layers keep a damaged store from lying or crashing:

* every row carries the **SHA-256 of its payload bytes**; reads verify
  it, and a corrupt or truncated payload is **quarantined** (the row
  moves to the ``quarantine`` table in one transaction) and reported as
  a miss, so the caller transparently recomputes instead of serving
  garbage;
* every index access runs under :meth:`ResultStore._index_retry` —
  bounded exponential backoff over transient
  ``sqlite3.OperationalError`` (locked database), so a burst of writers
  degrades to latency, not tracebacks.

Both paths are exercised deterministically through the
``store.payload_read`` / ``store.index`` fault points
(:mod:`repro.faults`) by ``tests/faults/test_store_faults.py``.

Each row's ``meta`` carries ``numerics``, the short hash of the writer's
numerics fingerprint (:func:`repro.numerics.fingerprint_stamp`), whose
full JSON the ``numerics`` table keeps once per hash.

Rows written by the earlier file layout (payloads under ``objects/``)
have no payload: opening such a store sets them aside, so they read as
misses and get recomputed, and :meth:`ResultStore.gc` is the one-time
cleanup of them and their files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import shutil
import sqlite3
import threading
import time

from repro.faults.harness import fault_point
from repro.numerics import fingerprint_stamp
from repro.obs.recorder import event, prof_count

#: Environment variable naming the default store root for the CLI.
STORE_ENV = "REPRO_STORE"

#: Schema version kept in sqlite's ``user_version`` (0 is the file layout).
_LAYOUT = 1


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
        self.root.mkdir(parents=True, exist_ok=True)
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
            # One pragma read per connection once the schema is current.
            if conn.execute("PRAGMA user_version").fetchone()[0] != _LAYOUT:
                with conn:
                    self._bootstrap(conn)
            self._local.conn = conn
        return conn

    @staticmethod
    def _bootstrap(conn: sqlite3.Connection) -> None:
        """Create the tables.  A file-layout store's index, whose rows
        have a payload path but no payload, is set aside whole as
        ``legacy_entries`` for :meth:`gc`, so its keys read as misses.
        Idempotent, so racing connections may both run it."""
        cols = {row[1] for row in conn.execute("PRAGMA table_info(entries)")}
        if "path" in cols:
            conn.execute("DROP INDEX IF EXISTS entries_kind")
            conn.execute("ALTER TABLE entries RENAME TO legacy_entries")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " key TEXT PRIMARY KEY,"
            " kind TEXT NOT NULL,"
            " nbytes INTEGER NOT NULL,"
            " created_at REAL NOT NULL,"
            " meta TEXT NOT NULL,"
            " sha256 TEXT NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        conn.execute("CREATE INDEX IF NOT EXISTS entries_kind ON entries(kind)")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " key TEXT NOT NULL, kind TEXT NOT NULL, payload TEXT NOT NULL,"
            " sha256 TEXT NOT NULL, reason TEXT NOT NULL,"
            " quarantined_at REAL NOT NULL)"
        )
        conn.execute("CREATE TABLE IF NOT EXISTS numerics ("
                     " hash TEXT PRIMARY KEY, fingerprint TEXT NOT NULL)")
        conn.execute(f"PRAGMA user_version = {_LAYOUT}")

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
    def put(self, key: str, record, kind: str = "record",
            meta: dict | None = None) -> None:
        """Write ``record`` under ``key`` (idempotent)."""
        self.put_many([(key, record, kind, meta)])

    def put_many(self, items) -> None:
        """Write many ``(key, record, kind, meta)`` entries in one
        transaction: one ``executemany`` and one commit (one journal
        sync) however many records the batch holds.  Every row's
        ``meta`` is stamped with this process's numerics hash."""
        stamp, fingerprint = fingerprint_stamp()
        rows = []
        now = time.time()
        for key, record, kind, meta in items:
            text = json.dumps(_encode(record), allow_nan=False,
                              separators=(",", ":"))
            data = text.encode("utf-8")
            rows.append((key, kind, len(data), now,
                         json.dumps({**(meta or {}), "numerics": stamp},
                                    sort_keys=True),
                         hashlib.sha256(data).hexdigest(), text))
        if not rows:
            return
        prof_count("store.payload_writes", len(rows))

        def _commit():
            with self.conn as conn:
                conn.execute("INSERT OR IGNORE INTO numerics "
                             "(hash, fingerprint) VALUES (?, ?)",
                             (stamp, fingerprint))
                conn.executemany(
                    "INSERT OR REPLACE INTO entries "
                    "(key, kind, nbytes, created_at, meta, sha256, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)", rows,
                )
        self._index_retry(_commit, "write")

    # ------------------------------------------------------------------
    # Verified payload reads
    # ------------------------------------------------------------------
    def _quarantine(self, key: str, data: bytes, reason: str) -> None:
        """Move a corrupt row into the ``quarantine`` table (keeping the
        evidence) in one transaction, so the key reads as a miss and the
        caller recomputes.  A row rewritten since it was read stays."""
        def _move():
            with self.conn as conn:
                match = ("FROM entries WHERE key = ? "
                         "AND CAST(payload AS BLOB) = ?")
                conn.execute(
                    "INSERT INTO quarantine (key, kind, payload, sha256, "
                    "reason, quarantined_at) SELECT key, kind, payload, "
                    f"sha256, ?, ? {match}", (reason, time.time(), key, data))
                return conn.execute(f"DELETE {match}", (key, data)).rowcount
        if self._index_retry(_move, "write"):
            self._count("quarantined")
            event("store.quarantine", "error", key=key, reason=reason)

    def _load_payload(self, key: str, data: bytes, sha: str):
        """Verify one payload; ``None`` means "treat as a miss".

        An I/O error counts as transiently unreadable and leaves the row
        for a later attempt; a hash mismatch or garbled JSON quarantines
        the row — corruption must never crash the reader *or* silently
        serve a wrong record.
        """
        prof_count("store.payload_reads")
        try:
            fault_point("store.payload_read", key=key)
        except OSError as exc:
            self._count("read_errors")
            event("store.read_error", "warn", key=key,
                  error=f"{type(exc).__name__}: {exc}")
            return None
        if hashlib.sha256(data).hexdigest() != sha:
            self._quarantine(key, data, "sha256 mismatch")
            return None
        try:
            return _decode(json.loads(data))
        except ValueError:
            self._quarantine(key, data, "invalid JSON")
            return None

    def get(self, key: str):
        """The record under ``key``, or ``None``.  Unreadable and corrupt
        entries read as misses (see :meth:`_load_payload`)."""
        return self.get_many([key]).get(key)

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
                    # Bytes, so a non-UTF-8 corruption reaches the hash
                    # check instead of failing the whole query.
                    f"SELECT key, CAST(payload AS BLOB), sha256 FROM entries "
                    f"WHERE key IN ({m})", b,
                ).fetchall(), "read")
            for key, data, sha in rows:
                record = self._load_payload(key, data, sha)
                if record is not None:
                    out[key] = record
        return out

    def verify(self) -> dict:
        """Read-verify every payload against its stored hash, moving
        corrupt ones to quarantine.  Returns ``{checked, intact,
        quarantined, missing}``, where ``missing`` counts payloads that
        could not be read this time (`repro store verify`)."""
        keys = self.keys()
        before = self.fault_stats().get("quarantined", 0)
        intact = len(self.get_many(keys))
        quarantined = self.fault_stats().get("quarantined", 0) - before
        return {
            "checked": len(keys),
            "intact": intact,
            "quarantined": quarantined,
            "missing": len(keys) - intact - quarantined,
        }

    def contains_many(self, keys) -> set:
        """The subset of ``keys`` present in the store, without reading
        a single payload (one batched ``IN`` query per 500 keys).

        This is the serve layer's warm-hit probe: deciding whether a
        whole campaign can be answered from the store must not cost N
        point lookups or N payload reads.  A payload lives in its own
        row, so a key reported here has its bytes; only a corrupt
        payload, quarantined by the follow-up :meth:`get_many`, turns it
        into a miss, and the caller then re-executes exactly those
        units.
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
        return bool(self.contains_many([key]))

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

    def fingerprints(self) -> dict[str, dict]:
        """``{hash: numerics fingerprint}`` for every numerics hash
        stamped on a stored entry."""
        rows = self._index_retry(
            lambda: self.conn.execute(
                "SELECT hash, fingerprint FROM numerics WHERE hash IN "
                "(SELECT json_extract(meta, '$.numerics') FROM entries) "
                "ORDER BY hash").fetchall(),
            "read")
        return {h: json.loads(fp) for h, fp in rows}

    def gc(self) -> dict:
        """One-time cleanup of a store written by the file layout: drop
        its payload-less rows (``legacy_entries``) and remove the
        leftover ``objects/`` and ``quarantine/`` trees.  A no-op on a
        store the inline layout wrote."""
        def _drop_legacy() -> int:
            with self.conn as conn:
                if not conn.execute("SELECT 1 FROM sqlite_master WHERE "
                                    "name = 'legacy_entries'").fetchone():
                    return 0
                [n] = conn.execute(
                    "SELECT COUNT(*) FROM legacy_entries").fetchone()
                conn.execute("DROP TABLE legacy_entries")
                return n
        removed_rows = self._index_retry(_drop_legacy, "write")
        removed_files = 0
        for tree in (self.root / "objects", self.root / "quarantine"):
            if tree.is_dir():
                removed_files += sum(1 for p in tree.rglob("*")
                                     if not p.is_dir())
                shutil.rmtree(tree, ignore_errors=True)
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
