"""Store hardening under attack: corruption, truncation, locked index.

Everything is driven through the public APIs (``run_campaign`` with a
store, ``ResultStore.get/verify``) and every recovery is checked for the
byte-identity contract: a store that lied, lost payloads or locked up
must still produce exactly the bytes of a fault-free run.  Corruption is
written straight into the ``payload`` column of the store's sqlite
database.
"""

import hashlib
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.faults import FaultPlan, FaultRule
from repro.store import ResultStore, UnitKeyer

SPEC = CampaignSpec(builder="bias", corners=("tt", "ss"),
                    temps_c=(25.0, 85.0), measurements=("bias_current_ua",))


@pytest.fixture(scope="module")
def reference():
    return run_campaign(SPEC)


def _first_payload(store: ResultStore):
    return store.keys()[0]


def _payload(store: ResultStore, key: str) -> str:
    return store.conn.execute("SELECT payload FROM entries WHERE key = ?",
                              (key,)).fetchone()[0]


def _set_payload(store: ResultStore, key: str, payload) -> None:
    with store.conn as conn:
        conn.execute("UPDATE entries SET payload = ? WHERE key = ?",
                     (payload, key))


class TestPayloadCorruption:
    def test_corrupt_payload_quarantined_and_recomputed(self, tmp_path,
                                                        reference):
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        key = _first_payload(store)
        _set_payload(store, key, '{"bias_current_ua": 999.0}')  # wrong bytes

        again = run_campaign(SPEC, store=ResultStore(tmp_path / "s"))
        assert again.data.tobytes() == reference.data.tobytes()
        assert again.store_stats["executed_units"] == 1    # only the bad one
        assert again.store_stats["reused_units"] == SPEC.n_units - 1
        # evidence preserved, key healed on the recompute
        healed = ResultStore(tmp_path / "s")
        assert healed.conn.execute(
            "SELECT key, payload, reason FROM quarantine").fetchall() == [
            (key, '{"bias_current_ua": 999.0}', "sha256 mismatch")]
        assert healed.get(key) is not None

    def test_truncated_payload_reads_as_miss(self, tmp_path, reference):
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        key = _first_payload(store)
        _set_payload(store, key, _payload(store, key)[:7])  # torn mid-write

        fresh = ResultStore(tmp_path / "s")
        assert fresh.get(key) is None
        assert fresh.fault_stats()["quarantined"] == 1
        again = run_campaign(SPEC, store=fresh)
        assert again.data.tobytes() == reference.data.tobytes()

    def test_non_utf8_payload_is_quarantined_not_fatal(self, tmp_path,
                                                       reference):
        """Bytes that are not UTF-8 must reach the hash check, not fail
        the whole batched read and degrade the run."""
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        with store.conn as conn:
            conn.execute("UPDATE entries SET payload = "
                         "CAST(x'ff7b746f726e' AS TEXT) WHERE key = ?",
                         (_first_payload(store),))

        again = run_campaign(SPEC, store=ResultStore(tmp_path / "s"))
        assert again.data.tobytes() == reference.data.tobytes()
        assert again.store_stats["store_errors"] == 0
        assert again.store_stats["executed_units"] == 1

    def test_injected_read_error_is_transient_not_fatal(self, tmp_path,
                                                        reference):
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        plan = FaultPlan([FaultRule("store.payload_read", raises=OSError,
                                    times=SPEC.n_units)])
        with plan.activate():
            hurt = run_campaign(SPEC, store=store)        # every read fails
        assert hurt.store_stats["reused_units"] == 0
        assert hurt.data.tobytes() == reference.data.tobytes()
        assert store.fault_stats()["read_errors"] == SPEC.n_units
        # nothing was quarantined — the payloads are fine, the reads failed
        assert "quarantined" not in store.fault_stats()
        warm = run_campaign(SPEC, store=store)
        assert warm.store_stats["reused_units"] == SPEC.n_units


class TestIndexRetry:
    def test_transient_locked_index_is_absorbed(self, tmp_path, reference):
        store = ResultStore(tmp_path / "s", index_backoff_s=0.001)
        locked = sqlite3.OperationalError("database is locked")
        plan = FaultPlan([FaultRule("store.index", raises=locked, times=2)])
        with plan.activate():
            result = run_campaign(SPEC, store=store)
        assert result.data.tobytes() == reference.data.tobytes()
        assert result.store_stats["store_errors"] == 0     # retries hid it
        assert store.fault_stats()["index_retries"] == 2
        assert len(store) == SPEC.n_units

    def test_persistently_locked_index_degrades_the_run(self, tmp_path,
                                                        reference):
        store = ResultStore(tmp_path / "s", index_retries=2,
                            index_backoff_s=0.001)
        locked = sqlite3.OperationalError("database is locked")
        with FaultPlan([FaultRule("store.index", raises=locked)]).activate():
            result = run_campaign(SPEC, store=store)
        # engine-only degradation: full recompute, correct bytes, flagged
        assert result.data.tobytes() == reference.data.tobytes()
        assert result.store_stats["executed_units"] == SPEC.n_units
        assert result.store_stats["store_errors"] == 2     # read + write-back


class TestVerify:
    def test_verify_reports_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        healthy = store.verify()
        assert healthy == {"checked": SPEC.n_units, "intact": SPEC.n_units,
                           "quarantined": 0, "missing": 0}

        key = _first_payload(store)
        _set_payload(store, key, "garbage")
        _key2 = store.keys()[1]

        # the second payload is intact but cannot be read this time
        plan = FaultPlan([FaultRule("store.payload_read", raises=OSError,
                                    when=lambda p: p["key"] == _key2)])
        with plan.activate():
            report = ResultStore(tmp_path / "s").verify()
        assert report["checked"] == SPEC.n_units
        assert report["intact"] == SPEC.n_units - 2
        assert report["quarantined"] == 1
        assert report["missing"] == 1

    def test_cli_store_verify_exit_codes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_campaign(SPEC, store=store)
        _set_payload(store, _first_payload(store), "garbage")

        script = ("import sys; from repro.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        bad = subprocess.run(
            [sys.executable, "-c", script, "store", "verify",
             "--store", str(tmp_path / "s")],
            capture_output=True, text=True)
        assert bad.returncode == 1
        assert "1 quarantined" in bad.stdout

        # the sweep removed the corruption; a second pass is clean
        good = subprocess.run(
            [sys.executable, "-c", script, "store", "verify",
             "--store", str(tmp_path / "s")],
            capture_output=True, text=True)
        assert good.returncode == 0
        assert f"{SPEC.n_units - 1} checked" in good.stdout


class TestLegacySchema:
    def test_pre_hash_store_is_migrated_in_place(self, tmp_path):
        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(str(root / "index.db"))
        with conn:
            conn.execute(
                "CREATE TABLE entries ("
                " key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
                " path TEXT NOT NULL, nbytes INTEGER NOT NULL,"
                " created_at REAL NOT NULL,"
                " meta TEXT NOT NULL DEFAULT '{}')")
        conn.close()

        store = ResultStore(root)
        store.put("k1", {"x": 1.5})
        assert store.get("k1") == {"x": 1.5}
        cols = {row[1] for row in
                store.conn.execute("PRAGMA table_info(entries)")}
        assert {"sha256", "payload"} <= cols and "path" not in cols
        assert store.gc()["removed_rows"] == 0    # the old table was empty

    def test_row_without_hash_is_quarantined(self, tmp_path):
        """Every read verifies: a blank hash, which only the pre-hash
        file layout wrote, no longer exempts a payload."""
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"x": 1.5})
        with store.conn as conn:
            conn.execute("UPDATE entries SET sha256 = ''")
        fresh = ResultStore(tmp_path / "s")
        assert fresh.get("k1") is None
        assert fresh.fault_stats()["quarantined"] == 1


class TestLegacyFileLayout:
    """A root written by the file layout: the old schema, payload files
    under ``objects/ab/<key>.json`` and rows with a path but no payload."""

    @staticmethod
    def _legacy_root(root, keys):
        root.mkdir()
        conn = sqlite3.connect(str(root / "index.db"))
        with conn:
            conn.execute(
                "CREATE TABLE entries ("
                " key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
                " path TEXT NOT NULL, nbytes INTEGER NOT NULL,"
                " created_at REAL NOT NULL,"
                " meta TEXT NOT NULL DEFAULT '{}',"
                " sha256 TEXT NOT NULL DEFAULT '')")
            conn.execute("CREATE INDEX entries_kind ON entries(kind)")
            for key in keys:
                rel = f"objects/{key[:2]}/{key}.json"
                text = '{"bias_current_ua":1.0}'
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
                conn.execute(
                    "INSERT INTO entries VALUES "
                    "(?, 'campaign-unit', ?, ?, 0.0, '{}', ?)",
                    (key, rel, len(text),
                     hashlib.sha256(text.encode()).hexdigest()))
        conn.close()
        (root / "quarantine").mkdir()
        (root / "quarantine" / "old.json").write_text("{torn")

    def test_legacy_rows_are_misses_and_gc_removes_them(self, tmp_path,
                                                        reference, capsys):
        from repro.cli import main

        keyer = UnitKeyer(SPEC)
        keys = [keyer.key(unit) for unit in SPEC.expand()]
        root = tmp_path / "old"
        self._legacy_root(root, keys + ["f" * 64])   # one unrelated row
        store = ResultStore(root)
        assert store.contains_many(keys) == set()

        result = run_campaign(SPEC, store=store)
        assert result.store_stats["executed_units"] == SPEC.n_units
        assert result.to_json() == reference.to_json()

        assert main(["store", "gc", "--store", str(root)]) == 0
        assert (f"removed {SPEC.n_units + 1} dangling index rows, "
                f"{SPEC.n_units + 2} orphan files; {SPEC.n_units} entries "
                "remain"
                in capsys.readouterr().out)
        assert not (root / "objects").exists()
        assert not (root / "quarantine").exists()
        warm = run_campaign(SPEC, store=ResultStore(root))
        assert warm.store_stats["reused_units"] == SPEC.n_units
        assert warm.to_json() == reference.to_json()
