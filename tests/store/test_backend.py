"""ResultStore backend: round-trip exactness, legacy-row gc, concurrent
sharing, export."""

import json
import math
import sqlite3
import struct
import subprocess
import sys

import pytest

from repro.store import ResultStore


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def legacy_store(root, keys) -> ResultStore:
    """A root as the file layout left it: rows with a payload path but
    no payload."""
    root.mkdir()
    conn = sqlite3.connect(str(root / "index.db"))
    with conn:
        conn.execute(
            "CREATE TABLE entries (key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
            " path TEXT NOT NULL, nbytes INTEGER NOT NULL,"
            " created_at REAL NOT NULL, meta TEXT NOT NULL DEFAULT '{}',"
            " sha256 TEXT NOT NULL DEFAULT '')")
        conn.executemany(
            "INSERT INTO entries VALUES (?, 'record', ?, 2, 0.0, '{}', '')",
            [(key, f"objects/{key[:2]}/{key}.json") for key in keys])
    conn.close()
    return ResultStore(root)


class TestRoundTrip:
    def test_basic(self, store):
        store.put("k1", {"a": 1.5, "b": -2.0}, kind="campaign-unit")
        assert store.get("k1") == {"a": 1.5, "b": -2.0}
        assert "k1" in store and "k2" not in store
        assert store.get("k2") is None
        assert len(store) == 1

    def test_floats_bit_exact(self, store):
        values = {"pi": math.pi, "tiny": 5e-324, "neg0": -0.0,
                  "big": 1.7976931348623157e308, "x": 0.1 + 0.2}
        store.put("f", values)
        back = store.get("f")
        for k, v in values.items():
            assert bits(back[k]) == bits(v), k

    def test_non_finite_survive_strict_json(self, store):
        store.put("nf", {"nan": math.nan, "pinf": math.inf,
                         "ninf": -math.inf, "nested": [math.nan, 1.0]})
        # the stored payload is strict JSON (no NaN/Infinity literals)
        [text] = store.conn.execute(
            "SELECT payload FROM entries WHERE key = 'nf'").fetchone()
        json.loads(text, parse_constant=lambda s: pytest.fail(
            f"non-strict JSON constant {s} in payload"))
        back = store.get("nf")
        assert math.isnan(back["nan"]) and back["pinf"] == math.inf
        assert back["ninf"] == -math.inf and math.isnan(back["nested"][0])

    def test_key_order_preserved(self, store):
        """Record key order is part of the byte-identity contract: the
        merged CampaignResult derives metric column order from it."""
        store.put("o", {"z": 1.0, "a": 2.0, "m": 3.0})
        assert list(store.get("o")) == ["z", "a", "m"]

    def test_put_is_idempotent_overwrite(self, store):
        store.put("k", {"v": 1.0})
        store.put("k", {"v": 2.0})
        assert store.get("k") == {"v": 2.0}
        assert len(store) == 1

    def test_get_many(self, store):
        for i in range(7):
            store.put(f"k{i}", {"i": float(i)})
        got = store.get_many([f"k{i}" for i in range(10)])
        assert set(got) == {f"k{i}" for i in range(7)}
        assert got["k3"] == {"i": 3.0}
        assert store.get_many([]) == {}

    def test_put_many_single_transaction(self, store):
        store.put_many([(f"m{i}", {"i": float(i)}, "campaign-unit",
                         {"n": i}) for i in range(5)])
        assert len(store) == 5
        assert store.get("m2") == {"i": 2.0}
        store.put_many([])                         # no-op, no error


class TestMaintenance:
    def test_stat(self, store):
        store.put("a", {"x": 1.0}, kind="campaign-unit")
        store.put("b", {"x": 1.0}, kind="design-eval")
        stat = store.stat()
        assert stat["entries"] == 2
        assert set(stat["kinds"]) == {"campaign-unit", "design-eval"}
        assert stat["bytes"] > 0

    def test_gc_removes_dangling_row(self, tmp_path):
        store = legacy_store(tmp_path / "s", ["gone"])
        summary = store.gc()
        assert summary["removed_rows"] == 1
        assert "gone" not in store

    def test_quarantine_spares_a_row_rewritten_since_the_read(self, store):
        """A reader quarantines the bytes it verified: a concurrent
        writer's fresh row for the same key stays."""
        store.put("k", {"x": 1.0})
        store._quarantine("k", b"{torn", "sha256 mismatch")
        assert "quarantined" not in store.fault_stats()
        assert store.get("k") == {"x": 1.0}

    def test_reserved_token_key_rejected(self, store):
        with pytest.raises(ValueError, match="reserved"):
            store.put("bad", {"$nf": "nan"})
        with pytest.raises(ValueError, match="reserved"):
            store.put("bad", {"nested": [{"$nf": 1.0}]})

    def test_missing_payload_is_a_miss(self, tmp_path):
        store = legacy_store(tmp_path / "s", ["gone"])
        assert store.get("gone") is None
        assert "gone" not in store                 # a payload-less row
        assert len(store) == 0                     # is not an entry

    def test_export(self, store, tmp_path):
        store.put("a", {"x": math.nan}, kind="campaign-unit",
                  meta={"builder": "bias"})
        store.put("b", {"y": 2.0}, kind="design-eval")
        out = tmp_path / "dump.json"
        assert store.export(out, kind="campaign-unit") == 1
        payload = json.loads(out.read_text())
        [entry] = payload["entries"]
        assert entry["key"] == "a" and entry["meta"]["builder"] == "bias"
        assert store.export(out) == 2

    def test_entries_filter_and_order(self, store):
        store.put("a", {"x": 1.0}, kind="ka")
        store.put("b", {"x": 1.0}, kind="kb")
        assert store.keys(kind="ka") == ["a"]
        assert set(store.keys()) == {"a", "b"}


class TestSharing:
    def test_two_handles_share_one_root(self, tmp_path):
        a = ResultStore(tmp_path / "s")
        b = ResultStore(tmp_path / "s")
        a.put("k", {"v": 42.0})
        assert b.get("k") == {"v": 42.0}

    def test_concurrent_processes(self, tmp_path):
        """Two interpreters writing disjoint keys into one root: no lost
        writes, no torn payloads."""
        root = tmp_path / "shared"
        script = (
            "import sys; from repro.store import ResultStore\n"
            "s = ResultStore(sys.argv[1])\n"
            "tag = sys.argv[2]\n"
            "for i in range(25):\n"
            "    s.put(f'{tag}{i}', {'i': float(i), 'tag': tag})\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(root), tag])
                 for tag in ("a", "b")]
        for p in procs:
            assert p.wait(timeout=60) == 0
        store = ResultStore(root)
        assert len(store) == 50
        for tag in ("a", "b"):
            for i in range(25):
                assert store.get(f"{tag}{i}") == {"i": float(i), "tag": tag}

    def test_pickles_without_connection(self, store):
        import pickle

        store.put("k", {"v": 1.0})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("k") == {"v": 1.0}

    def test_one_handle_shared_across_threads(self, store):
        """The serve layer shares one store object between HTTP handler
        threads and its worker pool: connections are per-thread, so
        cross-thread use must just work."""
        import threading

        store.put("main", {"v": 1.0})
        results = {}

        def reader_writer(tag):
            results[tag] = store.get("main")
            store.put(tag, {"tag": tag})

        threads = [threading.Thread(target=reader_writer, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(v == {"v": 1.0} for v in results.values())
        assert len(store) == 5


class TestContainsMany:
    def test_batched_membership(self, store):
        for i in range(7):
            store.put(f"k{i}", {"i": float(i)})
        present = store.contains_many([f"k{i}" for i in range(10)])
        assert present == {f"k{i}" for i in range(7)}
        assert store.contains_many([]) == set()

    def test_spans_query_batches(self, store):
        keys = [f"key-{i:04d}" for i in range(1200)]
        store.put_many([(k, {"i": float(i)}, "record", None)
                        for i, k in enumerate(keys)])
        present = store.contains_many(keys + ["absent"])
        assert present == set(keys)


class TestNumericsStamp:
    def test_meta_carries_hash_and_table_holds_fingerprint(self, store):
        from repro.numerics import fingerprint, fingerprint_stamp

        store.put("k", {"x": 1.0}, meta={"builder": "bias"})
        [(_key, _kind, _n, _t, meta)] = store.entries()
        stamp, _text = fingerprint_stamp()
        assert meta == {"builder": "bias", "numerics": stamp}
        assert store.fingerprints() == {stamp: fingerprint()}

    def test_hash_of_quarantined_entries_is_not_reported(self, store):
        store.put("k", {"x": 1.0})
        with store.conn as conn:
            conn.execute("UPDATE entries SET payload = '{torn'")
        assert store.get("k") is None
        assert store.fingerprints() == {}
