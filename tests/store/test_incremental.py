"""Incremental campaign execution: cached-vs-missing partitioning and
the byte-identity contract across partial runs and processes."""

import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.store import ResultStore


@pytest.fixture(scope="module")
def micamp_spec():
    return CampaignSpec(
        builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
        seeds=(0, 1), gain_codes=(5,),
        measurements=("offset_v", "iq_ma", "gain_1khz_db"),
    )


@pytest.fixture(scope="module")
def plain_result(micamp_spec):
    return run_campaign(micamp_spec)


class TestIncrementalExecution:
    def test_cold_run_matches_plain_and_populates(self, micamp_spec,
                                                  plain_result, tmp_path):
        store = ResultStore(tmp_path / "s")
        cold = run_campaign(micamp_spec, store=store)
        assert cold.store_stats == {
            "reused_units": 0, "executed_units": micamp_spec.n_units,
            "store_root": str(store.root), "store_errors": 0,
        }
        assert cold.data.tobytes() == plain_result.data.tobytes()
        assert len(store) == micamp_spec.n_units

    def test_warm_rerun_executes_nothing_byte_identical(
            self, micamp_spec, plain_result, tmp_path):
        root = tmp_path / "s"
        run_campaign(micamp_spec, store=ResultStore(root))
        warm = run_campaign(micamp_spec, store=ResultStore(root))
        assert warm.store_stats["executed_units"] == 0
        assert warm.store_stats["reused_units"] == micamp_spec.n_units
        assert warm.metrics == plain_result.metrics
        assert warm.data.tobytes() == plain_result.data.tobytes()
        assert warm.to_json() == plain_result.to_json()

    def test_grown_axis_reuses_overlap(self, micamp_spec, tmp_path):
        root = tmp_path / "s"
        run_campaign(micamp_spec, store=ResultStore(root))
        grown_spec = CampaignSpec(
            builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
            seeds=(0, 1, 2), gain_codes=(5,),
            measurements=("offset_v", "iq_ma", "gain_1khz_db"),
        )
        grown = run_campaign(grown_spec, store=ResultStore(root))
        assert grown.store_stats["reused_units"] == micamp_spec.n_units
        assert grown.store_stats["executed_units"] == \
            grown_spec.n_units - micamp_spec.n_units
        # and the merged result equals an uncached full run, bitwise
        full = run_campaign(grown_spec)
        assert grown.data.tobytes() == full.data.tobytes()

    def test_changed_measurements_miss(self, micamp_spec, tmp_path):
        root = tmp_path / "s"
        run_campaign(micamp_spec, store=ResultStore(root))
        other = CampaignSpec(
            builder="micamp", corners=("tt", "ss"), temps_c=(25.0,),
            seeds=(0, 1), gain_codes=(5,), measurements=("offset_v",),
        )
        res = run_campaign(other, store=ResultStore(root))
        assert res.store_stats["reused_units"] == 0

    def test_only_missing_units_execute(self, micamp_spec, plain_result,
                                        tmp_path):
        root = tmp_path / "s"
        # seed the store with half the campaign
        half = micamp_spec.expand()[:2]
        run_campaign(micamp_spec, store=ResultStore(root), units=half)
        mixed = run_campaign(micamp_spec, store=ResultStore(root))
        assert mixed.store_stats["reused_units"] == 2
        assert mixed.store_stats["executed_units"] == micamp_spec.n_units - 2
        assert mixed.data.tobytes() == plain_result.data.tobytes()

    def test_store_bytes_independent_of_grouping(self, micamp_spec,
                                                 tmp_path):
        """Acceptance: store-backed runs are deterministic however the
        units were grouped — one 4-unit tensor group, or two 2-unit
        per-unit runs — same keys, same payload bytes."""
        ra, rb = tmp_path / "a", tmp_path / "b"
        run_campaign(micamp_spec, store=ResultStore(ra))
        units = micamp_spec.expand()
        run_campaign(micamp_spec, store=ResultStore(rb), units=units[:2])
        run_campaign(micamp_spec, store=ResultStore(rb))
        sa, sb = ResultStore(ra), ResultStore(rb)
        keys_a, keys_b = set(sa.keys()), set(sb.keys())
        assert keys_a == keys_b and keys_a
        payload = "SELECT payload, sha256 FROM entries WHERE key = ?"
        for key in keys_a:
            assert sa.conn.execute(payload, (key,)).fetchone() == \
                sb.conn.execute(payload, (key,)).fetchone()


class TestCrossProcess:
    def test_warm_rerun_from_another_process(self, tmp_path):
        """Acceptance: a campaign cached by one process is reused, byte
        for byte, by another."""
        root = tmp_path / "shared"
        args = ["campaign", "--builder", "bias", "--corners", "tt,ss",
                "--temps", "25,85", "--measure", "bias_current_ua",
                "--store", str(root)]
        script = ("import sys; from repro.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")

        cold = subprocess.run(
            [sys.executable, "-c", script, *args, "--json",
             str(tmp_path / "cold.json")],
            capture_output=True, text=True, check=True)
        assert "0 reused, 4 executed" in cold.stdout

        warm = subprocess.run(
            [sys.executable, "-c", script, *args, "--json",
             str(tmp_path / "warm.json")],
            capture_output=True, text=True, check=True)
        assert "4 reused, 0 executed" in warm.stdout
        assert (tmp_path / "cold.json").read_bytes() == \
            (tmp_path / "warm.json").read_bytes()

        # and in-process against the same root, still byte-identical
        spec = CampaignSpec(builder="bias", corners=("tt", "ss"),
                            temps_c=(25.0, 85.0),
                            measurements=("bias_current_ua",))
        local = run_campaign(spec, store=ResultStore(root))
        assert local.store_stats["executed_units"] == 0
        assert local.to_json() + "\n" == (tmp_path / "cold.json").read_text()


class TestEdgeCases:
    """Empty campaigns and unit subsets must be well-formed."""

    @pytest.fixture(scope="class")
    def bias_spec(self):
        return CampaignSpec(builder="bias", corners=("tt", "ss"),
                            temps_c=(25.0,), measurements=("bias_current_ua",))

    def test_zero_units(self, bias_spec):
        result = run_campaign(bias_spec, units=[])
        assert len(result) == 0
        assert result.metrics == ()
        assert result.columns == ("corner", "temp_c", "supply", "seed",
                                  "gain_code")
        assert "0 units" in result.summary()
        assert result.to_json()            # exportable

    def test_zero_units_with_store(self, bias_spec, tmp_path):
        result = run_campaign(bias_spec, store=ResultStore(tmp_path / "s"),
                              units=[])
        assert len(result) == 0
        assert result.store_stats["executed_units"] == 0
        assert result.store_stats["reused_units"] == 0

    def test_explicit_unit_subset(self, bias_spec):
        units = bias_spec.expand()[:1]
        result = run_campaign(bias_spec, units=units)
        assert len(result) == 1
        assert result.column("corner")[0] == "tt"
