"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in (["table1"], ["table2", "--quick"], ["noise", "--code", "3"],
                    ["gains"], ["opamp"], ["export", "micamp", "-"],
                    ["serve", "--port", "0"],
                    ["client", "submit", "spec.json", "--url", "http://x"],
                    ["client", "metrics"]):
            args = parser.parse_args(cmd)
            assert callable(args.func)

    def test_bad_gain_code_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["noise", "--code", "9"])


class TestCommands:
    def test_gains_prints_table(self, capsys):
        assert main(["gains"]) == 0
        out = capsys.readouterr().out
        assert "40.0 dB" in out
        assert "worst absolute error" in out

    def test_opamp_figures(self, capsys):
        assert main(["opamp"]) == 0
        out = capsys.readouterr().out
        assert "I_Q" in out and "GBW" in out

    def test_noise_spectrum(self, capsys):
        assert main(["noise", "--code", "5"]) == 0
        out = capsys.readouterr().out
        assert "voice-band average" in out

    def test_export_to_stdout(self, capsys):
        assert main(["export", "bias", "-"]) == 0
        out = capsys.readouterr().out
        assert ".end" in out
        assert "Qq1" in out

    def test_export_to_file(self, tmp_path, capsys):
        path = tmp_path / "buffer.cir"
        assert main(["export", "powerbuffer", str(path)]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_table1_quick(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_campaign_serial(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        assert main(["campaign", "--builder", "micamp", "--corners", "tt",
                     "--temps", "25", "--trials", "2",
                     "--measure", "offset_v,iq_ma", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "2 units" in out
        assert "iq_ma" in out
        header = csv.read_text().splitlines()[0]
        assert header.startswith("corner,temp_c,supply,seed,gain_code")

    def test_campaign_negative_temps_space_form(self, capsys):
        """`--temps -20,85` must not be eaten as an option string."""
        assert main(["campaign", "--builder", "bias", "--corners", "tt",
                     "--temps", "-20,85",
                     "--measure", "bias_current_ua"]) == 0
        assert "2 temps" in capsys.readouterr().out

    def test_campaign_explicit_seeds_and_codes(self, capsys):
        assert main(["campaign", "--corners", "tt", "--temps", "25",
                     "--seeds", "7", "--codes", "0,5",
                     "--measure", "gain_1khz_db"]) == 0
        assert "2 codes" in capsys.readouterr().out

    def test_optimize_quick_passes_table1(self, tmp_path, capsys):
        front = tmp_path / "front.json"
        assert main(["optimize", "--quick", "--no-progress",
                     "--pareto-json", str(front)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "Pareto front" in out
        assert front.exists()

    def test_optimize_bad_corner_rejected(self, capsys):
        assert main(["optimize", "--robust", "--corners", "nope",
                     "--budget", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_optimize_grid_flags_require_robust(self, capsys):
        assert main(["optimize", "--corners", "tt,ss", "--budget", "4"]) == 2
        assert "--robust" in capsys.readouterr().err
        assert main(["optimize", "--trials", "2", "--budget", "4"]) == 2
        assert "--robust" in capsys.readouterr().err


class TestSpecFiles:
    """`--spec FILE` on campaign/optimize: the serve-layer schema with
    one-line failures (never a traceback) and exit code 2."""

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    def test_campaign_spec_file_runs(self, tmp_path, capsys):
        spec = self._write(tmp_path, "spec.json", {
            "builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
            "measurements": ["bias_current_ua"]})
        assert main(["campaign", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "2 units" in out and "bias_current_ua" in out

    def test_campaign_spec_file_matches_flags(self, tmp_path, capsys):
        """The same campaign described by flags and by file must export
        identical bytes — one schema behind both front doors."""
        spec = self._write(tmp_path, "spec.json", {
            "builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
            "measurements": ["bias_current_ua"]})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["campaign", "--spec", spec, "--json", str(a)]) == 0
        assert main(["campaign", "--builder", "bias", "--corners", "tt",
                     "--temps", "25,85", "--measure", "bias_current_ua",
                     "--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_campaign_malformed_json_one_line_exit_2(self, tmp_path, capsys):
        spec = self._write(tmp_path, "broken.json", '{"builder": "bias",')
        assert main(["campaign", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err
        assert err.count("\n") == 1            # exactly one line, no traceback

    def test_campaign_schema_error_one_line_exit_2(self, tmp_path, capsys):
        spec = self._write(tmp_path, "bad.json", {"cornerz": ["tt"]})
        assert main(["campaign", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign request key(s)" in err
        assert err.count("\n") == 1

    def test_optimize_spec_file_errors_exit_2(self, tmp_path, capsys):
        for name, payload in (("bad_mode.json", {"mode": "nope"}),
                              ("broken.json", '{"budget":'),
                              ("bad_robust.json",
                               {"robust": {"corners": ["zz"]}})):
            spec = self._write(tmp_path, name, payload)
            assert main(["optimize", "--spec", spec]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_optimize_spec_file_runs(self, tmp_path, capsys):
        spec = self._write(tmp_path, "opt.json",
                           {"budget": 6, "seed": 11, "mode": "penalty"})
        main(["optimize", "--spec", spec, "--no-progress"])
        out = capsys.readouterr().out
        assert "budget 6 evaluations" in out and "seed=11" in out


class TestStoreCommands:
    def _campaign(self, root, json_path=None):
        args = ["campaign", "--builder", "bias", "--corners", "tt",
                "--temps", "25,85", "--measure", "bias_current_ua",
                "--store", str(root)]
        if json_path is not None:
            args += ["--json", str(json_path)]
        return main(args)

    def test_campaign_store_warm_rerun(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert self._campaign(root, tmp_path / "a.json") == 0
        assert "0 reused, 2 executed" in capsys.readouterr().out
        assert self._campaign(root, tmp_path / "b.json") == 0
        assert "2 reused, 0 executed" in capsys.readouterr().out
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_store_ls_stat_gc_export(self, tmp_path, capsys):
        root = tmp_path / "store"
        self._campaign(root)
        capsys.readouterr()

        assert main(["store", "ls", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "campaign-unit" in out and "bias" in out

        assert main(["store", "stat", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out

        assert main(["store", "gc", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 entries remain" in out

        dump = tmp_path / "dump.json"
        assert main(["store", "export", str(dump), "--store", str(root)]) == 0
        assert "2 entries" in capsys.readouterr().out
        assert dump.exists()

    def test_store_export_cli_round_trips_records(self, tmp_path, capsys):
        """`repro store export` must dump exactly the records a reader
        would get from the store — keys, kinds, meta and bit-exact
        values — so the dump is a faithful offline copy."""
        from repro.store import ResultStore
        from repro.store.backend import _decode

        root = tmp_path / "store"
        self._campaign(root)
        dump = tmp_path / "dump.json"
        assert main(["store", "export", str(dump), "--store", str(root)]) == 0
        capsys.readouterr()

        store = ResultStore(root)
        payload = json.loads(dump.read_text())
        entries = payload["entries"]
        assert len(entries) == 2
        for entry in entries:
            assert entry["kind"] == "campaign-unit"
            assert entry["meta"]["builder"] == "bias"
            assert _decode(entry["record"]) == store.get(entry["key"])

    def test_store_ls_empty(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_optimize_verbose_store_stats(self, tmp_path, capsys):
        root = tmp_path / "store"
        args = ["optimize", "--budget", "6", "--seed", "11", "--no-progress",
                "--verbose", "--store", str(root)]
        main(args)
        out = capsys.readouterr().out
        assert "evaluator cache:" in out and "store hits 0" in out
        main(args)
        out = capsys.readouterr().out
        assert "simulated 0" in out


class TestObsCli:
    """`--profile` / `--trace-out` on campaign, and `repro trace`."""

    # Four units: one structure group, large enough for the tensor path.
    ARGS = ["campaign", "--builder", "bias", "--corners", "tt,ss",
            "--temps", "25,85", "--measure", "bias_current_ua"]

    def test_campaign_profile_prints_counters(self, capsys):
        assert main(self.ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile — timed phases:" in out
        assert "profile — counters:" in out
        assert "campaign.batch_groups" in out

    def test_campaign_trace_out_then_trace_renders_tree(self, tmp_path,
                                                        capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        assert trace_file.exists()

        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "span(s) across" in out and "campaign.run" in out

    def test_trace_top_lists_slowest_spans(self, tmp_path, capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace_file)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_file), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest 2 spans by self-time:" in out
        assert "self" in out and "total" in out and "trace" in out

    def test_trace_json_round_trips(self, tmp_path, capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace_file)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_file), "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert {s["name"] for s in spans} >= {"campaign.run",
                                              "campaign.batch_group"}

    def test_one_export_feeds_trace_and_doctor(self, tmp_path, capsys):
        from repro.obs import Recorder

        export = tmp_path / "obs.jsonl"
        rec = Recorder(export_path=export)
        with rec.activate():
            assert main(self.ARGS) == 0
        rec.close()
        capsys.readouterr()
        assert main(["trace", str(export), "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert {s["kind"] for s in spans} == {"span"}
        assert "campaign.run" in {s["name"] for s in spans}
        assert main(["doctor", "--events", str(export)]) == 0
        out = capsys.readouterr().out
        assert f"{len(rec.events())} event(s) in {export}" in out
        assert rec.events()

    def test_trace_missing_file_exit_2(self, capsys):
        assert main(["trace", "/nonexistent/spans.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_optimize_profile_prints_engine_counters(self, capsys):
        # Exit code reflects the spec verdict (tiny budgets fail Table
        # 1), which is not what this test pins — only the profile dump.
        main(["optimize", "--budget", "4", "--seed", "11",
              "--no-progress", "--profile"])
        out = capsys.readouterr().out
        assert "profile — timed phases:" in out
        assert "profile — counters:" in out
        assert "optimize.memo_misses" in out

    def test_profile_reuses_an_armed_recorder(self, tmp_path, capsys):
        """``REPRO_OBS=1:export=...`` plus ``--profile``: the run's
        records still reach the process-wide export."""
        from repro.obs import Recorder, load_jsonl

        export = tmp_path / "obs.jsonl"
        rec = Recorder(export_path=export)
        with rec.activate():
            assert main(self.ARGS + ["--profile"]) == 0
        rec.close()
        assert "profile — timed phases:" in capsys.readouterr().out
        assert "campaign.run" in {r["name"] for r in load_jsonl(export)}

    def test_campaign_without_flags_stays_silent(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "profile —" not in out and "trace:" not in out
