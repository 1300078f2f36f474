"""The ``python -m repro`` command-line interface."""

import json
import pathlib
import re

import pytest

from repro.__main__ import main

BENCH_BASELINE = pathlib.Path(__file__).resolve().parents[1] \
    / "BENCH_pipeline.json"


class TestList:
    def test_lists_games_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Candy Crush Saga" in out
        assert "fig14a" in out
        assert "baseline, re, te, memo" in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["--frames", "4", "run", "cde", "--technique", "re"]) == 0
        out = capsys.readouterr().out
        assert "cde under re" in out
        assert "tiles skipped" in out
        assert "DRAM traffic" in out

    def test_default_technique_is_re(self, capsys):
        assert main(["--frames", "3", "run", "ccs"]) == 0
        assert "ccs under re" in capsys.readouterr().out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "400 MHz" in out

    def test_figure_experiment(self, capsys):
        assert main(["--frames", "5", "experiment", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "Equal-color tiles" in out
        assert "AVG" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["--frames", "5", "report", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# Rendering Elimination" in text
        assert "## fig14a" in text
        assert "## hash_quality" in text
        stdout = capsys.readouterr().out
        assert "wrote 12 sections" in stdout


class TestObservability:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.jsonl"
        assert main([
            "--frames", "4", "run", "cde", "--technique", "re",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote trace to" in out
        assert "wrote per-frame metrics to" in out

        from repro.obs import MetricsLog, validate_trace_file

        assert validate_trace_file(trace)["spans"] > 0
        assert MetricsLog.load(metrics).num_frames == 4

    def test_profile_counters_are_the_run_totals(self, tmp_path, capsys):
        from repro.config import GpuConfig
        from repro.harness import run_workload
        from repro.obs import validate_trace_file

        run = run_workload("cde", "re", GpuConfig.small(), 3)
        expected = {
            "frames": 3,
            "fragments_rasterized": run.fragments_rasterized,
            "fragments_shaded": run.fragments_shaded,
            "tiles_rendered": run.counters["raster.tiles_rendered"],
            "tiles_skipped": run.tiles_skipped,
        }
        trace = tmp_path / "run.trace.json"
        # --profile alone, then --trace --profile on one recorder.
        for extra in ([], ["--trace", str(trace)]):
            bench = tmp_path / "bench.json"
            assert main([
                "--frames", "3", "--scale", "small", "--profile",
                "--bench-out", str(bench),
                "run", "cde", "--technique", "re", "--no-registry", *extra,
            ]) == 0
            profile = json.loads(bench.read_text())["profile"]
            assert profile["counters"] == expected
            assert set(profile["stage_calls"]) == {"geometry", "raster"}
        assert "wrote trace to" in capsys.readouterr().out
        assert validate_trace_file(trace)["spans"] > 0

    def test_report_analyses_a_metrics_log(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.jsonl"
        main(["--frames", "4", "run", "cde",
              "--trace", str(trace), "--metrics", str(metrics)])
        capsys.readouterr()
        assert main([
            "report", str(metrics), "--top", "3",
            "--validate-trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace ok" in out
        assert "cde under re" in out
        assert "top 3 hottest tiles" in out

    def test_report_rejects_a_broken_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 1
        assert "report failed" in capsys.readouterr().err


class TestSweep:
    def test_sweep_tabulates_a_grid(self, capsys):
        assert main([
            "--frames", "3", "sweep", "cde", "--technique", "re",
            "--set", "tile_size=8,16", "--metric", "tiles_skipped",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 configurations x 3 frames" in out
        assert "tile_size" in out
        assert "tiles_skipped" in out

    def test_sweep_values_coerce_by_type(self, capsys):
        # int, float and string values all parse from one --set flag.
        assert main([
            "--frames", "2", "sweep", "cde",
            "--set", "tile_size=16",
        ]) == 0
        assert "1 configurations" in capsys.readouterr().out

    def test_sweep_rejects_malformed_set(self, capsys):
        assert main(["sweep", "cde", "--set", "tile_size"]) == 2
        assert "bad --set" in capsys.readouterr().err

    def test_sweep_rejects_unknown_parameter(self, capsys):
        assert main([
            "--frames", "2", "sweep", "cde", "--set", "warp_core=1,2",
        ]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_sweep_rejects_unknown_metric(self, capsys):
        assert main([
            "--frames", "2", "sweep", "cde",
            "--set", "tile_size=8,16", "--metric", "vibes",
        ]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_sweep_rejects_duplicate_points(self, tmp_path, capsys):
        assert main([
            "--frames", "2", "--registry", str(tmp_path / "reg"),
            "sweep", "cde", "--set", "tile_size=8,8",
        ]) == 2
        assert "sweep failed" in capsys.readouterr().err

    def test_sweep_per_point_observability(self, tmp_path):
        trace = tmp_path / "sweep.trace.json"
        assert main([
            "--frames", "3", "sweep", "cde",
            "--set", "tile_size=8,16", "--trace", str(trace),
        ]) == 0
        from repro.obs import validate_trace_file

        # Per-point artifacts are named after the parameter assignment.
        for value in (8, 16):
            validate_trace_file(
                tmp_path / f"sweep.trace-cde-re-tile_size={value}.json"
            )


def _registered_id(out: str) -> str:
    match = re.search(r"registered as ([0-9a-f]{16})", out)
    assert match, f"no run id in output:\n{out}"
    return match.group(1)


class TestRegistryCli:
    def test_runs_on_an_empty_registry(self, tmp_path, capsys):
        assert main([
            "--registry", str(tmp_path / "reg"), "runs",
        ]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_run_records_and_runs_lists_it(self, tmp_path, capsys):
        reg = str(tmp_path / "reg")
        assert main([
            "--frames", "3", "--registry", reg,
            "run", "cde", "--technique", "re",
        ]) == 0
        run_id = _registered_id(capsys.readouterr().out)
        assert main(["--registry", reg, "runs"]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "cde" in out and "re" in out and "1 entries" in out

    def test_no_registry_opts_out(self, tmp_path, capsys):
        reg = str(tmp_path / "reg")
        assert main([
            "--frames", "3", "--registry", reg, "--no-registry",
            "run", "cde",
        ]) == 0
        assert "registered as" not in capsys.readouterr().out
        assert main(["--registry", reg, "runs"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_diff_between_two_registered_runs(self, tmp_path, capsys):
        reg = str(tmp_path / "reg")
        ids = []
        for technique in ("baseline", "re"):
            assert main([
                "--frames", "4", "--registry", reg,
                "run", "cde", "--technique", technique,
            ]) == 0
            ids.append(_registered_id(capsys.readouterr().out))
        assert main(["--registry", reg, "diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "tiles skipped" in out
        assert "counters" in out

    def test_diff_unknown_id_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "--registry", str(tmp_path / "reg"),
            "diff", "feedfeedfeedfeed", "deaddeaddeaddead",
        ]) == 2
        assert "diff failed" in capsys.readouterr().err

    def test_trend_append_and_check(self, tmp_path, capsys):
        reg = str(tmp_path / "reg")
        assert main([
            "--registry", reg,
            "trend", "--append", str(BENCH_BASELINE), "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "appended" in out
        assert "1 point(s)" in out

    def test_trend_on_an_empty_registry(self, tmp_path, capsys):
        assert main(["--registry", str(tmp_path / "reg"), "trend"]) == 0
        assert "no bench points" in capsys.readouterr().out

    def test_sweep_records_each_point(self, tmp_path, capsys):
        reg = str(tmp_path / "reg")
        assert main([
            "--frames", "2", "--registry", reg,
            "sweep", "cde", "--set", "tile_size=8,16",
        ]) == 0
        assert "registered 2 sweep point(s)" in capsys.readouterr().out
        assert main(["--registry", reg, "runs",
                     "--kind", "sweep-point"]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "tile_size=8" in out and "tile_size=16" in out


class TestLiveCli:
    def test_run_with_live_writes_a_heartbeat(self, tmp_path, capsys):
        live = tmp_path / "live.json"
        assert main([
            "--frames", "3", "--registry", str(tmp_path / "reg"),
            "run", "cde", "--live", str(live),
        ]) == 0
        capsys.readouterr()
        heartbeat = json.loads(live.read_text())
        worker = heartbeat["workers"]["cde/re"]
        assert worker["frames"] == 3
        assert worker["status"] == "done"
