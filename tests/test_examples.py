"""The example scripts run end-to-end and assert their own claims."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "bit-identical across techniques: True" in result.stdout

    def test_signature_anatomy(self):
        result = run_example("signature_anatomy.py")
        assert result.returncode == 0, result.stderr
        assert "Signature Unit is bit-exact" in result.stdout

    def test_tile_heatmap(self):
        result = run_example("tile_heatmap.py", "--frames", "8")
        assert result.returncode == 0, result.stderr
        assert "skipped" in result.stdout

    def test_trace_replay(self, tmp_path):
        result = run_example(
            "trace_replay.py", "--frames", "4",
            "--out", str(tmp_path / "t.trace"),
        )
        assert result.returncode == 0, result.stderr
        assert "bit-identical" in result.stdout

    def test_spinning_cube(self):
        result = run_example("spinning_cube.py")
        assert result.returncode == 0, result.stderr
        assert "entire screen is skipped" in result.stdout

    def test_benchmark_suite_small(self):
        result = run_example(
            "benchmark_suite.py", "--frames", "6",
            "--games", "cde", "mst",
        )
        assert result.returncode == 0, result.stderr
        assert "geomean RE speedup" in result.stdout
        cells = {
            line.split()[0]: [float(cell) for cell in line.split()[1:]]
            for line in result.stdout.splitlines()
            if line.split()[:1] in (["cde"], ["mst"], ["AVG"])
        }
        # Every AVG cell is the mean over *both* games (the last game's
        # row must not drop out of any column).
        for column, avg in enumerate(cells["AVG"]):
            mean = (cells["cde"][column] + cells["mst"][column]) / 2
            assert avg == pytest.approx(mean, abs=1e-3), column

    def test_arena_walkthrough(self, tmp_path):
        result = run_example(
            "arena_walkthrough.py", "--frames", "6", "--parked",
            "--out", str(tmp_path / "arena"),
        )
        assert result.returncode == 0, result.stderr
        assert "tiles skipped" in result.stdout
        assert (tmp_path / "arena" / "frame_000.ppm").exists()
