"""Perf trend over the registry: grouping, rendering, regression gate."""

import copy
import json
import pathlib

import pytest

from repro.obs.store import RunRegistry, bench_manifest
from repro.obs.trend import check_trend, render_trend, trend_points

BENCH_BASELINE = pathlib.Path(__file__).resolve().parents[2] \
    / "BENCH_pipeline.json"


@pytest.fixture(scope="module")
def baseline_payload():
    with open(BENCH_BASELINE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "registry")


def _variant(payload, created_at, wall=None, counters=None):
    """A later bench point derived from the committed baseline."""
    manifest = bench_manifest(payload, git_rev="testrev",
                              created_at=created_at)
    if wall is not None:
        manifest["profile"]["wall_seconds"] = wall
    if counters:
        manifest["profile"]["counters"].update(counters)
    return manifest


class TestTrendPoints:
    def test_reproduces_the_committed_baseline_point(
            self, registry, baseline_payload):
        registry.record_bench(BENCH_BASELINE)
        points = trend_points(registry)
        assert len(points) == 1
        profile = points[0]["profile"]
        assert profile["wall_seconds"] == \
            baseline_payload["profile"]["wall_seconds"]
        assert profile["counters"] == \
            baseline_payload["profile"]["counters"]
        assert points[0]["bench_key"]["frames"] == baseline_payload["frames"]

    def test_groups_by_bench_key(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0))
        other = copy.deepcopy(baseline_payload)
        other["frames"] = 99
        registry.record(_variant(other, created_at=200.0))
        # Default group = the newest point's key (frames=99).
        assert [p["bench_key"]["frames"] for p in trend_points(registry)] \
            == [99]

    def test_chronological_order(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=200.0,
                                 wall=5.0))
        registry.record(_variant(baseline_payload, created_at=100.0,
                                 wall=4.0))
        assert [p["profile"]["wall_seconds"]
                for p in trend_points(registry)] == [4.0, 5.0]


class TestCheckTrend:
    def test_single_point_passes(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0))
        assert check_trend(registry) == []

    def test_identical_counters_pass(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0))
        registry.record(_variant(baseline_payload, created_at=200.0,
                                 wall=9.9))
        # Wall-clock drifts freely unless wall_tolerance is given.
        assert check_trend(registry) == []

    def test_counter_drift_is_flagged(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0))
        registry.record(_variant(
            baseline_payload, created_at=200.0,
            counters={"frames": 12345},
        ))
        failures = check_trend(registry)
        assert failures
        assert any("frames" in failure for failure in failures)

    def test_wall_tolerance_opt_in(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0,
                                 wall=1.0))
        registry.record(_variant(baseline_payload, created_at=200.0,
                                 wall=2.0))
        assert check_trend(registry) == []
        failures = check_trend(registry, wall_tolerance=0.5)
        assert any("wall time" in failure for failure in failures)


    def test_techniques_of_one_game_are_not_compared(
            self, registry, baseline_payload):
        for when, technique, shaded in ((100.0, "re", 100),
                                        (200.0, "baseline", 120)):
            payload = copy.deepcopy(baseline_payload)
            payload.update(command="run", games=["cde"],
                           technique=technique)
            registry.record(_variant(payload, created_at=when,
                                     counters={"fragments_shaded": shaded}))
        assert check_trend(registry) == []
        assert [p["bench_key"]["technique"]
                for p in trend_points(registry)] == ["baseline"]

    def test_profiled_runs_of_two_games_are_not_compared(
            self, tmp_path, capsys):
        from repro.__main__ import main

        root = str(tmp_path / "registry")
        for game in ("cde", "mst"):
            assert main([
                "--frames", "2", "--scale", "small", "--profile",
                "--bench-out", str(tmp_path / f"{game}.json"),
                "run", game, "--registry", root,
            ]) == 0
        capsys.readouterr()
        points = trend_points(root)
        assert [p["bench_key"]["games"] for p in points] == [["mst"]]
        assert points[0]["bench_key"]["technique"] == "re"
        assert check_trend(root) == []


class TestRenderTrend:
    def test_empty_registry_renders_a_hint(self, registry):
        assert "no bench points" in render_trend(registry)

    def test_table_and_verdict(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0,
                                 wall=4.0))
        registry.record(_variant(baseline_payload, created_at=200.0,
                                 wall=4.2))
        text = render_trend(registry)
        assert "2 point(s)" in text
        assert "testrev" in text
        assert "4.000" in text and "4.200" in text
        assert "no regression" in text

    def test_regression_called_out(self, registry, baseline_payload):
        registry.record(_variant(baseline_payload, created_at=100.0))
        registry.record(_variant(
            baseline_payload, created_at=200.0,
            counters={"frames": 1},
        ))
        assert "regression vs previous point" in render_trend(registry)
