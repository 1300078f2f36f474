"""Perf trajectory over the run registry: the ``repro trend`` backend.

``BENCH_pipeline.json`` pins a single performance point; the registry
finally gives it a *history*.  Every ``--profile`` run and every CI
bench job can append a bench manifest (:func:`~repro.obs.store.bench_manifest`)
and this module reads them back chronologically:

* :func:`trend_points` — bench entries grouped by *bench key* (command,
  frames, scale, games, technique), so only like-for-like profiles are
  compared;
* :func:`render_trend` — the trajectory as a table (when, git rev, wall
  seconds, frames/s, counter signature) plus a wall-clock sparkline;
* :func:`check_trend` — regression gate: the newest point is compared
  against its predecessor with :func:`repro.perf.guard.compare_bench`
  semantics (counters exact — the simulation is deterministic — stage
  shares within tolerance, wall-clock optionally), the same contract
  the CI bench guard enforces, now with memory.
"""

from __future__ import annotations

import json
import time

from ..harness.reporting import format_table
from ..harness.timeline import sparkline
from ..perf.guard import compare_bench
from .store import RunRegistry

__all__ = [
    "check_trend",
    "fleet_trend",
    "render_fleet_trend",
    "render_trend",
    "trend_points",
]


def _registry(registry) -> RunRegistry:
    if isinstance(registry, RunRegistry):
        return registry
    return RunRegistry(registry)


def _bench_key(manifest: dict) -> str:
    key = manifest.get("bench_key") or {}
    games = key.get("games")
    return json.dumps({
        "command": key.get("command"),
        "frames": key.get("frames"),
        "scale": key.get("scale"),
        "games": sorted(games) if games else None,
        "technique": key.get("technique"),
    }, sort_keys=True)


def trend_points(registry, bench_key: str = None) -> list:
    """Bench manifests, oldest first, optionally filtered to one key.

    Returns ``(key, manifest)`` pairs; with ``bench_key=None`` the key
    of the *newest* point is chosen (the trajectory you are growing) and
    only its group is returned.
    """
    registry = _registry(registry)
    manifests = [
        registry.manifest(entry.run_id)
        for entry in registry.query(kind="bench")
    ]
    if not manifests:
        return []
    if bench_key is None:
        bench_key = _bench_key(manifests[-1])
    return [m for m in manifests if _bench_key(m) == bench_key]


def check_trend(registry, share_tolerance: float = 0.10,
                wall_tolerance: float = None) -> list:
    """Guard-style regression check of the newest bench point.

    Compares the newest point of the newest bench key against its
    predecessor in the same group.  Returns a list of human-readable
    violations (empty = pass; fewer than two comparable points also
    passes — there is nothing to regress against yet).
    """
    points = trend_points(registry)
    if len(points) < 2:
        return []
    return compare_bench(
        points[-2], points[-1],
        share_tolerance=share_tolerance, wall_tolerance=wall_tolerance,
    )


def fleet_trend(registry) -> list:
    """Per-fleet rollups over every fleet-stamped sweep point.

    Groups the registry's ``sweep-point`` entries by their ``fleet_id``
    stamp and aggregates each group: points, workers, total cycles,
    skipped tiles, wall span (first to last manifest), and — when the
    fleet directory is present beside the registry — the workers'
    merged execute-wall histogram and done/failed counts.  Ordered by
    first-manifest time, so fleets read chronologically: the fleet-wide
    perf dashboard.
    """
    registry = _registry(registry)
    groups: dict = {}
    for entry in registry.query(kind="sweep-point"):
        summary = entry.summary or {}
        fleet_id = summary.get("fleet_id")
        if not fleet_id:
            continue
        groups.setdefault(fleet_id, []).append(entry)
    rollups = []
    for fleet_id, entries in groups.items():
        workers = sorted({
            (e.summary or {}).get("fleet_worker")
            for e in entries if (e.summary or {}).get("fleet_worker")
        })
        created = [e.created_at or 0.0 for e in entries]
        point_ids = {(e.summary or {}).get("point_id") for e in entries}
        rollup = {
            "fleet_id": fleet_id,
            "alias": entries[0].alias,
            "technique": entries[0].technique,
            "num_frames": entries[0].num_frames,
            "points": len(point_ids),
            "workers": workers,
            "first_at": min(created),
            "last_at": max(created),
            "wall_span_s": max(created) - min(created),
            "total_cycles": sum(
                (e.summary or {}).get("total_cycles") or 0
                for e in entries
            ),
            "tiles_skipped": sum(
                (e.summary or {}).get("tiles_skipped") or 0
                for e in entries
            ),
            "point_set": "|".join(sorted(p for p in point_ids if p)),
            "histogram": None,
            "points_total": None,
            "failed": None,
        }
        rollup.update(_fleet_dir_rollup(registry, fleet_id))
        rollups.append(rollup)
    rollups.sort(key=lambda r: (r["first_at"], r["fleet_id"]))
    return rollups


def _fleet_dir_rollup(registry, fleet_id: str) -> dict:
    """Coordination-side aggregates when the fleet directory exists
    (same-host view); empty for a registry synced without it."""
    from ..errors import FleetError

    try:
        from ..fleet.claims import ClaimStore, tail_heartbeats
        from ..fleet.points import load_spec

        spec = load_spec(registry.root, fleet_id)
        claims = ClaimStore(registry.root, fleet_id)
        done = claims.done_records()
        histograms: dict = {}
        for record in tail_heartbeats(registry.root, fleet_id, {}):
            if record.get("histogram"):
                histograms[record["worker"]] = record["histogram"]
        merged = None
        if histograms:
            from ..service.telemetry import merge_histograms

            merged = merge_histograms(histograms.values())
        return {
            "points_total": len(spec.point_ids()),
            "failed": sorted(
                pid for pid, rec in done.items()
                if rec.get("state") != "done"
            ),
            "histogram": merged,
        }
    except (FleetError, OSError):
        return {}


def render_fleet_trend(registry, width: int = 60) -> str:
    """The fleet dashboard as text: per-fleet table + a cycles
    trajectory across fleets that ran the same point set."""
    rollups = fleet_trend(registry)
    if not rollups:
        return ("no fleet-stamped sweep points recorded; run "
                "`python -m repro fleet launch` or stamp a sweep with "
                "`python -m repro sweep --fleet-id NAME`")
    lines = [f"fleet trajectory: {len(rollups)} fleet(s)"]
    rows = []
    for rollup in rollups:
        total = rollup["points_total"]
        done = rollup["points"]
        hist = rollup["histogram"]
        rows.append([
            rollup["fleet_id"],
            f"{rollup['alias']}/{rollup['technique']}",
            f"{done}/{total}" if total else str(done),
            len(rollup["workers"]) or "-",
            rollup["wall_span_s"],
            rollup["total_cycles"] / 1e6,
            (f"p50={hist['p50']:.2f}s p95={hist['p95']:.2f}s"
             if hist and hist.get("count") else "-"),
        ])
    lines.append(format_table(
        ["fleet", "workload", "points", "workers", "span_s",
         "Mcycles", "execute wall"], rows, float_format="{:.2f}",
    ))
    for rollup in rollups:
        if rollup["failed"]:
            lines.append(
                f"fleet {rollup['fleet_id']}: FAILED points: "
                + ", ".join(rollup["failed"])
            )
    # Trajectory across re-runs of the same point set: like-for-like
    # only, mirroring the bench-key discipline of the bench trend.
    newest_set = rollups[-1]["point_set"]
    series = [r for r in rollups if r["point_set"] == newest_set]
    if len(series) > 1:
        cycles = [r["total_cycles"] for r in series]
        peak = max(cycles)
        if peak:
            lines.append(
                f"total cycles across {len(series)} run(s) of the same "
                "point set (normalized to worst): "
                + sparkline([c / peak for c in cycles], width=width)
            )
    return "\n".join(lines)


def _counter_signature(counters: dict) -> str:
    """Compact per-point counter fingerprint for the trend table."""
    frames = counters.get("frames")
    shaded = counters.get("fragments_shaded")
    skipped = counters.get("tiles_skipped")
    return f"f={frames} shade={shaded} skip={skipped}"


def render_trend(registry, width: int = 60) -> str:
    """The perf trajectory as text: table + wall-clock sparkline."""
    points = trend_points(registry)
    if not points:
        return ("no bench points recorded; append one with "
                "`python -m repro trend --append BENCH_pipeline.json` "
                "or run with --profile --registry")
    key = points[-1].get("bench_key") or {}
    lines = [
        f"bench trajectory: {len(points)} point(s) "
        f"(command={key.get('command')}, frames={key.get('frames')}, "
        f"scale={key.get('scale')})"
    ]
    rows = []
    walls = []
    for manifest in points:
        profile = manifest.get("profile", {})
        wall = profile.get("wall_seconds") or 0.0
        walls.append(wall)
        counters = profile.get("counters", {})
        frames = counters.get("frames") or 0
        when = time.strftime(
            "%Y-%m-%d %H:%M", time.localtime(manifest.get("created_at", 0))
        )
        rows.append([
            when,
            manifest.get("git_rev") or "-",
            wall,
            (frames / wall) if wall else 0.0,
            _counter_signature(counters),
        ])
    lines.append(format_table(
        ["when", "git", "wall_s", "frames/s", "counters"], rows,
        float_format="{:.3f}",
    ))
    peak = max(walls) if walls else 0.0
    if peak > 0.0 and len(walls) > 1:
        normalized = [wall / peak for wall in walls]
        lines.append("wall seconds (normalized to worst point): "
                     + sparkline(normalized, width=width))
    failures = check_trend(registry)
    if failures:
        lines.append("")
        lines.append(f"regression vs previous point: {len(failures)} "
                     "check(s) failed")
        for failure in failures:
            lines.append(f"  - {failure}")
    elif len(points) > 1:
        lines.append("no regression vs previous point "
                     "(counters exact, stage shares in tolerance)")
    return "\n".join(lines)
