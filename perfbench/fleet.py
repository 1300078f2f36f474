"""``fleet_sweep``: ``repro fleet launch`` with two workers.

Each sweep is a fresh ``repro fleet launch`` process over a fixed grid
(``tile_size`` x ``screen_width`` on one game, small, two frames) with
its own registry in this run's scratch directory.  The points are cheap
on purpose: claims, leases, one supervised child process per attempt
and the manifest writes are the work here, not the simulator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from . import common
from .stats import Tally, check_outputs, median, min_samples

ALIAS = "ccs"
TECHNIQUE = "re"
FRAMES = 2
WORKERS = 2
GRID = {
    "tile_size": (8, 12, 16, 24, 32, 48),
    "screen_width": (32, 48, 64, 80, 96, 128),
}
#: Points a timed run completes at least, so ten lie beyond the p90.
MIN_POINTS = min_samples(0.9)


def point_key(assignment: dict) -> str:
    return ",".join(f"{name}={assignment[name]}" for name in sorted(assignment))


def _jsonl(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def sweep(scratch: common.Scratch, name: str, env: dict) -> dict:
    """Launch one fleet and read back what it recorded."""
    from repro.fleet.points import fleet_root, load_spec

    registry = scratch.sub(f"{name}-registry")
    fleet_id = f"perfbench-{name}"
    command = [
        sys.executable, "-m", "repro", "--frames", str(FRAMES),
        "--scale", "small", "fleet", "launch", ALIAS,
        "--technique", TECHNIQUE, "--workers", str(WORKERS),
        "--registry", registry, "--fleet-id", fleet_id, "--max-wait", "60",
    ]
    for field, values in GRID.items():
        command += ["--set", f"{field}={','.join(map(str, values))}"]
    log_path = os.path.join(scratch.path, f"{name}.log")
    launched_wall = time.time()
    start = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(command, cwd=common.ROOT, env=env,
                                   stdout=log, stderr=subprocess.STDOUT)
        exit_code = common.stop(process, timeout=75.0)
    makespan = time.perf_counter() - start

    root = fleet_root(registry, fleet_id)
    points = load_spec(registry, fleet_id).points()
    done = {}
    done_dir = os.path.join(root, "done")
    for entry in os.listdir(done_dir) if os.path.isdir(done_dir) else ():
        if entry.endswith(".json"):
            with open(os.path.join(done_dir, entry), encoding="utf-8") as f:
                record = json.load(f)
            done[record["point_id"]] = record
    rows = _jsonl(os.path.join(registry, "index.jsonl"))
    summaries = {row["summary"].get("point_id"): row["summary"]
                 for row in rows if row.get("kind") == "sweep-point"}
    beats = []
    hb_dir = os.path.join(root, "hb")
    for entry in sorted(os.listdir(hb_dir)) if os.path.isdir(hb_dir) else ():
        beats += _jsonl(os.path.join(hb_dir, entry))
    journal = _jsonl(os.path.join(root, "journal.jsonl"))
    fleet_start = next((r["ts"] for r in journal
                        if r.get("event") == "fleet_start"), launched_wall)
    first_beats = {}
    for beat in beats:
        first_beats.setdefault(beat["worker"], beat["ts"])
    claims = [b["ts"] for b in beats if b.get("state") == "claimed"]
    executions = sum(1 for b in beats
                     if b.get("state") in ("point_done", "point_failed"))

    def perf(wall: float) -> float:
        return start + (wall - launched_wall)
    return {
        "exit_code": exit_code, "log": log_path, "makespan": makespan,
        "span": (start, start + makespan), "perf": perf,
        "points": points, "done": done, "summaries": summaries,
        "setup": (start, perf(min(claims)) if claims else start + makespan),
        "spawn_s": (max(first_beats.values()) - fleet_start
                    if first_beats else 0.0),
        "duplicate_execs": max(0, executions - len(done)),
        "registry_rows": len(rows),
    }


def check(result: dict, expected: dict, tally: Tally) -> list:
    """Check every point; returns the done records of good points."""
    good = []
    if result["exit_code"] != 0:
        tally.attempt()
        with open(result["log"], "r", encoding="utf-8") as handle:
            tail = handle.read()[-500:]
        tally.fail(f"fleet launch exited {result['exit_code']}: {tail}")
    for point in result["points"]:
        tally.attempt()
        label = point_key(point.assignment)
        record = result["done"].get(point.point_id)
        if record is None or record.get("state") != "done":
            tally.fail(f"{label}: not done ({record})")
            continue
        summary = result["summaries"].get(point.point_id)
        if summary is None or not record.get("run_id"):
            tally.fail(f"{label}: no sweep-point manifest in the registry")
            continue
        got = dict(record["summary"],
                   total_energy_nj=summary["total_energy_nj"])
        if check_outputs(label, got, expected.get(label), tally):
            good.append(record)
    return good


def run(args, expected: dict, scratch: common.Scratch) -> dict:
    tally = Tally()
    table = expected["fleet"]
    notes = []
    if not args.trace:
        env = common.child_env()
        results, executes = [], []
        start = time.perf_counter()
        # MIN_POINTS takes three sweeps: three set-up samples at least.
        while (sum(len(r["points"]) for r in results) < MIN_POINTS
               or time.perf_counter() - start < args.seconds):
            result = sweep(scratch, f"s{len(results)}", env)
            results.append(result)
            executes += [
                (result["perf"](r["completed_at"] - r["execute_s"]),
                 result["perf"](r["completed_at"]))
                for r in check(result, table, tally)
            ]
        points = sum(len(r["points"]) for r in results)
        notes.append(f"sweeps={len(results)} points={points} "
                     f"latency samples={len(executes)} (one per point, "
                     "execute time); points_per_s is "
                     f"frames_per_s / {FRAMES}")
        return {
            "tally": tally, "notes": notes,
            "e2e": {
                "setup": [r["setup"] for r in results],
                "busy": [r["span"] for r in results],
                "frames": points * FRAMES,
                "latency": executes,
                "peak_rss_mb": common.peak_rss_mb(),
            },
        }

    dump_dir = scratch.sub("dumps")
    plain = sweep(scratch, "plain", common.child_env())
    check(plain, table, tally)
    traced = sweep(scratch, "traced", common.child_env(trace_dir=dump_dir))
    executes = [r["execute_s"] for r in check(traced, table, tally)]
    from . import layers

    states = layers.merge_dumps(dump_dir)
    for state in states:
        state["label"] = f"fleet process (pid {state['pid']})"
    return {
        "tally": tally, "notes": notes, "states": states,
        "walls": (plain["span"], traced["span"]),
        "extra": {
            "fleet.spawn_s": traced["spawn_s"],
            "fleet.execute_s": median(executes) if executes else 0.0,
            "fleet.overhead_s": (traced["makespan"]
                                 - sum(executes) / WORKERS),
            "fleet.duplicate_execs": traced["duplicate_execs"],
            "registry.rows": traced["registry_rows"],
        },
    }
