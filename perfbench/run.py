"""The repository benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``suite``         the paper's matrix: 10 games x baseline/re/te
* ``suite_culled``  the same matrix with the occlusion pass on
* ``service``       two closed-loop tenants against ``repro serve``
* ``fleet_sweep``   ``repro fleet launch`` with two workers

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the run is repeated
untraced and traced and the object carries the per-layer metrics.
Every operation's output is checked against ``perfbench/expected.json``;
a mismatch counts as a failed operation and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    median,
    percentile,
    samples_beyond,
)

WORKLOADS = ("suite", "suite_culled", "service", "fleet_sweep")
CACHES = ("vertex", "texture", "tile", "l2")
UNITS = {"setup_s": "s", "frames_per_s": "1/s", "latency_ms_p50": "ms",
         "latency_ms_p90": "ms"}
#: Service and fleet layer metrics, read from the daemon's and the
#: fleet's own records; 0 on workloads that do not run that layer.
RECORD_METRICS = {
    "service.submit_ms": "ms", "service.queue_ms": "ms",
    "service.execute_ms": "ms", "service.deliver_ms": "ms",
    "service.warm_ratio": "ratio", "service.batch_size_mean": "count",
    "service.refused": "count",
    "fleet.spawn_s": "s", "fleet.execute_s": "s", "fleet.overhead_s": "s",
    "fleet.duplicate_execs": "count", "registry.rows": "count",
}


def run_workload(args, expected: dict) -> dict:
    if args.workload in ("suite", "suite_culled"):
        from perfbench import suite

        return suite.run(args, expected, args.workload == "suite_culled")
    with common.Scratch(args.workload, args.seed) as scratch:
        if args.workload == "service":
            from perfbench import service

            return service.run(args, expected, scratch)
        from perfbench import fleet

        return fleet.run(args, expected, scratch)


def time_metrics(e2e: dict, seconds) -> dict:
    """The timed end-to-end metrics, each interval measured by
    ``seconds(start, end)``."""
    latency = [seconds(*span) * 1e3 for span in e2e["latency"]]
    return {
        "setup_s": median([seconds(*span) for span in e2e["setup"]]),
        "frames_per_s": e2e["frames"] / sum(seconds(*span)
                                            for span in e2e["busy"]),
        "latency_ms_p50": percentile(latency, 0.5) if latency else 0.0,
        "latency_ms_p90": percentile(latency, 0.9) if latency else 0.0,
    }


def end_to_end(outcome: dict, speed: common.HostSpeed) -> dict:
    """The end-to-end metrics, every time scaled to the reference host
    speed (:class:`common.HostSpeed`); the raw host times are printed."""
    e2e = outcome["e2e"]
    samples = len(e2e["latency"])
    if samples_beyond(samples, 0.9) < MIN_BEYOND:
        outcome["tally"].fail(
            f"latency: p90 of {samples} samples has fewer than "
            f"{MIN_BEYOND} beyond it")
    print(f"latency samples: n={samples}, "
          f"{samples_beyond(samples, 0.9)} beyond p90; "
          f"set-up samples: n={len(e2e['setup'])}")
    raw = time_metrics(e2e, lambda start, end: end - start)
    print("raw host times: " + ", ".join(
        f"{name} {value:.4g}" for name, value in raw.items()))
    metrics = {name: (value, UNITS[name]) for name, value
               in time_metrics(e2e, speed.scaled).items()}
    metrics["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    return metrics


def per_layer(args, outcome: dict, calibration_ms: float,
              speed: common.HostSpeed) -> dict:
    from perfbench import layers

    states = outcome["states"]
    combined = layers.combine(states)
    metrics = {}
    for layer in layers.TIMED_LAYERS:
        calls, self_s = combined["agg"].get(layer, (0, 0.0))
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    counters = combined["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0
    metrics["tiling.coverage_calls"] = (
        combined["counts"].get("tiling.coverage_calls", 0), "count")
    metrics["tiling.cull_ratio"] = (ratio(
        counters.get("tiling.prims_occlusion_culled", 0),
        counters.get("tiling.tile_entries", 0)), "ratio")
    metrics["re.skip_ratio"] = (ratio(
        counters.get("re.raster.tiles_skipped", 0),
        counters.get("re.raster.tiles_scheduled", 0)), "ratio")
    for memo, (hits, misses) in sorted(combined["memos"].items()):
        metrics[f"memo.{memo}_hit_ratio"] = (ratio(hits, hits + misses),
                                             "ratio")
    for cache in CACHES:
        metrics[f"cache.{cache}.miss_ratio"] = (ratio(
            counters.get(f"cache.{cache}.misses", 0),
            counters.get(f"cache.{cache}.accesses", 0)), "ratio")
    extra = outcome.get("extra", {})
    for name, unit in RECORD_METRICS.items():
        metrics[name] = (extra.get(name, 0), unit)
    plain, traced = outcome["walls"]
    overhead = speed.scaled(*traced) / speed.scaled(*plain)
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.spans"] = (combined["spans"], "count")
    metrics["trace.dropped_spans"] = (combined["dropped"], "count")
    metrics["host.calib_ms"] = (calibration_ms, "ms")

    print(f"tracing overhead: {overhead:.3f}x at the reference speed "
          f"(host time untraced {plain[1] - plain[0]:.2f} s, "
          f"traced {traced[1] - traced[0]:.2f} s)")
    ranked = sorted(((combined["agg"][name][1], name, combined["agg"][name][0])
                     for name in combined["agg"]), reverse=True)
    print("layer self time (traced run):")
    for self_s, name, calls in ranked:
        print(f"  {name:<22} {self_s:9.3f} s  {calls:>9} calls")

    os.makedirs(common.TRACE_OUT, exist_ok=True)
    path = os.path.join(common.TRACE_OUT,
                        f"trace-{args.workload}-seed{args.seed}.json")
    layers.write_trace(path, states, {"workload": args.workload,
                                      "seed": args.seed})
    from repro.errors import ReproError
    from repro.obs.validate import validate_trace_file

    try:
        summary = validate_trace_file(path)
        print(f"trace: {path} ({summary['spans']} spans, valid)")
    except ReproError as exc:
        outcome["tally"].fail(f"trace {path} invalid: {exc}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(common.ROOT)
    common.require_source()
    with open(common.EXPECTED, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    calibration_ms = common.calibrate_ms()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host probe: fixed loop {calibration_ms:.2f} ms "
          "(compare across runs to spot host contention)")
    try:
        with common.HostSpeed() as speed:
            outcome = run_workload(args, expected)
    except Exception:
        traceback.print_exc()
        print("perfbench: workload aborted", file=sys.stderr)
        return 2
    for note in outcome["notes"]:
        print(note)
    print(f"host speed: pinned to CPU {speed.cpu}, {len(speed.costs)} "
          f"probes, mean speed {speed.mean_speed():.3f} of the reference")
    tally = outcome["tally"]
    if args.trace:
        metrics = per_layer(args, outcome, calibration_ms, speed)
    else:
        metrics = end_to_end(outcome, speed)
    for reason in tally.failures[:20]:
        print(f"FAILED {reason}")
    fraction = tally.failed_frac if tally.attempted else 1.0
    if args.trace:
        metrics["bench.failed_frac"] = (fraction, "ratio")
    print(f"failed_frac: {fraction:.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
