#!/usr/bin/env python
"""Run the Table II benchmark suite under every technique and print the
paper's headline comparison (speedup and energy saving per game).

Run:  python examples/benchmark_suite.py [--frames N] [--scale small|benchmark]
                                         [--jobs N] [--profile]
                                         [--occlusion-culling]
                                         [--raster-backend numpy|compiled]

``--jobs N`` fans the independent (game, technique) cells across N
worker processes (see repro.harness.parallel).  ``--profile`` attaches
one span recorder (repro.obs.SpanRecorder) as the tracer of every run
and writes its aggregate — per-stage simulator wall-clock, event
counters and rates — with the measured speedup over the pre-batching
reference runtime to BENCH_pipeline.json.  Profiling implies a serial
run, since the recorder lives in this process.

``--occlusion-culling`` and ``--raster-backend compiled`` exercise the
binning-time occlusion pass and the compiled raster kernels; either
variant suffixes the bench payload's command key (``suite+culling``,
``suite+compiled``) so the registry's trend view never mixes their
profiles with the plain suite's committed baseline.

This is the long-form version of what benchmarks/ automates; expect a
few minutes at benchmark scale.
"""

import argparse
import time

from repro.config import GpuConfig
from repro.harness import reporting, run_workload
from repro.harness.parallel import run_matrix
from repro.workloads import FIGURE_ORDER

#: Wall-clock of this script at ``--frames 6 --scale small`` (all games)
#: before the batched raster path landed, measured on the same host the
#: batching work was tuned on.  ``--profile`` reports the speedup
#: against this when invoked with the same arguments.
SEED_REFERENCE_SECONDS = 16.70
SEED_REFERENCE = {"frames": 6, "scale": "small"}

TECHNIQUES = ("baseline", "re", "te")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--scale", choices=("small", "benchmark"),
                        default="small")
    parser.add_argument("--games", nargs="*", default=list(FIGURE_ORDER))
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the run matrix "
                             "(0/1 = serial)")
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage wall-clock and write "
                             "BENCH_pipeline.json (forces serial)")
    parser.add_argument("--bench-out", default="BENCH_pipeline.json")
    parser.add_argument("--occlusion-culling", action="store_true",
                        help="enable the binning-time opaque-tile "
                             "occlusion pass (bit-identical output)")
    parser.add_argument("--raster-backend", choices=("numpy", "compiled"),
                        default=None,
                        help="raster kernel backend (compiled needs "
                             "numba; degrades to numpy without it)")
    args = parser.parse_args()

    if args.raster_backend:
        from repro.pipeline.kernels import set_raster_backend

        set_raster_backend(args.raster_backend)
    config = (
        GpuConfig.small() if args.scale == "small" else GpuConfig.benchmark()
    )
    if args.occlusion_culling:
        import dataclasses

        config = dataclasses.replace(config, occlusion_culling=True)
    start = time.perf_counter()
    recorder = None
    if args.profile:
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()

    if args.jobs > 1 and recorder is None:
        matrix = run_matrix(
            args.games, TECHNIQUES, config, args.frames, processes=args.jobs
        )

        def get(alias, technique):
            return matrix[(alias, technique)]
    else:
        def get(alias, technique):
            return run_workload(alias, technique, config, args.frames,
                                tracer=recorder)

    rows = []
    for alias in args.games:
        base = get(alias, "baseline")
        re = get(alias, "re")
        te = get(alias, "te")
        assert re.final_frame_crc == base.final_frame_crc, (
            f"{alias}: RE output diverged from baseline"
        )
        rows.append([
            alias,
            base.total_cycles / re.total_cycles,
            1.0 - re.total_energy_nj / base.total_energy_nj,
            1.0 - te.total_energy_nj / base.total_energy_nj,
            re.skipped_fraction(),
        ])
    speedups = [r[1] for r in rows]
    rows.append(["AVG"] + [
        sum(r[column] for r in rows) / len(rows) for column in (1, 2, 3, 4)
    ])
    print(reporting.format_table(
        ["game", "re_speedup", "re_energy_saving", "te_energy_saving",
         "tiles_skipped"],
        rows,
    ))
    print(f"\ngeomean RE speedup: {reporting.geomean(speedups):.2f}x "
          "(paper: 1.74x average)")

    wall = time.perf_counter() - start
    print(f"suite wall-clock: {wall:.2f} s")
    if recorder is not None:
        from repro.perf import write_bench

        from repro.pipeline.kernels import backend_record

        command = "suite"
        if args.occlusion_culling:
            command += "+culling"
        if args.raster_backend == "compiled":
            command += "+compiled"
        payload = {
            "suite": "benchmark_suite",
            "command": command,
            "frames": args.frames,
            "scale": args.scale,
            "games": list(args.games),
            "wall_seconds": round(wall, 3),
            "raster_backend": backend_record(),
            "profile": recorder.profile(),
        }
        if (command == "suite"
                and args.frames == SEED_REFERENCE["frames"]
                and args.scale == SEED_REFERENCE["scale"]
                and list(args.games) == list(FIGURE_ORDER)):
            payload["reference"] = {
                "seed_wall_seconds": SEED_REFERENCE_SECONDS,
                "description": "same args, scalar per-tile path "
                               "(pre-batching seed)",
            }
            payload["speedup_vs_seed"] = round(
                SEED_REFERENCE_SECONDS / wall, 2
            )
            print(f"speedup vs pre-batching seed: "
                  f"{payload['speedup_vs_seed']:.2f}x "
                  f"({SEED_REFERENCE_SECONDS:.2f} s -> {wall:.2f} s)")
        write_bench(args.bench_out, payload)
        print(f"wrote {args.bench_out}")


if __name__ == "__main__":
    main()
