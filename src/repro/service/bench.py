"""Warm-engine benchmark: what keeping engines resident actually buys.

Serves ``requests`` identical jobs through one
:class:`~repro.service.pool.WarmEnginePool` and splits the latency into
the cold first request (engine construction + render) and the warm
remainder (reset + render).  The payload lands in
``BENCH_service.json`` and is guarded like every other bench profile
(:mod:`repro.perf.guard` + ``repro trend --check``):

* **counters** compare exactly — pool behaviour (one engine built,
  every later request a warm hit) is deterministic, and so is the
  benchmark's headline claim ``warm_latency_below_cold`` (a warm
  request must beat the cold one; construction dominates at bench
  scale, so this is a property of the design, not of the host);
* **stage seconds** (``cold_request`` vs ``warm_requests``) compare as
  shares within a tolerance, like the pipeline profile's stages.

Run it the way CI does::

    python -m repro.service.bench --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import statistics
import time

from ..config import SCALES
from ..perf import write_bench
from .jobs import JobSpec
from .pool import WarmEnginePool, execute_job

__all__ = ["service_bench", "main"]


def service_bench(alias: str = "cde", technique: str = "re",
                  num_frames: int = 4, requests: int = 5,
                  scale: str = "small") -> dict:
    """Measure cold-vs-warm request latency; returns the bench payload."""
    if requests < 2:
        raise ValueError("requests must be >= 2 (one cold, some warm)")
    spec = JobSpec(
        alias, technique=technique, num_frames=num_frames, scale=scale,
    ).validated()
    pool = WarmEnginePool(max_engines=1)
    latencies = []
    for _ in range(requests):
        start = time.perf_counter()
        execute_job(spec, pool=pool)
        latencies.append(time.perf_counter() - start)
    cold = latencies[0]
    warm = latencies[1:]
    warm_median = statistics.median(warm)
    stats = pool.stats
    return {
        "command": "service-bench",
        "game": alias,
        "games": [alias],
        "technique": technique,
        "frames": num_frames,
        "scale": scale,
        "requests": requests,
        "profile": {
            "wall_seconds": sum(latencies),
            "stage_seconds": {
                "cold_request": cold,
                "warm_requests": sum(warm),
            },
            "stage_calls": {
                "cold_request": 1,
                "warm_requests": len(warm),
            },
            "counters": {
                "requests": stats.requests,
                "engines_built": stats.engines_built,
                "warm_hits": stats.warm_hits,
                "engines_evicted": stats.engines_evicted,
                "warm_latency_below_cold": int(warm_median < cold),
            },
            "rates": {
                "warm_speedup": round(cold / warm_median, 1),
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.bench",
        description="measure warm-vs-cold service request latency and "
                    "write a guarded bench profile",
    )
    parser.add_argument("--out", default="BENCH_service.json",
                        help="where to write the payload "
                             "(default BENCH_service.json)")
    parser.add_argument("--game", default="cde")
    parser.add_argument("--technique", default="re")
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument("--scale", default="small",
                        choices=SCALES)
    args = parser.parse_args(argv)
    payload = service_bench(
        args.game, technique=args.technique, num_frames=args.frames,
        requests=args.requests, scale=args.scale,
    )
    write_bench(args.out, payload)
    profile = payload["profile"]
    print(f"service bench: {args.requests} requests of "
          f"{args.game}/{args.technique} x {args.frames} frames")
    print(f"  cold request:  {profile['stage_seconds']['cold_request']:8.3f} s")
    print(f"  warm requests: {profile['stage_seconds']['warm_requests']:8.3f} s "
          f"({profile['stage_calls']['warm_requests']} requests, "
          f"speedup {profile['rates']['warm_speedup']:.1f}x)")
    print(f"  wrote profile to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
