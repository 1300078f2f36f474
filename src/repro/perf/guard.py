"""Benchmark-regression guard: compare two ``BENCH_pipeline.json`` files.

The committed baseline pins two different kinds of fact and the guard
treats them differently:

* **Counters** are outputs of a deterministic simulation — the same
  frames produce the same fragment/tile counts on any machine — so any
  drift is a behaviour change and compares *exactly*.
* **Stage seconds** are host wall-clock and vary run to run and machine
  to machine.  Their absolute values are unportable, but their *shares*
  of total stage time (geometry vs raster split) track the simulator's
  algorithmic shape, so the guard compares shares within a tolerance.
* **Wall time** is only meaningful on comparable hardware; the ratio
  check is opt-in (``wall_tolerance``), for environments pinned enough
  to trust it.

CI runs this after regenerating the profile::

    python -m repro.perf.guard BENCH_pipeline.json BENCH_new.json \
        --share-tolerance 0.10

Exit status 0 means no regression; 1 lists every violated check on
stdout; 2 is a usage/IO error.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from . import load_bench


def _profile(payload: dict) -> dict:
    """Accept either a full bench payload or a bare profile snapshot."""
    profile = payload.get("profile", payload)
    if "counters" not in profile or "stage_seconds" not in profile:
        raise ReproError(
            "not a bench profile: expected 'counters' and 'stage_seconds' "
            f"(found keys {sorted(profile)[:8]})"
        )
    return profile


def stage_shares(stage_seconds: dict) -> dict:
    """Each stage's fraction of total stage time (empty dict if none)."""
    total = sum(stage_seconds.values())
    if total <= 0.0:
        return {}
    return {name: seconds / total for name, seconds in stage_seconds.items()}


def compare_bench(baseline: dict, candidate: dict,
                  share_tolerance: float = 0.10,
                  wall_tolerance: float = None) -> list:
    """Compare a candidate bench payload against a baseline.

    Returns a list of human-readable violation strings (empty = pass).
    ``share_tolerance`` is the allowed absolute drift in each stage's
    share of total stage time; ``wall_tolerance`` (``None`` = skip) is
    the allowed fractional wall-clock slowdown, e.g. ``0.02`` for 2%.
    """
    base = _profile(baseline)
    cand = _profile(candidate)
    failures = []

    for name in sorted(set(base["counters"]) | set(cand["counters"])):
        expected = base["counters"].get(name)
        actual = cand["counters"].get(name)
        if expected != actual:
            failures.append(
                f"counter {name!r}: expected {expected}, got {actual} "
                "(simulation counters are deterministic; this is a "
                "behaviour change, not noise)"
            )

    base_shares = stage_shares(base["stage_seconds"])
    cand_shares = stage_shares(cand["stage_seconds"])
    for name in sorted(set(base_shares) | set(cand_shares)):
        expected = base_shares.get(name, 0.0)
        actual = cand_shares.get(name, 0.0)
        drift = abs(actual - expected)
        if drift > share_tolerance:
            failures.append(
                f"stage {name!r} share of stage time: {expected:.3f} -> "
                f"{actual:.3f} (drift {drift:.3f} > "
                f"tolerance {share_tolerance:.3f})"
            )

    if wall_tolerance is not None:
        base_wall = base.get("wall_seconds", 0.0)
        cand_wall = cand.get("wall_seconds", 0.0)
        if base_wall > 0.0 and cand_wall > base_wall * (1 + wall_tolerance):
            failures.append(
                f"wall time {base_wall:.3f}s -> {cand_wall:.3f}s "
                f"(+{100 * (cand_wall / base_wall - 1):.1f}% > "
                f"{100 * wall_tolerance:.0f}% tolerance)"
            )

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.guard",
        description="compare a fresh bench profile against the committed "
                    "baseline; exit 1 on regression",
    )
    parser.add_argument("baseline", help="committed BENCH_pipeline.json")
    parser.add_argument("candidate", help="freshly generated profile")
    parser.add_argument("--share-tolerance", type=float, default=0.10,
                        help="allowed absolute drift per stage's share of "
                             "stage time (default 0.10)")
    parser.add_argument("--wall-tolerance", type=float, default=None,
                        help="allowed fractional wall slowdown, e.g. 0.02 "
                             "(default: skip the wall check — host "
                             "wall-clock is not portable across machines)")
    parser.add_argument("--registry", default=None, metavar="DIR",
                        help="also append the candidate profile to this "
                             "run registry, so `python -m repro trend` "
                             "accumulates CI history")
    args = parser.parse_args(argv)
    try:
        baseline = load_bench(args.baseline)
        candidate = load_bench(args.candidate)
        failures = compare_bench(
            baseline, candidate,
            share_tolerance=args.share_tolerance,
            wall_tolerance=args.wall_tolerance,
        )
        if args.registry:
            from ..obs.store import RunRegistry

            bench_id = RunRegistry(args.registry).record_bench(
                args.candidate
            )
            print(f"recorded candidate profile as {bench_id} "
                  f"in {args.registry}")
    except (OSError, ValueError, ReproError) as exc:
        print(f"bench guard error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"bench regression: {len(failures)} check(s) failed")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench guard: no regression "
          f"(counters exact, stage shares within {args.share_tolerance})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
