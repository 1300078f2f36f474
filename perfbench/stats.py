"""Benchmark arithmetic: percentiles and failure counting.

Kept free of simulator imports so the self-tests in ``perfbench/tests``
exercise it without building anything.
"""

from __future__ import annotations

import math
import statistics

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    The result is always one of the samples, so "how many samples lie
    beyond it" has an exact answer (:func:`samples_beyond`).
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q``-quantile (ties at the quantile's rank are not beyond it)."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q * n))


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``beyond`` of them lie past the
    ``q``-quantile: the sample count a run must reach before it may
    report that percentile."""
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def median(values) -> float:
    return statistics.median(values)


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation that raised, was refused, or produced output that does
    not match the recorded expectation counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        if self.attempted <= 0:
            raise ValueError("failed_frac of no attempted operations")
        return min(1.0, self.failed / self.attempted)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Float equality up to summation-order noise; cycle and energy
    totals are sums of per-frame floats."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


def check_outputs(label: str, got: dict, want: dict, tally: Tally) -> bool:
    """Compare one operation's outputs with its recorded expectation.

    Every key of ``want`` must be in ``got``: ``final_frame_crc`` and
    ``tiles_skipped`` equal, ``total_cycles`` and ``total_energy_nj``
    equal to :func:`close`.  Records one failure on ``tally`` on
    mismatch and returns whether the outputs matched.
    """
    if want is None:
        tally.fail(f"{label}: no recorded expectation")
        return False
    bad = []
    for key, value in want.items():
        if key not in got:
            bad.append(f"{key} missing")
        elif key in ("total_cycles", "total_energy_nj"):
            if not close(float(got[key]), float(value)):
                bad.append(f"{key} {got[key]!r} != {value!r}")
        elif int(got[key]) != int(value):
            bad.append(f"{key} {got[key]} != {value}")
    if bad:
        tally.fail(f"{label}: " + "; ".join(bad))
        return False
    return True
