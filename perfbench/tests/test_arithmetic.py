"""Self-tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import itertools
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers  # noqa: E402
from perfbench.common import HostSpeed  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    Tally,
    check_outputs,
    min_samples,
    percentile,
    samples_beyond,
)


# --- self time ---------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_matches_the_span_rule():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    # frame [0, 10] > bin [1, 5] > signature [2, 3] (aggregate only)
    #               > tile [6, 9]
    script = [
        (0.0, "enter", "frame", True), (1.0, "enter", "bin", True),
        (2.0, "enter", "signature", False), (3.0, "exit"),
        (5.0, "exit"), (6.0, "enter", "tile", True), (9.0, "exit"),
        (10.0, "exit"),
    ]
    for step in script:
        clock.now = step[0]
        if step[1] == "enter":
            tracer.enter(step[2], step[3])
        else:
            tracer.exit()
    assert tracer.agg == {"signature": [1, 1.0], "bin": [1, 3.0],
                          "tile": [1, 3.0], "frame": [1, 3.0]}
    # Self time = span - the child spans it covers, aggregate-only
    # children included: frame 10 - 4 - 3, bin 4 - 1.
    # Only spanned layers keep records, parented by index.
    assert [s[0] for s in tracer.spans] == ["frame", "bin", "tile"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]


def test_tracer_caps_recorded_spans():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock, max_spans=2)
    for _ in range(5):
        tracer.enter("f", True)
        tracer.exit()
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    assert tracer.agg["f"][0] == 5


def test_chrome_trace_nests_and_validates():
    from repro.obs.validate import validate_trace

    state = {"pid": 7, "spans": [["frame", 1.0, 2.0, None],
                                 ["bin", 1.1, 1.4, 0],
                                 ["tile", 1.5, 1.9, 0],
                                 ["frame", 2.0, 3.0, None]]}
    payload = layers.chrome_trace([state], {"seed": 1})
    counts = validate_trace(payload)
    assert counts["spans"] == 4
    names = [(e["ph"], e["name"]) for e in payload["traceEvents"]
             if e["ph"] in "BE"]
    assert names == [("B", "frame"), ("B", "bin"), ("E", "bin"),
                     ("B", "tile"), ("E", "tile"), ("E", "frame"),
                     ("B", "frame"), ("E", "frame")]


# --- percentiles -------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0


def test_ten_samples_beyond_p90_needs_one_hundred():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    for n, q in itertools.product(range(1, 300), (0.5, 0.9, 0.99)):
        assert (samples_beyond(n, q) >= MIN_BEYOND) == (n >= min_samples(q))


def test_samples_beyond_counts_strictly_greater():
    values = sorted(range(1, 101))
    p90 = percentile(values, 0.9)
    assert sum(1 for v in values if v > p90) == samples_beyond(100, 0.9)


# --- host-speed scaling --------------------------------------------------

def _speed(samples):
    speed = HostSpeed()
    speed.origin = 0.0
    for stamp, cost in samples:
        speed.stamps.append(stamp)
        speed.costs.append(cost)
    return speed


def test_scaled_weights_each_bin_by_its_probes():
    ref = HostSpeed.REF_PROBE_S
    slow = 0.5 ** HostSpeed.SENSITIVITY
    # Reference speed for 1.5 s, then half speed for 1.5 s; a probe
    # every 0.1 s.  Each 0.5 s bin takes the median probe of itself and
    # its two neighbours.
    samples = [(0.05 + i / 10, ref if i < 15 else 2 * ref)
               for i in range(30)]
    speed = _speed(samples)
    assert [speed.factor(i) for i in range(6)] == [1, 1, 1] + [slow] * 3
    assert speed.scaled(0.0, 3.0) == pytest.approx(1.5 + 1.5 * slow)
    assert speed.scaled(0.25, 0.75) == pytest.approx(0.5)
    assert speed.scaled(2.0, 3.0) == pytest.approx(slow)
    # No probe near a bin: the run's median probe (1.5 ref) stands in.
    assert speed.scaled(20.0, 21.0) == pytest.approx(
        (1 / 1.5) ** HostSpeed.SENSITIVITY)


def test_scaled_is_host_time_at_the_reference_speed():
    ref = HostSpeed.REF_PROBE_S
    speed = _speed([(i / 10, ref) for i in range(50)])
    assert speed.scaled(0.3, 4.2) == pytest.approx(3.9)
    assert _speed([]).scaled(1.0, 2.5) == pytest.approx(1.5)


# --- failure counting --------------------------------------------------

WANT = {"final_frame_crc": 7, "tiles_skipped": 3,
        "total_cycles": 100.0, "total_energy_nj": 5.5}


def test_matching_outputs_pass():
    tally = Tally()
    tally.attempt()
    assert check_outputs("ccs/re", dict(WANT), WANT, tally)
    assert tally.failed == 0
    assert tally.failed_frac == 0.0


def test_wrong_crc_counts_one_failure():
    tally = Tally()
    tally.attempt(4)
    got = dict(WANT, final_frame_crc=8, total_cycles=101.0)
    assert not check_outputs("ccs/re", got, WANT, tally)
    assert tally.failed == 1          # one operation, however many fields
    assert tally.failed_frac == 0.25
    assert "final_frame_crc 8 != 7" in tally.failures[0]


def test_missing_expectation_is_a_failure():
    tally = Tally()
    tally.attempt()
    assert not check_outputs("new/cell", dict(WANT), None, tally)
    assert tally.failed_frac == 1.0


def test_summation_noise_is_not_a_failure():
    tally = Tally()
    tally.attempt()
    got = dict(WANT, total_cycles=100.0 * (1 + 1e-12))
    assert check_outputs("ccs/re", got, WANT, tally)


def test_missing_output_is_a_failure():
    tally = Tally()
    tally.attempt()
    got = {"final_frame_crc": 7, "tiles_skipped": 3, "total_cycles": 100.0}
    assert not check_outputs("point", got, WANT, tally)
    assert tally.failures == ["point: total_energy_nj missing"]


def test_only_the_expected_keys_are_compared():
    tally = Tally()
    tally.attempt()
    want = {"final_frame_crc": 7, "tiles_skipped": 3}
    assert check_outputs("culled", dict(WANT, total_cycles=1.0), want, tally)


def test_suite_pass_counts_a_wrong_expected_crc():
    from repro.config import GpuConfig

    from perfbench import suite

    order = [("ccs", tech) for tech in suite.TECHNIQUES]
    unknown = {f"ccs/{tech}": None for tech in suite.TECHNIQUES}
    tally = Tally()
    _span, outputs = suite.run_pass(GpuConfig.small(), order, unknown, tally,
                                     [])
    # No expectations: every cell fails; the lossless check passes.
    assert tally.attempted == 4 and tally.failed == 3
    expected = {f"ccs/{tech}": dict(outputs[("ccs", tech)])
                for tech in suite.TECHNIQUES}
    expected["ccs/re"]["final_frame_crc"] ^= 1
    tally = Tally()
    frames = []
    suite.run_pass(GpuConfig.small(), order, expected, tally, frames)
    assert tally.attempted == 4
    assert tally.failures == [
        f"ccs/re: final_frame_crc {outputs[('ccs', 're')]['final_frame_crc']}"
        f" != {expected['ccs/re']['final_frame_crc']}"
    ]
    assert len(frames) == 3 * suite.FRAMES


def test_service_job_without_a_registry_row_fails():
    from perfbench import service

    def record(run_id):
        job = {"state": "done", "summary": dict(WANT), "run_id": run_id}
        return {"spec": ("ccs", "re"), "job": job}
    tally = Tally()
    service.check([record("r1"), record(None)], [], {"ccs/re": WANT}, tally)
    assert tally.attempted == 2
    assert tally.failures == [
        "ccs/re: job not recorded in the tenant registry"]


def test_fleet_point_without_a_manifest_fails():
    from types import SimpleNamespace

    from perfbench import fleet

    points = [SimpleNamespace(point_id=f"p{i}", assignment={"tile_size": i})
              for i in (8, 16)]
    summary = {key: WANT[key] for key in
               ("final_frame_crc", "tiles_skipped", "total_cycles")}
    done = {p.point_id: {"state": "done", "summary": summary,
                         "run_id": "r", "execute_s": 0.5} for p in points}
    result = {"exit_code": 0, "points": points, "done": done,
              "summaries": {"p8": {"total_energy_nj": 5.5}}}
    expected = {"tile_size=8": WANT, "tile_size=16": WANT}
    tally = Tally()
    good = fleet.check(result, expected, tally)
    assert [record["execute_s"] for record in good] == [0.5]
    assert tally.attempted == 2
    assert tally.failures == [
        "tile_size=16: no sweep-point manifest in the registry"]


def test_failed_frac_needs_attempts():
    with pytest.raises(ValueError):
        Tally().failed_frac
