"""``suite`` and ``suite_culled``: the paper's evaluation matrix.

Ten games (``FIGURE_ORDER``) x ``baseline``/``re``/``te`` at
``GpuConfig.benchmark()`` (384 tiles), :data:`FRAMES` frames per cell,
run serially in one process.  Each cell goes through ``RenderSession``
and ``result_from_session``, the path ``run_workload`` takes.  The
process-wide content memos start cold for each pass, as they do for a
user's run, so the seeded cell order decides which cell pays each miss.

``suite_culled`` is the same matrix with ``occlusion_culling=True``.
Its frame CRCs and skipped-tile counts must equal the plain suite's
cell for cell; its cycles and energy differ, because the primitives the
pass culls are never simulated.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

from . import common, layers
from .stats import Tally, check_outputs

TECHNIQUES = ("baseline", "re", "te")
#: Frames per cell: RE can first skip at frame 3 (two banks of history),
#: and 30 cells x 4 frames gives 120 frame samples, enough for a p90.
FRAMES = 4

#: Rough host seconds of one pass of the matrix (plain, culled) on the
#: 2-CPU host the benchmark was tuned on.  A timed run makes
#: ``round(seconds / PASS_S)`` passes, at least one, so its work
#: follows ``--seconds`` but not the host's speed at the time.
PASS_S = {False: 10.0, True: 25.0}

_SETUP_CODE = (
    "import perfbench.suite as s; s.prepare({culled}); print('ready')"
)


def cell_order(seed: int, pass_index: int = 0) -> list:
    """The matrix's cells in the seeded order of one pass."""
    from repro.workloads import FIGURE_ORDER

    cells = [(alias, tech) for alias in FIGURE_ORDER for tech in TECHNIQUES]
    random.Random(seed * 1009 + pass_index).shuffle(cells)
    return cells


def prepare(culled: bool):
    """What a run does before its first timed frame: import the
    simulator and pick the configuration."""
    from repro.config import GpuConfig
    from repro.engine.session import RenderSession  # noqa: F401
    from repro.harness import runner  # noqa: F401

    config = GpuConfig.benchmark()
    if culled:
        config = dataclasses.replace(config, occlusion_culling=True)
    return config


def fresh_memos() -> None:
    """Give the process cold content memos, as a new process has.

    The memos are module-level singletons with no reset; rebinding the
    module globals hands every Gpu built afterwards a new, empty one.
    """
    from repro.pipeline import fragment_stage, rasterizer, tile_scheduler

    tile_scheduler._SHARED_TILE_MEMO = tile_scheduler.TileMemo()
    fragment_stage._SHARED_SHADE_MEMO = fragment_stage.ShadeMemo()
    rasterizer._SHARED_RASTER_STORE = rasterizer.RasterMemoStore()
    rasterizer._SHARED_RASTER_MEMOS = {}


def run_pass(config, order, expected: dict, tally: Tally,
             frames: list, plain: dict = None) -> tuple:
    """Render every cell once; returns ``((start, end), outputs)`` and
    appends each frame's ``(start, end)`` to ``frames``.

    Each cell is checked against ``expected``; with ``plain`` (the
    unculled suite's expectations) its CRC and skip count must also
    match the plain cell's.
    """
    from repro.engine.session import RenderSession
    from repro.harness import runner

    outputs = {}
    clock = time.perf_counter
    start = clock()
    for alias, tech in order:
        label = f"{alias}/{tech}"
        tally.attempt()
        try:
            session = RenderSession(alias, tech, config=config,
                                    num_frames=FRAMES)
            for frame in range(FRAMES):
                begin = clock()
                session.run(until=frame + 1)
                frames.append((begin, clock()))
            result = runner.result_from_session(session)
        except Exception as exc:  # a failed cell is counted, not fatal
            tally.fail(f"{label}: {type(exc).__name__}: {exc}")
            continue
        got = {
            "final_frame_crc": result.final_frame_crc,
            "total_cycles": result.total_cycles,
            "total_energy_nj": result.total_energy_nj,
            "tiles_skipped": result.tiles_skipped,
        }
        outputs[(alias, tech)] = got
        if check_outputs(label, got, expected.get(label), tally) and plain:
            want = plain.get(label)
            check_outputs(f"{label} against the unculled cell", got,
                          want and {key: want[key] for key in
                                    ("final_frame_crc", "tiles_skipped")},
                          tally)
    span = (start, clock())
    # RE and TE must never change pixels: one check per game.
    for alias in sorted({alias for alias, _tech in order}):
        tally.attempt()
        crcs = {tech: outputs.get((alias, tech), {}).get("final_frame_crc")
                for tech in TECHNIQUES}
        if None in crcs.values() or len(set(crcs.values())) != 1:
            tally.fail(f"{alias}: final CRCs differ across techniques "
                       f"{crcs}")
    return span, outputs


def simulated_summary(outputs: dict) -> list:
    """The paper's headline ratios, as this simulator computes them."""
    from repro.harness.reporting import geomean

    speedups, savings = [], []
    for (alias, tech), base in sorted(outputs.items()):
        re = outputs.get((alias, "re"))
        if tech != "baseline" or re is None:
            continue
        speedups.append(base["total_cycles"] / re["total_cycles"])
        savings.append(1.0 - re["total_energy_nj"] / base["total_energy_nj"])
    if not speedups:
        return []
    return [
        f"simulated RE speedup over baseline: {geomean(speedups):.3f}x "
        f"geomean over {len(speedups)} games, {FRAMES} frames each "
        "(paper: 1.74x)",
        f"simulated RE energy saving: {sum(savings) / len(savings):.1%} "
        "mean (paper: 43%)",
        "the timing and energy models are unvalidated against hardware; "
        "no error figure is given",
    ]


def run(args, expected: dict, culled: bool) -> dict:
    tally = Tally()
    notes = []
    config = prepare(culled)
    table = expected[args.workload]
    plain = expected["suite"] if culled else None
    if not args.trace:
        setups = [
            common.probe_setup(_SETUP_CODE.format(culled=culled))
            for _ in range(common.SETUPS)
        ]
        spans, frames = [], []
        passes = max(1, round(args.seconds / PASS_S[culled]))
        for index in range(passes):
            if index:
                fresh_memos()
            span, outputs = run_pass(config, cell_order(args.seed, index),
                                     table, tally, frames, plain)
            spans.append(span)
        notes += simulated_summary(outputs)
        notes.append(f"passes={len(spans)} frames={len(frames)} "
                     f"latency samples={len(frames)} (one per frame)")
        return {
            "tally": tally, "notes": notes,
            "e2e": {
                "setup": setups,
                "busy": spans,
                "frames": len(frames),
                "latency": frames,
                "peak_rss_mb": common.peak_rss_mb(),
            },
        }

    # Traced: one untraced pass, then the same pass traced.
    order = cell_order(args.seed)
    plain_span, _ = run_pass(config, order, table, tally, [], plain)
    fresh_memos()
    tracer = layers.LayerTracer()
    uninstall = layers.install(tracer)
    try:
        traced_span, outputs = run_pass(config, order, table, tally, [],
                                        plain)
        memos = layers.memo_counts()
    finally:
        uninstall()
    state = layers.snapshot(tracer, memos)
    state["label"] = f"perfbench {args.workload} (pid {os.getpid()})"
    notes += simulated_summary(outputs)
    return {
        "tally": tally, "notes": notes, "states": [state],
        "walls": (plain_span, traced_span),
    }
