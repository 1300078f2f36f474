"""Run workloads under techniques and collect per-frame metrics.

This is the experiment driver the paper's evaluation flows through: it
renders N frames of a benchmark on a simulated GPU with a chosen
technique, converts activity to cycles and energy, and records per-tile
color checksums (and input signatures for RE runs) so the tile-level
analyses of Figs. 2 and 15a are *measured* from rendered output.

The heavy lifting lives in :class:`repro.engine.session.RenderSession`.
:func:`run_workload` is the only code that builds (or takes from a warm
pool) a session and runs it: it reseeds, attaches observability, adds
checkpoint/resume plumbing, hooks and the JSON run manifest, and
packages the outcome as a :class:`RunResult`.  The supervisor's
workers, the service's :func:`~repro.service.pool.execute_job` and the
CLI all run cells through it, so every path gives the same answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from ..config import GpuConfig
from ..engine.factory import TECHNIQUES, make_technique
from ..engine.session import FrameMetrics, RenderSession, tile_color_crcs
from ..pipeline.kernels import backend_record

__all__ = [
    "TECHNIQUES",
    "FrameMetrics",
    "RunResult",
    "cell_seed",
    "make_technique",
    "result_from_session",
    "run_workload",
    "tile_color_crcs",
]


@dataclasses.dataclass
class RunResult:
    """A complete benchmark run: one game, one technique."""

    alias: str
    technique: str
    config: GpuConfig
    num_frames: int
    frames: list
    tile_color_crcs: np.ndarray            # (frames, tiles) uint32
    tile_input_sigs: np.ndarray = None     # (frames, tiles) uint32, RE only
    final_frame_crc: int = 0
    technique_stats: object = None
    #: End-of-run cumulative value of every StatsRegistry counter
    #: (``"raster.tiles_skipped"``...), the cross-run diffable view the
    #: registry manifests record; ``None`` on results rebuilt from
    #: sources that never sampled the registry.
    counters: dict = None
    #: Frames that cannot match a reference signature: the Signature
    #: Buffer needs ``compare_distance`` complete banks of history before
    #: its first valid comparison, so that many leading frames always
    #: render in full.
    warmup_frames: int = 2

    # Aggregates ----------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return sum(f.cycles.total_cycles for f in self.frames)

    @property
    def geometry_cycles(self) -> float:
        return sum(f.cycles.geometry_cycles for f in self.frames)

    @property
    def raster_cycles(self) -> float:
        return sum(f.cycles.raster_cycles for f in self.frames)

    @property
    def total_energy_nj(self) -> float:
        return sum(f.energy.total_nj for f in self.frames)

    @property
    def gpu_energy_nj(self) -> float:
        return sum(f.energy.gpu_nj for f in self.frames)

    @property
    def dram_energy_nj(self) -> float:
        return sum(f.energy.dram_nj for f in self.frames)

    @property
    def fragments_shaded(self) -> int:
        return sum(f.fragments_shaded for f in self.frames)

    @property
    def fragments_rasterized(self) -> int:
        return sum(f.fragments_rasterized for f in self.frames)

    @property
    def tiles_skipped(self) -> int:
        return sum(f.tiles_skipped for f in self.frames)

    def traffic_bytes(self, stream: str) -> int:
        return sum(f.traffic.get(stream, 0) for f in self.frames)

    @property
    def total_traffic_bytes(self) -> int:
        return sum(sum(f.traffic.values()) for f in self.frames)

    def skipped_fraction(self, warmup: int = None) -> float:
        """Fraction of tiles skipped, ignoring the warm-up frames that
        cannot match (no reference bank yet).  ``warmup`` defaults to
        :attr:`warmup_frames`, which the harness derives from the
        configured signature compare distance."""
        if warmup is None:
            warmup = self.warmup_frames
        frames = self.frames[warmup:]
        if not frames:
            return 0.0
        total = len(frames) * self.config.num_tiles
        return sum(f.tiles_skipped for f in frames) / total


def _write_manifest(path, session: RenderSession, result: RunResult,
                    resumed_at: int, checkpoint_path) -> None:
    """JSON run manifest: what ran, from where, and the headline numbers."""
    manifest = {
        "alias": session.alias,
        "technique": session.technique_name,
        "num_frames": session.num_frames,
        "frames_rendered_this_run": session.num_frames - resumed_at,
        "resumed_from_frame": resumed_at if resumed_at else None,
        "checkpoint_path": str(checkpoint_path) if checkpoint_path else None,
        "exact_signatures": session.exact_signatures,
        "warmup_frames": result.warmup_frames,
        "final_frame_crc": result.final_frame_crc,
        "total_cycles": result.total_cycles,
        "total_energy_nj": result.total_energy_nj,
        "total_traffic_bytes": result.total_traffic_bytes,
        "tiles_skipped": result.tiles_skipped,
        "skipped_fraction": result.skipped_fraction(),
        "config": session.config.to_dict(),
        "raster_backend": backend_record(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")




def result_from_session(session: RenderSession) -> RunResult:
    """Package a completed :class:`RenderSession` as a :class:`RunResult`."""
    return RunResult(
        alias=session.alias,
        technique=session.technique_name,
        config=session.config,
        num_frames=session.num_frames,
        frames=session.frames,
        tile_color_crcs=session.color_crcs,
        tile_input_sigs=session.input_sigs,
        final_frame_crc=session.final_frame_crc,
        technique_stats=getattr(session.technique, "stats", None),
        counters=dict(session.gpu.stats_registry.snapshot()),
        warmup_frames=session.config.signature_compare_distance,
    )


def cell_seed(alias: str, technique: str, num_frames: int,
              exact_signatures: bool = False) -> int:
    """Deterministic 32-bit seed derived from a cell's identity.

    The config is deliberately excluded: the seed covers what the cell
    *renders*, and reseeding exists only to guard stray global-randomness
    users, so sweep points of the same cell reseed identically.
    """
    digest = hashlib.sha256(
        f"{alias}|{technique}|{num_frames}|{exact_signatures}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def run_workload(alias: str, technique: str = "baseline",
                 config: GpuConfig = None, num_frames: int = 50,
                 exact_signatures: bool = False, tracer=None,
                 resume_from=None, checkpoint_at: int = None,
                 checkpoint_path=None, manifest_path=None,
                 trace_path=None, metrics_path=None, live=None,
                 pool=None, after_step=None, stride: int = 0,
                 header_fields: dict = None) -> RunResult:
    """Render ``num_frames`` of a benchmark under a technique.

    This is the one cell executor: the CLI, the serial cell runner, the
    supervisor's workers and the service's
    :func:`~repro.service.pool.execute_job` all render through it.
    NumPy's global generator is reseeded from the cell identity
    (:func:`cell_seed`) before the first frame, so a result is a pure
    function of the cell, whatever the process ran before.

    Engine:

    * ``pool`` — a :class:`~repro.service.pool.WarmEnginePool`: a fresh
      run takes a reset resident engine from it when one matches and
      returns the engine after a successful run; a failed run's engine
      is discarded.  Not combinable with ``resume_from``.
    * ``resume_from`` — path to (or state dict of) a checkpoint written
      by an earlier run; the session continues from the frame after the
      checkpoint and the combined result is bit-identical to an
      uninterrupted run.  ``config`` then defaults to the checkpoint's.

    Checkpoints and hooks:

    * ``checkpoint_at`` — write a checkpoint to ``checkpoint_path``
      after that many frames, then keep rendering to completion.
    * ``stride`` / ``after_step`` — ``after_step(frames_rendered)``
      runs after every ``stride`` frames (``0``: once, at the end);
      with ``checkpoint_path`` each boundary before the last frame first
      saves a checkpoint there (atomically), so a killed run resumes.
    * ``manifest_path`` — write a JSON manifest describing the run.

    Observability (:mod:`repro.obs`):

    * ``tracer`` — a caller-provided :class:`~repro.obs.Tracer` that
      sees every frame rendered.  A :class:`~repro.obs.SpanRecorder`
      (``--profile``) aggregates per-stage wall-clock and event counts
      into its :meth:`~repro.obs.SpanRecorder.profile`; one recorder
      can observe many runs.  Spans the caller opened stay open on
      success; if the run raises, every open span is closed.
    * ``trace_path`` — write the tracer's Chrome trace-event JSON there
      (Perfetto-loadable), building a :class:`~repro.obs.TraceRecorder`
      when no ``tracer`` is given.  The trace is written even if the
      run raises, so a failed run still leaves its timeline behind.
    * ``metrics_path`` — sample every registry counter at each frame
      boundary into a JSONL per-frame metrics log there (the input to
      ``python -m repro report``).
    * ``live`` — a :class:`~repro.obs.live.LiveSink` receiving a
      per-frame progress callback (see :mod:`repro.obs.live`) and a
      final ``finish``; falsy sinks cost one truthiness check per frame.
    * ``header_fields`` — caller context stamped into the trace metadata
      and the metrics header (the supervisor's cell, attempt and resume
      frame).  A stamped metrics log is appended to, so every attempt of
      a retried cell adds its own section to one file.
    """
    if checkpoint_at is not None and checkpoint_path is None:
        raise ValueError("checkpoint_at requires checkpoint_path")
    if pool is not None and resume_from is not None:
        raise ValueError("a warm pool serves fresh runs, not resumed ones")
    if resume_from is None and config is None:
        config = GpuConfig.benchmark()
    metrics = None
    if trace_path is not None or metrics_path is not None:
        from ..obs import MetricsLog, TraceRecorder

        if trace_path is not None and tracer is None:
            tracer = TraceRecorder()
        if metrics_path is not None:
            metrics = MetricsLog(
                metrics_path, mode="a" if header_fields else "w"
            )

    session = None
    done = False
    try:
        if resume_from is not None:
            session = RenderSession.from_checkpoint(resume_from, config=config)
        elif pool is not None:
            key = pool.key(alias, technique, exact_signatures, config)
            session = pool.acquire(key, num_frames)
        if session is None:
            session = RenderSession(
                alias, technique=technique, config=config,
                num_frames=num_frames, exact_signatures=exact_signatures,
            )
        resumed_at = session.frames_rendered
        np.random.seed(cell_seed(
            session.alias, session.technique_name, session.num_frames,
            session.exact_signatures,
        ))
        session.attach_observability(
            tracer=tracer, metrics=metrics, live=live,
            header_fields=header_fields,
        )
        if checkpoint_at is not None:
            session.run(until=checkpoint_at)
            session.save(checkpoint_path)
        session.run_checkpointed(stride, checkpoint_path, after_step)
        done = True
    finally:
        if tracer is not None and not done:
            tracer.close_open_spans()
        if trace_path is not None:
            tracer.write(trace_path)
        if metrics is not None:
            metrics.close()
        if live:
            live.finish(ok=done)
        if pool is not None and session is not None and not done:
            pool.discard()

    result = result_from_session(session)
    if pool is not None:
        pool.release(key, session)
    if manifest_path is not None:
        _write_manifest(
            manifest_path, session, result, resumed_at, checkpoint_path
        )
    return result
