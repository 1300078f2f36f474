"""Observability: tracing, metrics, run registry, and live telemetry.

The telemetry layer for the simulator.  This package records
*time-resolved, per-entity* telemetry of the simulated run and archives
run outcomes for cross-run analysis:

* :class:`Tracer` / :class:`SpanRecorder` / :class:`TraceRecorder` —
  one span API over the stage graph.  Every recorder aggregates its
  spans and counters into the simulator profile
  (:meth:`SpanRecorder.profile`, ``--profile``); :class:`TraceRecorder`
  also emits Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (``--trace out.json``);
* :class:`MetricsLog` — every registry counter sampled at each frame
  boundary into a JSONL time series plus per-tile skip heatmap data
  (``--metrics out.jsonl``);
* :mod:`repro.obs.report` — offline analysis of a metrics log
  (``python -m repro report run.metrics.jsonl``);
* :mod:`repro.obs.validate` — strict trace-event schema checks, so
  viewer compatibility is pinned by tests;
* :class:`RunRegistry` (:mod:`repro.obs.store`) — content-addressed
  archive of run/sweep/bench manifests under ``results/registry/``,
  the substrate for ``python -m repro runs / diff / trend``;
* :mod:`repro.obs.diff` — pairwise comparison of two registered runs
  (stage cycles, skip rates, traffic, counters, per-tile CRCs);
* :mod:`repro.obs.trend` — performance trajectory over registered
  bench profiles, with regression flagging (``repro trend --check``);
* :mod:`repro.obs.live` — live telemetry for parallel/supervised
  runs: workers stream per-frame progress to a
  :class:`LiveAggregator` that renders a status table, writes a
  ``live.json`` heartbeat and flags stalled workers.
"""

from .diff import diff_manifests, diff_results, diff_runs, render_diff
from .distributed import (
    ShardTracer,
    TraceContext,
    TraceShard,
    merge_shards,
    mint_trace,
)
from .live import NULL_LIVE, ChannelLiveSink, LiveAggregator, LiveSink
from .metrics import MetricsLog, frame_record
from .report import render_report
from .store import RunRegistry, bench_manifest, git_revision, run_manifest
from .tracer import NULL_TRACER, SpanRecorder, Tracer, TraceRecorder
from .trend import check_trend, render_trend, trend_points
from .validate import validate_trace, validate_trace_file

__all__ = [
    "ChannelLiveSink",
    "LiveAggregator",
    "LiveSink",
    "MetricsLog",
    "NULL_LIVE",
    "NULL_TRACER",
    "RunRegistry",
    "ShardTracer",
    "SpanRecorder",
    "TraceContext",
    "TraceRecorder",
    "TraceShard",
    "Tracer",
    "bench_manifest",
    "check_trend",
    "diff_manifests",
    "diff_results",
    "diff_runs",
    "frame_record",
    "git_revision",
    "merge_shards",
    "mint_trace",
    "render_diff",
    "render_report",
    "render_trend",
    "run_manifest",
    "trend_points",
    "validate_trace",
    "validate_trace_file",
]
