"""Harness cell runner: fan independent cells across workers.

A *cell* is one independent (workload, technique) simulation —
:func:`repro.harness.runner.run_workload` with fixed arguments.  Cells
share no simulator state (each builds its own scene and GPU), so a run
matrix parallelizes trivially; the suite, sweeps and the experiment
cache all fan out through :func:`run_cells`.

Determinism: :func:`run_workload` derives a seed from the cell's
identity (:func:`~repro.harness.runner.cell_seed`) and reseeds NumPy's
legacy global generator before rendering, so a cell's result is a pure
function of the cell — identical whether it runs serially, in any
worker, or in any order.  (Workload content already uses explicit
per-scene generators; the reseeding guards any library code that
reaches for global randomness.)

A cell runs in one of two ways.  Serial, unsupervised runs
(``processes`` in ``(None, 0, 1)``, or a single cell) execute
in-process — the reference path, sharing the in-process raster/shade
memos.  Everything else runs on the supervisor's persistent workers
(:func:`repro.harness.supervisor.supervise_cells`); without a caller
``policy`` that is fail-fast (no retries), and passing ``policy`` /
``journal_path`` / ``fault_spec`` adds per-cell timeouts, bounded retry
with backoff, checkpoint recovery and a JSONL run journal.
"""

from __future__ import annotations

import dataclasses
import os
import re
import typing

from ..config import GpuConfig
from ..errors import ReproError
from .runner import run_workload


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent unit of harness work.

    ``config`` optionally overrides the run-wide :class:`GpuConfig` for
    this cell alone (parameter sweeps fan out heterogeneous grids this
    way); ``None`` means "use the config the runner was given".
    ``tag``, when set, names the cell's per-cell artifacts (trace /
    metrics fan-out) instead of the positional ``-NN-alias-technique``
    scheme — sweeps tag points with their parameter assignment so the
    files stop being anonymous.
    """

    alias: str
    technique: str = "baseline"
    num_frames: int = 50
    exact_signatures: bool = False
    config: GpuConfig = None
    tag: str = None


def cell_label(cell: Cell) -> str:
    """Human-readable cell identity keying journals and live rows: the
    cell's tag when set (sweep points), else ``alias/technique``."""
    if cell.tag is not None:
        return cell.tag
    return f"{cell.alias}/{cell.technique}"


def sanitize_component(text) -> str:
    """Filesystem-safe rendering of one artifact-name component.

    Anything outside ``[A-Za-z0-9._=-]`` collapses to ``_``.  Distinct
    inputs *can* sanitize to the same name — path-derivation call sites
    guard with :func:`ensure_unique_paths` so a collision raises instead
    of silently overwriting another cell's artifacts.
    """
    return re.sub(r"[^A-Za-z0-9._=-]", "_", str(text))


def per_cell_path(base, cell: Cell, index: int, many: bool):
    """Derive a per-cell artifact path (trace/metrics) from a base path.

    One untagged cell uses the base path verbatim; a matrix suffixes the
    stem with the cell's position and label (the index disambiguates
    points that share alias/technique across configs).  A *tagged* cell
    always uses its sanitized tag — sweeps name points after their
    parameter assignment this way."""
    if base is None:
        return None
    base = os.fspath(base)
    root, ext = os.path.splitext(base)
    if cell.tag is not None:
        return f"{root}-{sanitize_component(cell.tag)}{ext}"
    if not many:
        return base
    alias = sanitize_component(cell.alias)
    technique = sanitize_component(cell.technique)
    return f"{root}-{index:02d}-{alias}-{technique}{ext}"


def ensure_unique_paths(paths: typing.Sequence, what: str = "artifact") -> None:
    """Raise if any two derived artifact paths collide.

    Fan-out writes one trace/metrics file per cell; two cells mapping to
    the same path (sanitized tags or labels colliding) would silently
    overwrite each other, so that is an error, not a warning.
    """
    seen: dict = {}
    for path in paths:
        if path is None:
            continue
        if path in seen:
            raise ReproError(
                f"{what} path collision: {path!r} is derived by more than "
                "one cell (sanitized names collide); rename the colliding "
                "points or write to distinct stems"
            )
        seen[path] = True


def coerce_cells(cells: typing.Sequence) -> list:
    """Normalize a cell sequence: tuples become :class:`Cell`, duplicate
    cells collapse (keeping first-seen order) so result dicts keyed by
    cell cannot silently drop work."""
    coerced = [c if isinstance(c, Cell) else Cell(*c) for c in cells]
    return list(dict.fromkeys(coerced))


def run_cells(cells: typing.Sequence, config: GpuConfig = None,
              processes: int = None, policy=None, journal_path=None,
              fault_spec=None, workdir=None, trace_path=None,
              metrics_path=None, live=None) -> dict:
    """Run every cell, returning ``{cell: RunResult}``.

    ``processes`` > 1 fans cells across the supervisor's persistent
    workers (capped at the cell count); ``None``/``0``/``1`` runs
    serially in-process.  Results are keyed by cell regardless of
    completion order, so callers see the same mapping either way.

    ``trace_path`` / ``metrics_path`` record per-run observability
    (:mod:`repro.obs`) for every cell; with more than one cell the
    paths are suffixed per cell (:func:`per_cell_path`).  Derived paths
    are checked for collisions up front — two cells whose sanitized
    names map to the same file raise instead of overwriting each other.

    ``live`` accepts a :class:`~repro.obs.live.LiveAggregator`: cells
    stream per-frame progress/counters to it and it maintains the
    status table + ``live.json`` heartbeat while the run goes.

    Passing any of ``policy`` (a
    :class:`~repro.harness.supervisor.SupervisorPolicy`),
    ``journal_path`` or ``fault_spec`` supervises even a serial run,
    retrying per the policy (default :class:`SupervisorPolicy`); a plain
    parallel run retries nothing.  Cells that still fail raise
    :class:`SupervisionError` with the successful cells' results
    attached.
    """
    cells = coerce_cells(cells)
    config = config or GpuConfig.benchmark()
    supervised = (
        policy is not None or journal_path is not None
        or fault_spec is not None
    )
    if not supervised and (processes in (None, 0, 1) or len(cells) <= 1):
        return _run_in_process(cells, config, trace_path, metrics_path,
                               live)

    from .supervisor import SupervisorPolicy, supervise_cells

    if not supervised:
        policy = SupervisorPolicy(max_retries=0)    # fail fast
    return supervise_cells(
        cells, config=config, policy=policy, processes=processes,
        journal_path=journal_path, fault_spec=fault_spec, workdir=workdir,
        trace_path=trace_path, metrics_path=metrics_path, live=live,
    ).raise_on_failure().results()


def _run_in_process(cells: list, config: GpuConfig, trace_path,
                    metrics_path, live) -> dict:
    """The serial reference path: each cell through :func:`run_workload`
    in this process."""
    many = len(cells) > 1
    traces = [per_cell_path(trace_path, cell, index, many)
              for index, cell in enumerate(cells)]
    metrics = [per_cell_path(metrics_path, cell, index, many)
               for index, cell in enumerate(cells)]
    ensure_unique_paths(traces, "trace")
    ensure_unique_paths(metrics, "metrics")
    from ..obs.live import ChannelLiveSink

    results = {}
    try:
        for cell, cell_trace, cell_metrics in zip(cells, traces, metrics):
            results[cell] = run_workload(
                cell.alias, cell.technique, config=cell.config or config,
                num_frames=cell.num_frames,
                exact_signatures=cell.exact_signatures,
                trace_path=cell_trace, metrics_path=cell_metrics,
                live=(ChannelLiveSink(live, cell_label(cell))
                      if live is not None else None),
            )
    finally:
        if live is not None:
            live.close()
    return results


def run_matrix(aliases: typing.Sequence, techniques: typing.Sequence,
               config: GpuConfig = None, num_frames: int = 50,
               processes: int = None, policy=None, journal_path=None,
               fault_spec=None) -> dict:
    """Run the full ``aliases x techniques`` grid; returns a mapping
    ``(alias, technique) -> RunResult``."""
    cells = [
        Cell(alias, technique, num_frames)
        for alias in aliases for technique in techniques
    ]
    results = run_cells(
        cells, config=config, processes=processes, policy=policy,
        journal_path=journal_path, fault_spec=fault_spec,
    )
    return {
        (cell.alias, cell.technique): run for cell, run in results.items()
    }
