"""Warm engine pool: constructed render engines, kept for reuse.

Constructing a :class:`~repro.engine.session.RenderSession` pays for
scene generation, the GPU stage graph, signature buffers and (via the
shared content-keyed raster/shade/tile memos) shader warm-up.  For a
service answering many short requests that cost dominates, so the pool
keeps finished engines resident, keyed by everything that determines
their behaviour — ``(alias, technique, exact_signatures, config
digest)`` — and hands them back out after a
:meth:`~repro.engine.session.RenderSession.reset`.

Soundness rests on the engine-reuse contract
(``tests/engine/test_session_reuse.py``): a reset engine renders
bit-identically to a fresh one, so a warm hit changes latency and
nothing else.  An engine is returned to the pool only after its job
*succeeded* — a job that raised leaves its engine behind (state
unknown, never reused).

:func:`execute_job` is the one code path every service execution takes:
the daemon's persistent workers, the CLI's transient in-process mode
(:func:`~repro.service.client.run_job_inprocess`) and the warm-latency
benchmark all call it, which is what makes "service answers equal
direct-run answers" a single invariant instead of three.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from ..engine.session import RenderSession
from ..harness.parallel import cell_seed
from ..harness.runner import result_from_session
from .jobs import JobSpec

__all__ = ["PoolStats", "WarmEnginePool", "execute_job"]


@dataclasses.dataclass
class PoolStats:
    """Lifetime counters of one pool (deterministic; bench-guarded)."""

    requests: int = 0
    warm_hits: int = 0
    engines_built: int = 0
    engines_evicted: int = 0
    engines_discarded: int = 0      # failed jobs' engines, never reused

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class WarmEnginePool:
    """LRU pool of constructed engines, bounded by ``max_engines``.

    Not thread-safe by design: each daemon worker process owns exactly
    one pool (engines hold the process's shared memos and cannot cross
    process boundaries anyway).
    """

    def __init__(self, max_engines: int = 4) -> None:
        if max_engines < 1:
            raise ValueError("max_engines must be >= 1")
        self.max_engines = max_engines
        self.stats = PoolStats()
        self._engines: collections.OrderedDict = collections.OrderedDict()

    @staticmethod
    def key(spec: JobSpec) -> tuple:
        """Everything that determines an engine's behaviour."""
        return (spec.alias, spec.technique, spec.exact_signatures,
                spec.digest())

    def __len__(self) -> int:
        return len(self._engines)

    def acquire(self, spec: JobSpec):
        """``(session, warm)`` for the spec: a reset resident engine on
        a hit, a freshly constructed one on a miss.  The engine is
        checked *out* — a crash mid-job cannot poison the pool."""
        self.stats.requests += 1
        key = self.key(spec)
        session = self._engines.pop(key, None)
        if session is not None:
            self.stats.warm_hits += 1
            session.reset(num_frames=spec.num_frames)
            return session, True
        self.stats.engines_built += 1
        session = RenderSession(
            spec.alias, technique=spec.technique, config=spec.config(),
            num_frames=spec.num_frames,
            exact_signatures=spec.exact_signatures,
        )
        return session, False

    def release(self, spec: JobSpec, session: RenderSession) -> None:
        """Return a *successfully used* engine; evicts LRU past bound."""
        key = self.key(spec)
        self._engines[key] = session
        self._engines.move_to_end(key)
        while len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
            self.stats.engines_evicted += 1

    def discard(self, spec: JobSpec = None) -> None:
        """Account an engine that will not be returned (job failed)."""
        self.stats.engines_discarded += 1

    def clear(self) -> None:
        self._engines.clear()


def execute_job(spec: JobSpec, pool: WarmEnginePool = None,
                trace_path=None, metrics_path=None, live=None,
                frame_hook=None, tracer=None):
    """Run one job spec; returns ``(RunResult, info)``.

    ``info`` is a small dict — currently ``{"warm": bool}`` — describing
    how the job was served.  With a ``pool`` the engine comes from (and,
    on success, returns to) it; without one the engine is built and
    dropped, which is exactly the pre-service direct path.

    Seeding mirrors the harness cell discipline
    (:func:`repro.harness.parallel.cell_seed`): NumPy's global generator
    is reseeded from the cell identity so a job's result is a pure
    function of its spec, independent of what the worker ran before.

    ``frame_hook(frames_rendered)`` — when given — is invoked at every
    frame boundary (the daemon's workers use it for deterministic fault
    injection); rendering is bit-identical either way.

    ``tracer`` attaches a caller-provided tracer (the daemon's workers
    pass a :class:`~repro.obs.distributed.ShardTracer` so engine frame
    spans land in the job's distributed trace); spans the caller opened
    on it stay open on success, and every open span is closed if the
    job dies mid-frame.  Without one, ``trace_path`` builds a local
    :class:`~repro.obs.tracer.TraceRecorder` as before.
    """
    np.random.seed(cell_seed(spec.cell()))
    metrics = None
    if trace_path is not None and tracer is None:
        from ..obs import TraceRecorder

        tracer = TraceRecorder()
    if metrics_path is not None:
        from ..obs import MetricsLog

        metrics = MetricsLog(metrics_path)

    if pool is not None:
        session, warm = pool.acquire(spec)
    else:
        session = RenderSession(
            spec.alias, technique=spec.technique, config=spec.config(),
            num_frames=spec.num_frames,
            exact_signatures=spec.exact_signatures,
        )
        warm = False
    session.attach_observability(tracer=tracer, metrics=metrics, live=live)

    done = False
    try:
        if frame_hook is not None:
            session.run_checkpointed(1, None, frame_hook)
        else:
            session.run()
        done = True
    finally:
        if tracer is not None and not done:
            tracer.close_open_spans()
        if tracer is not None and trace_path is not None:
            tracer.write(trace_path)
        if metrics is not None:
            metrics.close()
        if live:
            live.finish(ok=session.frames_rendered >= session.num_frames)
        if pool is not None and not done:
            pool.discard(spec)

    result = result_from_session(session)
    if pool is not None:
        pool.release(spec, session)
    return result, {"warm": warm}
