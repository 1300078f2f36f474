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

The pool only stores engines; :func:`~repro.harness.runner.run_workload`
(``pool=``) builds them on a miss and runs them.  :func:`execute_job`
maps a :class:`~repro.service.jobs.JobSpec` onto that call; the
daemon's persistent workers and the warm-latency benchmark use it, and
``repro run`` calls ``run_workload`` directly — one executor, so
"service answers equal direct-run answers" is one invariant.
"""

from __future__ import annotations

import collections
import dataclasses

from ..config import GpuConfig
from ..harness.runner import run_workload
# Not called here: perfbench/layers.py wraps this binding by name.
from ..harness.runner import result_from_session  # noqa: F401
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
    def key(alias: str, technique: str, exact_signatures: bool,
            config: GpuConfig) -> tuple:
        """Everything that determines an engine's behaviour."""
        return (alias, technique, exact_signatures, config.digest())

    def __len__(self) -> int:
        return len(self._engines)

    def acquire(self, key: tuple, num_frames: int):
        """A reset resident engine for ``key`` retargeted to
        ``num_frames``, or ``None`` on a miss (the caller builds one).
        The engine is checked *out* — a crash mid-job cannot poison the
        pool."""
        self.stats.requests += 1
        session = self._engines.pop(key, None)
        if session is None:
            self.stats.engines_built += 1
            return None
        self.stats.warm_hits += 1
        session.reset(num_frames=num_frames)
        return session

    def release(self, key: tuple, session) -> None:
        """Return a *successfully used* engine; evicts LRU past bound."""
        self._engines[key] = session
        self._engines.move_to_end(key)
        while len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
            self.stats.engines_evicted += 1

    def discard(self) -> None:
        """Account an engine that will not be returned (job failed)."""
        self.stats.engines_discarded += 1

    def clear(self) -> None:
        self._engines.clear()


def execute_job(spec: JobSpec, pool: WarmEnginePool = None,
                trace_path=None, metrics_path=None, live=None,
                frame_hook=None, tracer=None):
    """Run one job spec through :func:`~repro.harness.runner.run_workload`;
    returns ``(RunResult, info)``.

    ``info`` is ``{"warm": bool}``: whether the engine came warm from
    ``pool`` (without a pool it is built and dropped).  The daemon's
    workers add a ``"pool"`` key with their pool's lifetime counters
    before replying.

    ``frame_hook(frames_rendered)`` — when given — is invoked at every
    frame boundary (the daemon's workers use it for deterministic fault
    injection); rendering is bit-identical either way.  ``tracer``
    attaches a caller-provided tracer (the daemon's workers pass a
    :class:`~repro.obs.distributed.ShardTracer` so engine frame spans
    land in the job's distributed trace); ``trace_path``,
    ``metrics_path`` and ``live`` are the executor's.
    """
    hits = pool.stats.warm_hits if pool is not None else 0
    result = run_workload(
        spec.alias, spec.technique, spec.config(), spec.num_frames,
        exact_signatures=spec.exact_signatures, pool=pool, tracer=tracer,
        trace_path=trace_path, metrics_path=metrics_path, live=live,
        after_step=frame_hook, stride=1 if frame_hook is not None else 0,
    )
    warm = pool is not None and pool.stats.warm_hits > hits
    return result, {"warm": warm}
