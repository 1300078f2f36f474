"""Render-as-a-service: a persistent engine daemon with warm caches.

Standing up a :class:`~repro.engine.session.RenderSession` is the
expensive part of a short render request — scene construction, the
stage graph, signature buffers and the shared raster/shade memos all
get rebuilt per process.  This package keeps those resident:

* :mod:`.jobs`   — :class:`JobSpec`, the JSON-able description of one
  render request (plus sweep/experiment expansion);
* :mod:`.pool`   — :class:`WarmEnginePool`, an LRU of constructed
  engines keyed by ``(game, technique, exact, config digest)``, and
  :func:`execute_job`, which runs a :class:`JobSpec` through
  :func:`~repro.harness.runner.run_workload` — the executor ``repro
  run`` calls directly, so service and CLI answers cannot drift;
* :mod:`.daemon` — :class:`EngineDaemon`, admission control, request
  batching and persistent fault-isolated worker processes;
* :mod:`.server` — the asyncio socket front-end (``repro serve``);
* :mod:`.client` — the synchronous client (``repro submit/status``);
* :mod:`.bench`  — the warm-vs-cold latency benchmark behind
  ``BENCH_service.json``.

The load-bearing invariant is the engine-reuse contract
(:meth:`RenderSession.reset`, pinned by
``tests/engine/test_session_reuse.py``): a run on a reused engine is
bit-identical to a run on a fresh one, so warm service answers equal
cold CLI answers down to per-tile CRCs.
"""

from .client import ServiceClient
from .daemon import EngineDaemon, ServiceConfig
from .jobs import DEFAULT_TENANT, JobSpec, expand_payload
from .pool import WarmEnginePool, execute_job
from .server import ServiceServer
from .telemetry import (
    NULL_TELEMETRY,
    LogHistogram,
    ServiceTelemetry,
    TelemetryRecorder,
    merge_histograms,
)

__all__ = [
    "DEFAULT_TENANT",
    "EngineDaemon",
    "JobSpec",
    "LogHistogram",
    "NULL_TELEMETRY",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "ServiceTelemetry",
    "TelemetryRecorder",
    "WarmEnginePool",
    "execute_job",
    "expand_payload",
    "merge_histograms",
]
