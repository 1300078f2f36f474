"""Simulator profile payloads and the bench-regression guard.

This package times the *simulator*, not the simulated GPU.  The profile
itself is the aggregate of a span recorder
(:class:`repro.obs.SpanRecorder`): per-stage wall-clock (the spans
directly under ``frame`` — geometry and raster), event counters, and
event rates (fragments per second of raster time).

>>> from repro.obs import SpanRecorder
>>> recorder = SpanRecorder()
>>> with recorder.span("frame"):
...     with recorder.span("raster"):
...         pass
>>> sorted(recorder.profile())
['counters', 'rates', 'stage_calls', 'stage_seconds', 'wall_seconds']

``--profile`` in ``python -m repro`` and ``examples/benchmark_suite.py``
attaches such a recorder as the run's tracer and writes its profile to
``BENCH_pipeline.json`` with :func:`write_bench`, so successive changes
can track simulator throughput; :mod:`repro.perf.guard` compares two
such payloads.
"""

import json

# The bench-regression guard lives in :mod:`repro.perf.guard`; it is not
# re-exported here so ``python -m repro.perf.guard`` does not double-import
# the module through the package.
__all__ = ["load_bench", "write_bench"]


def write_bench(path, payload: dict) -> None:
    """Write a benchmark payload as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path) -> dict:
    """Read a benchmark payload written by :func:`write_bench`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
