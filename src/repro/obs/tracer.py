"""Tracer protocol and the Chrome-trace-event recording implementation.

The simulator's time-resolved telemetry flows through a :class:`Tracer`:
*spans* (``begin``/``end`` pairs, or the ``span`` context manager) mark
how long a pipeline stage ran, *instant events* mark point decisions
(tile skipped, signature hit/miss, OT-queue stall), and *counter events*
sample per-frame totals onto a counter track.

Implementations:

* :class:`Tracer` itself is the no-op null tracer.  It is *falsy*, so
  hot paths guard with ``if tracer:`` and pay a single truthiness check
  per decision when tracing is off.
* :class:`SpanRecorder` is the recording base: strict per-track span
  stacks plus an aggregate (inclusive seconds and calls per span name,
  summed counter series).  Its :meth:`~SpanRecorder.profile` is the
  simulator profile ``--profile`` writes to ``BENCH_*.json``.  On its
  own it keeps no events, which makes it the profile-only recorder.
* :class:`TraceRecorder` is a thin sink over that base accumulating
  Chrome trace-event JSON — the format ``chrome://tracing`` and Perfetto
  load natively — and writes a ``{"traceEvents": [...], "metadata":
  {...}}`` payload.  With ``--trace --profile`` one recorder does both.
  :class:`~repro.obs.distributed.ShardTracer` is the other sink.

Timestamps are microseconds of host wall-clock since the recorder was
created (the trace-event ``ts`` unit).  Every event carries ``pid``,
``tid``, ``ts``, ``ph`` and ``name``; :mod:`repro.obs.validate` pins the
schema in tests so viewer compatibility is checked, not assumed.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from ..errors import ReproError


class Tracer:
    """No-op tracer: the API surface, and the disabled implementation.

    Instances are falsy so hot loops can write ``if tracer:`` — with
    tracing disabled nothing is ever called, not even a no-op method.
    """

    enabled = False

    def __bool__(self) -> bool:
        return self.enabled

    # Span API -----------------------------------------------------------
    def begin(self, name: str, tid: int = 0, **args) -> None:
        """Open a span on track ``tid``."""

    def end(self, name: str = None, tid: int = 0) -> None:
        """Close the innermost open span on track ``tid``."""

    @contextlib.contextmanager
    def span(self, name: str, tid: int = 0, **args):
        """``with tracer.span("raster"):`` — begin/end as a context."""
        self.begin(name, tid=tid, **args)
        try:
            yield self
        finally:
            self.end(name, tid=tid)

    # Point events -------------------------------------------------------
    def instant(self, name: str, tid: int = 0, **args) -> None:
        """Record a point-in-time event (a tile decision, a stall)."""

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        """Sample a named counter track (``values`` is series -> number)."""

    # Metadata -----------------------------------------------------------
    def annotate(self, **fields) -> None:
        """Merge fields into the trace-level metadata (attempt ids...)."""

    def close_open_spans(self) -> None:
        """End every still-open span (used before writing a partial
        trace from a run that died mid-frame, keeping B/E balanced)."""


#: Shared ready-made null tracer for callers that want a non-None default.
NULL_TRACER = Tracer()


class SpanRecorder(Tracer):
    """Strict span stacks and the aggregate that is the profile.

    Subclasses are sinks: they override :meth:`_emit` to keep or write
    each event.  The base keeps none, so it is the cheapest recorder
    that still yields a :meth:`profile`.

    >>> ticks = iter([0.0, 1.0, 1.5, 3.5, 4.0, 5.0])
    >>> recorder = SpanRecorder(clock=lambda: next(ticks))
    >>> with recorder.span("frame"):
    ...     with recorder.span("raster"):
    ...         recorder.counter("tiles", {"rendered": 8})
    >>> profile = recorder.profile()
    >>> profile["stage_seconds"], profile["counters"]
    ({'raster': 2.0}, {'frames': 1, 'tiles_rendered': 8})
    >>> profile["rates"]
    {'frames_per_sec': 0.2, 'tiles_rendered_per_sec': 4.0}
    """

    enabled = True

    #: Spans opened directly under this one are the profile's stages,
    #: and its call count is the ``frames`` counter.
    STAGE_PARENT = "frame"
    #: Counter series rate per second of this span (tiles and fragments
    #: are raster work); ``frames`` rates per wall second.
    RATE_STAGE = "raster"

    def __init__(self, clock=time.perf_counter) -> None:
        self.metadata: dict = {}
        self._clock = clock
        self._t0 = clock()
        self._stacks: dict = {}        # tid -> [(name, start, args)]
        self.span_seconds: dict = {}   # name -> inclusive seconds
        self.span_calls: dict = {}     # name -> closed spans
        self.counters: dict = {}       # "{track}_{series}" -> sum
        self._stage_names: set = set()

    def _emit(self, ph: str, name: str, tid: int, now, extra: dict) -> None:
        """Sink hook, one call per event.  ``now`` is the clock reading
        of a span boundary, ``None`` for point events."""

    # Span API -----------------------------------------------------------
    def begin(self, name: str, tid: int = 0, **args) -> None:
        now = self._clock()
        self._stacks.setdefault(tid, []).append((name, now, args))
        self._emit("B", name, tid, now, {"args": args})

    def end(self, name: str = None, tid: int = 0) -> None:
        stack = self._stacks.get(tid)
        if not stack:
            raise ReproError(
                f"{type(self).__name__}.end() with no open span on "
                f"track {tid}"
            )
        opened, start, _args = stack.pop()
        if name is not None and name != opened:
            raise ReproError(
                f"{type(self).__name__}.end({name!r}) closes span "
                f"{opened!r}"
            )
        now = self._clock()
        self.span_seconds[opened] = (
            self.span_seconds.get(opened, 0.0) + (now - start)
        )
        self.span_calls[opened] = self.span_calls.get(opened, 0) + 1
        if stack and stack[-1][0] == self.STAGE_PARENT:
            self._stage_names.add(opened)
        self._emit("E", opened, tid, now, {})

    # Point events -------------------------------------------------------
    def instant(self, name: str, tid: int = 0, **args) -> None:
        self._emit("i", name, tid, None, {"s": "t", "args": args})

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        for series, value in values.items():
            key = f"{name}_{series}"
            self.counters[key] = self.counters.get(key, 0) + value
        self._emit("C", name, tid, None, {"args": dict(values)})

    # Metadata -----------------------------------------------------------
    def annotate(self, **fields) -> None:
        self.metadata.update(fields)

    def close_open_spans(self) -> None:
        for tid, stack in self._stacks.items():
            while stack:
                self.end(tid=tid)

    # Aggregate ----------------------------------------------------------
    def profile(self) -> dict:
        """The simulator profile (the ``BENCH_*.json`` schema).

        ``stage_seconds``/``stage_calls`` hold the spans opened directly
        under ``frame``; ``counters`` are ``frames`` plus every summed
        counter series.  Counter series rate per second of
        :attr:`RATE_STAGE` (per wall second when it never ran);
        ``frames`` rates per wall second.
        """
        wall = self._clock() - self._t0
        raster = self.span_seconds.get(self.RATE_STAGE, 0.0) or wall
        counters = dict(self.counters)
        counters["frames"] = self.span_calls.get(self.STAGE_PARENT, 0)
        rates: dict = {}
        for key, value in counters.items():
            denominator = wall if key == "frames" else raster
            if denominator > 0.0:
                rates[f"{key}_per_sec"] = round(value / denominator, 1)
        stages = sorted(self._stage_names)
        return {
            "wall_seconds": round(wall, 4),
            "stage_seconds": {
                name: round(self.span_seconds[name], 4) for name in stages
            },
            "stage_calls": {name: self.span_calls[name] for name in stages},
            "counters": dict(sorted(counters.items())),
            "rates": dict(sorted(rates.items())),
        }


class TraceRecorder(SpanRecorder):
    """Recording tracer emitting Chrome trace-event JSON.

    >>> tracer = TraceRecorder(pid=1)
    >>> with tracer.span("frame", frame=0):
    ...     tracer.instant("tile_skip", tile=3)
    >>> [e["ph"] for e in tracer.events if e["ph"] != "M"]
    ['B', 'i', 'E']
    """

    #: Track names emitted as ``thread_name`` metadata, per tid.
    TRACK_NAMES = {0: "pipeline"}

    def __init__(self, pid: int = None, metadata: dict = None,
                 clock=time.perf_counter) -> None:
        super().__init__(clock=clock)
        self.pid = os.getpid() if pid is None else int(pid)
        self.metadata.update(metadata or {})
        self.events: list = []
        self._named_tracks: set = set()
        self._meta_event("process_name", {"name": "repro-sim"}, tid=0)

    # Sink ---------------------------------------------------------------
    def _emit(self, ph: str, name: str, tid: int, now, extra: dict) -> None:
        if tid not in self._named_tracks:
            self._named_tracks.add(tid)
            track = self.TRACK_NAMES.get(tid, f"track-{tid}")
            self._meta_event("thread_name", {"name": track}, tid=tid)
        if now is None:
            now = self._clock()
        event = {
            "name": name,
            "ph": ph,
            "pid": self.pid,
            "tid": int(tid),
            # Microseconds since the recorder was created.
            "ts": (now - self._t0) * 1e6,
        }
        event.update(extra)
        self.events.append(event)

    def _meta_event(self, name: str, args: dict, tid: int) -> None:
        self.events.append({
            "name": name, "ph": "M", "pid": self.pid, "tid": int(tid),
            "ts": 0.0, "args": args,
        })

    # Output -------------------------------------------------------------
    def to_json(self) -> dict:
        """The complete trace payload (Perfetto's JSON object form)."""
        if any(self._stacks.values()):
            open_spans = {
                tid: [entry[0] for entry in stack]
                for tid, stack in self._stacks.items() if stack
            }
            raise ReproError(f"unbalanced trace: open spans {open_spans}")
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "metadata": dict(self.metadata),
        }

    def write(self, path) -> None:
        """Write the trace where ``chrome://tracing`` / Perfetto load it."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)
            handle.write("\n")
