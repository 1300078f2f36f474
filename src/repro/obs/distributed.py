"""Distributed request tracing: per-process shards and the merger.

:class:`~repro.obs.tracer.TraceRecorder` covers one process: timestamps
are relative to recorder creation, so two recorders cannot be laid on a
common timeline.  A service request crosses three processes — client,
daemon, worker — and this module makes that one trace:

* :class:`TraceContext` is the request-scoped identity (``trace_id``
  plus the parent span id) minted in ``ServiceClient.submit`` and
  carried through the :class:`~repro.service.jobs.JobSpec` wire format;
* :class:`TraceShard` is an append-only JSONL shard of Chrome trace
  events for one process.  Timestamps are **absolute wall-clock
  microseconds** (every participating process shares the host clock),
  clamped non-decreasing per ``tid`` so each track is monotonic;
* :class:`ShardTracer` is a :class:`~repro.obs.tracer.SpanRecorder`
  whose sink is a shard, on one fixed track, so the engine's
  frame/stage spans (which default to ``tid=0``) land on their job's
  track inside the worker's shard;
* :func:`merge_shards` assembles every shard in a directory into one
  Perfetto-loadable ``{"traceEvents": [...]}`` payload: timestamps
  normalized to start at zero, events stably sorted, spans left open by
  a crashed process repaired with synthetic ``E`` events (flagged in
  the metadata, never silently).

Span ids are ``<pid hex>.<counter hex>`` — unique across processes by
construction — and travel in ``args.span_id`` where
:func:`~repro.obs.validate.validate_trace` checks global uniqueness.
"""

from __future__ import annotations

import dataclasses
import glob
import itertools
import json
import os
import threading
import time
import typing

from ..errors import ReproError
from .tracer import SpanRecorder

__all__ = [
    "ShardTracer",
    "TraceContext",
    "TraceShard",
    "merge_shards",
    "mint_trace",
    "new_span_id",
    "new_trace_id",
]

_span_counter = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 16-hex-char request id."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A span id unique across cooperating processes (pid-prefixed)."""
    return f"{os.getpid():x}.{next(_span_counter):x}"


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The trace identity one request carries across process hops.

    ``span_id`` is the *parent* span the receiving side nests under —
    the client's ``submit`` span when the context crosses the socket.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_mapping(cls, data) -> typing.Optional["TraceContext"]:
        """Rebuild from wire JSON; ``None`` when absent or malformed
        (trace context is telemetry — never a reason to refuse a job)."""
        if not isinstance(data, typing.Mapping):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


def mint_trace() -> TraceContext:
    """A fresh context: new trace, parent span = a new root span id."""
    return TraceContext(trace_id=new_trace_id(), span_id=new_span_id())


class TraceShard:
    """One process's slice of a distributed trace, as JSONL on disk.

    Thread-safe (the daemon writes from its submit and scheduler
    threads).  Every line is a complete Chrome trace event, flushed as
    written, so a crashed process still leaves everything it recorded.
    Timestamps are wall-clock microseconds clamped non-decreasing per
    track; :func:`merge_shards` re-bases them onto a common zero.
    """

    def __init__(self, directory, role: str, pid: int = None,
                 clock=time.time) -> None:
        self.directory = os.fspath(directory)
        self.role = role
        self.pid = os.getpid() if pid is None else int(pid)
        self._clock = clock
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(
            self.directory, f"shard-{role}-{self.pid}.jsonl",
        )
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._last_ts: dict = {}       # tid -> last emitted ts
        self._stacks: dict = {}        # tid -> [open span names]
        self._named: set = set()
        self._write({
            "name": "process_name", "ph": "M", "pid": self.pid,
            "tid": 0, "ts": 0.0, "args": {"name": f"repro-{role}"},
        })

    # Internals ----------------------------------------------------------
    def _write(self, event: dict) -> None:
        self._handle.write(json.dumps(event) + "\n")
        self._handle.flush()

    def name_thread(self, tid: int, name: str) -> None:
        """Label a track (idempotent; first label wins)."""
        with self._lock:
            self._name_thread_locked(tid, name)

    def _name_thread_locked(self, tid: int, name: str) -> None:
        if tid in self._named:
            return
        self._named.add(tid)
        self._write({
            "name": "thread_name", "ph": "M", "pid": self.pid,
            "tid": int(tid), "ts": 0.0, "args": {"name": name},
        })

    def emit(self, ph: str, name: str, tid: int = 0, ts: float = None,
             **extra) -> dict:
        """Append one raw event (monotonic-clamped per track)."""
        with self._lock:
            self._name_thread_locked(tid, f"{self.role} t{tid}")
            if ts is None:
                ts = self._clock() * 1e6
            ts = max(float(ts), self._last_ts.get(tid, 0.0))
            self._last_ts[tid] = ts
            event = {
                "name": name, "ph": ph, "pid": self.pid,
                "tid": int(tid), "ts": ts,
            }
            event.update(extra)
            self._write(event)
            return event

    # Span API -----------------------------------------------------------
    def begin(self, name: str, tid: int = 0, span_id: str = None,
              **args) -> str:
        """Open a span; returns its (globally unique) span id."""
        span_id = span_id or new_span_id()
        args = dict(args)
        args["span_id"] = span_id
        with self._lock:
            self._stacks.setdefault(tid, []).append(name)
        self.emit("B", name, tid=tid, args=args)
        return span_id

    def end(self, name: str = None, tid: int = 0, **args) -> bool:
        """Close the innermost open span on ``tid``.

        Lenient: if nothing (or a different span) is open the call is a
        no-op returning ``False`` — the daemon calls this from crash and
        timeout paths where the span may already be closed, and a
        bookkeeping slip must never take the scheduler thread down.
        """
        with self._lock:
            stack = self._stacks.get(tid)
            if not stack:
                return False
            if name is not None and stack[-1] != name:
                return False
            opened = stack.pop()
        self.emit("E", opened, tid=tid, **({"args": args} if args else {}))
        return True

    def instant(self, name: str, tid: int = 0, **args) -> None:
        self.emit("i", name, tid=tid, s="t", args=args)

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        self.emit("C", name, tid=tid, args=dict(values))

    def close_track(self, tid: int) -> None:
        """End every span still open on one track (withdrawn jobs)."""
        while self.end(tid=tid):
            pass

    def close(self) -> None:
        """Balance every track, then close the file."""
        with self._lock:
            tids = list(self._stacks)
        for tid in tids:
            self.close_track(tid)
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TraceShard":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ShardTracer(SpanRecorder):
    """A span recorder whose sink is a shard, on one fixed track.

    Handed to :func:`~repro.service.pool.execute_job` by the daemon's
    workers so engine frame/stage spans (emitted with the default
    ``tid=0``) land on the job's own track of the worker shard, stamped
    with the request's ``trace_id``.  The strict span stack is the
    :class:`~repro.obs.tracer.SpanRecorder` one, so engine code misuse
    still raises.
    """

    def __init__(self, shard: TraceShard, tid: int,
                 trace_id: str = None, parent_span_id: str = None,
                 label: str = None) -> None:
        super().__init__(clock=shard._clock)
        self.shard = shard
        self.tid = int(tid)
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        if label:
            shard.name_thread(self.tid, label)

    def begin(self, name: str, tid: int = 0, **args) -> None:
        stack = self._stacks.get(tid)
        parent = stack[-1][2]["span_id"] if stack else self.parent_span_id
        args["span_id"] = new_span_id()
        if self.trace_id:
            args["trace_id"] = self.trace_id
        if parent:
            args["parent_span_id"] = parent
        super().begin(name, tid, **args)

    def instant(self, name: str, tid: int = 0, **args) -> None:
        if self.trace_id:
            args["trace_id"] = self.trace_id
        super().instant(name, tid, **args)

    def _emit(self, ph: str, name: str, tid: int, now, extra: dict) -> None:
        self.shard.emit(ph, name, tid=self.tid,
                        ts=None if now is None else now * 1e6, **extra)


# ----------------------------------------------------------------------
# Merger
# ----------------------------------------------------------------------

def _load_shard(path) -> list:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: bad shard event: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise ReproError(f"{path}:{lineno}: event is not an object")
            events.append(event)
    return events


def shard_paths(directory) -> list:
    """Every shard file under ``directory``, deterministically ordered."""
    return sorted(glob.glob(os.path.join(os.fspath(directory),
                                         "shard-*.jsonl")))


def merge_shards(source, out_path=None, repair: bool = True) -> dict:
    """Assemble per-process shards into one Chrome trace payload.

    ``source`` is a shard directory or an iterable of shard paths.
    Events are stably sorted by timestamp (per-track order — already
    monotonic within each shard — is preserved), re-based so the
    earliest event sits at ``ts=0``, and, with ``repair`` (the
    default), spans left open by a crashed process are closed with
    synthetic ``E`` events at the track's last timestamp.  Repairs are
    counted in ``metadata.repaired_spans`` — a crash is visible in the
    trace, never papered over.  Returns the payload; writes it to
    ``out_path`` when given.
    """
    if isinstance(source, (str, os.PathLike)):
        paths = shard_paths(source)
        if not paths:
            raise ReproError(f"no trace shards under {source}")
    else:
        paths = [os.fspath(p) for p in source]
        if not paths:
            raise ReproError("no trace shards given")

    events = []
    for path in paths:
        events.extend(_load_shard(path))

    # Re-base onto a common zero (metadata events keep their ts=0).
    real = [e for e in events if e.get("ph") != "M"]
    if real:
        t0 = min(float(e.get("ts", 0.0)) for e in real)
        for event in real:
            event["ts"] = float(event.get("ts", 0.0)) - t0
    events.sort(key=lambda e: float(e.get("ts", 0.0)))

    repaired = 0
    if repair:
        stacks: dict = {}           # (pid, tid) -> [name]
        last_ts: dict = {}
        for event in events:
            track = (event.get("pid"), event.get("tid"))
            ph = event.get("ph")
            if ph != "M":
                last_ts[track] = float(event.get("ts", 0.0))
            if ph == "B":
                stacks.setdefault(track, []).append(event.get("name"))
            elif ph == "E":
                stack = stacks.get(track)
                if stack:
                    stack.pop()
        for track, stack in sorted(stacks.items(),
                                   key=lambda item: str(item[0])):
            while stack:
                name = stack.pop()
                events.append({
                    "name": name, "ph": "E", "pid": track[0],
                    "tid": track[1], "ts": last_ts.get(track, 0.0),
                    "args": {"repaired": True},
                })
                repaired += 1

    trace_ids = sorted({
        event["args"]["trace_id"] for event in events
        if isinstance(event.get("args"), dict)
        and event["args"].get("trace_id")
    })
    # Participating roles from the process_name metadata each shard
    # emits — for a fleet merge this reads "fleet-w0, fleet-w1, ...",
    # so a missing worker's shard is visible from the metadata alone.
    roles = sorted({
        event["args"]["name"] for event in events
        if event.get("ph") == "M"
        and event.get("name") == "process_name"
        and isinstance(event.get("args"), dict)
        and event["args"].get("name")
    })
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "merged_from": [os.path.basename(p) for p in paths],
            "trace_ids": trace_ids,
            "roles": roles,
            "repaired_spans": repaired,
        },
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
    return payload
