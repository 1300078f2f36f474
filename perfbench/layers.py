"""Per-layer tracing of the simulator from outside it.

:func:`install` replaces the public entry point of each simulator layer
(and of the service and registry layers the daemon and fleet run) with
a wrapper that opens a span on entry and closes it on return.  Nothing
under ``src/`` changes; :func:`install` returns the function that puts
the originals back.

Every call feeds an aggregate per layer: call count and *self* time,
the span's duration minus the time its child spans took.  Layers in
``SPAN``, ``GEN`` or ``RESULT`` mode also keep one span record per call
(name, start, end, parent) in memory, up to a cap, for the Chrome trace
written at the end.  The high-frequency layers (the caches see about 300k calls per
suite pass) keep only the aggregate, which bounds both the
memory and the per-call overhead.  ``tiling.coverage_calls`` is counted
without timing, so the occlusion pass's self time stays inside
``tiling.bin`` as the layer table defines it.

Processes the benchmark starts (the service daemon and its workers,
fleet workers and their supervised children) install the tracer from
``perfbench/hook/sitecustomize.py`` and write their aggregates and
spans under a dump directory whenever their outermost span closes; the
benchmark merges the dumps with :func:`merge_dumps`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

SPAN = "span"      # aggregate + span record
AGG = "agg"        # aggregate only (high frequency)
COUNT = "count"    # call count only, no timing
GEN = "gen"        # generator: one span per resumption
RESULT = "result"  # span + collect the RunResult's counters

#: (layer, module, attribute, mode).  One layer may wrap several entry
#: points; their calls and self time add up.
LAYERS = (
    ("session.init", "repro.engine.session", "RenderSession.__init__", SPAN),
    ("session.bookkeeping", "repro.engine.session", "RenderSession.run",
     SPAN),
    ("gpu.frame", "repro.pipeline.gpu", "Gpu.render_frame", SPAN),
    ("command", "repro.pipeline.command_processor",
     "CommandProcessor.process", GEN),
    ("vertex", "repro.pipeline.vertex_stage", "VertexStage.run", SPAN),
    ("assembly", "repro.pipeline.primitive_assembly",
     "PrimitiveAssembly.assemble", SPAN),
    ("tiling.bin", "repro.pipeline.tiling", "PolygonListBuilder.bin_drawcall",
     SPAN),
    ("signature", "repro.core.signature_unit", "SignatureUnit.on_draw_state",
     AGG),
    ("signature", "repro.core.signature_unit", "SignatureUnit.on_primitive",
     AGG),
    ("tiling.coverage_calls", "repro.pipeline.tiling", "coverage_mask", COUNT),
    ("tiling.coverage_calls", "repro.pipeline.tiling", "covers_rect", COUNT),
    ("raster.tile", "repro.pipeline.tile_scheduler",
     "RasterPipeline.render_tile", AGG),
    ("raster.early_z", "repro.pipeline.depth", "DepthStage.test", AGG),
    ("fragment.shade", "repro.pipeline.fragment_stage", "FragmentStage.shade",
     AGG),
    ("raster.blend", "repro.pipeline.blending", "BlendStage.blend", AGG),
    ("raster.flush", "repro.pipeline.tile_scheduler",
     "RasterPipeline.flush_tile", AGG),
    ("memory.cache", "repro.memory.cache", "Cache.access_run", AGG),
    ("memory.cache", "repro.memory.cache", "Cache.access_many", AGG),
    ("memory.dram", "repro.memory.dram", "Dram.read", AGG),
    ("memory.dram", "repro.memory.dram", "Dram.write", AGG),
    ("memory.dram", "repro.memory.dram", "Dram.read_run", AGG),
    ("memory.dram", "repro.memory.dram", "Dram.write_run", AGG),
    ("timing", "repro.timing.model", "TimingModel.frame_cycles", SPAN),
    ("power", "repro.power.energy", "EnergyModel.frame_energy", SPAN),
    # result_from_session is imported by name into each module that
    # packages results, so each binding is wrapped.
    ("harness.result", "repro.harness.runner", "result_from_session", RESULT),
    ("harness.result", "repro.harness.supervisor", "result_from_session",
     RESULT),
    ("harness.result", "repro.service.pool", "result_from_session", RESULT),
    ("service.job", "repro.service.daemon", "execute_job", SPAN),
    ("registry.write", "repro.obs.store", "RunRegistry.record", SPAN),
)

#: Timed layers in report order (``tiling.coverage_calls`` is a count).
TIMED_LAYERS = tuple(dict.fromkeys(
    layer for layer, _m, _a, mode in LAYERS if mode != COUNT
))


class LayerTracer:
    """Span stack, per-layer aggregates and bounded span records.

    ``clock`` is injectable so the self-tests can drive exact times.
    ``on_root_exit`` runs whenever the outermost span of a thread
    closes (child processes flush their dumps there).
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 50_000,
                 on_root_exit=None) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.on_root_exit = on_root_exit
        self.agg: dict = {}       # layer -> [calls, self_s]
        self.spans: list = []     # [name, start, end, parent index]
        self.counts: dict = {}    # count-only layers
        self.counters: dict = {}  # simulator counters from RunResults
        self.dropped = 0
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (in place: wrappers hold these objects)."""
        self.agg.clear()
        self.spans.clear()
        self.counts.clear()
        self.counters.clear()
        self.dropped = 0
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def enter(self, name: str, record: bool) -> None:
        stack = self._stack()
        ancestor = stack[-1][3] if stack else None
        span = None
        if record:
            if len(self.spans) < self.max_spans:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, ancestor])
            else:
                self.dropped += 1
        # [name, start, child seconds, nearest recorded span, own span]
        entry = [name, 0.0, 0.0, ancestor if span is None else span, span]
        stack.append(entry)
        entry[1] = start = self.clock()
        if span is not None:
            self.spans[span][1] = start

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, child, _ancestor, span = stack.pop()
        duration = end - start
        row = self.agg.get(name)
        if row is None:
            row = self.agg[name] = [0, 0.0]
        row[0] += 1
        row[1] += duration - child
        if span is not None:
            self.spans[span][2] = end
        if stack:
            stack[-1][2] += duration
        elif self.on_root_exit is not None:
            self.on_root_exit()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def add_result(self, result) -> None:
        """Fold one RunResult's end-of-run counters into the totals."""
        counters = self.counters
        for key, value in (result.counters or {}).items():
            counters[key] = counters.get(key, 0) + value
        if result.technique == "re":
            for key in ("raster.tiles_skipped", "raster.tiles_scheduled"):
                name = f"re.{key}"
                counters[name] = (counters.get(name, 0)
                                  + (result.counters or {}).get(key, 0))


def _wrap(tracer: LayerTracer, layer: str, fn, mode: str):
    enter, exit_ = tracer.enter, tracer.exit
    record = mode in (SPAN, GEN, RESULT)
    if mode == COUNT:
        count = tracer.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(layer)
            return fn(*args, **kwargs)
        return counted
    if mode == GEN:
        @functools.wraps(fn)
        def resumed(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                enter(layer, record)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_()
                yield item
        return resumed
    add_result = tracer.add_result if mode == RESULT else None

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        enter(layer, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if add_result is not None:
            add_result(result)
        return result
    return timed


def install(tracer: LayerTracer):
    """Wrap every entry point in :data:`LAYERS`; returns ``uninstall``."""
    # Import every module before patching any: a module that imports an
    # entry point by name would otherwise bind an already-wrapped one.
    modules = [importlib.import_module(module_name)
               for _layer, module_name, _attribute, _mode in LAYERS]
    originals = []
    for module, (layer, _m, attribute, mode) in zip(modules, LAYERS):
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = (owner.__dict__[name] if owner_name
                    else getattr(module, name))
        originals.append((owner, name, original, layer, mode))
    for owner, name, original, layer, mode in originals:
        setattr(owner, name, _wrap(tracer, layer, original, mode))

    def uninstall() -> None:
        for owner, name, original, _layer, _mode in reversed(originals):
            setattr(owner, name, original)
    return uninstall


def memo_counts() -> dict:
    """``{memo: [hits, misses]}`` of the process-wide content memos."""
    from repro.pipeline import fragment_stage, rasterizer, tile_scheduler

    tile = tile_scheduler.shared_tile_memo()
    shade = fragment_stage.shared_shade_memo()
    # One raster memo per screen geometry; the registry of them has no
    # public accessor.
    raster = list(rasterizer._SHARED_RASTER_MEMOS.values())
    return {
        "tile": [tile.hits, tile.misses],
        "shade": [shade.hits, shade.misses],
        "raster": [sum(m.hits for m in raster), sum(m.misses for m in raster)],
    }


# ----------------------------------------------------------------------
# Child-process dumps
# ----------------------------------------------------------------------

class ProcessDump:
    """Writes one process's tracer state under ``directory``.

    ``<pid>.json`` holds the aggregates (replaced on each flush);
    ``<pid>.spans.jsonl`` gets the span records closed since the last
    flush.  Flushing at every root-span exit means a process that ends
    with ``os._exit`` (forked workers do) has already written its data.
    """

    def __init__(self, tracer: LayerTracer, directory: str) -> None:
        self.tracer = tracer
        self.directory = directory
        self._written = 0
        tracer.on_root_exit = self.flush
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.tracer.reset()
        self._written = 0

    def flush(self) -> None:
        tracer = self.tracer
        pid = os.getpid()
        spans = tracer.spans
        if len(spans) > self._written:
            with open(os.path.join(self.directory, f"{pid}.spans.jsonl"),
                      "a", encoding="utf-8") as handle:
                for span in spans[self._written:]:
                    handle.write(json.dumps(span) + "\n")
            self._written = len(spans)
        state = {
            "pid": pid,
            "agg": tracer.agg,
            "counts": tracer.counts,
            "counters": tracer.counters,
            "memos": memo_counts(),
            "dropped": tracer.dropped,
        }
        path = os.path.join(self.directory, f"{pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)


def snapshot(tracer: LayerTracer, memos: dict) -> dict:
    """This process's state in the same shape as a dump file."""
    return {
        "pid": os.getpid(),
        "agg": {k: list(v) for k, v in tracer.agg.items()},
        "counts": dict(tracer.counts),
        "counters": dict(tracer.counters),
        "memos": memos,
        "dropped": tracer.dropped,
        "spans": [list(s) for s in tracer.spans],
    }


def merge_dumps(directory: str) -> list:
    """Every process dump under ``directory`` as :func:`snapshot` dicts."""
    states = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        spans_path = os.path.join(directory, f"{state['pid']}.spans.jsonl")
        state["spans"] = []
        if os.path.exists(spans_path):
            with open(spans_path, "r", encoding="utf-8") as handle:
                state["spans"] = [json.loads(line) for line in handle]
        states.append(state)
    return states


def combine(states: list) -> dict:
    """Sum aggregates, counts, counters and memo counts over processes."""
    total = {"agg": {}, "counts": {}, "counters": {}, "dropped": 0,
             "spans": 0,
             "memos": {"tile": [0, 0], "shade": [0, 0], "raster": [0, 0]}}
    for state in states:
        for name, (calls, self_s) in state["agg"].items():
            row = total["agg"].setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        for key in ("counts", "counters"):
            for name, value in state[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for memo, (hits, misses) in state["memos"].items():
            total["memos"][memo][0] += hits
            total["memos"][memo][1] += misses
        total["dropped"] += state["dropped"]
        total["spans"] += len(state["spans"])
    return total


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

def chrome_trace(states: list, metadata: dict) -> dict:
    """Chrome trace-event JSON of every recorded span, one track per
    process, nested B/E pairs in start order."""
    starts = [span[1] for state in states for span in state["spans"]]
    origin = min(starts) if starts else 0.0
    events = []
    for state in states:
        pid = int(state["pid"])
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "ts": 0,
                       "args": {"name": state.get("label", f"pid {pid}")}})
        spans = state["spans"]
        children: dict = {}
        roots = []
        for index, (_name, _start, _end, parent) in enumerate(spans):
            (roots if parent is None
             else children.setdefault(parent, [])).append(index)
        # Iterative DFS: ("B", i) opens a span, ("E", i) closes it.
        work = [("B", index) for index in reversed(roots)]
        while work:
            phase, index = work.pop()
            name, start, end, _parent = spans[index]
            ts = ((start if phase == "B" else end) - origin) * 1e6
            events.append({"name": name, "ph": phase, "pid": pid, "tid": 0,
                           "ts": ts})
            if phase == "B":
                work.append(("E", index))
                work.extend(("B", child)
                            for child in reversed(children.get(index, ())))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}


def write_trace(path: str, states: list, metadata: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(states, metadata), handle)
