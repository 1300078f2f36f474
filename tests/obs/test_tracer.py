"""Tracer protocol: null tracer semantics, trace-event recording, and
the span aggregate that is the simulator profile."""

import json

import pytest

from repro.errors import ReproError
from repro.config import GpuConfig
from repro.engine.session import RenderSession
from repro.obs import NULL_TRACER, SpanRecorder, Tracer, TraceRecorder


class FakeClock:
    """Deterministic perf_counter stand-in (seconds, manually advanced)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds=0.001):
        self.now += seconds


def recorder(**kwargs):
    return TraceRecorder(pid=1, clock=FakeClock(), **kwargs)


class TestNullTracer:
    def test_is_falsy(self):
        assert not Tracer()
        assert not NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_every_api_call_is_a_noop(self):
        tracer = Tracer()
        tracer.begin("frame", frame=0)
        tracer.instant("tile_skip", tile=3)
        tracer.counter("tiles", {"skipped": 1})
        tracer.annotate(attempt=1)
        tracer.end("frame")
        tracer.close_open_spans()
        with tracer.span("raster"):
            pass

    def test_recorder_is_truthy(self):
        assert recorder()
        assert TraceRecorder.enabled is True


class TestSpans:
    def test_begin_end_emit_balanced_events(self):
        tracer = recorder()
        tracer.begin("frame", frame=0)
        tracer.begin("geometry")
        tracer.end("geometry")
        tracer.end("frame")
        phases = [e["ph"] for e in tracer.events if e["ph"] != "M"]
        assert phases == ["B", "B", "E", "E"]

    def test_span_context_manager(self):
        tracer = recorder()
        with tracer.span("frame", frame=2):
            with tracer.span("raster"):
                pass
        names = [e["name"] for e in tracer.events if e["ph"] in "BE"]
        assert names == ["frame", "raster", "raster", "frame"]

    def test_end_name_mismatch_raises(self):
        tracer = recorder()
        tracer.begin("frame")
        with pytest.raises(ReproError, match="closes span 'frame'"):
            tracer.end("raster")

    def test_end_without_begin_raises(self):
        with pytest.raises(ReproError, match="no open span"):
            recorder().end("frame")

    def test_unnamed_end_closes_innermost(self):
        tracer = recorder()
        tracer.begin("outer")
        tracer.begin("inner")
        tracer.end()
        ends = [e for e in tracer.events if e["ph"] == "E"]
        assert ends[-1]["name"] == "inner"

    def test_tracks_nest_independently(self):
        tracer = recorder()
        tracer.begin("frame", tid=0)
        tracer.begin("io", tid=1)
        tracer.end("frame", tid=0)
        tracer.end("io", tid=1)
        tracer.to_json()   # balanced per track: no error

    def test_begin_args_land_in_event_args(self):
        tracer = recorder()
        tracer.begin("frame", frame=7)
        begin = next(e for e in tracer.events if e["ph"] == "B")
        assert begin["args"] == {"frame": 7}


class TestEventsAndOutput:
    def test_timestamps_are_relative_microseconds(self):
        clock = FakeClock()
        tracer = TraceRecorder(pid=1, clock=clock)
        clock.tick(0.002)
        tracer.instant("tile_skip", tile=0)
        instant = next(e for e in tracer.events if e["ph"] == "i")
        assert instant["ts"] == pytest.approx(2000.0)
        assert instant["s"] == "t"

    def test_counter_event_copies_values(self):
        tracer = recorder()
        values = {"skipped": 3}
        tracer.counter("tiles", values)
        values["skipped"] = 99
        counter = next(e for e in tracer.events if e["ph"] == "C")
        assert counter["args"] == {"skipped": 3}

    def test_track_names_emitted_once_per_tid(self):
        tracer = recorder()
        tracer.instant("a", tid=0)
        tracer.instant("b", tid=0)
        tracer.instant("c", tid=5)
        thread_names = [
            e for e in tracer.events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert [e["tid"] for e in thread_names] == [0, 5]
        assert thread_names[0]["args"] == {"name": "pipeline"}
        assert thread_names[1]["args"] == {"name": "track-5"}

    def test_to_json_rejects_open_spans(self):
        tracer = recorder()
        tracer.begin("frame")
        with pytest.raises(ReproError, match="unbalanced"):
            tracer.to_json()

    def test_close_open_spans_balances_a_dying_run(self):
        tracer = recorder()
        tracer.begin("frame")
        tracer.begin("raster")
        tracer.close_open_spans()
        payload = tracer.to_json()
        ends = [e for e in payload["traceEvents"] if e["ph"] == "E"]
        assert [e["name"] for e in ends] == ["raster", "frame"]

    def test_annotate_merges_metadata(self):
        tracer = recorder(metadata={"alias": "cde"})
        tracer.annotate(attempt=2, alias="ctr")
        assert tracer.to_json()["metadata"] == {"alias": "ctr", "attempt": 2}

    def test_write_produces_loadable_json(self, tmp_path):
        tracer = recorder()
        with tracer.span("frame"):
            tracer.instant("tile_skip", tile=1)
        path = tmp_path / "trace.json"
        tracer.write(path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "B" for e in payload["traceEvents"])


class RaisingTracer(Tracer):
    """Falsy, and every method raises: any call past ``if tracer:`` fails."""

    def _called(self, *args, **kwargs):
        raise AssertionError("disabled tracer was called")

    begin = end = span = instant = counter = _called
    annotate = close_open_spans = _called


class TestDisabledCost:
    def test_falsy_tracer_is_never_called(self):
        # Switched-off instrumentation costs one truthiness check: a
        # whole session renders without touching a single method.
        session = RenderSession("cde", "re", config=GpuConfig.small(),
                                num_frames=3)
        session.gpu.tracer = RaisingTracer()
        assert session.run() == 3
        assert not hasattr(session.gpu, "perf")


def profiled(clock=None):
    return SpanRecorder(clock=clock or FakeClock())


class TestProfileAggregate:
    """The profile is the span aggregate (these cases replace the old
    stage-timer tests one for one)."""

    def test_stage_accumulates_seconds_and_calls(self):
        clock = FakeClock()
        tracer = profiled(clock)
        for _ in range(3):
            with tracer.span("frame"):
                with tracer.span("raster"):
                    clock.tick(0.5)
        profile = tracer.profile()
        assert profile["stage_calls"] == {"raster": 3}
        assert profile["stage_seconds"] == {"raster": pytest.approx(1.5)}
        assert profile["counters"]["frames"] == 3

    def test_only_spans_directly_under_frame_are_stages(self):
        tracer = profiled()
        with tracer.span("setup"):
            pass
        with tracer.span("frame"):
            with tracer.span("raster"):
                with tracer.span("tile"):
                    pass
        assert set(tracer.profile()["stage_calls"]) == {"raster"}
        assert tracer.span_calls == {"setup": 1, "frame": 1, "raster": 1,
                                     "tile": 1}

    def test_counters_accumulate(self):
        tracer = profiled()
        tracer.counter("fragments", {"shaded": 10, "rasterized": 12})
        tracer.counter("fragments", {"shaded": 5, "rasterized": 6})
        assert tracer.profile()["counters"] == {
            "fragments_rasterized": 18, "fragments_shaded": 15, "frames": 0,
        }

    def test_stage_owned_counter_rates_against_stage_seconds(self):
        # Counter series are raster work: they rate per raster second,
        # even when sampled after the raster span closed.
        clock = FakeClock()
        tracer = profiled(clock)
        with tracer.span("frame"):
            with tracer.span("geometry"):
                clock.tick(3.0)
            with tracer.span("raster"):
                clock.tick(0.5)
            clock.tick(1.5)
            tracer.counter("fragments", {"shaded": 100})
        rates = tracer.profile()["rates"]
        assert rates["fragments_shaded_per_sec"] == pytest.approx(200.0)

    def test_unowned_counter_rates_against_wall_clock(self):
        clock = FakeClock()
        tracer = profiled(clock)
        with tracer.span("frame"):
            with tracer.span("raster"):
                clock.tick(0.5)
        clock.tick(1.5)
        assert tracer.profile()["rates"]["frames_per_sec"] \
            == pytest.approx(0.5)      # 1 frame / 2 s of wall-clock

    def test_unowned_rate_ignores_other_stages_time(self):
        # Regression: rating every counter against the sum of stage
        # seconds understated rates by the share other stages took.
        clock = FakeClock()
        tracer = profiled(clock)
        for _ in range(10):
            with tracer.span("frame"):
                with tracer.span("geometry"):
                    clock.tick(0.2)
                with tracer.span("raster"):
                    clock.tick(0.3)
            clock.tick(0.5)            # host work outside any stage
        rates = tracer.profile()["rates"]
        assert rates["frames_per_sec"] == pytest.approx(1.0)   # 10 / 10 s

    def test_counter_owned_by_untimed_stage_falls_back_to_wall(self):
        clock = FakeClock()
        tracer = profiled(clock)
        tracer.counter("fragments", {"shaded": 100})   # raster never ran
        clock.tick(4.0)
        assert tracer.profile()["rates"]["fragments_shaded_per_sec"] \
            == pytest.approx(25.0)

    def test_counters_sampled_before_raster_rate_per_raster_second(self):
        clock = FakeClock()
        tracer = profiled(clock)
        tracer.counter("fragments", {"shaded": 1})
        with tracer.span("raster"):
            clock.tick(0.5)
        tracer.counter("fragments", {"shaded": 1})
        clock.tick(9.5)
        assert tracer.profile()["rates"]["fragments_shaded_per_sec"] \
            == pytest.approx(4.0)      # 2 / 0.5 s of raster, not 2 / 10 s

    def test_zero_time_yields_no_rates(self):
        tracer = profiled()
        tracer.counter("fragments", {"shaded": 1})
        assert tracer.profile()["rates"] == {}

    def test_profile_keeps_the_bench_schema(self):
        tracer = profiled()
        with tracer.span("frame"):
            with tracer.span("raster"):
                pass
            tracer.counter("fragments", {"shaded": 3})
        profile = tracer.profile()
        assert set(profile) == {
            "wall_seconds", "stage_seconds", "stage_calls", "counters",
            "rates",
        }
        assert profile["counters"] == {"fragments_shaded": 3, "frames": 1}
        assert json.loads(json.dumps(profile)) == profile

    def test_trace_recorder_aggregates_what_it_records(self):
        clock = FakeClock()
        tracer = TraceRecorder(pid=1, clock=clock)
        with tracer.span("frame"):
            with tracer.span("geometry"):
                clock.tick(0.25)
        assert tracer.profile()["stage_seconds"] == {"geometry": 0.25}
        ends = [e for e in tracer.events if e["ph"] == "E"]
        assert ends[0]["ts"] == pytest.approx(250000.0)
