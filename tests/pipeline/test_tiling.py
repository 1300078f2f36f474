"""Polygon List Builder: binning, Parameter Buffer, listener events,
opaque-tile occlusion culling."""

import dataclasses

import numpy as np

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, mat4
from repro.memory.dram import Dram
from repro.pipeline import Gpu
from repro.pipeline.rasterizer import coverage_mask
from repro.pipeline.tiling import (
    OCCLUSION_DEPTH_MARGIN,
    TILE_POINTER_BYTES,
    PolygonListBuilder,
)
from repro.shaders import ALPHA_TEXTURED, FLAT_COLOR, pack_constants
from repro.workloads.games import build_scene

CONFIG = GpuConfig.small()   # 6x4 tiles of 16px
CULL_CONFIG = dataclasses.replace(CONFIG, occlusion_culling=True)


def prim_at(x0, y0, x1, y1, state=None):
    screen = np.array([[x0, y0], [x1, y0], [x0, y1]], dtype=np.float32)
    return Primitive(
        screen=screen,
        depth=np.full(3, 0.5, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={},
        state=state or DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d())),
    )


class RecordingListener:
    def __init__(self):
        self.states = []
        self.primitives = []

    def on_draw_state(self, state):
        self.states.append(state)

    def on_primitive(self, prim, tile_ids):
        self.primitives.append((prim, list(tile_ids)))


def make_plb(listener=None):
    listeners = (listener,) if listener else ()
    return PolygonListBuilder(CONFIG, Dram(CONFIG), listeners=listeners)


class TestOverlappedTiles:
    def test_single_tile_triangle(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(2, 2, 10, 10))
        assert tiles == [0]

    def test_triangle_spanning_tiles(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(2, 2, 40, 20))
        # bbox covers tile columns 0..2, rows 0..1.
        assert set(tiles) == {0, 1, 2, 6, 7, 8}

    def test_offscreen_triangle_empty(self):
        plb = make_plb()
        assert plb.overlapped_tiles(prim_at(200, 200, 210, 210)) == []

    def test_partially_offscreen_clamped(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(-50, -50, 10, 10))
        assert tiles == [0]

    def test_binning_is_conservative_bbox(self):
        # A thin diagonal triangle lists all bbox tiles even where its
        # area misses them; the Signature Unit sees the same list.
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(0, 0, 95, 63))
        assert len(tiles) == CONFIG.num_tiles


class TestBinning:
    def test_parameter_buffer_contents(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        assert plb.parameter_buffer.tile_primitives(0) == [prim]
        assert plb.parameter_buffer.tile_primitives(1) == [prim]
        assert plb.parameter_buffer.occupied_tiles() == [0, 1]

    def test_pb_offsets_assigned_sequentially(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prims = [prim_at(2, 2, 10, 10, state), prim_at(20, 2, 28, 10, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, prims)
        assert prims[0].pb_offset == 0
        assert prims[1].pb_offset == prims[0].parameter_buffer_bytes()

    def test_stats_and_traffic(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        expected = prim.parameter_buffer_bytes() + 2 * TILE_POINTER_BYTES
        assert plb.stats.parameter_bytes_written == expected
        assert plb.stats.tile_entries == 2
        assert plb.dram.traffic.bytes("parameter_write") == expected

    def test_listeners_see_state_then_primitives(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 10, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        assert listener.states == [state]
        assert listener.primitives[0][0] is prim
        assert listener.primitives[0][1] == [0]

    def test_offscreen_primitives_not_reported(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        plb.begin_frame()
        plb.bin_drawcall(state, [prim_at(500, 500, 510, 510, state)])
        assert listener.primitives == []
        assert plb.stats.primitives_binned == 0

    def test_begin_frame_resets(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        plb.begin_frame()
        plb.bin_drawcall(state, [prim_at(2, 2, 10, 10, state)])
        plb.begin_frame()
        assert plb.parameter_buffer.occupied_tiles() == []
        new_prim = prim_at(2, 2, 10, 10, state)
        plb.bin_drawcall(state, [new_prim])
        assert new_prim.pb_offset == 0

    def test_tile_bytes_sums_primitives(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prims = [prim_at(2, 2, 10, 10, state), prim_at(3, 3, 12, 12, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, prims)
        expected = sum(
            p.parameter_buffer_bytes() + TILE_POINTER_BYTES for p in prims
        )
        assert plb.parameter_buffer.tile_bytes(0) == expected


def tri(points, z, shader=FLAT_COLOR, depth_test=True, depth_write=True):
    state = DrawState(
        shader, pack_constants(mat4.ortho2d()),
        depth_test=depth_test, depth_write=depth_write,
    )
    return Primitive(
        screen=np.asarray(points, dtype=np.float32),
        depth=np.full(3, z, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={},
        state=state,
    )


#: Triangle enclosing tile 0's 16x16 rect entirely.
FULL = [[-1, -1], [40, -1], [-1, 40]]
#: The two halves of an exactly tile-0-sized quad.
HALF_A = [[0, 0], [16, 0], [16, 16]]
HALF_B = [[0, 0], [16, 16], [0, 16]]


#: 100x70 screen: a 4-px-wide right tile column (tile x 6) and a
#: 6-px-tall bottom tile row (tile y 4) of partial edge tiles.
PARTIAL_CONFIG = dataclasses.replace(
    CULL_CONFIG, screen_width=100, screen_height=70
)


def make_cull_plb(config=CULL_CONFIG):
    return PolygonListBuilder(config, Dram(config))


def bin_all(plb, prims):
    plb.begin_frame()
    for prim in prims:
        plb.bin_drawcall(prim.state, [prim])


class TestOcclusionCulling:
    def test_disabled_by_default(self):
        plb = make_plb()
        assert not plb.occlusion_culling
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.2)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_full_cover_opaque_truncates_bin(self):
        plb = make_cull_plb()
        buried = prim_at(2, 2, 10, 10)      # depth 0.5
        occluder = tri(FULL, 0.2)
        bin_all(plb, [buried, occluder])
        assert plb.parameter_buffer.tile_primitives(0) == [occluder]
        assert plb.stats.prims_occlusion_culled == 1
        assert plb.stats.tiles_fully_covered >= 1
        assert plb.stats.fragments_avoided > 0
        tiles = [event[0] for event in plb.occlusion_events]
        assert 0 in tiles

    def test_deeper_occluder_fails_depth_safety(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.9)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_no_depth_test_occludes_regardless_of_depth(self):
        plb = make_cull_plb()
        occluder = tri(FULL, 0.9, depth_test=False)
        bin_all(plb, [prim_at(2, 2, 10, 10), occluder])
        assert plb.parameter_buffer.tile_primitives(0) == [occluder]

    def test_alpha_blend_never_occludes(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10),
                      tri(FULL, 0.1, shader=ALPHA_TEXTURED)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_depth_write_false_cannot_occlude_or_lower_bounds(self):
        plb = make_cull_plb()
        buried = prim_at(2, 2, 10, 10)
        buried.depth[:] = 0.9
        no_write = tri(FULL, 0.1, depth_write=False)
        later = tri(FULL, 0.5)
        bin_all(plb, [buried, no_write, later])
        # ``no_write`` neither truncated anything nor polluted the depth
        # bounds: ``later`` still sees the clear depth and occludes both.
        assert plb.parameter_buffer.tile_primitives(0) == [later]
        assert plb.stats.prims_occlusion_culled == 2

    def test_partial_covers_accumulate_to_occluding_set(self):
        plb = make_cull_plb()
        # A translucent layer beneath the opaque quad: never a set
        # member, and safely dropped once the set covers the tile.
        buried = tri(FULL, 0.9, shader=ALPHA_TEXTURED)
        half_a, half_b = tri(HALF_A, 0.5), tri(HALF_B, 0.5)
        bin_all(plb, [buried, half_a, half_b])
        # The coplanar disjoint halves jointly cover tile 0: per-pixel
        # depth bounds let the second qualify even though the first
        # already wrote the same depth elsewhere in the tile.
        bin0 = plb.parameter_buffer.tile_primitives(0)
        assert [id(p) for p in bin0] == [id(half_a), id(half_b)]
        assert plb.stats.prims_occlusion_culled == 1
        assert plb.stats.tiles_fully_covered == 1

    def test_qualifying_prefix_completes_cover_without_drops(self):
        # An opaque partial prim in front of the clear depth joins the
        # set itself, so completing the cover finds nothing buried.
        plb = make_cull_plb()
        first = prim_at(2, 2, 10, 10)
        first.depth[:] = 0.9
        half_a, half_b = tri(HALF_A, 0.5), tri(HALF_B, 0.5)
        bin_all(plb, [first, half_a, half_b])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 3
        assert plb.stats.tiles_fully_covered == 1
        assert plb.stats.prims_occlusion_culled == 0

    def test_accumulation_does_not_fire_while_incomplete(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(HALF_A, 0.2)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_occluder_straddling_partial_edge_tiles(self):
        # Tiles 26/27 and 33/34 are the bottom-right 2x2 block: 27 is
        # narrow, 33 short and 34 both.  One occluder covering every
        # on-screen pixel center of the block truncates all four bins,
        # reported in tile_ids order.
        plb = make_cull_plb(PARTIAL_CONFIG)
        buried = [prim_at(82, 50, 90, 60), prim_at(97, 50, 99, 60),
                  prim_at(82, 65, 90, 69), prim_at(97, 65, 99, 69)]
        occluder = tri([[80, 48], [140, 48], [80, 110]], 0.2)
        bin_all(plb, buried + [occluder])
        for tile_id in (26, 27, 33, 34):
            assert plb.parameter_buffer.tile_primitives(tile_id) == \
                [occluder]
        assert [event[0] for event in plb.occlusion_events] == \
            [26, 27, 33, 34]
        assert plb.stats.prims_occlusion_culled == 4
        assert plb.stats.tiles_fully_covered == 4

    def test_partial_tile_set_covers_only_on_screen_pixels(self):
        # Two halves of tile 27's 4x16 on-screen area complete its
        # occluding set; the off-screen remainder of the tile counts as
        # covered.  The buried layer is translucent, so it never joins
        # the set.
        plb = make_cull_plb(PARTIAL_CONFIG)
        buried = tri([[97, 50], [99, 50], [97, 60]], 0.9,
                     shader=ALPHA_TEXTURED)
        half_a = tri([[96, 48], [100, 48], [100, 64]], 0.2)
        half_b = tri([[96, 48], [100, 64], [96, 64]], 0.2)
        bin_all(plb, [buried, half_a, half_b])
        bin27 = plb.parameter_buffer.tile_primitives(27)
        assert [id(p) for p in bin27] == [id(half_a), id(half_b)]
        assert plb.stats.prims_occlusion_culled == 1
        assert plb.stats.tiles_fully_covered == 1

    def test_begin_frame_resets_occlusion_state(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.2)])
        assert plb.occlusion_events
        plb.begin_frame()
        assert plb.occlusion_events == []
        # Fresh per-frame depth bounds: a 0.5-depth occluder qualifies
        # against the clear depth even though last frame's bound ended
        # at 0.2 on every pixel.
        buried = prim_at(2, 2, 10, 10)
        buried.depth[:] = 0.9
        occluder = tri(FULL, 0.5)
        bin_all(plb, [buried, occluder])
        bin0 = plb.parameter_buffer.tile_primitives(0)
        assert [id(p) for p in bin0] == [id(occluder)]


class TestOcclusionEndToEnd:
    """Culling must change counters, never pixels."""

    def render(self, alias, config, frames=3):
        gpu = Gpu(dataclasses.replace(config))
        scene = build_scene(alias)
        stats = [
            gpu.render_frame(stream, clear_color=scene.clear_color)
            for stream in scene.frames(frames)
        ]
        return stats

    def test_bit_identical_frames_with_fewer_fragments(self):
        for alias in ("ccs", "hop"):
            base = self.render(alias, CONFIG)
            culled = self.render(alias, CULL_CONFIG)
            for frame, (a, b) in enumerate(zip(base, culled)):
                assert np.array_equal(a.frame_colors, b.frame_colors), (
                    f"{alias} frame {frame} diverged under culling"
                )
            assert sum(s.tiling.prims_occlusion_culled for s in culled) > 0
            assert sum(s.tiling.prims_occlusion_culled for s in base) == 0
            assert (
                sum(s.raster.fragments_rasterized for s in culled)
                < sum(s.raster.fragments_rasterized for s in base)
            )


class PerTileReference(PolygonListBuilder):
    """The occlusion pass one (primitive, tile) pair at a time: a
    coverage mask, depth bound and occluding set per tile.  The block
    pass must reproduce its bins, events and counters exactly."""

    def begin_frame(self, ctx=None):
        super().begin_frame(ctx)
        self.ref_bounds, self.ref_sets = {}, {}

    def _occlusion_update(self, prim, tile_ids):
        state = prim.state
        if not state.depth_write:
            return
        for tile_id in tile_ids:
            rect = self._tile_rects[tile_id]
            mask = coverage_mask(prim, rect)
            if mask is None:
                continue
            bound = self.ref_bounds.setdefault(
                tile_id, np.ones(mask.shape, dtype=np.float64)
            )
            if not state.shader.uses_alpha_blend and (
                not state.depth_test
                or float(prim.depth.max()) + OCCLUSION_DEPTH_MARGIN
                < float(bound[mask].min())
            ):
                self._reference_fold(tile_id, mask)
            np.minimum(bound, float(prim.depth.min()), out=bound,
                       where=mask)

    def _reference_fold(self, tile_id, mask):
        newest = len(self.parameter_buffer.bins[tile_id]) - 1
        if mask.all():
            self.ref_sets.pop(tile_id, None)
            self._complete_cover(tile_id, newest)
            return
        entry = self.ref_sets.setdefault(tile_id, [newest, mask.copy()])
        entry[1] |= mask
        if entry[1].all():
            del self.ref_sets[tile_id]
            self._complete_cover(tile_id, entry[0])


class TestOcclusionMatchesPerTileReference:
    def frame_drawcalls(self, alias, config, frames=2):
        """Each frame's (state, primitives) binning calls, in order."""
        gpu = Gpu(config)
        scene = build_scene(alias)
        calls = []
        real = gpu.plb.bin_drawcall

        def record(state, primitives):
            calls[-1].append((state, list(primitives)))
            real(state, primitives)

        gpu.plb.bin_drawcall = record
        for stream in scene.frames(frames):
            calls.append([])
            gpu.render_frame(stream, clear_color=scene.clear_color)
        return calls

    def test_bins_events_and_counters_match(self):
        for size in (16, 8):
            config = dataclasses.replace(PARTIAL_CONFIG, tile_size=size)
            for alias in ("ccs", "hop", "mst"):
                block = make_cull_plb(config)
                reference = PerTileReference(config, Dram(config))
                for drawcalls in self.frame_drawcalls(alias, config):
                    for plb in (block, reference):
                        plb.begin_frame()
                        for state, primitives in drawcalls:
                            plb.bin_drawcall(state, primitives)
                    assert [list(map(id, b))
                            for b in block.parameter_buffer.bins] == \
                        [list(map(id, b))
                         for b in reference.parameter_buffer.bins]
                    assert block.occlusion_events == \
                        reference.occlusion_events
                assert block.stats == reference.stats, (size, alias)
                assert block.stats.prims_occlusion_culled > 0
