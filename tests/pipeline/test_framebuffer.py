"""On-chip tile buffers and the double-buffered frame buffer."""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.errors import PipelineError
from repro.pipeline.framebuffer import FrameBuffer, TileBuffers, tile_rects
import dataclasses


class TestTileBuffers:
    def test_clear_sets_color_and_depth(self):
        buffers = TileBuffers(16)
        buffers.color[:] = 0.7
        buffers.depth[:] = 0.0
        buffers.clear(color=(0.1, 0.2, 0.3, 1.0), depth=1.0)
        assert np.allclose(buffers.color[5, 5], [0.1, 0.2, 0.3, 1.0])
        assert np.all(buffers.depth == 1.0)

    def test_shapes(self):
        buffers = TileBuffers(8)
        assert buffers.color.shape == (8, 8, 4)
        assert buffers.depth.shape == (8, 8)


class TestFrameBuffer:
    def test_tile_rect_layout(self):
        fb = FrameBuffer(GpuConfig.small())
        assert fb.tile_rect(0) == (0, 0, 16, 16)
        assert fb.tile_rect(1) == (16, 0, 32, 16)
        tiles_x = GpuConfig.small().tiles_x
        assert fb.tile_rect(tiles_x) == (0, 16, 16, 32)

    def test_partial_edge_tiles_clipped(self):
        config = dataclasses.replace(
            GpuConfig.small(), screen_width=100, screen_height=40
        )
        fb = FrameBuffer(config)
        # Rightmost column tile: 96..100 wide.
        right = config.tiles_x - 1
        x0, y0, x1, y1 = fb.tile_rect(right)
        assert x1 == 100 and x1 - x0 == 4
        assert fb.tile_pixels(right) == 4 * 16
        # Bottom row tile: 32..40 tall.
        bottom = (config.tiles_y - 1) * config.tiles_x
        assert fb.tile_rect(bottom)[3] == 40

    def test_tile_rects_table_in_raster_order(self):
        config = dataclasses.replace(
            GpuConfig.small(), screen_width=100, screen_height=40
        )
        rects = tile_rects(config)
        assert len(rects) == config.num_tiles
        for tile_id, rect in enumerate(rects):
            ty, tx = divmod(tile_id, config.tiles_x)
            x0, y0 = tx * 16, ty * 16
            assert rect == (x0, y0, min(x0 + 16, 100), min(y0 + 16, 40))
        assert FrameBuffer(config).tile_rects == rects

    def test_tile_rect_bounds_checked(self):
        fb = FrameBuffer(GpuConfig.small())
        with pytest.raises(PipelineError):
            fb.tile_rect(-1)
        with pytest.raises(PipelineError):
            fb.tile_rect(GpuConfig.small().num_tiles)

    def test_write_then_read_tile(self):
        fb = FrameBuffer(GpuConfig.small())
        tile = np.full((16, 16, 4), 0.25, dtype=np.float32)
        nbytes = fb.write_tile(3, tile)
        assert nbytes == 16 * 16 * 4
        assert np.allclose(fb.read_tile(3, "back"), 0.25)

    def test_partial_tile_write_bytes(self):
        config = dataclasses.replace(
            GpuConfig.small(), screen_width=100, screen_height=40
        )
        fb = FrameBuffer(config)
        tile = np.zeros((16, 16, 4), dtype=np.float32)
        right = config.tiles_x - 1
        assert fb.write_tile(right, tile) == 4 * 16 * 4

    def test_swap_alternates_buffers(self):
        fb = FrameBuffer(GpuConfig.small())
        fb.back[0, 0] = [1, 0, 0, 1]
        fb.swap()
        assert np.allclose(fb.front[0, 0], [1, 0, 0, 1])
        assert np.allclose(fb.back[0, 0], [0, 0, 0, 0])
        fb.swap()
        assert np.allclose(fb.back[0, 0], [1, 0, 0, 1])

    def test_snapshot_is_a_copy(self):
        fb = FrameBuffer(GpuConfig.small())
        snap = fb.snapshot_back()
        fb.back[0, 0] = [1, 1, 1, 1]
        assert np.allclose(snap[0, 0], [0, 0, 0, 0])
