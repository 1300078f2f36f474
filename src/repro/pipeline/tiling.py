"""Tiling Engine: the Polygon List Builder and the Parameter Buffer.

The Polygon List Builder (PLB) sorts each assembled primitive into the
screen tiles its bounding box overlaps and stores its attributes in the
Parameter Buffer, a main-memory region written through DRAM.  Binning is
conservative (bounding-box): a primitive may be listed in a tile its
edges never actually cross.  That conservatism is *shared* by the
Signature Unit — it observes exactly the (primitive, tiles) pairs emitted
here — so Rendering Elimination stays correct: a tile's signature covers
a superset of what the rasterizer will consume for that tile, and the
superset is the same function of the frame's geometry every frame.

Listeners (the RE Signature Unit, or nothing for the baseline) receive
``on_draw_state(state)`` before a drawcall's primitives and
``on_primitive(prim, tile_ids)`` per binned primitive — the same events
the paper's hardware taps.  Occlusion culling (below) truncates bins
only *after* the listeners have observed a primitive, so signatures are
computed over the identical (primitive, tiles) stream whether or not
culling is enabled.

When ``GpuConfig.occlusion_culling`` is set, the PLB additionally runs
an opaque-tile occlusion pass per binned primitive.  A set of
primitives that are (a) opaque (no alpha blending), (b) depth-writing
and (c) depth-safe — guaranteed to pass the LESS test at every pixel
they cover, either because they don't depth-test at all or because
their maximum vertex depth clears the running minimum of everything
written beneath those pixels by a margin — replaces the whole tile bin
once the OR of their coverage masks reaches every pixel center of the
tile.  Everything previously listed for the tile is unreachable behind
the set: it rewrites every color (opaque = REPLACE blend) and every
depth, so the tile's end state is bit-identical with or without the
buried primitives (argued in full in DESIGN.md).

The pass evaluates each primitive's coverage once, with
:func:`repro.pipeline.rasterizer.coverage_mask` over the tile-aligned
block of the tiles it is binned in, and keeps its state in screen-sized
planes padded to whole tiles (per-pixel depth bounds and accumulated
set coverage), stored tile-major as ``(tiles_y, tiles_x, tile_size**2)``
so each tile's pixels are contiguous.  Every per-tile decision — any
coverage, depth safety, set completion — is then one reduction over the
last axis of the block; Python-level work is left only for the tiles
whose sets complete.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from ..engine.stage import Stage
from ..geometry.primitives import Primitive
from ..memory.dram import Dram
from .framebuffer import DEFAULT_CLEAR_DEPTH, tile_rects
from .rasterizer import coverage_mask, iteration_bounds
# perfbench/layers.py counts calls to ``tiling.covers_rect`` by name;
# the pass no longer calls it, but the binding must still resolve.
from .rasterizer import covers_rect  # noqa: F401

#: Bytes of the per-tile polygon-list pointer entry written per
#: (primitive, tile) pair.
TILE_POINTER_BYTES = 4

#: Slack the occlusion pass demands between an occluder's maximum vertex
#: depth and the running minimum written beneath it.  float32
#: interpolation of depths in [0, 1] errs by ~1e-7 per fragment; a 1e-5
#: margin makes the depth-safety proof immune to that rounding, at the
#: cost of (only) forgoing culls between nearly coplanar layers.
OCCLUSION_DEPTH_MARGIN = 1e-5


@dataclasses.dataclass
class TilingStats:
    primitives_binned: int = 0
    tile_entries: int = 0          # (primitive, tile) pairs
    parameter_bytes_written: int = 0
    stall_cycles: int = 0
    # Occlusion-culling pass (zero unless GpuConfig.occlusion_culling)
    tiles_fully_covered: int = 0   # distinct tiles per frame, summed
    prims_occlusion_culled: int = 0
    fragments_avoided: int = 0     # raster-iteration pixels not visited


def _tile_major(pixels: np.ndarray, size: int) -> np.ndarray:
    """Reorder a tile-aligned ``(rows * size, cols * size)`` pixel block
    as ``(rows, cols, size * size)``: each tile's pixels contiguous, so
    per-tile reductions run over the last axis."""
    rows, cols = pixels.shape[0] // size, pixels.shape[1] // size
    return pixels.reshape(rows, size, cols, size).swapaxes(1, 2).reshape(
        rows, cols, size * size
    )


class ParameterBuffer:
    """Per-tile polygon lists plus the primitives' attribute storage."""

    def __init__(self, num_tiles: int) -> None:
        self.bins: list = [[] for _ in range(num_tiles)]

    def insert(self, prim: Primitive, tile_ids) -> None:
        for tile_id in tile_ids:
            self.bins[tile_id].append(prim)

    def tile_primitives(self, tile_id: int) -> list:
        return self.bins[tile_id]

    def tile_bytes(self, tile_id: int) -> int:
        """Bytes the Tile Scheduler fetches to render this tile."""
        return sum(
            prim.parameter_buffer_bytes() + TILE_POINTER_BYTES
            for prim in self.bins[tile_id]
        )

    def occupied_tiles(self):
        """Tile ids that contain at least one primitive, in raster order."""
        return [i for i, bin_ in enumerate(self.bins) if bin_]

    def truncate_bin(self, tile_id: int, keep_from: int) -> list:
        """Drop the bin entries older than index ``keep_from`` (the
        first primitive of the occluding set); returns the dropped
        primitives, oldest first."""
        bin_ = self.bins[tile_id]
        dropped = bin_[:keep_from]
        if dropped:
            del bin_[:keep_from]
        return dropped

    def clear(self) -> None:
        for bin_ in self.bins:
            bin_.clear()


class PolygonListBuilder(Stage):
    """Bins primitives into tiles and feeds the Parameter Buffer."""

    metrics_group = "tiling"

    def __init__(self, config: GpuConfig, dram: Dram, listeners=()) -> None:
        self.config = config
        self.dram = dram
        self.listeners = list(listeners)
        self.parameter_buffer = ParameterBuffer(config.num_tiles)
        self.stats = TilingStats()
        self._pb_cursor = 0
        self.occlusion_culling = bool(
            getattr(config, "occlusion_culling", False)
        )
        self._tiles_x, self._tiles_y = config.tiles_x, config.tiles_y
        self._covered_tiles: set = set()
        #: (tile_id, prims_dropped, fragments_avoided) per truncation
        #: this frame, for the tracer's instant events.
        self.occlusion_events: list = []
        if self.occlusion_culling:
            self._tile_rects = tile_rects(config)
            size = config.tile_size
            tiles = (self._tiles_y, self._tiles_x)
            plane = tiles + (size * size,)
            #: Per-pixel lower bound on any depth the prims inserted so
            #: far can have written there: the min over covering
            #: depth-writing prims' minimum vertex depth, seeded with the
            #: clear depth each frame.  Per-pixel (not a tile scalar) so
            #: that coplanar tessellated layers — whose triangles are
            #: disjoint and never depth-fight each other — can still
            #: qualify as occluders.
            self._bound = np.empty(plane, dtype=np.float64)
            #: Pixels past the screen's right/bottom edge, which every
            #: set covers trivially.
            pad = np.ones((tiles[0] * size, tiles[1] * size), dtype=bool)
            pad[:config.screen_height, :config.screen_width] = False
            self._pad = _tile_major(pad, size)
            #: Accumulated coverage of each tile's current occluding set,
            #: padding included (just the padding while the tile has no
            #: set).
            self._cover = np.empty(plane, dtype=bool)
            #: Bin index of each tile's set's first member, -1 for none.
            self._first = np.empty(tiles, dtype=np.int64)
            #: Bin length per tile (bin index of a just-inserted prim + 1).
            self._bin_len = np.empty(tiles, dtype=np.int64)

    def overlapped_tiles(self, prim: Primitive) -> list:
        """Tile ids whose area intersects the primitive's bounding box,
        clamped to the screen."""
        x0, y0, x1, y1 = prim.bounds()
        size = self.config.tile_size
        tiles_x = self._tiles_x
        tx0 = max(0, x0 // size)
        ty0 = max(0, y0 // size)
        tx1 = min(tiles_x - 1, (x1 - 1) // size)
        ty1 = min(self._tiles_y - 1, (y1 - 1) // size)
        if tx1 < tx0 or ty1 < ty0:
            return []
        return [
            ty * tiles_x + tx
            for ty in range(ty0, ty1 + 1)
            for tx in range(tx0, tx1 + 1)
        ]

    def bin_drawcall(self, state, primitives) -> None:
        """Sort one drawcall's primitives into tiles."""
        for listener in self.listeners:
            listener.on_draw_state(state)
        for prim in primitives:
            tile_ids = self.overlapped_tiles(prim)
            if not tile_ids:
                continue
            prim.pb_offset = self._pb_cursor
            self._pb_cursor += prim.parameter_buffer_bytes()
            self.parameter_buffer.insert(prim, tile_ids)
            nbytes = (
                prim.parameter_buffer_bytes()
                + TILE_POINTER_BYTES * len(tile_ids)
            )
            self.stats.stall_cycles += self.dram.write(nbytes, "parameter_write")
            self.stats.primitives_binned += 1
            self.stats.tile_entries += len(tile_ids)
            self.stats.parameter_bytes_written += nbytes
            for listener in self.listeners:
                listener.on_primitive(prim, tile_ids)
            if self.occlusion_culling:
                self._occlusion_update(prim, tile_ids)

    def _occlusion_update(self, prim: Primitive, tile_ids) -> None:
        """Fold the just-inserted primitive into the occluding sets of
        the tiles it is binned in; truncate bins whose set now covers
        every pixel center, then fold the primitive's depths into the
        depth bounds.

        ``tile_ids`` is a row-major block of tiles, so one coverage mask
        over the block's pixels serves every tile: its slice for a tile
        is bit-exact with a mask evaluated over that tile alone (the
        edge functions are sampled at the same absolute centers).
        """
        ty0, tx0 = divmod(tile_ids[0], self._tiles_x)
        ty1, tx1 = divmod(tile_ids[-1], self._tiles_x)
        self._bin_len[ty0:ty1 + 1, tx0:tx1 + 1] += 1
        state = prim.state
        if not state.depth_write:
            # Can neither occlude (must rewrite depth everywhere) nor
            # lower any stored depth — invisible to this pass.
            return
        size = self.config.tile_size
        x0, y0 = tx0 * size, ty0 * size
        x1, y1 = (tx1 + 1) * size, (ty1 + 1) * size
        mask = coverage_mask(prim, (
            x0, y0,
            min(x1, self.config.screen_width),
            min(y1, self.config.screen_height),
        ))
        if mask is None:
            return
        if mask.shape != (y1 - y0, x1 - x0):
            # The block ends in a partial edge tile: pad with uncovered
            # pixels to whole tiles.
            padded = np.zeros((y1 - y0, x1 - x0), dtype=bool)
            padded[:mask.shape[0], :mask.shape[1]] = mask
            mask = padded
        mask = _tile_major(mask, size)
        bound = self._bound[ty0:ty1 + 1, tx0:tx1 + 1]
        if not state.shader.uses_alpha_blend:
            self._fold_occluder(prim, mask, bound, ty0, tx0)
        np.minimum(bound, float(prim.depth.min()), out=bound, where=mask)

    def _fold_occluder(self, prim: Primitive, mask: np.ndarray,
                       bound: np.ndarray, ty0: int, tx0: int) -> None:
        """OR one opaque primitive's coverage into the occluding set of
        every tile where it is a member, and truncate the bins whose set
        is now complete.  ``mask`` and ``bound`` are the block's
        tile-major ``(nty, ntx, size * size)`` coverage and depth
        bounds."""
        # Member: covers a pixel of the tile and is depth-safe there —
        # passes the LESS test at every pixel it covers, with no test at
        # all or strictly above everything written beneath them.
        member = mask.any(axis=-1)
        if prim.state.depth_test:
            clears = bound > float(prim.depth.max()) + OCCLUSION_DEPTH_MARGIN
            member &= ~(mask & ~clears).any(axis=-1)
        if not member.any():
            return
        nty, ntx = member.shape
        block = np.s_[ty0:ty0 + nty, tx0:tx0 + ntx]
        cover = self._cover[block]
        first, bin_len = self._first[block], self._bin_len[block]
        np.logical_or(cover, mask, out=cover, where=member[..., None])
        done = member & cover.all(axis=-1)
        # A set that has none yet starts with the primitive just
        # appended.
        start = member & ~done & (first < 0)
        first[start] = bin_len[start] - 1
        for index in np.flatnonzero(done):
            ty, tx = divmod(int(index), ntx)
            pad = self._pad[ty0 + ty, tx0 + tx]
            keep_from = first[ty, tx]
            if keep_from < 0 or (mask[ty, tx] | pad).all():
                # A primitive that alone covers the tile occludes on
                # its own, irrespective of any set accumulated so far.
                keep_from = bin_len[ty, tx] - 1
            first[ty, tx] = -1
            cover[ty, tx] = pad
            bin_len[ty, tx] -= self._complete_cover(
                (ty0 + ty) * self._tiles_x + tx0 + tx, int(keep_from)
            )

    def _complete_cover(self, tile_id: int, keep_from: int) -> int:
        """Record a fully-covered tile and drop the buried prefix;
        returns the number of primitives dropped."""
        if tile_id not in self._covered_tiles:
            self._covered_tiles.add(tile_id)
            self.stats.tiles_fully_covered += 1
        dropped = self.parameter_buffer.truncate_bin(tile_id, keep_from)
        if not dropped:
            return 0
        rect = self._tile_rects[tile_id]
        avoided = 0
        for buried in dropped:
            bounds = iteration_bounds(buried, rect)
            if bounds is not None:
                avoided += (
                    (bounds[2] - bounds[0]) * (bounds[3] - bounds[1])
                )
        self.stats.prims_occlusion_culled += len(dropped)
        self.stats.fragments_avoided += avoided
        self.occlusion_events.append((tile_id, len(dropped), avoided))
        return len(dropped)

    def begin_frame(self, ctx=None) -> None:
        self.parameter_buffer.clear()
        self._pb_cursor = 0
        self._covered_tiles.clear()
        self.occlusion_events.clear()
        if self.occlusion_culling:
            self._bound.fill(DEFAULT_CLEAR_DEPTH)
            self._cover[...] = self._pad
            self._first.fill(-1)
            self._bin_len.fill(0)
