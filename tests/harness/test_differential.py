"""Differential correctness: baseline vs Rendering Elimination, end to
end, over every Table II workload.

The paper's central correctness claim is that RE is *lossless*: a
skipped tile's framebuffer contents are reused, so the rendered output
is identical to the baseline.  This suite pins that claim per workload —
per-frame per-tile CRCs must match bit for bit — and pins each
workload's skip count against goldens so a silent behavior change in the
signature path (hashing, comparison distance, skip decision) fails
loudly rather than shifting a figure.

Occlusion culling (``GpuConfig.occlusion_culling``) makes the same
promise from the other side: truncating tile bins behind an opaque
cover must change *no* pixel of any frame and — because the Signature
Unit observes primitives before truncation — no skip decision either.
The culled fixtures pin both, plus the fact that culling actually fires
on every workload (a pass that never triggers proves nothing).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.harness.classify import classify_run
from repro.harness.runner import run_workload
from repro.workloads.games import FIGURE_ORDER

pytestmark = pytest.mark.slow

CONFIG = GpuConfig.small()
FRAMES = 6

#: Golden tiles_skipped per workload: small config, 6 frames, technique
#: "re".  Regenerate (only for a deliberate behavior change) with:
#:   PYTHONPATH=src python - <<'EOF'
#:   from repro.config import GpuConfig
#:   from repro.harness.runner import run_workload
#:   from repro.workloads.games import FIGURE_ORDER
#:   for a in FIGURE_ORDER:
#:       r = run_workload(a, "re", GpuConfig.small(), num_frames=6)
#:       print(f'    "{a}": {r.tiles_skipped},')
#:   EOF
GOLDEN_TILES_SKIPPED = {
    "ccs": 59,
    "cde": 70,
    "coc": 40,
    "ctr": 60,
    "hop": 27,
    "mst": 0,
    "abi": 82,
    "csn": 24,
    "ter": 24,
    "tib": 47,
}


CULL_CONFIG = dataclasses.replace(CONFIG, occlusion_culling=True)


@pytest.fixture(scope="module", params=FIGURE_ORDER)
def pair(request):
    """(baseline run, re run) of one workload alias."""
    alias = request.param
    baseline = run_workload(alias, "baseline", CONFIG, num_frames=FRAMES)
    re_run = run_workload(alias, "re", CONFIG, num_frames=FRAMES)
    return baseline, re_run


@pytest.fixture(scope="module", params=FIGURE_ORDER)
def culled_pair(request):
    """(plain baseline run, culled baseline run, culled re run)."""
    alias = request.param
    plain = run_workload(alias, "baseline", CONFIG, num_frames=FRAMES)
    culled = run_workload(alias, "baseline", CULL_CONFIG, num_frames=FRAMES)
    culled_re = run_workload(alias, "re", CULL_CONFIG, num_frames=FRAMES)
    return plain, culled, culled_re


class TestLossless:
    def test_every_frame_bit_identical(self, pair):
        baseline, re_run = pair
        # Whole-run CRC matrix: (frames, tiles).  One unequal entry means
        # RE reused a tile whose contents had actually changed.
        assert np.array_equal(
            re_run.tile_color_crcs, baseline.tile_color_crcs
        ), re_run.alias

    def test_final_frame_crc_matches(self, pair):
        baseline, re_run = pair
        assert re_run.final_frame_crc == baseline.final_frame_crc

    def test_no_signature_false_positives(self, pair):
        _, re_run = pair
        classes = classify_run(
            re_run, distance=CONFIG.signature_compare_distance
        )
        assert classes.diff_colors_eq_inputs == 0, re_run.alias


class TestGoldenSkips:
    def test_skip_count_pinned(self, pair):
        _, re_run = pair
        assert re_run.tiles_skipped == GOLDEN_TILES_SKIPPED[re_run.alias]

    def test_goldens_cover_every_workload(self):
        assert set(GOLDEN_TILES_SKIPPED) == set(FIGURE_ORDER)

    def test_static_workloads_skip_moving_ones_do_not(self):
        # The goldens themselves encode the paper's Fig. 2 ordering:
        # near-static menu/board games skip heavily, the racing game
        # (mst, new content every frame) skips nothing.
        assert GOLDEN_TILES_SKIPPED["mst"] == 0
        assert GOLDEN_TILES_SKIPPED["abi"] > GOLDEN_TILES_SKIPPED["csn"]


class TestOcclusionLossless:
    def test_culled_baseline_bit_identical_to_plain(self, culled_pair):
        plain, culled, _ = culled_pair
        assert np.array_equal(
            culled.tile_color_crcs, plain.tile_color_crcs
        ), plain.alias
        assert culled.final_frame_crc == plain.final_frame_crc

    def test_culled_re_bit_identical_and_skips_unchanged(self, culled_pair):
        plain, _, culled_re = culled_pair
        # Signatures are computed before bins are truncated, so RE under
        # culling must reproduce both the pixels and the golden skip
        # decisions exactly.
        assert np.array_equal(
            culled_re.tile_color_crcs, plain.tile_color_crcs
        ), plain.alias
        assert culled_re.tiles_skipped == \
            GOLDEN_TILES_SKIPPED[culled_re.alias]

    def test_culling_fires_on_every_workload(self, culled_pair):
        _, culled, _ = culled_pair
        counters = dict(culled.counters)
        assert counters["tiling.prims_occlusion_culled"] > 0, culled.alias
        assert counters["tiling.tiles_fully_covered"] > 0, culled.alias

    def test_translucent_prims_never_occlude(self, culled_pair):
        # Every culled primitive was buried beneath *opaque* cover; the
        # raster side must therefore do no more work than the plain run
        # and no fewer tiles may be rendered.
        plain, culled, _ = culled_pair
        assert culled.fragments_rasterized <= plain.fragments_rasterized
        assert culled.fragments_shaded <= plain.fragments_shaded


#: A screen whose width and height are multiples of neither tile size,
#: so the right column and bottom row are partial tiles.
PARTIAL_FRAMES = 3
PARTIAL_CONFIGS = {
    size: dataclasses.replace(
        CONFIG, screen_width=100, screen_height=70, tile_size=size,
    )
    for size in (16, 8)
}

#: Golden (tiles_fully_covered, prims_occlusion_culled, fragments_avoided)
#: per (tile size, workload) of a culled baseline run on
#: :data:`PARTIAL_CONFIGS`, 3 frames, recorded with the per-tile
#: occlusion pass the block pass replaced.  Regenerate (only for a
#: deliberate behavior change) with:
#:   PYTHONPATH=src python - <<'EOF'
#:   import dataclasses
#:   from repro.config import GpuConfig
#:   from repro.harness.runner import run_workload
#:   from repro.workloads.games import FIGURE_ORDER
#:   for size in (16, 8):
#:       config = dataclasses.replace(
#:           GpuConfig.small(), screen_width=100, screen_height=70,
#:           tile_size=size, occlusion_culling=True)
#:       for a in FIGURE_ORDER:
#:           c = run_workload(a, "baseline", config, num_frames=3).counters
#:           print(f'    ({size}, "{a}"): (', *(c["tiling." + k] for k in (
#:               "tiles_fully_covered", "prims_occlusion_culled",
#:               "fragments_avoided")), sep=", ", end="),\n")
#:   EOF
GOLDEN_PARTIAL_OCCLUSION = {
    (16, "ccs"): (105, 702, 18432),
    (16, "cde"): (105, 30, 0),
    (16, "coc"): (105, 78, 136),
    (16, "ctr"): (105, 30, 0),
    (16, "hop"): (105, 230, 6144),
    (16, "mst"): (105, 249, 864),
    (16, "abi"): (105, 240, 0),
    (16, "csn"): (105, 45, 132),
    (16, "ter"): (105, 90, 96),
    (16, "tib"): (105, 201, 36),
    (8, "ccs"): (351, 1674, 20808),
    (8, "cde"): (351, 522, 2664),
    (8, "coc"): (351, 368, 2776),
    (8, "ctr"): (351, 696, 5912),
    (8, "hop"): (351, 1135, 13443),
    (8, "mst"): (351, 696, 2448),
    (8, "abi"): (351, 690, 2640),
    (8, "csn"): (351, 345, 1890),
    (8, "ter"): (351, 216, 402),
    (8, "tib"): (351, 502, 3188),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN_PARTIAL_OCCLUSION))
def partial_pair(request):
    """(tile size, plain baseline run, culled baseline run) on a screen
    with partial edge tiles."""
    size, alias = request.param
    config = PARTIAL_CONFIGS[size]
    plain = run_workload(alias, "baseline", config,
                         num_frames=PARTIAL_FRAMES)
    culled = run_workload(
        alias, "baseline",
        dataclasses.replace(config, occlusion_culling=True),
        num_frames=PARTIAL_FRAMES,
    )
    return size, plain, culled


class TestOcclusionPartialTiles:
    def test_culled_bit_identical_to_plain(self, partial_pair):
        _, plain, culled = partial_pair
        assert np.array_equal(
            culled.tile_color_crcs, plain.tile_color_crcs
        ), plain.alias
        assert culled.final_frame_crc == plain.final_frame_crc

    def test_counters_pinned(self, partial_pair):
        size, _, culled = partial_pair
        counters = dict(culled.counters)
        assert tuple(
            counters["tiling." + name] for name in (
                "tiles_fully_covered", "prims_occlusion_culled",
                "fragments_avoided",
            )
        ) == GOLDEN_PARTIAL_OCCLUSION[size, culled.alias]

    def test_goldens_cover_every_workload(self):
        assert set(GOLDEN_PARTIAL_OCCLUSION) == {
            (size, alias) for size in PARTIAL_CONFIGS
            for alias in FIGURE_ORDER
        }
