"""Warm pool semantics and the service-vs-direct bit-identity contract.

``test_all_workloads_bit_identical_through_service`` is the
acceptance-level check: every Table II workload rendered through the
service execution path (``execute_job`` on a *reused* warm engine)
produces exactly the per-tile CRC matrix, counters and skip counts the
pre-service direct :func:`run_workload` call produces.
"""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.harness.runner import run_workload
from repro.service.jobs import JobSpec
from repro.service.pool import WarmEnginePool, execute_job
from repro.workloads.games import FIGURE_ORDER

NUM_FRAMES = 3


def key(spec: JobSpec) -> tuple:
    return WarmEnginePool.key(spec.alias, spec.technique,
                              spec.exact_signatures, spec.config())


class TestPoolMechanics:
    def test_cold_then_warm(self):
        pool = WarmEnginePool(max_engines=2)
        spec = JobSpec("ccs", "re", NUM_FRAMES)
        _, info1 = execute_job(spec, pool=pool)
        _, info2 = execute_job(spec, pool=pool)
        assert info1 == {"warm": False}
        assert info2 == {"warm": True}
        assert pool.stats.engines_built == 1
        assert pool.stats.warm_hits == 1
        assert pool.stats.requests == 2

    def test_key_covers_behavioural_identity(self):
        pool = WarmEnginePool(max_engines=8)
        base = JobSpec("ccs", "re", NUM_FRAMES)
        for other in [
            JobSpec("cde", "re", NUM_FRAMES),            # alias
            JobSpec("ccs", "baseline", NUM_FRAMES),      # technique
            JobSpec("ccs", "re", NUM_FRAMES,
                    exact_signatures=True),              # exactness
            JobSpec("ccs", "re", NUM_FRAMES,
                    overrides=(("tile_size", 8),)),      # config digest
        ]:
            assert key(base) != key(other)

    def test_num_frames_does_not_split_the_pool(self):
        # Run length is a per-request knob (reset retargets it), not an
        # engine identity — 3-frame and 4-frame jobs share one engine.
        pool = WarmEnginePool(max_engines=1)
        execute_job(JobSpec("ccs", "re", NUM_FRAMES), pool=pool)
        _, info = execute_job(JobSpec("ccs", "re", NUM_FRAMES + 1),
                              pool=pool)
        assert info == {"warm": True}

    def test_lru_eviction_past_bound(self):
        pool = WarmEnginePool(max_engines=1)
        execute_job(JobSpec("ccs", "re", NUM_FRAMES), pool=pool)
        execute_job(JobSpec("cde", "re", NUM_FRAMES), pool=pool)
        assert pool.stats.engines_evicted == 1
        assert len(pool) == 1
        # ccs was evicted; serving it again is a rebuild, not a hit.
        _, info = execute_job(JobSpec("ccs", "re", NUM_FRAMES), pool=pool)
        assert info == {"warm": False}

    def test_failed_job_engine_is_not_returned(self):
        pool = WarmEnginePool(max_engines=2)
        spec = JobSpec("ccs", "re", NUM_FRAMES)

        def explode(_frames):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            execute_job(spec, pool=pool, frame_hook=explode)
        assert len(pool) == 0
        assert pool.stats.engines_discarded == 1
        _, info = execute_job(spec, pool=pool)
        assert info == {"warm": False}


class TestBitIdentity:
    @pytest.mark.parametrize("technique", ["baseline", "re", "re+te"])
    def test_warm_run_matches_direct_run(self, technique):
        pool = WarmEnginePool(max_engines=1)
        spec = JobSpec("ccs", technique, NUM_FRAMES)
        execute_job(spec, pool=pool)                    # warm the engine
        warm_result, info = execute_job(spec, pool=pool)
        assert info == {"warm": True}
        direct = run_workload(
            "ccs", technique, GpuConfig.small(), num_frames=NUM_FRAMES,
        )
        np.testing.assert_array_equal(
            warm_result.tile_color_crcs, direct.tile_color_crcs,
        )
        assert warm_result.final_frame_crc == direct.final_frame_crc
        assert warm_result.counters == direct.counters

    def test_all_workloads_bit_identical_through_service(self):
        """All ten Table II games, service path vs direct path."""
        pool = WarmEnginePool(max_engines=2)
        config = GpuConfig.small()
        for alias in FIGURE_ORDER:
            spec = JobSpec(alias, "re", NUM_FRAMES)
            execute_job(spec, pool=pool)                # cold
            warm_result, info = execute_job(spec, pool=pool)
            assert info == {"warm": True}, alias
            direct = run_workload(
                alias, "re", config, num_frames=NUM_FRAMES,
            )
            np.testing.assert_array_equal(
                warm_result.tile_color_crcs, direct.tile_color_crcs,
                err_msg=f"CRC divergence on {alias}",
            )
            np.testing.assert_array_equal(
                warm_result.tile_input_sigs, direct.tile_input_sigs,
                err_msg=f"signature divergence on {alias}",
            )
            assert warm_result.tiles_skipped == direct.tiles_skipped, alias
            assert warm_result.counters == direct.counters, alias
