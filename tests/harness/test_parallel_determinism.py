"""Parallel-vs-serial determinism of the harness runner.

A cell's result is a pure function of the cell, so fanning a matrix
across the supervisor's workers — with or without retries and crash
recovery — must be bit-for-bit indistinguishable from running it
serially in-process.
"""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.harness.parallel import Cell, run_cells
from repro.harness.supervisor import (
    SupervisorPolicy,
    attempt_history,
    supervise_cells,
)

CONFIG = GpuConfig.small()
FRAMES = 6

CELLS = (
    Cell("ccs", "baseline", FRAMES),
    Cell("ccs", "re", FRAMES),
    Cell("cde", "re", FRAMES),
    Cell("mst", "re", FRAMES),
)


def assert_equal_results(left: dict, right: dict):
    assert left.keys() == right.keys()
    for cell in left:
        a, b = left[cell], right[cell]
        assert np.array_equal(a.tile_color_crcs, b.tile_color_crcs), cell
        if a.tile_input_sigs is None:
            assert b.tile_input_sigs is None
        else:
            assert np.array_equal(a.tile_input_sigs, b.tile_input_sigs), cell
        assert a.final_frame_crc == b.final_frame_crc, cell
        assert a.total_cycles == b.total_cycles, cell
        assert a.total_energy_nj == b.total_energy_nj, cell
        assert a.tiles_skipped == b.tiles_skipped, cell
        assert a.fragments_shaded == b.fragments_shaded, cell


class TestPoolDeterminism:
    def test_pool_matches_serial(self):
        serial = run_cells(CELLS, config=CONFIG, processes=1)
        pooled = run_cells(CELLS, config=CONFIG, processes=2)
        assert_equal_results(serial, pooled)


class TestSupervisedDeterminism:
    @pytest.fixture(scope="class")
    def policy(self):
        return SupervisorPolicy(
            max_retries=2, checkpoint_stride=2, backoff_base_s=0.01,
            backoff_max_s=0.05,
        )

    def test_supervised_width_two_matches_serial(self, policy):
        """The in-process reference vs a checkpointing policy on the
        supervisor's workers."""
        serial = run_cells(CELLS, config=CONFIG, processes=1)
        wide = supervise_cells(
            CELLS, config=CONFIG, policy=policy, processes=2,
        )
        assert_equal_results(serial, wide.results())

    def test_determinism_survives_an_injected_crash(self, policy):
        """One worker killed mid-run: results AND the per-cell journal
        timeline must still match the serial run exactly."""
        fault = "ccs/re:4:crash"
        serial = supervise_cells(
            CELLS, config=CONFIG, policy=policy, fault_spec=fault,
        )
        wide = supervise_cells(
            CELLS, config=CONFIG, policy=policy, processes=2,
            fault_spec=fault,
        )
        assert_equal_results(serial.results(), wide.results())

        serial_history = attempt_history(serial.records)
        wide_history = attempt_history(wide.records)
        assert serial_history == wide_history
        # The faulted cell really did crash and recover in both runs.
        events = [entry[0] for entry in serial_history["ccs/re"]]
        assert events == [
            "attempt_start", "attempt_crash", "cell_retry",
            "attempt_start", "cell_done",
        ]
