"""Record the outputs every benchmark run is checked against.

Run from the repository root after a change that is meant to alter
simulated results:

    python3 perfbench/record_expected.py

Each expectation is computed in this process with ``run_workload``,
not through the paths the benchmark times (serial suite loop, daemon
workers, fleet workers), so a run that agrees with it agrees with an
independent execution of the same cell.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, fleet, service, suite  # noqa: E402


def outputs(result) -> dict:
    return {
        "final_frame_crc": result.final_frame_crc,
        "total_cycles": result.total_cycles,
        "total_energy_nj": result.total_energy_nj,
        "tiles_skipped": result.tiles_skipped,
    }


def main() -> None:
    common.require_source()
    from repro.config import GpuConfig
    from repro.harness import run_workload
    from repro.workloads import FIGURE_ORDER

    table = {"suite": {}, "suite_culled": {}, "service": {}, "fleet": {}}
    plain = GpuConfig.benchmark()
    culled = dataclasses.replace(plain, occlusion_culling=True)
    for alias in FIGURE_ORDER:
        for tech in suite.TECHNIQUES:
            for name, config in (("suite", plain), ("suite_culled", culled)):
                table[name][f"{alias}/{tech}"] = outputs(
                    run_workload(alias, tech, config, suite.FRAMES))
    for alias in service.GAMES:
        for tech in service.TECHNIQUES:
            table["service"][f"{alias}/{tech}"] = outputs(
                run_workload(alias, tech, GpuConfig.small(), service.FRAMES))
    names = sorted(fleet.GRID)
    grid = [{}]
    for name in names:
        grid = [dict(point, **{name: value})
                for point in grid for value in fleet.GRID[name]]
    for assignment in grid:
        config = dataclasses.replace(GpuConfig.small(), **assignment)
        table["fleet"][fleet.point_key(assignment)] = outputs(
            run_workload(fleet.ALIAS, fleet.TECHNIQUE, config, fleet.FRAMES))
    with open(common.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {common.EXPECTED}")


if __name__ == "__main__":
    main()
