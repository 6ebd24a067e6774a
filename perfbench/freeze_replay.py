"""Regenerate the frozen hitting-set family used by the traced replay.

    python3 perfbench/freeze_replay.py

Solves the figure grid (seed 0, no seed cuts) until its lower bound first
reaches workloads.FIG_TARGET, and saves the cuts held at that trace
entry to workloads.REPLAY_FILE. Run it only when the replay is meant to
change; the point of the file is that it stays fixed across commits.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from minclue import (  # noqa: E402
    GridSize,
    MscpConfig,
    SearchBudget,
    UnavoidableCollection,
    parse_grid,
    save_collection,
    solve_mscp,
)

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    grid = parse_grid(inputs.FIGURE_GRID, GridSize.of_side(9))
    result = solve_mscp(
        grid, MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_time=30))
    )
    entry = next(
        (e for e in result.trace if e.lower >= workloads.FIG_TARGET), None
    )
    if entry is None:
        print("lower bound never reached the replay optimum", file=sys.stderr)
        return 1
    frozen = UnavoidableCollection(result.certificate.fingerprint, 9, complete=False)
    for record in result.certificate.records[: entry.certificate_size]:
        frozen.add(record)
    workloads.DATA.mkdir(exist_ok=True)
    save_collection(frozen, workloads.REPLAY_FILE)
    print(f"saved {len(frozen)} cuts to {workloads.REPLAY_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
