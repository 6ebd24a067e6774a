"""The figure grid's pinned node-budget solve, and the oracle's throughput on it.

Run from the root of a checkout:

    PYTHONPATH=src python tests/oracle_throughput.py

It solves the 9x9 figure grid with no seed cuts under a 200,000-node
budget, times every call of the loop's oracle (`solver._table_alternate`),
prints the result, the oracle's calls/s and its search nodes/s, the mean
number of cells in which an alternate differs from the target and the
oracle calls per loop iteration as a Markdown list, and exits 1 when the
result differs from `PIN`. The solve is deterministic, so a change to the
completion search that moves one node count, one alternate or one cut
shows here; `tests/test_solver.py` checks the same pin.
"""
from __future__ import annotations

import hashlib
import sys
from time import perf_counter

from conftest import FIG_GRID_TEXT
from minclue import GridSize, MscpConfig, MscpResult, SearchBudget, parse_grid, solve_mscp
from minclue import solver

CONFIG = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=200_000))

# status, lower, upper, iterations, nodes, and the digest of the cuts in order
PIN = ("bounds_only", 10, 23, 51, 200_001, "7f0899900823744f")


def outcome(result: MscpResult) -> tuple:
    """The pinned fields of a result; the cuts enter as a digest of their
    row-major cell indices, in certificate order."""
    n = result.best_pattern.size.n
    cuts = [sorted((c.row - 1) * n + c.col - 1 for c in s) for s in result.certificate.sets]
    digest = hashlib.sha256(repr(cuts).encode()).hexdigest()[:16]
    return (
        result.status.value,
        result.lower_bound,
        result.upper_bound,
        result.iterations,
        result.nodes,
        digest,
    )


def main() -> int:
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    calls = nodes = diffs = diff_cells = 0
    seconds = 0.0
    table_alternate = solver._table_alternate

    def timed_table(geo, target):
        alternate = table_alternate(geo, target)

        def timed(revealed, budget, stats):
            nonlocal calls, nodes, seconds, diffs, diff_cells
            started = perf_counter()
            try:
                alt = alternate(revealed, budget, stats)
            finally:
                seconds += perf_counter() - started
                calls += 1
                nodes += stats.nodes
            if alt is not None:
                diffs += 1
                diff_cells += sum(a != b for a, b in zip(alt, target))
            return alt

        return timed

    solver._table_alternate = timed_table
    try:
        result = solve_mscp(grid, CONFIG)
    finally:
        solver._table_alternate = table_alternate
    got = outcome(result)
    print(f"- figure grid, 200,000-node solve: {got}" + ("" if got == PIN else f", pinned {PIN}"))
    print(
        f"- oracle: {calls} calls in {seconds:.3f} s, "
        f"{calls / seconds:.0f} calls/s, {nodes / seconds:.0f} nodes/s, "
        f"{diff_cells / diffs:.1f} cells per diff, "
        f"{calls / result.iterations:.1f} calls per iteration"
    )
    return 0 if got == PIN else 1


if __name__ == "__main__":
    sys.exit(main())
