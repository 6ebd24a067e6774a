"""The hitting-set solver on a frozen cut family, pinned, and its throughput.

Run from the root of a checkout:

    PYTHONPATH=src python tests/hitting_throughput.py

It builds the family of the 9x9 figure grid's first K = 45 minimal
unavoidable sets from `generate_all`, then runs `min_hitting_set` on it
with `upper_hint=81` twice: to the proven optimum, and under a 1,000-node
budget. For each run it prints the value, the lower bound, whether it is
proven, the search nodes and the digest of the cells, then the nodes/s, as
a Markdown list, and it exits 1 when either run differs from its pin. The
search is deterministic, so a change to the branch and bound that moves one
node, one bound or one cell shows here; `tests/test_hitting.py` checks the
same pins.
"""
from __future__ import annotations

import hashlib
import sys
from time import perf_counter

from conftest import FIG_GRID_TEXT
from minclue import (
    GenerationLimits,
    GridSize,
    HittingInstance,
    HittingSolution,
    SearchBudget,
    SearchStats,
    generate_all,
    min_hitting_set,
    parse_grid,
)

FAMILY_LIMITS = GenerationLimits(max_sets=45)
UPPER_HINT = 81

# value, lower bound, proven, search nodes, and the digest of the cells
PIN = (12, 12, True, 40_297, "2d77963ff372e041")

BUDGET = SearchBudget(max_nodes=1000)
BUDGET_PIN = (14, 10, False, 1_001, "0579942f2a6ae4e7")


def instance() -> HittingInstance:
    """The frozen family: the figure grid's first 45 generated sets."""
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    family = generate_all(grid, FAMILY_LIMITS).family()
    return HittingInstance.build(grid.size.all_cells(), family)


def outcome(solution: HittingSolution, stats: SearchStats) -> tuple:
    """The pinned fields of one run; the cells enter as a digest of their
    sorted row-major indices."""
    index = GridSize.of_side(9).index
    cells = sorted(index(c) for c in solution.cells)
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()[:16]
    return (
        solution.value,
        solution.lower_bound,
        solution.proven_optimal,
        stats.nodes,
        digest,
    )


def main() -> int:
    frozen = instance()
    failed = False
    for label, budget, pin in (
        ("to the optimum", None, PIN),
        ("under a 1,000-node budget", BUDGET, BUDGET_PIN),
    ):
        stats = SearchStats()
        started = perf_counter()
        solution = min_hitting_set(frozen, upper_hint=UPPER_HINT, budget=budget, stats=stats)
        seconds = perf_counter() - started
        got = outcome(solution, stats)
        failed |= got != pin
        print(
            f"- figure grid's first 45 sets, {label}: {got}"
            + ("" if got == pin else f", pinned {pin}")
        )
        print(
            f"- hitting set: {stats.nodes} nodes in {seconds:.3f} s, "
            f"{stats.nodes / seconds:.0f} nodes/s"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
