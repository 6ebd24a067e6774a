"""The hitting-set walk on a frozen cut family, pinned, and its throughput.

Run from the root of a checkout:

    PYTHONPATH=src python tests/hitting_throughput.py

It builds the family of the 9x9 figure grid's first K = 45 minimal
unavoidable sets from `generate_all` and runs the walk on it three ways:
`min_hitting_set` to the proven optimum; a fresh `HittingWalk` over all 45
sets under a 1,000-node budget, which stops at a proven level; and a walk
that takes the 45 sets one at a time with a `next` after each, as the
loop feeds it cuts. It prints each outcome, the search nodes and the
nodes/s as a Markdown list, and it exits 1 when an outcome differs from
its pin. The walk is deterministic, so a change to it that moves one node,
one level or one cell shows here; `tests/test_hitting.py` checks the same
pins.
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
    HittingWalk,
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    generate_all,
    min_hitting_set,
    parse_grid,
)

FAMILY_LIMITS = GenerationLimits(max_sets=45)

# value, search nodes, and the digest of the cells
PIN = (12, 40_564, "2d77963ff372e041")

# the level the walk has proven when the budget ends, and its nodes
BUDGET = SearchBudget(max_nodes=1000)
BUDGET_PIN = (10, 1_001)

# the level after each of the 45 `next` calls, their nodes together, and the
# digest of the sets they return
INCREMENTAL_PIN = (
    (1, 2, 3, 4, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 10, 10,
     10, 10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 12, 12, 12),
    84_520,
    "4f98a4c512bae3f3",
)


def instance() -> HittingInstance:
    """The frozen family: the figure grid's first 45 generated sets."""
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    family = generate_all(grid, FAMILY_LIMITS).family()
    return HittingInstance.build(grid.size.all_cells(), family)


def digest(cells: list) -> str:
    return hashlib.sha256(repr(cells).encode()).hexdigest()[:16]


def outcome(solution: HittingSolution, stats: SearchStats) -> tuple:
    """The pinned fields of the run to the optimum; the cells enter as a
    digest of their sorted row-major indices."""
    index = GridSize.of_side(9).index
    return solution.value, stats.nodes, digest(sorted(index(c) for c in solution.cells))


def members(frozen: HittingInstance) -> list[list[int]]:
    index = GridSize.of_side(9).index
    return [[index(c) for c in member] for member in frozen.family]


def interrupted(frozen: HittingInstance) -> tuple[int, int]:
    """The level a fresh walk over every set has proven when `BUDGET` ends,
    and the nodes it took."""
    walk, stats = HittingWalk(members(frozen)), SearchStats()
    try:
        walk.next(BUDGET, stats)
    except SearchInterrupted:
        return walk.level, stats.nodes
    raise AssertionError("the walk ended within the budget")


def incremental(frozen: HittingInstance) -> tuple[tuple[int, ...], int, str]:
    """Levels, summed nodes and the digest of the found sets of a walk
    that takes the sets one at a time, with a `next` after each."""
    walk, levels, nodes, found = HittingWalk(), [], 0, []
    for member in members(frozen):
        walk.add(member)
        stats = SearchStats()
        found.append(sorted(walk.next(stats=stats)))
        levels.append(walk.level)
        nodes += stats.nodes
    return tuple(levels), nodes, digest(found)


def main() -> int:
    frozen = instance()
    stats = SearchStats()
    started = perf_counter()
    solution = min_hitting_set(frozen, stats=stats)
    seconds = perf_counter() - started
    runs = [
        ("to the optimum", outcome(solution, stats), PIN),
        ("under a 1,000-node budget", interrupted(frozen), BUDGET_PIN),
        ("one set at a time", incremental(frozen), INCREMENTAL_PIN),
    ]
    failed = False
    for label, got, pin in runs:
        failed |= got != pin
        print(
            f"- figure grid's first 45 sets, {label}: {got}"
            + ("" if got == pin else f", pinned {pin}")
        )
    print(
        f"- hitting set to the optimum: {stats.nodes} nodes in {seconds:.3f} s, "
        f"{stats.nodes / seconds:.0f} nodes/s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
