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

It also splits the oracle's calls, nodes and seconds between those made
inside `solver._shrink` and the rest (candidate checks and `repair`); in a
second, untimed run of the same solve it counts, for each of the loop's
three callers (`_shrink`, `repair`, candidate checks), the queries answered
from the alternates already found and those that searched the oracle.

Next it times the same solve under a 1,000,000-node budget, where the
hitting-set walk takes most of the time, prints its result and the first
iteration at each lower bound from 9 up, and exits 1 when either differs
from `WALK_PIN` or `WALK_FIRST_ITERATIONS`; `tests/test_solver.py` checks
these pins too. Last it times `find_alternate` on the 16x16 shift grid with
no clue, the largest unit table, where propagation skips the most unit
scans.
"""
from __future__ import annotations

import hashlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional

from conftest import FIG_GRID_TEXT
from minclue import (
    CluePattern,
    Grid,
    GridSize,
    MscpConfig,
    MscpResult,
    SearchBudget,
    SearchStats,
    find_alternate,
    parse_grid,
    solve_mscp,
)
from minclue import solver
from test_grid import TestBigBoards

CONFIG = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=200_000))

# status, lower, upper, iterations, nodes, and the digest of the cuts in order
PIN = ("bounds_only", 10, 24, 53, 200_001, "9cf44f5966557524")

# the same solve under a 1,000,000-node budget, its pinned fields as `PIN`
# and the first iteration at each lower bound from 9 up
WALK_CONFIG = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=1_000_000))
WALK_PIN = ("bounds_only", 12, 24, 83, 1_000_001, "24c0489d509ba8d1")
WALK_FIRST_ITERATIONS = {9: 36, 10: 45, 11: 56, 12: 72}


class Query(NamedTuple):
    """One query of the loop: who asked, the revealed indices, the diff
    returned (None when no alternate exists or the search was interrupted)
    and whether the oracle was searched rather than the earlier answers."""

    caller: str
    revealed: frozenset
    answer: Optional[frozenset]
    searched: bool


# the loop's query function, a closure of `_ihs_loop`, and its callers named
# by the code that calls it
FIND_DIFF = next(
    code
    for code in solver._ihs_loop.__code__.co_consts
    if getattr(code, "co_name", None) == "find_diff"
)
CALLERS = {
    "<lambda>": "`_shrink` trials",
    "repair": "`repair` steps",
    "_ihs_loop": "candidate checks",
}


@contextmanager
def recorded_queries(events: list):
    """Append a `Query` to `events` for every query the loop makes while
    active. It watches calls through a profile hook, so it slows the
    solve: time nothing inside it."""
    open_queries: list[list] = []
    search = solver._alternate_diff.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is FIND_DIFF:
            caller = CALLERS[frame.f_back.f_code.co_name]
            open_queries.append([caller, frame.f_locals["revealed"], False])
        elif event == "call" and frame.f_code is search and open_queries:
            open_queries[-1][2] = True
        elif event == "return" and frame.f_code is FIND_DIFF:
            caller, revealed, searched = open_queries.pop()
            events.append(Query(caller, revealed, arg, searched))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield events
    finally:
        sys.setprofile(previous)


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


def first_iterations(result: MscpResult, lowest: int = 9) -> dict[int, int]:
    """The first iteration of the trace at each lower bound from `lowest` up."""
    first: dict[int, int] = {}
    for entry in result.trace:
        if entry.lower >= lowest:
            first.setdefault(entry.lower, entry.iteration)
    return first


def shift16_alternate(repeats: int = 5) -> tuple[int, float]:
    """Nodes and median seconds of `find_alternate` on the 16x16 shift grid
    with no clue."""
    size = GridSize.of_side(16)
    grid = Grid(size, TestBigBoards.shift_grid(16))
    pattern = CluePattern.no_cells(size)
    stats = SearchStats()
    seconds = []
    for _ in range(repeats):
        started = perf_counter()
        find_alternate(grid, pattern, stats=stats)
        seconds.append(perf_counter() - started)
    return stats.nodes, sorted(seconds)[repeats // 2]


def main() -> int:
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    # calls, nodes and seconds, inside `_shrink` (True) and outside it
    spent = {True: [0, 0, 0.0], False: [0, 0, 0.0]}
    diffs = diff_cells = 0
    in_shrink = False
    table_alternate, shrink = solver._table_alternate, solver._shrink

    def timed_table(geo, target):
        alternate = table_alternate(geo, target)

        def timed(revealed, budget, stats):
            nonlocal diffs, diff_cells
            started = perf_counter()
            try:
                alt = alternate(revealed, budget, stats)
            finally:
                part = spent[in_shrink]
                part[0] += 1
                part[1] += stats.nodes
                part[2] += perf_counter() - started
            if alt is not None:
                diffs += 1
                diff_cells += sum(a != b for a, b in zip(alt, target))
            return alt

        return timed

    def marked_shrink(diff, alternate_diff):
        nonlocal in_shrink
        in_shrink = True
        try:
            return shrink(diff, alternate_diff)
        finally:
            in_shrink = False

    solver._table_alternate, solver._shrink = timed_table, marked_shrink
    try:
        result = solve_mscp(grid, CONFIG)
    finally:
        solver._table_alternate, solver._shrink = table_alternate, shrink
    got = outcome(result)
    calls, nodes, seconds = (a + b for a, b in zip(spent[True], spent[False]))
    print(f"- figure grid, 200,000-node solve: {got}" + ("" if got == PIN else f", pinned {PIN}"))
    print(
        f"- oracle: {calls} calls in {seconds:.3f} s, "
        f"{calls / seconds:.0f} calls/s, {nodes / seconds:.0f} nodes/s, "
        f"{diff_cells / diffs:.1f} cells per diff, "
        f"{calls / result.iterations:.1f} calls per iteration"
    )
    for inside, where in ((True, "inside"), (False, "outside")):
        part_calls, part_nodes, part_seconds = spent[inside]
        print(
            f"- oracle {where} `_shrink`: {part_calls} calls, {part_nodes} nodes, "
            f"{part_seconds:.3f} s"
        )
    queries: list[Query] = []
    with recorded_queries(queries):
        solve_mscp(grid, CONFIG)
    counts = Counter((q.caller, q.searched) for q in queries)
    for caller in CALLERS.values():
        print(
            f"- {caller}: {counts[caller, False]} answered from earlier alternates, "
            f"{counts[caller, True]} searched"
        )
    started = perf_counter()
    walk_result = solve_mscp(grid, WALK_CONFIG)
    walk_seconds = perf_counter() - started
    walk_got = (outcome(walk_result), first_iterations(walk_result))
    walk_pin = (WALK_PIN, WALK_FIRST_ITERATIONS)
    print(
        f"- figure grid, 1,000,000-node solve: {walk_got[0]} in {walk_seconds:.2f} s, "
        f"first iteration at each lower bound {walk_got[1]}"
        + ("" if walk_got == walk_pin else f", pinned {walk_pin}")
    )
    shift_nodes, shift_seconds = shift16_alternate()
    print(
        f"- 16x16 shift grid, `find_alternate` with no clue: {shift_nodes} nodes "
        f"in {shift_seconds * 1e3:.1f} ms, {shift_nodes / shift_seconds:.0f} nodes/s"
    )
    return 0 if got == PIN and walk_got == walk_pin else 1


if __name__ == "__main__":
    sys.exit(main())
