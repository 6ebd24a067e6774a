"""The seeded 4x4 sweep, pinned: every 4x4 grid solved under `MscpConfig()`.

Run from the root of a checkout:

    PYTHONPATH=src python tests/seeded_sweep.py

It solves all 288 completed 4x4 grids with the default configuration, so
each solve seeds its cut family from the unavoidable-set generator, and
counts the loop's `HittingWalk.next` rounds. It prints the summed
iterations, hitting-set rounds and search nodes, the digest of every
result and the seconds the sweep took, as a Markdown list, and exits 1
when the outcome differs from `PIN`. The solves are deterministic, so a
change to seeding or to the loop that moves one candidate, one cut or one
node count shows here; `tests/test_solver.py` checks the same pin.
"""
from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from time import perf_counter

import oracle
from minclue import Grid, GridSize, HittingWalk, MscpConfig, MscpResult, solve_mscp

# iterations, hitting-set rounds, search nodes, and the digest of every result
PIN = (288, 1_178, 482_157, "a812026dc4788cac")


@contextmanager
def counted_rounds(families: list):
    """Append the walk's family, as a tuple of member bitmasks, at every
    `HittingWalk.next` round the loop runs while active."""
    walk_next = HittingWalk.next

    def counted(walk, *args, **kwargs):
        families.append(tuple(walk.family))
        return walk_next(walk, *args, **kwargs)

    HittingWalk.next = counted
    try:
        yield families
    finally:
        HittingWalk.next = walk_next


def outcome(result: MscpResult) -> tuple:
    """Status, bounds, iterations, nodes, pattern cells and certificate
    cuts of one result, cells as row-major indices."""
    index = result.best_pattern.size.index
    return (
        result.status.value,
        result.lower_bound,
        result.upper_bound,
        result.iterations,
        result.nodes,
        [index(c) for c in result.best_pattern.cells()],
        [[index(c) for c in s] for s in result.certificate.sets],
    )


def sweep() -> tuple[int, int, int, str]:
    size = GridSize.of_side(4)
    families: list = []
    results = []
    with counted_rounds(families):
        for board in oracle.grids4():
            results.append(solve_mscp(Grid(size, board), MscpConfig()))
    for result in results:
        assert result.optimum == 4
    digest = hashlib.sha256(repr([outcome(r) for r in results]).encode()).hexdigest()
    return (
        sum(r.iterations for r in results),
        len(families),
        sum(r.nodes for r in results),
        digest[:16],
    )


def main() -> int:
    started = perf_counter()
    got = sweep()
    seconds = perf_counter() - started
    iterations, rounds, nodes, digest = got
    print(
        f"- 288 4x4 grids under `MscpConfig()`: {iterations} iterations, "
        f"{rounds} hitting-set rounds, {nodes} nodes, digest {digest}"
        + ("" if got == PIN else f", pinned {PIN}")
    )
    print(f"- sweep time: {seconds:.2f} s")
    return 0 if got == PIN else 1


if __name__ == "__main__":
    sys.exit(main())
