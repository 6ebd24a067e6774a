"""The figure grid's first 24 minimal unavoidable sets, pinned, and the
generator's throughput on them.

Run from the root of a checkout:

    PYTHONPATH=src python tests/generator_throughput.py

It runs `generate_all` on the 9x9 figure grid up to its first K = 24 sets
(sizes 4, 6 and 8), prints the sets, the search nodes, sets/s and nodes/s
as a Markdown list, and exits 1 when the digest of the sets or the node
count differs from `PIN`. The generator is deterministic, so a change to
the deviation search that moves one set, its order or one node shows here;
`tests/test_unavoidable.py` checks the same pin against the rescanning
reference.
"""
from __future__ import annotations

import hashlib
import sys
from time import perf_counter

from conftest import FIG_GRID_TEXT
from minclue import (
    GenerationLimits,
    GridSize,
    SearchStats,
    UnavoidableCollection,
    generate_all,
    parse_grid,
)

LIMITS = GenerationLimits(max_sets=24)

# sets, search nodes, and the digest of the sets in order with `complete`
PIN = (24, 41_843, "511f0616d73070b2")


def digest(collections: list[UnavoidableCollection]) -> str:
    """sha256 over each collection's sets, as row-major cell indices in
    emission order, and its `complete` flag."""
    h = hashlib.sha256()
    for coll in collections:
        index = GridSize.of_side(coll.n).index
        sets = [[index(c) for c in s] for s in coll.sets]
        h.update(repr((sets, coll.complete)).encode())
    return h.hexdigest()


def outcome(collection: UnavoidableCollection, stats: SearchStats) -> tuple:
    """The pinned fields of one run."""
    return len(collection), stats.nodes, digest([collection])[:16]


def main() -> int:
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    stats = SearchStats()
    started = perf_counter()
    collection = generate_all(grid, LIMITS, stats=stats)
    seconds = perf_counter() - started
    got = outcome(collection, stats)
    print(f"- figure grid, first 24 sets: {got}" + ("" if got == PIN else f", pinned {PIN}"))
    print(
        f"- generator: {len(collection)} sets and {stats.nodes} nodes in {seconds:.3f} s, "
        f"{len(collection) / seconds:.1f} sets/s, {stats.nodes / seconds:.0f} nodes/s"
    )
    return 0 if got == PIN else 1


if __name__ == "__main__":
    sys.exit(main())
