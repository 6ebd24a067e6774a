"""The figure grid's minimal unavoidable sets, pinned, and the generator's
throughput on them.

Run from the root of a checkout:

    PYTHONPATH=src python tests/generator_throughput.py

It runs `generate_all` on the 9x9 figure grid twice: up to its first K = 24
sets (sizes 4, 6 and 8), and to every set of size at most 10, the
size-capped seed of a 9x9 solve. For each run it prints the sets, the
search nodes, sets/s and nodes/s as a Markdown list, and for the first run
also the sets and nodes of each distance m. It exits 1 when the digest of
the sets or the node count of either run differs from its pin. The
generator is deterministic, so a change to the deviation search that
moves one set, its order or one node shows here;
`tests/test_unavoidable.py` checks the first pin against the rescanning
reference.
"""
from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from time import perf_counter

from conftest import FIG_GRID_TEXT
from minclue import (
    GenerationLimits,
    Grid,
    GridSize,
    SearchStats,
    UnavoidableCollection,
    generate_all,
    parse_grid,
)

LIMITS = GenerationLimits(max_sets=24)

# sets, search nodes, and the digest of the sets in order with `complete`
PIN = (24, 17_931, "511f0616d73070b2")

SIZE_CAPPED = GenerationLimits(max_sets=10**6, max_size=10)
SIZE_CAPPED_PIN = (110, 183_892, "d3ca2204b11a4e8f")


def digest(collections: list[UnavoidableCollection]) -> str:
    """sha256 over each collection's sets, as row-major cell indices in
    emission order, and its `complete` flag."""
    h = hashlib.sha256()
    for coll in collections:
        index = GridSize.of_side(coll.n).index
        sets = [[index(c) for c in s] for s in coll.sets]
        h.update(repr((sets, coll.complete)).encode())
    return h.hexdigest()


def per_distance(grid: Grid, limits: GenerationLimits, top: int) -> list[tuple[int, int, int]]:
    """(m, sets, nodes) for each distance m from 4 to `top`: the run capped
    at size m is the uncapped run up to the end of distance m, so its nodes
    less those of the cap m - 1 are the nodes spent at distance m."""
    rows, before = [], 0
    for m in range(4, top + 1):
        stats = SearchStats()
        capped = generate_all(grid, replace(limits, max_size=m), stats=stats)
        rows.append((m, sum(s.size == m for s in capped.sets), stats.nodes - before))
        before = stats.nodes
    return rows


def outcome(collection: UnavoidableCollection, stats: SearchStats) -> tuple:
    """The pinned fields of one run."""
    return len(collection), stats.nodes, digest([collection])[:16]


def main() -> int:
    grid = parse_grid(FIG_GRID_TEXT, GridSize.of_side(9))
    failed = False
    for label, limits, pin in (
        ("first 24 sets", LIMITS, PIN),
        ("every set of size at most 10", SIZE_CAPPED, SIZE_CAPPED_PIN),
    ):
        stats = SearchStats()
        started = perf_counter()
        collection = generate_all(grid, limits, stats=stats)
        seconds = perf_counter() - started
        got = outcome(collection, stats)
        failed |= got != pin
        print(f"- figure grid, {label}: {got}" + ("" if got == pin else f", pinned {pin}"))
        print(
            f"- generator: {len(collection)} sets and {stats.nodes} nodes in {seconds:.3f} s, "
            f"{len(collection) / seconds:.1f} sets/s, {stats.nodes / seconds:.0f} nodes/s"
        )
        if limits is LIMITS:
            top = max(s.size for s in collection.sets)
            for m, sets, nodes in per_distance(grid, limits, top):
                print(f"  - distance {m}: {sets} sets, {nodes} nodes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
