"""Bounds of the bare loop on eight isomorphs of the figure grid, pinned.

Run from the root of a checkout:

    PYTHONPATH=src python tests/isomorph_bounds.py

Isomorph 0 is the 9x9 figure grid itself; isomorph k > 0 relabels its
digits, swaps rows within bands and columns within stacks, swaps bands and
stacks and maybe transposes, all drawn from `random.Random(k)`. Every
isomorph has the figure grid's optimum 17, but the loop's search order
differs, so its bounds after a fixed budget differ too. Each is solved with
no seed cuts under a 300,000-node budget, which is deterministic.

It prints the lower and upper bound per isomorph and their sums as a
Markdown list and exits 1 when a bound differs from `PIN`. A change to the
search order may move single grids; the sums show whether the loop got
better or worse over the set.
"""
from __future__ import annotations

import random
import sys

from conftest import FIG_GRID_TEXT
from minclue import Grid, GridSize, MscpConfig, SearchBudget, solve_mscp

CONFIG = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=300_000))
SEEDS = range(8)

# (lower, upper) per isomorph, in seed order
PIN = ((11, 24), (10, 27), (10, 24), (11, 23), (11, 24), (10, 24), (11, 23), (10, 25))


def isomorph(entries: tuple[int, ...], seed: int) -> tuple[int, ...]:
    """The 9x9 grid `entries` under the symmetry drawn from `seed`; seed 0
    is the identity."""
    n, s = 9, 3
    if seed == 0:
        return tuple(entries)
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    digit = [0, *labels]

    def lines() -> list[int]:
        # bands in a random order, and the lines of each band in a random order
        bands = list(range(s))
        rng.shuffle(bands)
        order = []
        for band in bands:
            inner = list(range(s))
            rng.shuffle(inner)
            order.extend(band * s + k for k in inner)
        return order

    rows, cols = lines(), lines()
    transpose = rng.random() < 0.5
    out = []
    for r in range(n):
        for c in range(n):
            rr, cc = (c, r) if transpose else (r, c)
            out.append(digit[entries[rows[rr] * n + cols[cc]]])
    return tuple(out)


def bounds() -> tuple[tuple[int, int], ...]:
    size = GridSize.of_side(9)
    figure = tuple(int(ch) for ch in FIG_GRID_TEXT)
    out = []
    for seed in SEEDS:
        result = solve_mscp(Grid(size, isomorph(figure, seed)), CONFIG)
        assert result.lower_bound <= 17 <= result.upper_bound, seed
        out.append((result.lower_bound, result.upper_bound))
    return tuple(out)


def main() -> int:
    got = bounds()
    for seed, ((lower, upper), pinned) in enumerate(zip(got, PIN)):
        note = "" if (lower, upper) == pinned else f", pinned {pinned[0]}/{pinned[1]}"
        print(f"- isomorph {seed}: lower {lower}, upper {upper}{note}")
    lowers, uppers = sum(b[0] for b in got), sum(b[1] for b in got)
    print(
        f"- sums over {len(got)} isomorphs: lower {lowers}, upper {uppers} "
        f"(pinned {sum(b[0] for b in PIN)}, {sum(b[1] for b in PIN)})"
    )
    return 0 if got == PIN else 1


if __name__ == "__main__":
    sys.exit(main())
