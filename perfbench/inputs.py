"""Seeded benchmark inputs, built without importing minclue.

The 4x4 sweeps take the 288 completed grids in row-major backtracking order
at seed 0. Any other seed draws one validity-preserving isomorph (digit
relabelling, row and column swaps within bands and stacks, band and stack
swaps, an optional transpose) and applies it to every grid. The 9x9
workloads use the figure grid as printed at every seed. The solver only
ever sees the resulting grid text.
"""
from __future__ import annotations

import random

# the running 9x9 example; its fewest-clue count is 17
FIGURE_GRID = (
    "793645281158792436642183795537418629961327548284956173375864912416239857829571364"
)


def grids4() -> list[tuple[int, ...]]:
    """All 288 completed 4x4 grids, row major, digits tried in ascending order."""
    n, s = 4, 2
    board = [0] * 16
    out: list[tuple[int, ...]] = []

    def fits(i: int, d: int) -> bool:
        r, c = divmod(i, n)
        br, bc = r - r % s, c - c % s
        return (
            all(board[r * n + k] != d for k in range(n))
            and all(board[k * n + c] != d for k in range(n))
            and all(
                board[rr * n + cc] != d
                for rr in range(br, br + s)
                for cc in range(bc, bc + s)
            )
        )

    def rec(i: int) -> None:
        if i == 16:
            out.append(tuple(board))
            return
        for d in range(1, n + 1):
            if fits(i, d):
                board[i] = d
                rec(i + 1)
                board[i] = 0

    rec(0)
    return out


def shift_grid(n: int) -> list[int]:
    """The cyclic-shift completed grid of side n (used for the 16x16 smoke)."""
    s = int(n**0.5)
    return [(s * (r % s) + r // s + c) % n + 1 for r in range(n) for c in range(n)]


class Isomorph:
    """One symmetry of the n x n Sudoku grids, drawn from a seed."""

    def __init__(self, n: int, seed: int):
        s = int(round(n**0.5))
        self.n = n
        if seed == 0:
            self.digits = list(range(n + 1))
            self.rows = list(range(n))
            self.cols = list(range(n))
            self.transpose = False
            return
        rng = random.Random(seed)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        self.digits = [0] + labels
        self.rows = self._line_perm(rng, s)
        self.cols = self._line_perm(rng, s)
        self.transpose = rng.random() < 0.5

    @staticmethod
    def _line_perm(rng: random.Random, s: int) -> list[int]:
        bands = list(range(s))
        rng.shuffle(bands)
        out = []
        for band in bands:
            inner = list(range(s))
            rng.shuffle(inner)
            out.extend(band * s + k for k in inner)
        return out

    def apply(self, entries) -> tuple[int, ...]:
        n = self.n
        out = []
        for r in range(n):
            for c in range(n):
                rr, cc = (c, r) if self.transpose else (r, c)
                out.append(self.digits[entries[self.rows[rr] * n + self.cols[cc]]])
        return tuple(out)


def sweep4_texts(seed: int) -> list[str]:
    """The 288 4x4 grids under the seed's isomorph, as minclue's parsers read them."""
    iso = Isomorph(4, seed)
    return ["".join(map(str, iso.apply(g))) for g in grids4()]
