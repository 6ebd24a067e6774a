"""Backtracking search over boards with bitmask candidate propagation.

One private mutable state per call; every public function is reentrant and
deterministic: most-constrained cell first, ties by (row, col), digits tried
in ascending order. Budgets are enforced as exact node counts (optionally
wall-clock time) and surface as SearchInterrupted, never as a wrong answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from time import perf_counter
from typing import Iterator, Optional, Sequence

from .grid import Cell, CluePattern, Grid, GridError, Puzzle, apply_pattern

__all__ = [
    "SearchBudget",
    "SearchStats",
    "SearchInterrupted",
    "DeviationConstraint",
    "count_solutions",
    "solve_puzzle",
    "iter_solutions",
    "find_alternate",
    "latin_alternate",
    "find_deviating_grid",
]


@dataclass(frozen=True)
class SearchBudget:
    """Optional node and wall-clock limits for one search call."""

    max_nodes: Optional[int] = None
    max_time: Optional[float] = None


@dataclass
class SearchStats:
    """Filled in by a search call when passed as the `stats` argument."""

    nodes: int = 0
    elapsed: float = 0.0


class SearchInterrupted(Exception):
    """Budget exhausted before the search reached a definite answer."""

    def __init__(self, reason: str, nodes: int):
        super().__init__(f"search interrupted ({reason}) after {nodes} nodes")
        self.reason = reason
        self.nodes = nodes


class _Ticker:
    """Node counter with budget enforcement; time checked every 1024 nodes."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (
            perf_counter() + budget.max_time
            if budget and budget.max_time is not None
            else None
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise SearchInterrupted("nodes", self.nodes)
        if self.deadline is not None and (self.nodes & 1023) == 0:
            if perf_counter() > self.deadline:
                raise SearchInterrupted("time", self.nodes)


class _Geometry:
    """Index tables for side n and box side s, cached by (n, s).

    s = 0 means no boxes (Latin squares): the box family repeats the rows,
    so it adds no constraint.
    """

    __slots__ = (
        "n",
        "s",
        "cells",
        "full",
        "row_of",
        "col_of",
        "box_of",
        "row_cells",
        "col_cells",
        "box_cells",
    )

    _cache: dict[tuple[int, int], "_Geometry"] = {}

    def __init__(self, n: int, s: int):
        self.n = n
        self.s = s
        self.cells = n * n
        self.full = (1 << n) - 1
        self.row_of = [i // n for i in range(self.cells)]
        self.col_of = [i % n for i in range(self.cells)]
        self.box_of = [
            (self.row_of[i] // s) * s + self.col_of[i] // s if s else self.row_of[i]
            for i in range(self.cells)
        ]
        self.row_cells = [[] for _ in range(n)]
        self.col_cells = [[] for _ in range(n)]
        self.box_cells = [[] for _ in range(n)]
        for i in range(self.cells):
            self.row_cells[self.row_of[i]].append(i)
            self.col_cells[self.col_of[i]].append(i)
            self.box_cells[self.box_of[i]].append(i)

    @classmethod
    def get(cls, n: int, s: int) -> "_Geometry":
        geo = cls._cache.get((n, s))
        if geo is None:
            geo = cls(n, s)
            cls._cache[(n, s)] = geo
        return geo


class _State:
    """Unit bitmasks plus the current assignment, for one search."""

    __slots__ = ("geo", "values", "rows", "cols", "boxes", "empties")

    def __init__(self, geo: _Geometry, entries: Sequence[int]):
        n = geo.n
        self.geo = geo
        self.values = list(entries)
        self.rows = [0] * n
        self.cols = [0] * n
        self.boxes = [0] * n
        self.empties = []
        for i, v in enumerate(entries):
            if v:
                bit = 1 << (v - 1)
                self.rows[geo.row_of[i]] |= bit
                self.cols[geo.col_of[i]] |= bit
                self.boxes[geo.box_of[i]] |= bit
            else:
                self.empties.append(i)


def _search_completions(state: _State, ticker: _Ticker, need: int, skip, out) -> int:
    """Depth-first enumeration core shared by all completion searches.

    Forced placements (a cell with one candidate, a digit with one home in a
    unit) are applied before branching on the most-constrained cell. Counts
    completions until `need` are found; a completion equal to `skip` (an
    entries tuple or None) is not counted. The entry tuple of the last found
    completion is appended to `out` when `out` is non-None.
    """
    geo = state.geo
    values = state.values
    rows, cols, boxes = state.rows, state.cols, state.boxes
    row_of, col_of, box_of = geo.row_of, geo.col_of, geo.box_of
    full = geo.full
    tick = ticker.tick
    trail: list[tuple[int, int]] = []

    def undo() -> None:
        for i, bit in trail:
            values[i] = 0
            rows[row_of[i]] ^= bit
            cols[col_of[i]] ^= bit
            boxes[box_of[i]] ^= bit

    def place(i: int, bit: int) -> None:
        tick()
        values[i] = bit.bit_length()
        rows[row_of[i]] |= bit
        cols[col_of[i]] |= bit
        boxes[box_of[i]] |= bit
        trail.append((i, bit))

    def scan_unit(cells_u: list, used: int) -> int:
        """-1 contradiction, 0 no change, 1 placed a lone-home digit."""
        needed = full & ~used
        if not needed:
            return 0
        acc1 = 0
        acc2 = 0
        for i in cells_u:
            if not values[i]:
                cand = ~(rows[row_of[i]] | cols[col_of[i]] | boxes[box_of[i]]) & full
                acc2 |= acc1 & cand
                acc1 |= cand
        if needed & ~acc1:
            return -1
        singles = needed & acc1 & ~acc2
        changed = 0
        while singles:
            bit = singles & -singles
            singles ^= bit
            for i in cells_u:
                if not values[i] and (
                    ~(rows[row_of[i]] | cols[col_of[i]] | boxes[box_of[i]]) & full & bit
                ):
                    place(i, bit)
                    changed = 1
                    break
            else:
                return -1
        return changed

    while True:
        assigned = False
        for i in state.empties:
            if values[i]:
                continue
            cand = ~(rows[row_of[i]] | cols[col_of[i]] | boxes[box_of[i]]) & full
            if cand == 0:
                undo()
                return 0
            if not cand & (cand - 1):
                place(i, cand)
                assigned = True
        for u in range(geo.n):
            for cells_u, masks in (
                (geo.row_cells[u], rows),
                (geo.col_cells[u], cols),
                (geo.box_cells[u], boxes),
            ):
                got = scan_unit(cells_u, masks[u])
                if got < 0:
                    undo()
                    return 0
                if got:
                    assigned = True
        if not assigned:
            break

    best = -1
    best_cand = 0
    best_count = geo.n + 1
    for i in state.empties:
        if values[i]:
            continue
        cand = ~(rows[row_of[i]] | cols[col_of[i]] | boxes[box_of[i]]) & full
        count = cand.bit_count()
        if count < best_count:
            best, best_cand, best_count = i, cand, count
            if count == 2:
                break
    if best == -1:
        done = tuple(values)
        undo()
        if skip is not None and done == skip:
            return 0
        if out is not None:
            out.append(done)
        return 1
    r, c, b = row_of[best], col_of[best], box_of[best]
    found = 0
    cand = best_cand
    while cand:
        bit = cand & -cand
        cand ^= bit
        tick()
        values[best] = bit.bit_length()
        rows[r] |= bit
        cols[c] |= bit
        boxes[b] |= bit
        found += _search_completions(state, ticker, need - found, skip, out)
        values[best] = 0
        rows[r] ^= bit
        cols[c] ^= bit
        boxes[b] ^= bit
        if found >= need:
            break
    undo()
    return found


def _finish(stats: Optional[SearchStats], ticker: _Ticker, t0: float) -> None:
    if stats is not None:
        stats.nodes = ticker.nodes
        stats.elapsed = perf_counter() - t0


def count_solutions(
    puzzle: Puzzle,
    limit: int,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> int:
    """Exact number of completions if below `limit`, else `limit`."""
    if limit < 1:
        raise ValueError("limit must be positive")
    t0 = perf_counter()
    ticker = _Ticker(budget)
    state = _State(_Geometry.get(puzzle.size.n, puzzle.size.s), puzzle.entries)
    try:
        return _search_completions(state, ticker, limit, None, None)
    finally:
        _finish(stats, ticker, t0)


def iter_solutions(
    puzzle: Puzzle,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Iterator[Grid]:
    """Lazily enumerate every completion of the puzzle as Grid objects."""

    def generate(state: _State, ticker: _Ticker) -> Iterator[tuple[int, ...]]:
        geo = state.geo
        values = state.values
        rows, cols, boxes = state.rows, state.cols, state.boxes
        best = -1
        best_cand = 0
        best_count = geo.n + 1
        for i in state.empties:
            if values[i]:
                continue
            cand = ~(rows[geo.row_of[i]] | cols[geo.col_of[i]] | boxes[geo.box_of[i]]) & geo.full
            if cand == 0:
                return
            count = cand.bit_count()
            if count < best_count:
                best, best_cand, best_count = i, cand, count
                if count == 1:
                    break
        if best == -1:
            yield tuple(values)
            return
        r, c, b = geo.row_of[best], geo.col_of[best], geo.box_of[best]
        cand = best_cand
        while cand:
            bit = cand & -cand
            cand ^= bit
            ticker.tick()
            values[best] = bit.bit_length()
            rows[r] |= bit
            cols[c] |= bit
            boxes[b] |= bit
            yield from generate(state, ticker)
            values[best] = 0
            rows[r] ^= bit
            cols[c] ^= bit
            boxes[b] ^= bit

    t0 = perf_counter()
    ticker = _Ticker(budget)
    state = _State(_Geometry.get(puzzle.size.n, puzzle.size.s), puzzle.entries)
    try:
        for values in generate(state, ticker):
            yield Grid(puzzle.size, values)
    finally:
        _finish(stats, ticker, t0)


def solve_puzzle(
    puzzle: Puzzle,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """First completion in search order, or None when unsatisfiable."""
    t0 = perf_counter()
    ticker = _Ticker(budget)
    state = _State(_Geometry.get(puzzle.size.n, puzzle.size.s), puzzle.entries)
    out: list[tuple[int, ...]] = []
    try:
        found = _search_completions(state, ticker, 1, None, out)
    finally:
        _finish(stats, ticker, t0)
    return Grid(puzzle.size, out[0]) if found else None


def find_alternate(
    grid: Grid,
    pattern: CluePattern,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """A completion of apply_pattern(grid, pattern) that differs from grid.

    None means the pattern induces a puzzle whose unique solution is `grid`.
    """
    puzzle = apply_pattern(grid, pattern)
    t0 = perf_counter()
    ticker = _Ticker(budget)
    state = _State(_Geometry.get(puzzle.size.n, puzzle.size.s), puzzle.entries)
    out: list[tuple[int, ...]] = []
    try:
        found = _search_completions(state, ticker, 1, grid.entries, out)
    finally:
        _finish(stats, ticker, t0)
    return Grid(grid.size, out[0]) if found else None


def latin_alternate(
    target: Sequence[int], revealed: frozenset
) -> Optional[tuple[int, ...]]:
    """A Latin square other than `target` (row major, symbols 1..n) that
    agrees with it on every revealed index, or None when there is none."""
    n = isqrt(len(target))
    entries = [v if i in revealed else 0 for i, v in enumerate(target)]
    state = _State(_Geometry.get(n, 0), entries)
    out: list[tuple[int, ...]] = []
    found = _search_completions(state, _Ticker(None), 1, tuple(target), out)
    return out[0] if found else None


@dataclass(frozen=True)
class DeviationConstraint:
    """Ask for a grid differing from `target` in exactly `exact_deviations`
    cells, keeping at least one cell of every nogood at its target value."""

    target: Grid
    exact_deviations: int
    nogoods: tuple[frozenset[Cell], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.exact_deviations < 1:
            raise GridError("exact_deviations must be at least 1")
        normalized = tuple(frozenset(group) for group in self.nogoods)
        for group in normalized:
            for cell in group:
                self.target.size.check_cell(cell)
        object.__setattr__(self, "nogoods", normalized)


class _DeviationSearch:
    """Depth-first search for a grid at exact deviation distance.

    Pruning: a digit whose target cell was overwritten must reappear in the
    same row/column/box at some other (necessarily deviating) cell, so the
    deviation count so far plus the per-unit-family displaced-digit total is
    a lower bound on the final distance; branches where the exact target
    becomes unreachable or exceeded are cut. Each nogood tracks how many of
    its cells already match the target, so fixing the last cell of a nogood
    to a non-target value fails immediately.
    """

    def __init__(self, constraint: DeviationConstraint, ticker: _Ticker):
        grid = constraint.target
        geo = _Geometry.get(grid.size.n, grid.size.s)
        n = geo.n
        self.geo = geo
        self.m = constraint.exact_deviations
        self.ticker = ticker
        self.target = list(grid.entries)
        self.state = _State(geo, [0] * geo.cells)
        self.deviations = 0
        # digit placement of the target grid inside each unit
        self.row_pos = [[0] * (n + 1) for _ in range(n)]
        self.col_pos = [[0] * (n + 1) for _ in range(n)]
        self.box_pos = [[0] * (n + 1) for _ in range(n)]
        for i, v in enumerate(self.target):
            self.row_pos[geo.row_of[i]][v] = i
            self.col_pos[geo.col_of[i]][v] = i
            self.box_pos[geo.box_of[i]][v] = i
        # displaced-but-unplaced digit counts per unit, plus family totals
        self.row_disp = [0] * n
        self.col_disp = [0] * n
        self.box_disp = [0] * n
        self.row_total = 0
        self.col_total = 0
        self.box_total = 0
        # nogood bookkeeping
        self.nogood_cells: list[list[int]] = [[] for _ in range(geo.cells)]
        self.matched: list[int] = []
        self.open_cells: list[int] = []
        for k, group in enumerate(constraint.nogoods):
            self.matched.append(0)
            self.open_cells.append(len(group))
            for cell in group:
                idx = (cell.row - 1) * n + (cell.col - 1)
                self.nogood_cells[idx].append(k)

    def _assign(self, idx: int, value: int) -> tuple[int, int, int, bool]:
        """Place a digit; returns undo info (unit displacement deltas, ok)."""
        geo = self.geo
        state = self.state
        r, c, b = geo.row_of[idx], geo.col_of[idx], geo.box_of[idx]
        bit = 1 << (value - 1)
        state.values[idx] = value
        state.rows[r] |= bit
        state.cols[c] |= bit
        state.boxes[b] |= bit
        gv = self.target[idx]
        dr = dc = db = 0
        if value != gv:
            self.deviations += 1
            gbit = 1 << (gv - 1)
            if not state.rows[r] & gbit:
                dr += 1
            if not state.cols[c] & gbit:
                dc += 1
            if not state.boxes[b] & gbit:
                db += 1
            p = self.row_pos[r][value]
            if state.values[p] not in (0, value):
                dr -= 1
            p = self.col_pos[c][value]
            if state.values[p] not in (0, value):
                dc -= 1
            p = self.box_pos[b][value]
            if state.values[p] not in (0, value):
                db -= 1
        self.row_disp[r] += dr
        self.col_disp[c] += dc
        self.box_disp[b] += db
        self.row_total += dr
        self.col_total += dc
        self.box_total += db
        ok = True
        for k in self.nogood_cells[idx]:
            self.open_cells[k] -= 1
            if value == gv:
                self.matched[k] += 1
            elif self.matched[k] == 0 and self.open_cells[k] == 0:
                ok = False
        return dr, dc, db, ok

    def _unassign(self, idx: int, value: int, undo: tuple[int, int, int, bool]) -> None:
        geo = self.geo
        state = self.state
        r, c, b = geo.row_of[idx], geo.col_of[idx], geo.box_of[idx]
        bit = 1 << (value - 1)
        state.values[idx] = 0
        state.rows[r] ^= bit
        state.cols[c] ^= bit
        state.boxes[b] ^= bit
        gv = self.target[idx]
        if value != gv:
            self.deviations -= 1
        dr, dc, db, _ = undo
        self.row_disp[r] -= dr
        self.col_disp[c] -= dc
        self.box_disp[b] -= db
        self.row_total -= dr
        self.col_total -= dc
        self.box_total -= db
        for k in self.nogood_cells[idx]:
            self.open_cells[k] += 1
            if value == gv:
                self.matched[k] -= 1

    def run(self) -> Optional[tuple[int, ...]]:
        return self._search()

    def _search(self) -> Optional[tuple[int, ...]]:
        m = self.m
        if self.deviations == m:
            return self._force_to_target()
        geo = self.geo
        state = self.state
        values = state.values
        rows, cols, boxes = state.rows, state.cols, state.boxes
        best = -1
        best_cand = 0
        best_count = geo.n + 1
        deviatable = 0
        for i in state.empties:
            if values[i]:
                continue
            cand = ~(rows[geo.row_of[i]] | cols[geo.col_of[i]] | boxes[geo.box_of[i]]) & geo.full
            if cand == 0:
                return None
            if cand & ~(1 << (self.target[i] - 1)):
                deviatable += 1
            count = cand.bit_count()
            if count < best_count:
                best, best_cand, best_count = i, cand, count
        if self.deviations + deviatable < m:
            return None
        if best == -1:
            # complete assignment with fewer than m deviations
            return None
        gv = self.target[best]
        cand = best_cand
        while cand:
            bit = cand & -cand
            cand ^= bit
            value = bit.bit_length()
            self.ticker.tick()
            undo = self._assign(best, value)
            ok = undo[3]
            if ok and self.deviations + max(
                self.row_total, self.col_total, self.box_total
            ) <= m:
                found = self._search()
                if found is not None:
                    return found
            self._unassign(best, value, undo)
        return None

    def _force_to_target(self) -> Optional[tuple[int, ...]]:
        """Assign every remaining cell its target digit, or fail."""
        state = self.state
        geo = self.geo
        trail: list[tuple[int, int, tuple[int, int, int, bool]]] = []
        solution: Optional[tuple[int, ...]] = None
        ok = True
        for idx in state.empties:
            if state.values[idx]:
                continue
            value = self.target[idx]
            bit = 1 << (value - 1)
            r, c, b = geo.row_of[idx], geo.col_of[idx], geo.box_of[idx]
            if (state.rows[r] | state.cols[c] | state.boxes[b]) & bit:
                ok = False
                break
            self.ticker.tick()
            undo = self._assign(idx, value)
            trail.append((idx, value, undo))
            if not undo[3]:
                ok = False
                break
        if ok:
            solution = tuple(state.values)
        for idx, value, undo in reversed(trail):
            self._unassign(idx, value, undo)
        return solution


def find_deviating_grid(
    constraint: DeviationConstraint,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """A grid at exact deviation distance from the target honouring all
    nogoods, or None when no such grid exists."""
    t0 = perf_counter()
    ticker = _Ticker(budget)
    search = _DeviationSearch(constraint, ticker)
    try:
        values = search.run()
    finally:
        _finish(stats, ticker, t0)
    if values is None:
        return None
    return Grid(constraint.target.size, values)
