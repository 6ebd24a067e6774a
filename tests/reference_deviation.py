"""Reference deviation search: the rescanning form of `_DeviationSearch`.

At every node it rescans all open cells for their candidates, the
deviatable count, the forced cells and the branch cell, and each
off-target child rescans them for its forced cells and the target digits
of its deviating and forced cells, where the library keeps an incremental
candidate table, forced mask and per-digit tally. A forced cell is an open
cell whose candidates lack its target digit. Below an exhausted child it
finds each forced cell's options by scanning the units for target cells,
and it checks every nogood against the doomed cells, where the library
reads only the nogoods of the cells the child added. Branch order, tick
placement, pruning and tie-breaking are the same, so both must emit the
same grids in the same order with the same node counts.

The reference also keeps the per-family displaced-digit totals and the
target digits of the assigned cells per slot (`t_used`), which the library
does without, and asserts at every node the identity that makes them
redundant: each family's total is the number of open cells whose target
digit is already placed in their slot of that family, and in a completed
grid at distance m the placed digits of every slot are the target digits
of its assigned cells.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from minclue import (
    Cell,
    DeviationConstraint,
    GenerationLimits,
    Grid,
    SearchStats,
    UnavoidableSet,
)
from minclue.engine import _State, _Ticker
from minclue.grid import _Geometry


def diff_cells(g: Grid, g2: Grid) -> UnavoidableSet:
    """The cells where two different grids of one size differ."""
    n = g.size.n
    return UnavoidableSet(
        Cell(i // n + 1, i % n + 1)
        for i, (a, b) in enumerate(zip(g.entries, g2.entries))
        if a != b
    )


class RescanningSearch:
    """Grids at distance `constraint.exact_deviations`, nogoods added in
    place while paused at a yield; one object per distance."""

    def __init__(self, constraint: DeviationConstraint, ticker: _Ticker):
        grid = constraint.target
        geo = _Geometry.get(grid.size.n, grid.size.s)
        self.geo = geo
        self.m = constraint.exact_deviations
        self.ticker = ticker
        self.target = list(grid.entries)
        self.off_target = [geo.full & ~(1 << (v - 1)) for v in self.target]
        self.state = _State(geo, [0] * geo.cells)
        self.t_used = [0] * len(geo.members)
        self.pos = [[0] * (geo.n + 1) for _ in geo.members]
        for i, v in enumerate(self.target):
            for slot in geo.slots[i]:
                self.pos[slot][v] = i
        self.nogoods_of: list[list[int]] = [[] for _ in range(geo.cells)]
        for group in constraint.nogoods:
            self.add_nogood(group)

    def add_nogood(self, cells) -> None:
        n = self.geo.n
        indices = {(cell.row - 1) * n + (cell.col - 1) for cell in cells}
        mask = sum(1 << idx for idx in indices)
        for idx in indices:
            self.nogoods_of[idx].append(mask)

    def grids(self) -> Iterator[tuple[int, ...]]:
        return self._search(0, 0, 0, 0)

    def _forced(self) -> int:
        """The mask of open cells whose candidates lack the target digit."""
        state = self.state
        values, used = state.values, state.used
        slots = self.geo.slots
        forced = 0
        for i in state.empties:
            if not values[i]:
                r, c, b = slots[i]
                if (used[r] | used[c] | used[b]) >> (self.target[i] - 1) & 1:
                    forced |= 1 << i
        return forced

    def _forced_per_family(self) -> list[int]:
        """Per family (rows, columns, boxes), the open cells whose target
        digit is already placed in their slot of that family."""
        state = self.state
        values, used = state.values, state.used
        totals = [0, 0, 0]
        for i in state.empties:
            if not values[i]:
                for family, slot in enumerate(self.geo.slots[i]):
                    totals[family] += used[slot] >> (self.target[i] - 1) & 1
        return totals

    def _search(self, deviating, row_total, col_total, box_total):
        m = self.m
        deviations = deviating.bit_count()
        state = self.state
        values = state.values
        used = state.used
        assert self._forced_per_family() == [row_total, col_total, box_total]
        assert deviations < m
        geo = self.geo
        slots, full = geo.slots, geo.full
        off_target = self.off_target
        best = -1
        best_cand = 0
        best_count = geo.n + 1
        deviatable = 0
        for i in state.empties:
            if values[i]:
                continue
            r, c, b = slots[i]
            cand = ~(used[r] | used[c] | used[b]) & full
            if not cand:
                return
            if cand & off_target[i]:
                deviatable += 1
            count = cand.bit_count()
            if count < best_count:
                best, best_cand, best_count = i, cand, count
        if deviations + deviatable < m:
            return
        forced = self._forced()
        cell_slots = slots[best]
        r, c, b = cell_slots
        gv = self.target[best]
        gbit = 1 << (gv - 1)
        cell_bit = 1 << best
        pos, t_used = self.pos, self.t_used
        tick = self.ticker.tick
        for slot in cell_slots:
            t_used[slot] |= gbit
        cand = best_cand
        while cand:
            bit = cand & -cand
            cand ^= bit
            value = bit.bit_length()
            tick()
            values[best] = value
            for slot in cell_slots:
                used[slot] |= bit
            if value == gv:
                yield from self._search(deviating, row_total, col_total, box_total)
            else:
                dev = deviating | cell_bit
                child_forced = self._forced()
                newly = child_forced & ~forced
                # the placed cell's nogoods and those of the newly forced cells
                checked = [best] + [i for i in range(geo.cells) if newly >> i & 1]
                doomed = dev | child_forced
                dead = any(
                    mask & doomed == mask for i in checked for mask in self.nogoods_of[i]
                )
                dr = (not used[r] & gbit) - (values[pos[r][value]] != 0)
                dc = (not used[c] & gbit) - (values[pos[c][value]] != 0)
                db = (not used[b] & gbit) - (values[pos[b][value]] != 0)
                bound = max(
                    row_total + dr, col_total + dc, box_total + db, child_forced.bit_count()
                )
                # digits with exactly one target cell among the doomed cells
                digits = Counter(self.target[i] for i in range(geo.cells) if doomed >> i & 1)
                lone = sum(count == 1 for count in digits.values())
                size = deviations + 1 + bound
                if size + lone <= m:
                    if size == m:
                        if not self._dead(doomed):
                            yield from self._complete(doomed, child_forced)
                    elif not dead:
                        yield from self._search(
                            dev, row_total + dr, col_total + dc, box_total + db
                        )
            values[best] = 0
            for slot in cell_slots:
                used[slot] ^= bit
        for slot in cell_slots:
            t_used[slot] ^= gbit

    def _dead(self, doomed: int) -> bool:
        """Whether some nogood lies inside `doomed`."""
        return any(
            mask & doomed == mask for masks in self.nogoods_of for mask in masks
        )

    def _complete(self, doomed: int, forced: int) -> Iterator[tuple[int, ...]]:
        """The grids that differ from the target in exactly `doomed`: the
        `forced` cells, in index order, take digits ascending that their
        units lack and whose target cell in each of their units is doomed;
        every other open cell takes its target digit. Checks every option
        before the first tick, ticks once per placement, and stops once a
        nogood added while paused lies inside `doomed`."""
        geo = self.geo
        slots, members = geo.slots, geo.members
        state = self.state
        values, used = state.values, state.used
        cells = [i for i in range(geo.cells) if forced >> i & 1]
        options = []
        for f in cells:
            r, c, b = slots[f]
            free = ~(used[r] | used[c] | used[b]) & geo.full
            option = 0
            for w in range(1, geo.n + 1):
                homes = [
                    next(i for i in members[slot] if self.target[i] == w)
                    for slot in slots[f]
                ]
                if free >> (w - 1) & 1 and all(doomed >> i & 1 for i in homes):
                    option |= 1 << (w - 1)
            if not option:
                return
            options.append(option)
        tick = self.ticker.tick
        t_used = self.t_used

        def fill(k):
            if k == len(cells):
                # the open cells keep their target digits, so what each
                # slot holds are the target digits of its assigned cells
                assert used == t_used
                grid = tuple(v or t for v, t in zip(values, self.target))
                assert sum(v != t for v, t in zip(grid, self.target)) == self.m
                yield grid
                return
            f = cells[k]
            r, c, b = slots[f]
            for w in range(1, geo.n + 1):
                bit = 1 << (w - 1)
                if not options[k] & bit or (used[r] | used[c] | used[b]) & bit:
                    continue
                tick()
                values[f] = w
                tbit = 1 << (self.target[f] - 1)
                for slot in slots[f]:
                    used[slot] |= bit
                    t_used[slot] |= tbit
                try:
                    yield from fill(k + 1)
                finally:
                    values[f] = 0
                    for slot in slots[f]:
                        used[slot] ^= bit
                        t_used[slot] ^= tbit

        completions = fill(0)
        for grid in completions:
            yield grid
            if self._dead(doomed):
                break
        completions.close()


def reference_deviating_grid(
    constraint: DeviationConstraint, stats: Optional[SearchStats] = None
) -> Optional[Grid]:
    """`find_deviating_grid` on the rescanning search, without a budget."""
    ticker = _Ticker(None)
    values = next(RescanningSearch(constraint, ticker).grids(), None)
    ticker.record(stats)
    return None if values is None else Grid(constraint.target.size, values)


def reference_generate(
    g: Grid, limits: GenerationLimits, stats: Optional[SearchStats] = None
) -> tuple[list[tuple], bool]:
    """`generate_all` on the rescanning search, one search per distance
    from 4, the smallest at which two grids can differ: the emitted (set,
    discovered size) pairs in order, and completeness."""
    ticker = _Ticker(None)
    out: list[tuple] = []
    complete = True
    max_size = min(limits.max_size or g.size.cell_count, g.size.cell_count)
    for m in range(4, max_size + 1):
        excluded = tuple(cells.as_frozenset() for cells, _ in out)
        search = RescanningSearch(DeviationConstraint(g, m, excluded), ticker)
        for values in search.grids():
            cells = diff_cells(g, Grid(g.size, values))
            out.append((cells, m))
            search.add_nogood(cells)
            if len(out) >= limits.max_sets:
                complete = False
                break
        if not complete:
            break
    ticker.record(stats)
    return out, complete
