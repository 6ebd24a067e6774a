"""Reference completion search: the rescanning form of `engine._completions`.

At every propagation round it runs the naked-single pass over every open
cell and scans every unit, recomputing each open cell's candidates from
the three slot masks of its row, column and box. The library keeps a
candidate table that each placement updates at the placed cell's peers,
and skips the pass and the unit scans that no placement has touched since
they last ran: such a scan would place nothing and find no contradiction,
so it is only the skipped work that differs. Propagation order, tick
placement, the branch cell and the digit order (ascending, or the target's
digit first when a target is given) are the same, so both must yield the
same completions in the same order with the same node counts, and stop a
budget at the same node.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from minclue import SearchBudget, SearchStats
from minclue.engine import _State, _Ticker
from minclue.grid import _Geometry


def _completions(
    state: _State, ticker: _Ticker, target: Optional[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration: forced placements (a cell with one
    candidate, a digit with one home in a unit) before branching on the
    most-constrained cell, trying its target digit first when that is a
    candidate and then the others ascending; yields each completion's
    entries in search order."""
    geo = state.geo
    values = state.values
    used = state.used
    slots, members, full = geo.slots, geo.members, geo.full
    tick = ticker.tick
    trail: list[tuple[int, int]] = []

    def undo() -> None:
        for i, bit in trail:
            values[i] = 0
            for slot in slots[i]:
                used[slot] ^= bit

    def place(i: int, bit: int) -> None:
        tick()
        values[i] = bit.bit_length()
        for slot in slots[i]:
            used[slot] |= bit
        trail.append((i, bit))

    def scan_unit(cells_u: list, unit_used: int) -> int:
        """-1 contradiction, 0 no change, 1 placed a lone-home digit."""
        needed = full & ~unit_used
        if not needed:
            return 0
        acc1 = 0
        acc2 = 0
        for i in cells_u:
            if not values[i]:
                r, c, b = slots[i]
                cand = ~(used[r] | used[c] | used[b]) & full
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
                if not values[i]:
                    r, c, b = slots[i]
                    if ~(used[r] | used[c] | used[b]) & bit:
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
            r, c, b = slots[i]
            cand = ~(used[r] | used[c] | used[b]) & full
            if cand == 0:
                undo()
                return
            if not cand & (cand - 1):
                place(i, cand)
                assigned = True
        for slot in geo.units:
            got = scan_unit(members[slot], used[slot])
            if got < 0:
                undo()
                return
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
        r, c, b = slots[i]
        cand = ~(used[r] | used[c] | used[b]) & full
        count = cand.bit_count()
        if count < best_count:
            best, best_cand, best_count = i, cand, count
            if count == 2:
                break
    if best == -1:
        yield tuple(values)
        undo()
        return
    bits = [1 << d for d in range(geo.n) if best_cand >> d & 1]
    lead = None if target is None else 1 << (target[best] - 1)
    if lead in bits:
        bits.remove(lead)
        bits.insert(0, lead)
    for bit in bits:
        tick()
        values[best] = bit.bit_length()
        for slot in slots[best]:
            used[slot] |= bit
        yield from _completions(state, ticker, target)
        values[best] = 0
        for slot in slots[best]:
            used[slot] ^= bit
    undo()


def reference_solutions(
    geo: _Geometry,
    entries: Sequence[int],
    budget: Optional[SearchBudget],
    stats: Optional[SearchStats],
    target: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """`engine._completions` on the rescanning search."""
    ticker = _Ticker(budget)
    try:
        yield from _completions(_State(geo, entries), ticker, target)
    finally:
        ticker.record(stats)
