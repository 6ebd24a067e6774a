"""Backtracking search over boards with bitmask candidate propagation.

One private mutable state per call; every public function is reentrant and
deterministic: most-constrained cell first, ties by (row, col), digits tried
in ascending order. Every completion query (count, solve, alternate,
enumeration) consumes the one propagating generator `_completions`, so they
all see completions in the same search order, except that an alternate
query tries the target's digit first: the target is then the first
completion of itself masked to its revealed cells, and an alternate the
second, near the target. `find_alternate` and the oracle of
`solver.solve_mscp` ask for it on a Sudoku table, and the finder of
`solver.latin_square_fcp_instance` on the box-free one, the oracles under
the IHS loop's budget share and reporting their nodes. Budgets are enforced
as exact node counts (optionally wall-clock time) and surface as
SearchInterrupted, never as a wrong answer.

Both searches read the unit table `grid._Geometry`: slot r is row r,
slot n + c column c and slot 2n + b box b. A cell's candidates are the
digits missing from its three slots. Both searches keep those candidates
in a table, one digit mask per cell, that a placement updates at the
placed cell's peers only, so no node recomputes them. The completion
search also keeps one list `used`, a digit mask per slot, so that
propagation can scan the slots in `units` for the digits each still
needs; it rescans only the units a placement changed, as a scan of an
unchanged unit finds what its last scan did. Latin squares use the
box-free table, whose box slots mirror the rows and are not scanned. The
deviation search keeps no slot masks: it looks up, through `pos`, whether
a digit's target cell is still open. Only its completion of an exhausted
subtree, a few forced cells, keeps two digit masks per slot.
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .grid import Cell, CluePattern, Grid, GridError, Puzzle, _Geometry, _masked_entries

__all__ = [
    "SearchBudget",
    "SearchStats",
    "SearchInterrupted",
    "DeviationConstraint",
    "count_solutions",
    "solve_puzzle",
    "iter_solutions",
    "find_alternate",
    "find_deviating_grid",
]


@dataclass(frozen=True)
class SearchBudget:
    """Optional node and wall-clock limits for one search call."""

    max_nodes: Optional[int] = None
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        nodes, seconds = self.max_nodes, self.max_time
        # `>= 0` is also False for NaN, which would otherwise mean no limit
        if not ((nodes is None or nodes >= 0) and (seconds is None or seconds >= 0)):
            raise ValueError("max_nodes and max_time must be at least 0")


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


T = TypeVar("T")


class _Ticker:
    """Node counter with budget enforcement; time checked every 1024 nodes.

    The clock starts when the ticker is made; `record` copies the nodes and
    the seconds since then into a SearchStats. A search ticks its own
    ticker; a solve keeps one ticker for the whole run and hands each of
    its searches a share of what is left through `spend`.
    """

    __slots__ = ("nodes", "max_nodes", "started", "deadline")

    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.started = perf_counter()
        self.deadline = (
            self.started + budget.max_time
            if budget and budget.max_time is not None
            else None
        )

    def record(self, stats: Optional[SearchStats]) -> None:
        if stats is not None:
            stats.nodes = self.nodes
            stats.elapsed = perf_counter() - self.started

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise SearchInterrupted("nodes", self.nodes)
        if self.deadline is not None and (self.nodes & 1023) == 0:
            if perf_counter() > self.deadline:
                raise SearchInterrupted("time", self.nodes)

    def spend(self, search: Callable[[SearchBudget, SearchStats], T], parts: int = 1) -> T:
        """`search(share, stats)` on one of `parts` equal shares of what is
        left, charged with the nodes it reports; raises SearchInterrupted,
        without searching, once the budget is used up."""
        left = None if self.deadline is None else self.deadline - perf_counter()
        if left is not None and left < 0:
            raise SearchInterrupted("time", self.nodes)
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            raise SearchInterrupted("nodes", self.nodes)
        share = SearchBudget(
            None if self.max_nodes is None else (self.max_nodes - self.nodes) // parts,
            None if left is None else left / parts,
        )
        stats = SearchStats()
        try:
            return search(share, stats)
        finally:
            self.nodes += stats.nodes


class _State:
    """Slot bitmasks, the candidate table and the current assignment, for
    one search. A new state is no propagation fixpoint, so the completion
    search starts on it with every unit touched and the naked-single pass
    due."""

    __slots__ = ("geo", "values", "used", "cands", "empties")

    def __init__(self, geo: _Geometry, entries: Sequence[int]):
        self.geo = geo
        self.values = list(entries)
        self.used = used = [0] * len(geo.members)
        self.empties = empties = []
        slots = geo.slots
        for i, v in enumerate(entries):
            if v:
                bit = 1 << (v - 1)
                r, c, b = slots[i]
                used[r] |= bit
                used[c] |= bit
                used[b] |= bit
            else:
                empties.append(i)
        self.cands = cands = [0] * geo.cells
        for i in empties:
            r, c, b = slots[i]
            cands[i] = ~(used[r] | used[c] | used[b]) & geo.full


def _completions(
    geo: _Geometry,
    entries: Sequence[int],
    budget: Optional[SearchBudget],
    stats: Optional[SearchStats],
    target: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """The completions of `entries` (0 = open) under one budget: the
    depth-first search shared by every completion query.

    Forced placements (a cell with one candidate, a digit with one home in a
    unit) are applied before branching on the most-constrained cell, trying
    its `target` digit first when given and a candidate, then the rest
    ascending. Yields the entry tuple of each completion in search order; a
    caller that has what it needs stops consuming, so the search does no
    further work. A search that runs out visits one tree in either order.
    `stats` is filled when the search ends, fails or is closed.

    Candidate table: `state.cands[i]` is the digit mask open cell i can
    still take, 0 once it is assigned. Every placement, forced or branch,
    clears its digit from the cell's open peers, so the naked-single pass,
    the unit scan and the branch-cell choice read one table entry per cell.
    `used` still gives each unit the digits it needs. A frame that
    branches copies `values`, `used` and the table first and restores all
    three from the copies after each child, so no frame undoes its own
    forced placements: the frame that branched into it does.

    Touched units: a placement sets in `touched` the bits of the units of
    the placed cell and of each peer that lost the digit, and `narrowed`
    when such a peer is left one candidate or none. A round runs the
    naked-single pass only if `narrowed` is set, and scans, in `units`
    order, only units whose bit is set, clearing it first. A skipped scan is
    a no-op: the unit's mask and candidates are those of its last scan,
    which placed nothing (a placement re-marks its units) and did not fail.
    So placements, ticks and node counts are those of rescanning every cell
    and unit each round (`tests/reference_completions.py`). Both are clear
    at the fixpoint a frame saved, so it clears both when it restores it.
    """
    ticker = _Ticker(budget)
    state = _State(geo, entries)
    values, used, cands = state.values, state.used, state.cands
    empties = state.empties
    slots, members, peers, units = geo.slots, geo.members, geo.peers, geo.units
    slot_bits, full = geo.slot_bits, geo.full
    tick = ticker.tick
    lead = [1 << (v - 1) for v in target] if target else [0] * geo.cells
    touched, narrowed = geo.all_units, True

    def place(i: int, bit: int) -> None:
        nonlocal touched, narrowed
        tick()
        values[i] = bit.bit_length()
        for slot in slots[i]:
            used[slot] |= bit
        cands[i] = 0
        changed = slot_bits[i]
        for p in peers[i]:
            cand = cands[p]
            if cand & bit:
                cand ^= bit
                cands[p] = cand
                changed |= slot_bits[p]
                if not cand & (cand - 1):
                    narrowed = True
        touched |= changed

    def propagate() -> bool:
        """Apply forced placements until none is left; False on a
        contradiction."""
        nonlocal touched, narrowed
        while touched or narrowed:
            if narrowed:
                narrowed = False
                for i in empties:
                    cand = cands[i]
                    if not cand:
                        if values[i]:
                            continue
                        return False
                    if not cand & (cand - 1):
                        place(i, cand)
            for slot in units:
                if not touched >> slot & 1:
                    continue
                touched ^= 1 << slot
                needed = full & ~used[slot]
                if not needed:
                    continue
                cells_u = members[slot]
                acc1 = acc2 = 0
                for i in cells_u:
                    cand = cands[i]
                    acc2 |= acc1 & cand
                    acc1 |= cand
                if needed & ~acc1:
                    return False
                singles = needed & acc1 & ~acc2
                while singles:
                    bit = singles & -singles
                    singles ^= bit
                    for i in cells_u:
                        if cands[i] & bit:
                            place(i, bit)
                            break
                    else:
                        return False
        return True

    def search() -> Iterator[tuple[int, ...]]:
        nonlocal touched, narrowed
        if not propagate():
            return
        best = -1
        best_count = geo.n + 1
        for i in empties:
            cand = cands[i]
            if cand:
                count = cand.bit_count()
                if count < best_count:
                    best, best_count = i, count
                    if count == 2:
                        break
        if best == -1:
            yield tuple(values)
            return
        saved = values[:], used[:], cands[:]
        cand = cands[best]
        bit = cand & lead[best] or cand & -cand
        while cand:
            cand ^= bit
            place(best, bit)
            yield from search()
            values[:], used[:], cands[:] = saved
            touched, narrowed = 0, False
            bit = cand & -cand

    try:
        yield from search()
    finally:
        ticker.record(stats)


def _first(completions: Iterator[tuple[int, ...]], skip: int = 0) -> Optional[tuple[int, ...]]:
    """The completion after the first `skip`, or None; closes the search. An
    alternate skips one: trying the target's digits first finds the target
    first, as every forced digit on its path is the target's."""
    with closing(completions):
        return next(islice(completions, skip, None), None)


def count_solutions(
    puzzle: Puzzle,
    limit: int,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> int:
    """Exact number of completions if below `limit`, else `limit`."""
    if limit < 1:
        raise ValueError("limit must be positive")
    geo = _Geometry.get(puzzle.size.n, puzzle.size.s)
    with closing(_completions(geo, puzzle.entries, budget, stats)) as completions:
        return sum(1 for _ in islice(completions, limit))


def iter_solutions(
    puzzle: Puzzle,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Iterator[Grid]:
    """Lazily enumerate every completion of the puzzle as Grid objects, in
    the same search order as solve_puzzle and count_solutions."""
    geo = _Geometry.get(puzzle.size.n, puzzle.size.s)
    with closing(_completions(geo, puzzle.entries, budget, stats)) as completions:
        for values in completions:
            yield Grid(puzzle.size, values)


def solve_puzzle(
    puzzle: Puzzle,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """First completion in search order, or None when unsatisfiable."""
    geo = _Geometry.get(puzzle.size.n, puzzle.size.s)
    values = _first(_completions(geo, puzzle.entries, budget, stats))
    return None if values is None else Grid(puzzle.size, values)


def find_alternate(
    grid: Grid,
    pattern: CluePattern,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """A completion of apply_pattern(grid, pattern) that differs from grid.

    The search tries the grid's digits first, so the alternate is its second
    completion; backtracking from the grid changes late decisions first, so
    it differs from the grid in few cells. None means the pattern induces a
    puzzle whose unique solution is `grid`.
    """
    geo = _Geometry.get(grid.size.n, grid.size.s)
    entries = _masked_entries(grid, pattern)
    values = _first(_completions(geo, entries, budget, stats, grid.entries), skip=1)
    return None if values is None else Grid(grid.size, values)


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
            if not group:
                raise GridError("a nogood must hold at least one cell")
            for cell in group:
                self.target.size.index(cell)
        object.__setattr__(self, "nogoods", normalized)


class _DeviationSearch:
    """Resumable depth-first search for grids at exact deviation distance m.

    One search object serves every distance of one target grid: `grids(m)`
    yields every grid at distance m that keeps a target cell in each
    nogood, in search order: most-constrained cell first (ties by index),
    digits ascending, and below an exhausted child (see Pruning) forced
    cells in index order. While it is paused at a yield, `add_nogood` may
    add that grid's own diff as a nogood, in place; on resume the
    completion that yielded it stops, as every grid it has left has that
    diff, and the search continues with the next sibling of the exhausted
    child. That is exact: the child put its cell off target, so the cell is
    in the diff. Every later grid assigns the cell anew, so the off-target
    assignment that would complete the diff happens after the nogood exists
    and is checked against it. Nogoods only prune, and the branching order
    never depends on them, so the next grid is the one a restart with the
    enlarged nogood list would find first. Nogoods stay for later
    distances.

    Candidate table: each frame holds, per cell, the candidate mask
    (`cands`) and the candidate count (`counts`, n + 1 once the cell is
    assigned), plus the number of open cells that can still take a digit
    other than their target (`deviatable`). A placement that descends hands
    its child a copy of both lists in which only the cell and its open
    peers that had the digit changed; backing out drops the copy. Each node
    thus finds "some open cell has no candidate" and the branch cell (the
    first with the fewest candidates) with `min(counts)` and
    `counts.index`, without a scan of the open cells.

    Forced cells: an open cell whose target digit already sits in one of
    its units deviates in every completion. The frame's mask `forced` of
    such cells is kept without a scan: placing digit v off target forces
    the open cells whose target is v in the placed cell's row, column and
    box (`pos`), and the placed cell leaves the mask; an on-target
    placement forces nothing, as the placed cell is the only cell of its
    units with that target digit.

    Pruning: a node is cut when a cell has no candidate or too few open
    cells can still deviate to reach m. An off-target child is cut when its
    deviations plus its forced cells exceed m, the one count bound. A unit
    holds each digit once, so its assigned cells carry as many target
    digits as placed ones: the target digits displaced from them are as
    many as the placed digits that are no assigned cell's target, which are
    the targets of the open cells forced through that unit. So a unit
    family's displaced-digit total counts the cells forced through that
    family, and the forced mask, their union, is at least as large. A diff
    moves each digit out of as many cells as it moves it into, and never
    out of exactly one: that cell needs the digit back in its row, its
    column and its box, and no other single cell lies in all three. So for
    each digit with exactly one target cell among the deviating and forced
    cells the diff holds one more cell, and an off-target child is also
    cut when its deviating and forced cells plus those digits (`lone`)
    exceed m. The cells a child adds are the branch cell and newly forced
    cells whose target digit is the placed one, so two entries of the
    per-digit tally change. The nogood rule cuts when every cell of a
    nogood deviates or is forced; only the placed cell and the newly forced
    cells join that union, so only their nogoods are read. Every cut is
    exact because every forced cell will deviate: none cuts a grid at
    distance m that honours the nogoods.

    Exhausted children: an off-target child whose deviating and forced
    cells are m in all, the set D (`doomed`), is not searched cell by cell.
    Every grid below it differs from the target in exactly D: the forced
    cells must deviate, and with no room left every other open cell keeps
    its target digit. So `_complete` fills the forced cells alone. A forced
    cell may take a digit that its units lack, and only one whose target
    cell in each of its three units lies in D, as any other such cell keeps
    that digit; forced cells that share a unit take distinct digits. That
    is exact: those are the only constraints left between two cells of the
    grid, and every grid below the child meets them. The union of deviating
    and forced cells only grows along a path, so every grid at distance m
    lies below exactly one exhausted child, the one where the union becomes
    its diff, and the search has no other leaf. The completion ticks once
    per placement, so node and time budgets hold inside it too.
    """

    def __init__(self, grid: Grid, ticker: _Ticker):
        geo = _Geometry.get(grid.size.n, grid.size.s)
        self.geo = geo
        self.ticker = ticker
        self.target = grid.entries
        self.target_bits = [1 << (v - 1) for v in self.target]
        self.off_target = [geo.full ^ bit for bit in self.target_bits]
        # pos[slot][v]: the cell holding target digit v in the slot
        self.pos = [[0] * (geo.n + 1) for _ in geo.members]
        for i, v in enumerate(self.target):
            for slot in geo.slots[i]:
                self.pos[slot][v] = i
        # every nogood mask in the order added, and those of each cell
        self.nogoods: list[int] = []
        self.nogoods_of: list[list[int]] = [[] for _ in range(geo.cells)]
        # what a node branching on cell i reads: its peers, its slots, its
        # target digit and its cell bit
        self.branch_of = [
            (geo.peers[i], geo.slots[i], v, 1 << i) for i, v in enumerate(self.target)
        ]

    def add_nogood(self, indices: Sequence[int]) -> None:
        """Keep at least one of the distinct row-major cell `indices` at
        its target digit from now on."""
        mask = sum(1 << idx for idx in indices)
        self.nogoods.append(mask)
        for idx in indices:
            self.nogoods_of[idx].append(mask)

    def grids(self, m: int) -> Iterator[tuple[int, ...]]:
        """The grids at distance m, searched from the empty board."""
        geo = self.geo
        self.m = m
        self.values = [0] * geo.cells
        cands, counts = [geo.full] * geo.cells, [geo.n] * geo.cells
        self.tally = [0] * (geo.n + 1)
        return self._search(0, 0, cands, counts, geo.cells, 0)

    def _search(
        self,
        deviating: int,
        forced: int,
        cands: list[int],
        counts: list[int],
        deviatable: int,
        lone: int,
    ) -> Iterator[tuple[int, ...]]:
        """Grids below the current assignment; `deviating` is the mask of
        deviating cells, `forced` the mask of open cells that can no longer
        take their target digit, `cands`, `counts` and `deviatable` are
        this frame's table, and `lone` counts the digits with one target
        cell in `deviating | forced`, whose tally `self.tally` holds."""
        m = self.m
        deviations = deviating.bit_count()
        values = self.values
        low = min(counts)
        if not low or deviations + deviatable < m:
            # the second test includes a complete assignment with fewer
            # than m deviations
            return
        best = counts.index(low)
        peers, (r, c, b), gv, cell_bit = self.branch_of[best]
        off_target = self.off_target
        # the cells of the branch cell's units by target digit
        pos_r, pos_c, pos_b = self.pos[r], self.pos[c], self.pos[b]
        nogoods_of = self.nogoods_of
        room = m - deviations - 1
        tick = self.ticker.tick
        assigned = self.geo.n + 1
        cand = cands[best]
        # the children's count before their peers lose the placed digit
        child_deviatable = deviatable - (cand & off_target[best] != 0)
        # an off-target child's forced cells, before it adds its own
        left_forced = forced & ~cell_bit
        # an off-target child adds the branch cell to the union, unless it
        # is already forced, and its newly forced cells, whose target
        # digit is the placed one
        tally = self.tally
        old_gv = tally[gv]
        new_gv = old_gv if forced & cell_bit else old_gv + 1
        lone_gv = lone + (new_gv == 1) - (old_gv == 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            value = bit.bit_length()
            tick()
            values[best] = value
            if value == gv:
                descend = True
                dev, fc, child_lone = deviating, forced, lone
            else:
                dev = deviating | cell_bit
                # the open cells of the units whose target digit is `value`
                # can no longer take it
                pr, pc, pb = pos_r[value], pos_c[value], pos_b[value]
                newly = (
                    (0 if values[pr] else 1 << pr)
                    | (0 if values[pc] else 1 << pc)
                    | (0 if values[pb] else 1 << pb)
                ) & ~forced
                fc = left_forced | newly
                spare = room - fc.bit_count()
                old_v = tally[value]
                new_v = old_v + newly.bit_count()
                child_lone = lone_gv + (new_v == 1) - (old_v == 1)
                descend = spare >= child_lone
                if descend:
                    # a nogood dies once all its cells deviate or are forced
                    # to; it must hold the placed cell or a newly forced one
                    doomed = dev | fc
                    check = cell_bit | newly
                    while check and descend:
                        low_bit = check & -check
                        check ^= low_bit
                        for mask in nogoods_of[low_bit.bit_length() - 1]:
                            if mask & doomed == mask:
                                descend = False
                                break
                    if descend and not spare:
                        # exhausted: every grid below differs from the
                        # target in exactly `doomed`
                        yield from self._complete(doomed, fc, cands, best, bit)
                        descend = False
            if descend:
                child_cands, child_counts = cands[:], counts[:]
                child_cands[best], child_counts[best] = 0, assigned
                left_deviatable = child_deviatable
                for p in peers:
                    had = child_cands[p]
                    if had & bit:
                        child_cands[p] = had ^ bit
                        child_counts[p] -= 1
                        if had & off_target[p] == bit:
                            # `bit` was the peer's last non-target digit
                            left_deviatable -= 1
                if value != gv:
                    tally[value], tally[gv] = new_v, new_gv
                yield from self._search(
                    dev, fc, child_cands, child_counts, left_deviatable, child_lone
                )
                if value != gv:
                    tally[value], tally[gv] = old_v, old_gv
            values[best] = 0

    def _complete(
        self, doomed: int, forced: int, cands: list[int], best: int, bit: int
    ) -> Iterator[tuple[int, ...]]:
        """The grids below an exhausted child, which put `best` off target
        with digit `bit`: those that differ from the target in exactly
        `doomed`, whose open cells outside `forced` keep their target
        digits. `cands` is the parent's table. Stops once a nogood added
        while paused lies inside `doomed`."""
        slots, values, target_bits = self.geo.slots, self.values, self.target_bits
        # per slot, the target digits of its doomed cells; a digit a forced
        # cell takes must leave its target cell in each of the three units
        leaving = [0] * len(self.pos)
        rest = doomed
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            i = low_bit.bit_length() - 1
            r, c, b = slots[i]
            leaving[r] |= target_bits[i]
            leaving[c] |= target_bits[i]
            leaving[b] |= target_bits[i]
        br, bc, bb = slots[best]
        cells, options = [], []
        rest = forced
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            f = low_bit.bit_length() - 1
            r, c, b = slots[f]
            option = cands[f] & leaving[r] & leaving[c] & leaving[b]
            if r == br or c == bc or b == bb:
                option &= ~bit
            if not option:
                return
            cells.append(f)
            options.append(option)
        nogoods = self.nogoods
        seen = len(nogoods)
        for grid in self._fill(cells, options, 0, [0] * len(self.pos)):
            yield grid
            if any(mask & doomed == mask for mask in nogoods[seen:]):
                break
            seen = len(nogoods)
        for f in cells:
            values[f] = 0

    def _fill(
        self, cells: list[int], options: list[int], k: int, taken: list[int]
    ) -> Iterator[tuple[int, ...]]:
        """Give `cells[k:]`, in index order, digits ascending from their
        `options`, distinct from those the completion put in each slot
        (`taken`); one tick per placement."""
        values = self.values
        if k == len(cells):
            yield tuple(v or t for v, t in zip(values, self.target))
            return
        f = cells[k]
        r, c, b = self.geo.slots[f]
        free = options[k] & ~(taken[r] | taken[c] | taken[b])
        tick = self.ticker.tick
        while free:
            bit = free & -free
            free ^= bit
            tick()
            values[f] = bit.bit_length()
            taken[r] |= bit
            taken[c] |= bit
            taken[b] |= bit
            yield from self._fill(cells, options, k + 1, taken)
            taken[r] ^= bit
            taken[c] ^= bit
            taken[b] ^= bit


def find_deviating_grid(
    constraint: DeviationConstraint,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Grid]:
    """A grid at exact deviation distance from the target honouring all
    nogoods, or None when no such grid exists.

    It is the first grid in search order. The search fixes a diff at one
    node and then fills that diff's open cells in row-major order, digits
    ascending. So of the grids with the first diff found that agree on the
    cells assigned at that node, it returns the least as a row-major
    sequence of digits."""
    ticker = _Ticker(budget)
    try:
        search = _DeviationSearch(constraint.target, ticker)
        index = constraint.target.size.index
        for group in constraint.nogoods:
            search.add_nogood([index(cell) for cell in group])
        values = next(search.grids(constraint.exact_deviations), None)
    finally:
        ticker.record(stats)
    if values is None:
        return None
    return Grid(constraint.target.size, values)
