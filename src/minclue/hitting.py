"""Exact minimum-cardinality hitting set by depth-first branch and bound.

Each node branches on the unhit family member with the fewest live cells
(cells not banned at that node; the lowest index wins ties), trying those
cells in canonical order; earlier siblings are banned in later branches so
the tree partitions the solution space. Every unhit member keeps a live
cell at every node: a child bans only live cells of its parent's branching
member S, so an unhit member M left with none had all its live cells in
S's; M had at least as many as S, so it had exactly S's, the child's own
cell among them, and is hit. A node with no unhit member is a leaf.

The bound is a greedy packing of pairwise disjoint unhit sets. One cut
rule holds throughout: a node is cut when its count plus its packing
reaches `best_value`, which starts one above `upper_hint` (or above the
number of cells) and then is the incumbent's value. So a solution of the
hint's value stays reachable, and the search never revisits an
incumbent's value: ties resolve to the first optimum in search order,
which is deterministic but not the lexicographically smallest. Search
stops early at the first solution whose value meets the root packing
bound or the caller's `lower_hint`. Elements may be Cells or any other
orderable hashables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import SearchBudget, SearchInterrupted, SearchStats, _Ticker

__all__ = [
    "HittingInstance",
    "HittingSolution",
    "min_hitting_set",
    "disjoint_packing_bound",
]


@dataclass(frozen=True)
class HittingInstance:
    universe: tuple
    family: tuple[frozenset, ...]

    @classmethod
    def build(cls, universe: Iterable, family: Iterable[Iterable]) -> "HittingInstance":
        return cls(
            tuple(sorted(set(universe))),
            tuple(frozenset(member) for member in family),
        )

    def __post_init__(self) -> None:
        universe = set(self.universe)
        for member in self.family:
            if not universe.issuperset(member):
                outside = sorted(set(member) - universe)
                raise ValueError(f"family member has elements outside the universe: {outside}")


@dataclass(frozen=True)
class HittingSolution:
    cells: frozenset
    value: int
    proven_optimal: bool
    lower_bound: int


def _disjoint(family: Iterable[frozenset]) -> list[frozenset]:
    """The members a greedy pass in order keeps pairwise disjoint."""
    taken: set = set()
    kept = []
    for member in family:
        if not member & taken:
            taken |= member
            kept.append(member)
    return kept


def disjoint_packing_bound(instance: HittingInstance) -> int:
    """Greedy count of pairwise-disjoint family members: a lower bound."""
    return len(_disjoint(instance.family))


def _pack(masks: Sequence[int], chosen: int) -> int:
    """Greedy disjoint packing of the unhit masks; small sets pack first."""
    packed = 0
    count = 0
    for mask in masks:
        if not mask & chosen and not mask & packed:
            packed |= mask
            count += 1
    return count


def min_hitting_set(
    instance: HittingInstance,
    upper_hint: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
    lower_hint: int = 0,
) -> HittingSolution:
    """Minimum-cardinality set meeting every family member.

    `upper_hint`, when given, must be a correct upper bound on the optimum:
    branches whose bound exceeds it are cut, while a solution of exactly
    that value stays reachable and is returned as the witness. A hint below
    the optimum raises ValueError.

    `lower_hint` must be a correct lower bound on the optimum, for example
    the optimum of a subfamily of this family. The search returns the first
    solution whose value is at most `lower_hint` as proven optimal without
    exploring further. A hint above the optimum therefore gives a wrong
    answer flagged optimal. Both hints are promises the search relies on
    without checking them; a too-low `upper_hint` at least shows up as the
    ValueError above, while a too-high `lower_hint` cannot be detected.

    Among equal-value optima the first one in search order is returned.
    A budget interrupt returns the best incumbent (not flagged optimal)
    together with a still-sound lower bound over the open nodes.
    """
    family = instance.family
    if not all(family):
        raise ValueError("an empty family member cannot be hit")
    ticker = _Ticker(budget)
    if not family:
        ticker.record(stats)
        return HittingSolution(frozenset(), 0, True, 0)

    elements = sorted(set().union(*family))
    # root-only dominance: a cell whose membership list lies strictly within
    # another list is dropped, and among cells with one list the first stays
    membership: dict = {e: 0 for e in elements}
    for k, member in enumerate(family):
        bit = 1 << k
        for e in member:
            membership[e] |= bit
    first: dict = {}
    for e in elements:
        first.setdefault(membership[e], e)
    kept = [
        e for m, e in first.items() if not any(m != o and not m & ~o for o in first)
    ]

    pos = {e: i for i, e in enumerate(kept)}
    masks = [
        sum(1 << pos[e] for e in member if e in pos) for member in family
    ]
    pack_order = sorted(masks, key=lambda m: m.bit_count())

    best_mask: Optional[int] = None
    best_value = (len(kept) if upper_hint is None else upper_hint) + 1
    # any solution this small is optimal: stop at the first one found
    good_enough = max(lower_hint, _pack(pack_order, 0))

    # frame: (chosen_mask, chosen_count, banned_mask)
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    interrupted = False
    while stack:
        try:
            ticker.tick()
        except SearchInterrupted:
            interrupted = True
            break
        chosen, count, banned = stack.pop()
        target_live = 0
        fewest = len(kept) + 1
        for mask in masks:
            if not mask & chosen:
                live = mask & ~banned
                width = live.bit_count()
                if width < fewest:
                    target_live, fewest = live, width
        if not target_live:  # every member is hit
            if count < best_value:
                best_mask, best_value = chosen, count
                if count <= good_enough:
                    break
            continue
        if count + _pack(pack_order, chosen) >= best_value:
            continue
        # highest cell first, so the lowest is popped first; each child bans
        # the live cells below its own
        while target_live:
            bit = 1 << (target_live.bit_length() - 1)
            target_live ^= bit
            stack.append((chosen | bit, count + 1, banned | target_live))

    ticker.record(stats)
    if best_mask is None:
        if not interrupted:
            raise ValueError("upper_hint was below the true optimum")
        # greedy fallback keeps the returned cells a genuine hitting set
        best_mask = 0
        for mask in masks:
            if not mask & best_mask:
                best_mask |= mask & -mask
    cells = frozenset(kept[i] for i in range(len(kept)) if best_mask >> i & 1)
    if interrupted:
        lower = min(count + _pack(pack_order, chosen) for chosen, count, _ in stack)
        return HittingSolution(cells, len(cells), False, min(lower, len(cells)))
    return HittingSolution(cells, len(cells), True, len(cells))
