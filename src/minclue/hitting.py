"""Exact minimum-cardinality hitting set by depth-first branch and bound.

Each node branches on the unhit family member with the fewest live cells
(cells not banned at that node; the lowest index wins ties), trying those
cells in canonical order; earlier siblings are banned in later branches so
the tree partitions the solution space. The bound is a greedy packing of
pairwise disjoint unhit sets. Once an incumbent exists, a node is cut as
soon as its bound cannot beat it, so the search never revisits an
incumbent's value: ties resolve to the first optimum in search order, which
is deterministic but not the lexicographically smallest. Search stops early
at the first solution whose value meets the root packing bound or the
caller's `lower_hint`. Elements may be Cells or any other orderable
hashables.
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
    # root-only dominance: drop a cell whose set-membership list is within
    # another cell's (the canonically smaller cell survives exact ties)
    membership: dict = {e: 0 for e in elements}
    for k, member in enumerate(family):
        bit = 1 << k
        for e in member:
            membership[e] |= bit
    kept = []
    for e in elements:
        me = membership[e]
        dominated = False
        for f in elements:
            if f is e:
                continue
            mf = membership[f]
            if me & ~mf:
                continue
            if me != mf or f < e:
                dominated = True
                break
        if not dominated:
            kept.append(e)

    pos = {e: i for i, e in enumerate(kept)}
    masks = [
        sum(1 << pos[e] for e in member if e in pos) for member in family
    ]
    pack_order = sorted(masks, key=lambda m: m.bit_count())

    best_mask: Optional[int] = None
    # before an incumbent exists, a node is cut when its bound exceeds
    # best_value; afterwards, when its bound merely reaches it
    best_value = len(kept) + 1 if upper_hint is None else upper_hint
    # any solution this small is optimal: stop at the first one found
    good_enough = max(lower_hint, _pack(pack_order, 0))

    # frame: (chosen_mask, chosen_count, banned_mask)
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    interrupted = False
    while stack:
        frame = stack.pop()
        try:
            ticker.tick()
        except SearchInterrupted:
            stack.append(frame)  # keep its bound in the interrupt accounting
            interrupted = True
            break
        chosen, count, banned = frame
        target_live = 0
        fewest = -1
        for mask in masks:
            if mask & chosen:
                continue
            live = mask & ~banned
            width = live.bit_count()
            if fewest < 0 or width < fewest:
                target_live, fewest = live, width
                if not width:
                    break
        if fewest < 0:
            if best_mask is None or count < best_value:
                best_mask, best_value = chosen, count
                if count <= good_enough:
                    break
            continue
        if not target_live:
            continue
        bound = count + _pack(pack_order, chosen)
        if bound > best_value or (best_mask is not None and bound == best_value):
            continue
        children = []
        taken_before = 0
        live = target_live
        while live:
            bit = live & -live
            live ^= bit
            children.append((chosen | bit, count + 1, banned | taken_before))
            taken_before |= bit
        stack.extend(reversed(children))

    ticker.record(stats)

    if interrupted:
        open_bounds = []
        for chosen, count, _banned in stack:
            open_bounds.append(count + _pack(pack_order, chosen))
        candidates = open_bounds + ([best_value] if best_mask is not None else [])
        lower = min(candidates) if candidates else 0
        if best_mask is None:
            # greedy fallback keeps the returned cells a genuine hitting set
            best_mask = 0
            for mask in masks:
                if not mask & best_mask:
                    best_mask |= mask & -mask
        cells = frozenset(kept[i] for i in range(len(kept)) if best_mask >> i & 1)
        return HittingSolution(cells, len(cells), False, min(lower, len(cells)))

    if best_mask is None:
        raise ValueError("upper_hint was below the true optimum")
    cells = frozenset(kept[i] for i in range(len(kept)) if best_mask >> i & 1)
    return HittingSolution(cells, len(cells), True, len(cells))
