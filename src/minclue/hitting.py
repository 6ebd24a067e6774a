"""Minimum-cardinality hitting sets by one resumable depth-first walk.

`HittingWalk` looks for a hitting set of `level` cells of a family that
may grow between its calls. When its stack runs empty, none exists, and
it starts a new root one level up, so `level` is a proven lower bound at
every moment. Cells are non-negative ints; a member is kept as a bitmask.

Each node decides in three steps. It packs disjoint unhit members
greedily, smallest first, and is cut as soon as its count plus the packing
exceeds `level`. An empty packing means every member is hit: the node is a
leaf, which `next` returns and leaves on the stack. Any other node branches
on the unhit member with the fewest live cells (cells the node does not
ban; the member added first wins ties), trying them in ascending order and
banning earlier siblings in later branches; a member with no live cell
gives no children. A new member only removes hitting sets, so a popped
subtree still holds none.

A root bans the cells it dominates: those whose members lie strictly
within another cell's or equal a lower cell's, and those in no member. A
hitting set stays one when such a cell is swapped for its dominator. A new
member breaks a dominance only through its own dropped cells, so `add`
gives those back as root-level frames. Every frame bans at least the cells
still dropped, so branching can read the members as added.
`min_hitting_set` walks a `HittingInstance`, whose elements may be any
orderable hashables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import SearchBudget, SearchStats, _Ticker

__all__ = [
    "HittingInstance",
    "HittingSolution",
    "HittingWalk",
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
    """An optimum: `proven_optimal` is always True and `lower_bound` is
    `value`, both kept for callers that read them."""

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


def _mask(member: Iterable[int]) -> int:
    mask = sum(1 << i for i in set(member))
    if not mask:
        raise ValueError("an empty family member cannot be hit")
    return mask


class HittingWalk:
    """One depth-first search for a hitting set of `level` cells, kept
    across calls while the family grows."""

    def __init__(self, family: Iterable[Iterable[int]] = ()):
        self.family = [_mask(member) for member in family]  # in order added
        self.level = 0
        self.restart()

    def restart(self) -> None:
        """Start the current level again from a root that bans the cells
        dominated in the family as it stands."""
        membership: dict[int, int] = {}
        for k, mask in enumerate(self.family):
            while mask:
                bit = mask & -mask
                mask ^= bit
                membership[bit] = membership.get(bit, 0) | 1 << k
        first: dict[int, int] = {}
        for bit in sorted(membership):
            first.setdefault(membership[bit], bit)
        kept = [m for m in first if not any(m != o and not m & ~o for o in first)]
        self._allow(sum(first[m] for m in kept))
        # frame: (chosen mask, chosen count, banned mask)
        self.stack = [(0, 0, ~self.allowed)]

    def _allow(self, allowed: int) -> None:
        # a root bans the cells outside `allowed`, children and give-back
        # frames extend their parent's ban, and `allowed` only grows until
        # the next restart: so no frame's live cells lie outside it, and
        # only the packing needs the members cut down, smallest first
        self.allowed = allowed
        self.pack_order = sorted((mask & allowed for mask in self.family), key=int.bit_count)

    def add(self, member: Iterable[int]) -> None:
        """Take in a new member; each dropped cell in it comes back as a
        root-level frame that chooses it and bans the cells still dropped
        and those given back before it."""
        mask = _mask(member)
        self.family.append(mask)
        back = mask & ~self.allowed
        self._allow(self.allowed | back)
        banned = ~self.allowed
        while back:  # highest first, so the lowest is popped first
            bit = 1 << (back.bit_length() - 1)
            back ^= bit
            self.stack.append((bit, 1, banned | back))

    def next(
        self, budget: Optional[SearchBudget] = None, stats: Optional[SearchStats] = None
    ) -> frozenset[int]:
        """A hitting set of `level` cells, raising the level until one
        exists. A budget interrupt raises SearchInterrupted with the walk
        intact, so a later call resumes it."""
        ticker = _Ticker(budget)
        try:
            while True:
                if not self.stack:
                    self.level += 1
                    self.restart()
                stack = self.stack
                ticker.tick()
                chosen, count, banned = frame = stack.pop()
                room = self.level - count
                packed = chosen
                for mask in self.pack_order:
                    if not mask & packed:
                        room -= 1
                        if room < 0:
                            break
                        packed |= mask
                if room < 0:  # the level has no room for the packing
                    continue
                if packed == chosen:  # every member is hit
                    stack.append(frame)
                    return frozenset(i for i in range(chosen.bit_length()) if chosen >> i & 1)
                live = ~banned
                target_live = min(
                    (mask & live for mask in self.family if not mask & chosen), key=int.bit_count
                )
                # highest cell first, so the lowest is popped first; each
                # child bans the live cells below its own
                while target_live:
                    bit = 1 << (target_live.bit_length() - 1)
                    target_live ^= bit
                    stack.append((chosen | bit, count + 1, banned | target_live))
        finally:
            ticker.record(stats)


def min_hitting_set(
    instance: HittingInstance,
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> HittingSolution:
    """Minimum-cardinality set meeting every family member: the first set a
    fresh walk finds. A budget interrupt raises SearchInterrupted."""
    pos = {e: i for i, e in enumerate(instance.universe)}
    walk = HittingWalk([pos[e] for e in member] for member in instance.family)
    found = walk.next(budget, stats)
    cells = frozenset(instance.universe[i] for i in found)
    return HittingSolution(cells, len(cells), True, len(cells))
