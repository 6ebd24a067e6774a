"""Exact minimum-clue solving via an implicit hitting-set loop.

The loop alternates two exact procedures: a minimum hitting set over the
cut family collected so far (its value is a true lower bound, since every
valid clue pattern must hit every unavoidable set), and an adversarial
search for an alternate solution under the candidate clue set. Either the
adversary fails, which proves the candidate is a valid puzzle of minimum
size, or its answer yields a new minimal cut and the loop repeats. The same
loop solves any fewest-clue problem given an alternate-certificate oracle.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from time import perf_counter
from typing import Callable, Optional, Sequence

from .engine import (
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    count_solutions,
    find_alternate,
    latin_alternate,
)
from .grid import Cell, CluePattern, Grid, _Geometry, _scan_units, apply_pattern
from .hitting import HittingInstance, disjoint_packing_bound, min_hitting_set
from .unavoidable import (
    FingerprintMismatchError,
    GenerationLimits,
    SetRecord,
    UnavoidableCollection,
    UnavoidableSet,
    generate_all,
    grid_fingerprint,
)

__all__ = [
    "MscpStatus",
    "MscpConfig",
    "TraceEntry",
    "MscpResult",
    "MscpInternalError",
    "verify_validity",
    "solve_mscp",
    "FcpInstance",
    "FcpResult",
    "fcp_solve",
    "latin_square_fcp_instance",
]

log = logging.getLogger("minclue.solver")


class MscpStatus(Enum):
    OPTIMAL = "optimal"
    BOUNDS_ONLY = "bounds_only"
    INTERRUPTED = "interrupted"


class MscpInternalError(RuntimeError):
    """The loop produced a cut already implied by the certificate."""


@dataclass(frozen=True)
class MscpConfig:
    initial_cuts: int = 1000
    generation_limits: GenerationLimits = field(default_factory=GenerationLimits)
    solve_budget: SearchBudget = field(default_factory=SearchBudget)
    # pre-generated cuts to seed from instead of running the generator;
    # the first `initial_cuts` members are used
    seed_collection: Optional[UnavoidableCollection] = None


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    lower: int
    upper: int
    certificate_size: int
    elapsed: float


@dataclass
class MscpResult:
    status: MscpStatus
    best_pattern: CluePattern
    upper_bound: int
    lower_bound: int
    certificate: UnavoidableCollection
    iterations: int
    trace: list[TraceEntry]
    nodes: int = 0

    @property
    def optimum(self) -> Optional[int]:
        return self.upper_bound if self.status is MscpStatus.OPTIMAL else None


def verify_validity(
    g: Grid, pattern: CluePattern, budget: Optional[SearchBudget] = None
) -> bool:
    """True iff the pattern's puzzle has exactly one completion (= g)."""
    return count_solutions(apply_pattern(g, pattern), 2, budget) == 1


class _Expired(Exception):
    pass


class _LoopBudget:
    """Wall clock and cumulative node budget shared across loop phases."""

    def __init__(self, budget: SearchBudget):
        self.deadline = (
            perf_counter() + budget.max_time if budget.max_time is not None else None
        )
        self.max_nodes = budget.max_nodes
        self.used_nodes = 0

    def check(self) -> None:
        if self.deadline is not None and perf_counter() > self.deadline:
            raise _Expired
        if self.max_nodes is not None and self.used_nodes >= self.max_nodes:
            raise _Expired

    def call_budget(self) -> SearchBudget:
        self.check()
        return self.share(1)

    def share(self, parts: int) -> SearchBudget:
        """One of `parts` equal shares of what is left of the budget."""
        remaining_time = (
            (self.deadline - perf_counter()) / parts if self.deadline is not None else None
        )
        remaining_nodes = (
            (self.max_nodes - self.used_nodes) // parts
            if self.max_nodes is not None
            else None
        )
        return SearchBudget(max_nodes=remaining_nodes, max_time=remaining_time)

    def charge(self, stats: SearchStats) -> None:
        self.used_nodes += stats.nodes


@dataclass
class FcpResult:
    """Outcome of the hitting-set loop; `certificate` lists every cut used."""

    status: MscpStatus
    best_clue: frozenset
    upper_bound: int
    lower_bound: int
    certificate: tuple[frozenset, ...]
    iterations: int
    trace: list[TraceEntry]
    nodes: int = 0


def _shrink(
    diff: frozenset, alternate_diff: Callable[[frozenset], Optional[frozenset]]
) -> frozenset:
    """Deletion-based minimization of an unavoidable set that follows its
    witnesses, trying canonically later keys first.

    `alternate_diff(trial)` returns the diff of some alternate whose changes
    all lie inside `trial`, or None when there is none. When dropping a key
    still admits an alternate, its diff (a subset of the trial) becomes the
    new set, which can drop several keys for one call. The result stays
    minimal by monotonicity: a key found necessary for some set is
    necessary for every subset of it that still contains the key.
    """
    keep = diff
    for key in sorted(diff, reverse=True):
        if key not in keep or len(keep) == 1:
            continue
        witness = alternate_diff(keep - {key})
        if witness is not None:
            keep = witness
    return keep


def _ihs_loop(
    universe: Sequence,
    find_diff: Callable[[frozenset, _LoopBudget], Optional[frozenset]],
    seeds: list[frozenset],
    budget: _LoopBudget,
) -> FcpResult:
    """Implicit hitting-set loop shared by the Sudoku and generic paths.

    `find_diff(revealed, budget)` returns the index/cell set on which some
    alternate solution differs, or None when the revealed set pins the
    target uniquely.
    """
    started = perf_counter()
    universe = tuple(sorted(universe))
    universe_set = frozenset(universe)
    cuts: list[frozenset] = list(seeds)
    incumbent = universe_set
    upper = len(incumbent)
    # sound before any exact solve, so a loop stopped early still reports it
    lower = disjoint_packing_bound(HittingInstance.build(universe, cuts))
    solved_once = False
    trace: list[TraceEntry] = []
    iteration = 0
    last_repair_lower = -1

    def note(it: int) -> None:
        trace.append(
            TraceEntry(it, lower, upper, len(cuts), perf_counter() - started)
        )

    def repair(start: frozenset, first_diff: frozenset) -> Optional[frozenset]:
        cells = set(start)
        diff = first_diff
        while len(cells) < len(universe):
            cells.add(min(diff))
            nxt = find_diff(frozenset(cells), budget)
            if nxt is None:
                return frozenset(cells)
            diff = nxt
        return frozenset(universe)

    status = MscpStatus.BOUNDS_ONLY
    try:
        while True:
            iteration += 1
            stats = SearchStats()
            solution = min_hitting_set(
                HittingInstance.build(universe, cuts),
                upper_hint=upper,
                budget=budget.call_budget(),
                stats=stats,
                lower_hint=lower,
            )
            budget.charge(stats)
            if not solution.proven_optimal:
                lower = max(lower, solution.lower_bound)
                status = (
                    MscpStatus.BOUNDS_ONLY if solved_once else MscpStatus.INTERRUPTED
                )
                note(iteration)
                break
            solved_once = True
            if solution.value < lower:
                raise MscpInternalError(
                    "hitting-set optimum decreased as the family grew"
                )
            lower = solution.value
            log.debug(
                "iteration %d: lower=%d upper=%d cuts=%d",
                iteration,
                lower,
                upper,
                len(cuts),
            )
            if lower >= upper:
                status = MscpStatus.OPTIMAL
                note(iteration)
                break
            candidate = frozenset(solution.cells)
            diff = find_diff(candidate, budget)
            if diff is None:
                incumbent = candidate
                upper = lower
                status = MscpStatus.OPTIMAL
                note(iteration)
                break
            cut = _shrink(diff, lambda trial: find_diff(universe_set - trial, budget))
            if not cut or cut & candidate:
                raise MscpInternalError("cut does not separate the hitting set")
            for existing in cuts:
                if existing <= cut or cut <= existing:
                    raise MscpInternalError("cut already implied by the certificate")
            cuts.append(cut)
            if lower + 1 < upper and lower > last_repair_lower:
                last_repair_lower = lower
                repaired = repair(candidate, diff)
                if repaired is not None and len(repaired) < upper:
                    incumbent = repaired
                    upper = len(repaired)
            note(iteration)
    except _Expired:
        status = MscpStatus.BOUNDS_ONLY if solved_once else MscpStatus.INTERRUPTED
        note(iteration)

    return FcpResult(
        status, incumbent, upper, lower, tuple(cuts), iteration, trace, budget.used_nodes
    )


def solve_mscp(g: Grid, config: Optional[MscpConfig] = None) -> MscpResult:
    """Minimum number of clues (with witness pattern) pinning g uniquely.

    Seeds the cut family from `config.seed_collection` or else from the
    unavoidable-set generator, which may spend at most half of the time and
    half of the nodes of the budget, then runs the hitting-set loop to
    optimality or budget exhaustion. The result's certificate collection
    contains every cut used, each a minimal unavoidable set of g.
    """
    cfg = config or MscpConfig()
    budget = _LoopBudget(cfg.solve_budget)
    started = perf_counter()

    seed_records: list[SetRecord] = []
    if cfg.initial_cuts > 0:
        seeded = cfg.seed_collection
        if seeded is None:
            gen_limits = GenerationLimits(
                max_sets=min(cfg.initial_cuts, cfg.generation_limits.max_sets),
                max_size=cfg.generation_limits.max_size,
            )
            gen_stats = SearchStats()
            seeded = generate_all(
                g, gen_limits, stats=gen_stats, budget=budget.share(2)
            )
            budget.charge(gen_stats)
            log.debug("seeded %d cuts in %.2fs", len(seeded), gen_stats.elapsed)
        elif seeded.fingerprint != grid_fingerprint(g):
            raise FingerprintMismatchError(
                "seed collection was generated from a different grid"
            )
        seed_records = list(seeded.records[: cfg.initial_cuts])
    seeds = [rec.cells.as_frozenset() for rec in seed_records]

    def find_diff(revealed: frozenset, loop_budget: _LoopBudget) -> Optional[frozenset]:
        stats = SearchStats()
        pattern = CluePattern.from_cells(g.size, revealed)
        try:
            alt = find_alternate(g, pattern, loop_budget.call_budget(), stats)
        except SearchInterrupted:
            loop_budget.charge(stats)
            raise _Expired from None
        loop_budget.charge(stats)
        if alt is None:
            return None
        n = g.size.n
        return frozenset(
            Cell(i // n + 1, i % n + 1)
            for i, (a, b) in enumerate(zip(alt.entries, g.entries))
            if a != b
        )

    outcome = _ihs_loop(g.size.all_cells(), find_diff, seeds, budget)

    certificate = UnavoidableCollection(grid_fingerprint(g), g.size.n)
    for rec in seed_records:
        certificate.add(rec)
    for k, cut in enumerate(outcome.certificate[len(seeds):]):
        cells = UnavoidableSet(cut)
        certificate.add(
            SetRecord(
                cells,
                index=len(seed_records) + k,
                discovered_size=cells.size,
                seconds=perf_counter() - started,
            )
        )

    return MscpResult(
        status=outcome.status,
        best_pattern=CluePattern.from_cells(g.size, outcome.best_clue),
        upper_bound=outcome.upper_bound,
        lower_bound=outcome.lower_bound,
        certificate=certificate,
        iterations=outcome.iterations,
        trace=outcome.trace,
        nodes=outcome.nodes,
    )


@dataclass(frozen=True)
class FcpInstance:
    """A fewest-clue problem over an arbitrary certificate.

    `target` is the certificate to pin down, one symbol per index.
    `alternate_finder(revealed)` must return a different certificate that
    agrees with the target on every revealed index, or None when none
    exists. The finder is opaque to the solver: generic instances start
    from no seed cuts, and its search nodes are not counted.
    """

    target: tuple
    alternate_finder: Callable[[frozenset], Optional[Sequence]]


def fcp_solve(instance: FcpInstance, config: Optional[MscpConfig] = None) -> FcpResult:
    """Fewest revealed indices whose unique consistent certificate is the
    instance target; same loop as solve_mscp over certificate indices.

    Only `config.solve_budget` applies: the loop starts with no seed cuts,
    and a node budget counts hitting-set nodes alone, since the alternate
    finder reports none.
    """
    cfg = config or MscpConfig()
    target = tuple(instance.target)
    l = len(target)
    if instance.alternate_finder(frozenset(range(l))) is not None:
        raise ValueError("target certificate is not uniquely pinned by a full reveal")

    def find_diff(revealed: frozenset, loop_budget: _LoopBudget) -> Optional[frozenset]:
        loop_budget.check()
        alt = instance.alternate_finder(frozenset(revealed))
        if alt is None:
            return None
        cand = tuple(alt)
        if len(cand) != l:
            raise ValueError("alternate certificate has wrong length")
        diff = frozenset(i for i in range(l) if cand[i] != target[i])
        if not diff:
            raise ValueError("alternate certificate equals the target")
        if diff & revealed:
            raise ValueError("alternate certificate violates the revealed clue")
        return diff

    return _ihs_loop(range(l), find_diff, [], _LoopBudget(cfg.solve_budget))


def latin_square_fcp_instance(square: Sequence[int]) -> FcpInstance:
    """Fewest-clue instance for an order-n Latin square (no box constraint)."""
    target = tuple(int(v) for v in square)
    n = isqrt(len(target))
    if n < 1 or n * n != len(target):
        raise ValueError("square length is not a perfect square")
    if not all(1 <= v <= n for v in target):
        raise ValueError("target is not a Latin square over 1..n")
    # n symbols, none repeated in a row or column
    _scan_units(_Geometry.get(n, 0), target)
    return FcpInstance(target, lambda revealed: latin_alternate(target, revealed))
