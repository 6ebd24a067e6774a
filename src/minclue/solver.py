"""Exact fewest-clue solving via an implicit hitting-set loop.

The loop works on the indices 0..L-1 of a target certificate and alternates
two exact procedures: a minimum hitting set over the cut family collected
so far (its value is a true lower bound, since every valid clue set must
hit every unavoidable set), and an oracle that looks for an alternate
certificate agreeing with the target on the candidate clue set. Either the
oracle finds none, which proves the candidate is a valid clue set of
minimum size, or the indices where its answer differs yield a new minimal
cut and the loop repeats; every oracle answer is checked, and kept: a query
is answered by the oldest earlier alternate that agrees with the target on
its revealed indices, and only a query that none fits searches. Callers:
`solve_mscp` (a Sudoku grid's cells in row-major order) and `fcp_solve` on
`latin_square_fcp_instance`, both with the oracle `_table_alternate` on
their unit tables, whose search tries the target's digits first so that
an alternate lies near the target and shrinks in few calls, or `fcp_solve`
on any user-built `FcpInstance`. Every oracle has the one signature
`(revealed, budget, stats) -> certificate or None`, so its search nodes
count toward a solve's node budget whoever the caller is. A solve keeps
one `engine._Ticker`: its clock times the trace, and its `spend` shares
what is left of the budget among the searches.
"""
from __future__ import annotations

import logging
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from time import perf_counter
from typing import Callable, Optional, Sequence

from .engine import (
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    _Ticker,
    _completions,
    _first,
    count_solutions,
    # not called here; perfbench/tracing.py wraps this module's name for it
    find_alternate,
)
from .grid import CluePattern, Grid, _Geometry, _check_entries, apply_pattern
# min_hitting_set is not called here; perfbench/tracing.py wraps this name
from .hitting import HittingWalk, _disjoint, min_hitting_set
from .unavoidable import (
    CorruptCollectionError,
    GenerationLimits,
    SetRecord,
    UnavoidableCollection,
    UnavoidableSet,
    generate_all,
    grid_fingerprint,
    minimalize,
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
    """Options of one solve_mscp run: the first `initial_cuts` seed cuts of
    at most `max_cut_size` cells (no cap when None) from `seed_collection`,
    whose sets must be minimal unavoidable sets, checked by `minimalize`,
    or else from the generator; `solve_budget` covers the whole run."""

    initial_cuts: int = 1000
    max_cut_size: Optional[int] = None
    solve_budget: SearchBudget = field(default_factory=SearchBudget)
    seed_collection: Optional[UnavoidableCollection] = None

    def __post_init__(self) -> None:
        if self.initial_cuts < 0:
            raise ValueError("initial_cuts must be at least 0")
        if self.max_cut_size is not None and self.max_cut_size < 1:
            raise ValueError("max_cut_size must be at least 1")


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


_Alternate = Callable[[frozenset, SearchBudget, SearchStats], Optional[Sequence]]


def _alternate_diff(
    target: tuple, alternate: _Alternate, budget: _Ticker, revealed: frozenset
) -> Optional[frozenset]:
    """Indices where `alternate(revealed, share, stats)` differs from the
    target, or None when it finds no other certificate that agrees with the
    target on every revealed index; the one check of every alternate."""
    alt = budget.spend(lambda share, stats: alternate(revealed, share, stats))
    if alt is None:
        return None
    alt = tuple(alt)
    if len(alt) != len(target):
        raise ValueError("alternate certificate has wrong length")
    diff = frozenset(i for i, (a, b) in enumerate(zip(alt, target)) if a != b)
    if not diff:
        raise ValueError("alternate certificate equals the target")
    if diff & revealed:
        raise ValueError("alternate certificate violates the revealed clue")
    return diff


def _table_alternate(geo: _Geometry, target: tuple) -> _Alternate:
    """The loop's oracle on a unit table: the second completion of the
    target masked to the revealed indices, in a search that tries the
    target's digit first at each branch and so yields the target first."""

    def alternate(revealed: frozenset, budget: SearchBudget, stats: SearchStats):
        entries = [v if i in revealed else 0 for i, v in enumerate(target)]
        return _first(_completions(geo, entries, budget, stats, target), skip=1)

    return alternate


def _ihs_loop(
    target: tuple,
    alternate: _Alternate,
    seeds: list[frozenset],
    budget: _Ticker,
) -> FcpResult:
    """Implicit hitting-set loop over the indices 0..len(target)-1.

    `seeds` are minimal index sets known to be unavoidable. One
    `HittingWalk` serves every round. Its family starts as a disjoint
    packing of the seeds and takes in seeds only as candidates miss them,
    so a long seed list costs only what its optimum needs. Each round takes
    the walk's next candidate, whose size is the walk's proven `level`. A
    candidate that misses seeds adds a disjoint packing of them, restarts
    the level from a fresh root and is repaired; a candidate that hits
    every cut goes to the oracle, and a new cut joins the walk where it
    stands. Such a candidate is a minimum hitting set of all cuts, since no
    hitting set of the family, a subfamily of the cuts, is smaller. An
    interrupt keeps the larger of the walk's level and the packing bound
    of all cuts. Trace times count from the start of `budget`; iteration i
    is always `trace[i - 1]`, and a cut the loop adds in iteration i is
    `certificate[len(seeds) + i - 1]`.

    Every query (candidate check, `_shrink` trial, `repair` step) is first
    answered from the diffs of the alternates found so far: the oldest one
    disjoint from the revealed set is a valid answer, since that alternate
    agrees with the target there. The oracle is searched only when none
    fits, and only a search answers None, so `_shrink` stays minimal and
    the loop deterministic. The scan runs oldest first: newest first took
    seven times the nodes to lower 7 on the figure grid. Revealed sets with
    no alternate are not remembered.
    """
    universe = frozenset(range(len(target)))
    found: list[frozenset] = []  # every diff searched, in discovery order

    def find_diff(revealed: frozenset) -> Optional[frozenset]:
        for diff in found:
            if diff.isdisjoint(revealed):
                return diff
        diff = _alternate_diff(target, alternate, budget, revealed)
        if diff is not None:
            found.append(diff)
        return diff

    cuts: list[frozenset] = list(seeds)
    walk = HittingWalk(_disjoint(cuts))
    incumbent = universe
    upper = len(incumbent)
    lower = 0
    trace: list[TraceEntry] = []
    iteration = 1  # the round in progress
    last_repair_lower = -1
    status = MscpStatus.INTERRUPTED  # until the first exact hitting set

    def note(it: int) -> None:
        fields = it, lower, upper, len(cuts), perf_counter() - budget.started
        trace.append(TraceEntry(*fields))
        log.info("iteration %d: lower=%d upper=%d cuts=%d elapsed=%.3fs", *fields)

    def repair(candidate: frozenset, diff: frozenset) -> None:
        # once per lower bound: reveal a cell of each diff until unique; each
        # diff avoids the revealed indices, so this ends by the full reveal
        nonlocal incumbent, upper, last_repair_lower
        if lower + 1 >= upper or lower <= last_repair_lower:
            return
        last_repair_lower = lower
        cells = set(candidate)
        while diff is not None:
            cells.add(min(diff))
            diff = find_diff(frozenset(cells))
        if len(cells) < upper:
            incumbent = frozenset(cells)
            upper = len(cells)

    try:
        while True:
            candidate = budget.spend(walk.next)
            status = MscpStatus.BOUNDS_ONLY
            lower = walk.level
            missed = [cut for cut in cuts if not cut & candidate]
            if missed:
                for member in _disjoint(missed):
                    walk.add(member)
                walk.restart()
                # a missed seed holds the diff of an alternate the candidate allows
                repair(candidate, missed[0])
                continue
            if lower >= upper:
                break
            diff = find_diff(candidate)
            if diff is None:
                incumbent = candidate
                upper = lower
                break
            cut = _shrink(diff, lambda trial: find_diff(universe - trial))
            for existing in cuts:
                if existing <= cut or cut <= existing:
                    raise MscpInternalError("cut already implied by the certificate")
            cuts.append(cut)
            walk.add(cut)
            repair(candidate, diff)
            note(iteration)
            iteration += 1
        status = MscpStatus.OPTIMAL
    except SearchInterrupted:
        # the walk's level is proven, and so is a packing of all the cuts
        lower = max(walk.level, len(_disjoint(cuts)))
    note(iteration)

    return FcpResult(
        status, incumbent, upper, lower, tuple(cuts), iteration, trace, budget.nodes
    )


def solve_mscp(g: Grid, config: Optional[MscpConfig] = None) -> MscpResult:
    """Minimum number of clues (with witness pattern) pinning g uniquely.

    Runs the hitting-set loop over g's cells in row-major index order; its
    oracle asks the propagating search for an alternate directly, as
    `find_alternate` does. The cut family is seeded from
    `config.seed_collection`, or else from the unavoidable-set generator,
    which may spend at most half of the time and half of the nodes of the
    budget. A supplied collection of another grid raises
    FingerprintMismatchError. Each supplied seed used is checked by
    `minimalize` within the same half: one that is not unavoidable
    raises NotUnavoidableError, and one that it shrinks is not minimal and
    raises CorruptCollectionError. One clock runs from the call: trace
    times and the `seconds` of each loop cut include the seeding time. The
    result's certificate collection contains every cut used, each a minimal
    unavoidable set of g.
    """
    cfg = config or MscpConfig()
    budget = _Ticker(cfg.solve_budget)
    cells, index = g.size.all_cells(), g.size.index
    alternate = _table_alternate(_Geometry.get(g.size.n, g.size.s), g.entries)

    certificate = UnavoidableCollection(grid_fingerprint(g), g.size.n)
    with suppress(SearchInterrupted):
        if cfg.seed_collection is not None:
            cfg.seed_collection.check_grid(g)
            cap = cfg.max_cut_size or len(cells)
            fits = [rec for rec in cfg.seed_collection.records if len(rec.cells) <= cap]

            def check(share: SearchBudget, stats: SearchStats) -> None:
                seeding = _Ticker(share)
                try:
                    for rec in fits[: cfg.initial_cuts]:
                        kept = seeding.spend(lambda part, st: minimalize(g, rec.cells, part, st))
                        if kept != rec.cells:
                            raise CorruptCollectionError(f"seed set {rec.cells} is not minimal")
                        certificate.add(rec)
                finally:
                    seeding.record(stats)

            budget.spend(check, parts=2)
        elif cfg.initial_cuts > 0:
            limits = GenerationLimits(max_sets=cfg.initial_cuts, max_size=cfg.max_cut_size)
            seeded = budget.spend(
                lambda share, stats: generate_all(g, limits, stats=stats, budget=share),
                parts=2,
            )
            for rec in seeded.records:
                certificate.add(rec)
    log.debug("seeded %d cuts in %.2fs", len(certificate), perf_counter() - budget.started)
    seeds = [frozenset(index(c) for c in rec.cells) for rec in certificate.records]

    outcome = _ihs_loop(g.entries, alternate, seeds, budget)

    # the loop adds its k-th cut in iteration k + 1, noted in trace[k]
    for cut, entry in zip(outcome.certificate[len(seeds):], outcome.trace):
        certificate.add(SetRecord(UnavoidableSet(cells[i] for i in cut), entry.elapsed))

    return MscpResult(
        status=outcome.status,
        best_pattern=CluePattern(g.size, [i in outcome.best_clue for i in range(len(cells))]),
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
    `alternate_finder(revealed, budget, stats)` is the loop's oracle: it
    must return a different certificate that agrees with the target on
    every revealed index, or None when none exists, and the loop rejects an
    answer that breaks this with ValueError. It should stop with
    SearchInterrupted once it has searched `budget`, and report its search
    nodes in `stats`, which the loop charges to the solve's budget. The
    loop keeps every certificate it returns and calls it only for a
    revealed set on which none of them agrees with the target, so a finder
    is never asked a question an earlier answer settles.
    """

    target: tuple
    alternate_finder: _Alternate


def fcp_solve(instance: FcpInstance, budget: Optional[SearchBudget] = None) -> FcpResult:
    """Fewest revealed indices whose unique consistent certificate is the
    instance target; the loop solve_mscp runs, over certificate indices.

    The loop starts with no seed cuts. Every finder call, the full-reveal
    check included, draws from `budget` like the hitting-set searches; a
    budget that ends during that check raises SearchInterrupted.
    """
    target = tuple(instance.target)
    finder = instance.alternate_finder
    loop_budget = _Ticker(budget)
    universe = frozenset(range(len(target)))
    if loop_budget.spend(lambda share, stats: finder(universe, share, stats)) is not None:
        raise ValueError("target certificate is not uniquely pinned by a full reveal")
    return _ihs_loop(target, finder, [], loop_budget)


def latin_square_fcp_instance(square: Sequence[int]) -> FcpInstance:
    """Fewest-clue instance for an order-n Latin square (no box constraint);
    a square that is not one raises the GridError a board would."""
    n = isqrt(len(square))
    if n < 1:
        raise ValueError("the square is empty")
    geo = _Geometry.get(n, 0)
    # n * n symbols in 1..n, none repeated in a row or column
    target = _check_entries(geo, square, allow_empty=False)
    return FcpInstance(target, _table_alternate(geo, target))
