"""Minimal unavoidable sets: discovery, shrinking, storage.

An unavoidable set of a completed grid is a cell set on which some other
completed grid differs while agreeing everywhere else; every puzzle whose
unique solution is the grid must reveal at least one cell of each such set.
The generator walks deviation distances m = 1, 2, 3, ... with one search per
distance. Every set found so far is excluded; after emitting a set the
search resumes where it stopped instead of restarting. Each emitted set is
therefore minimal, and the run eventually exhausts all minimal sets
(subject to the configured limits).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional

from .engine import (
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    _DeviationSearch,
    _Ticker,
    find_alternate,
    # not called here; perfbench/tracing.py wraps this module's name for it
    find_deviating_grid,
)
from .grid import Cell, CluePattern, Grid, GridError, GridSize, serialize

__all__ = [
    "UnavoidableSet",
    "SetRecord",
    "UnavoidableCollection",
    "GenerationLimits",
    "NotUnavoidableError",
    "FingerprintMismatchError",
    "CorruptCollectionError",
    "grid_fingerprint",
    "is_unavoidable",
    "minimalize",
    "generate_all",
    "save_collection",
    "load_collection",
]


class NotUnavoidableError(ValueError):
    pass


class FingerprintMismatchError(ValueError):
    pass


class CorruptCollectionError(ValueError):
    pass


def grid_fingerprint(grid: Grid) -> str:
    """Stable 64-bit hash of the serialized grid, as 16 hex digits."""
    return hashlib.blake2b(serialize(grid).encode("ascii"), digest_size=8).hexdigest()


class UnavoidableSet:
    """An immutable, canonically sorted set of cells."""

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[Cell]):
        self.cells: tuple[Cell, ...] = tuple(sorted(set(cells)))
        if not self.cells:
            raise GridError("an unavoidable set cannot be empty")

    @property
    def size(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def as_frozenset(self) -> frozenset[Cell]:
        return frozenset(self.cells)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnavoidableSet) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        inner = " ".join(f"{c.row},{c.col}" for c in self.cells)
        return f"UnavoidableSet[{inner}]"


@dataclass(frozen=True)
class SetRecord:
    """One stored set and the seconds from the start of its run to its
    discovery. Its index (the position) and size are written, not stored."""

    cells: UnavoidableSet
    seconds: float


class UnavoidableCollection:
    """Insertion-ordered store of minimal unavoidable sets of one grid.

    Members must be minimal, but the store checks only that they form an
    antichain (no member contains another); violated inserts raise
    CorruptCollectionError, and a cell off the n x n board raises GridError.
    solve_mscp rejects a seed set that `minimalize` shrinks. `complete` is False
    when generation was cut short by a limit rather than exhausting the
    requested size range.
    """

    def __init__(self, fingerprint: str, n: int, complete: bool = True):
        self.fingerprint = fingerprint
        self.n = n
        self.size = GridSize.of_side(n)
        self.complete = complete
        self._records: list[SetRecord] = []
        self._family: list[frozenset[Cell]] = []

    def add(self, record: SetRecord) -> None:
        for cell in record.cells:
            self.size.index(cell)
        new = record.cells.as_frozenset()
        for existing in self._family:
            if existing <= new or new <= existing:
                raise CorruptCollectionError(
                    f"antichain violated: {record.cells} vs stored member"
                )
        self._records.append(record)
        self._family.append(new)

    @property
    def records(self) -> tuple[SetRecord, ...]:
        return tuple(self._records)

    @property
    def sets(self) -> tuple[UnavoidableSet, ...]:
        return tuple(r.cells for r in self._records)

    def family(self) -> list[frozenset[Cell]]:
        return list(self._family)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.sets)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnavoidableCollection)
            and self.fingerprint == other.fingerprint
            and self.n == other.n
            and self.complete == other.complete
            and self.records == other.records
        )

    def check_grid(self, g: Grid) -> None:
        """Raise FingerprintMismatchError unless the collection belongs to
        g: the same board side and the same grid fingerprint."""
        if self.n != g.size.n:
            raise FingerprintMismatchError(
                f"collection is for a board of side {self.n}, the grid has side {g.size.n}"
            )
        if self.fingerprint != grid_fingerprint(g):
            raise FingerprintMismatchError("collection was generated from a different grid")

    def __repr__(self) -> str:
        return (
            f"UnavoidableCollection(n={self.n}, sets={len(self)}, "
            f"complete={self.complete})"
        )


@dataclass(frozen=True)
class GenerationLimits:
    """Stop conditions for generate_all."""

    max_sets: int = 5000
    max_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_sets < 1:
            raise ValueError("max_sets must be at least 1")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be at least 1")


def is_unavoidable(
    g: Grid,
    cells: Iterable[Cell],
    budget: Optional[SearchBudget] = None,
) -> bool:
    """True iff some other grid agrees with g everywhere outside `cells`."""
    pattern = CluePattern.all_cells(g.size).without(cells)
    return find_alternate(g, pattern, budget) is not None


def minimalize(
    g: Grid,
    cells: Iterable[Cell],
    budget: Optional[SearchBudget] = None,
    stats: Optional[SearchStats] = None,
) -> UnavoidableSet:
    """Shrink an unavoidable set until no single cell can be dropped.

    Deletions are attempted from the canonically last cell backwards, so the
    survivor is biased toward the earliest rows and columns. The node and
    time `budget` covers the whole shrink, every search of it together;
    `stats` gets the nodes of them all, also when the shrink raises
    NotUnavoidableError or SearchInterrupted.
    """
    ticker = _Ticker(budget)
    full = CluePattern.all_cells(g.size)

    def unavoidable(trial: set) -> bool:
        pattern = full.without(trial)
        alt = ticker.spend(lambda share, stats: find_alternate(g, pattern, share, stats))
        return alt is not None

    keep = set(cells)
    try:
        if not unavoidable(keep):
            raise NotUnavoidableError(f"{sorted(keep)} is not unavoidable")
        for cell in sorted(keep, reverse=True):
            trial = keep - {cell}
            if trial and unavoidable(trial):
                keep = trial
    finally:
        ticker.record(stats)
    return UnavoidableSet(keep)


def generate_all(
    g: Grid,
    limits: GenerationLimits = GenerationLimits(),
    stats: Optional[SearchStats] = None,
    budget: Optional[SearchBudget] = None,
) -> UnavoidableCollection:
    """Enumerate minimal unavoidable sets in nondecreasing size order.

    One deviation search object serves the whole run: for each distance
    m = 4, 5, ... it runs until no further grid exists at that distance.
    No grid is nearer: a row or column meeting a diff meets it twice, so a
    diff cell, one in its row, one in that one's column and one in that
    one's row are four distinct cells.
    Each emitted set becomes a nogood in place, kept for every later
    distance, and the search resumes from where it stopped instead of
    restarting. Excluding emitted sets guarantees each new set is itself
    minimal, so no shrinking pass is needed. Each record's `seconds` is the
    time from the call to the set's discovery. The node and time `budget`
    covers the whole run; using it up cuts the run short and flags the
    collection incomplete rather than returning a wrong answer.
    """
    collection = UnavoidableCollection(grid_fingerprint(g), g.size.n)
    ticker = _Ticker(budget)
    search = _DeviationSearch(g, ticker)
    max_size = limits.max_size if limits.max_size is not None else g.size.cell_count
    max_size = min(max_size, g.size.cell_count)
    cells = g.size.all_cells()
    try:
        for m in range(4, max_size + 1):
            for values in search.grids(m):
                elapsed = perf_counter() - ticker.started
                diff = [i for i, (v, t) in enumerate(zip(values, g.entries)) if v != t]
                collection.add(SetRecord(UnavoidableSet(cells[i] for i in diff), elapsed))
                search.add_nogood(diff)
                if len(collection) >= limits.max_sets:
                    collection.complete = False
                    break
            if not collection.complete:
                break
    except SearchInterrupted:
        collection.complete = False
    ticker.record(stats)
    return collection


_HEADER_PREFIX = "MSCPUNAV v1"


def save_collection(collection: UnavoidableCollection, path) -> None:
    """Plain-text dump: header, then one set per line with its metadata.

    A set line reads `m=<size>: r,c r,c ... # index=<k> found_at_m=<size>
    seconds=<s>`. `index` (the position) and `found_at_m` (the size) are
    written for readers of the file; they are not stored in the records.
    """
    lines = [
        f"{_HEADER_PREFIX} n={collection.n} fingerprint={collection.fingerprint} "
        f"complete={int(collection.complete)}"
    ]
    for index, rec in enumerate(collection.records):
        cells = " ".join(f"{c.row},{c.col}" for c in rec.cells)
        lines.append(
            f"m={rec.cells.size}: {cells} "
            f"# index={index} found_at_m={rec.cells.size} seconds={rec.seconds!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_collection(path, grid: Optional[Grid] = None) -> UnavoidableCollection:
    """Read a collection back, verifying header, antichain, and (when a grid
    is supplied) the board side and the grid fingerprint. The collection
    itself checks that every cell lies on its n x n board. The optional
    `index` and `found_at_m` comments must be integers; save_collection
    rewrites them from the position and the size. One leading UTF-8
    byte-order mark is dropped; any other byte that is not ASCII, even in a
    comment, raises CorruptCollectionError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorruptCollectionError(f"{path} is not ASCII text: {exc.reason}") from None
    if not text.isascii():
        raise CorruptCollectionError(f"{path} is not ASCII text: a non-ASCII character")
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise CorruptCollectionError("missing collection header")
    header = dict(
        part.split("=", 1) for part in lines[0][len(_HEADER_PREFIX):].split() if "=" in part
    )
    try:
        complete = bool(int(header.get("complete", "1")))
        collection = UnavoidableCollection(header["fingerprint"], int(header["n"]), complete)
    except (KeyError, ValueError) as exc:
        raise CorruptCollectionError(f"bad header: {lines[0]!r}") from exc
    if grid is not None:
        collection.check_grid(grid)
    for lineno, line in enumerate(lines[1:], start=2):
        body, _, comment = line.partition("#")
        head, _, cell_text = body.partition(":")
        if not head.strip().startswith("m="):
            raise CorruptCollectionError(f"line {lineno}: expected 'm=<size>:'")
        meta = dict(part.split("=", 1) for part in comment.split() if "=" in part)
        try:
            # written from the position and the size: checked, not kept
            int(meta.get("index", 0)), int(meta.get("found_at_m", 0))
            seconds = float(meta.get("seconds", 0.0))
        except ValueError as exc:
            raise CorruptCollectionError(f"line {lineno}: bad metadata") from exc
        try:
            declared = int(head.strip()[2:])
            pairs = (tok.split(",") for tok in cell_text.split())
            cells = [Cell(int(r), int(c)) for r, c in pairs]
            if len(cells) != declared or len(set(cells)) != declared:
                raise ValueError(f"declared size {declared} does not match cells")
            collection.add(SetRecord(UnavoidableSet(cells), seconds))
        except ValueError as exc:  # GridError and CorruptCollectionError among them
            raise CorruptCollectionError(f"line {lineno}: {exc}") from exc
    return collection
