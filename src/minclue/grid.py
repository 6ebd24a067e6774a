"""Core board types: grids, puzzles, clue patterns, and their text forms.

Cells are 1-based (row, col), row major; row 1 is the top row of the usual
diagram. Box (p, q) covers rows s*p-s+1 .. s*p and columns s*q-s+1 .. s*q.
`GridSize.index` is the one map from a cell to its 0-based row-major index,
and the one bounds check: it raises GridError for a cell off the board.
`GridSize.all_cells()` lists the cells in index order, its one inverse.
All types are immutable after construction and safe to share across threads.

Which cells form a unit is decided once, in the unit table `_Geometry`:
validation here, both searches in `engine` and the LP rows in `export` all
read it. Cell i (0-based, row major) has three slots in one mask array:
its row r, its column n + c and its box 2n + b, with b = (r // s) * s +
c // s.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "GridError",
    "LengthMismatchError",
    "IllegalCharacterError",
    "ConstraintViolationError",
    "SizeMismatchError",
    "GridSize",
    "Cell",
    "Grid",
    "Puzzle",
    "CluePattern",
    "parse_grid",
    "parse_puzzle",
    "apply_pattern",
    "serialize",
    "iter_instance_lines",
]


class GridError(ValueError):
    """Malformed board data: bad text, bad dimensions, or broken constraints."""


class LengthMismatchError(GridError):
    pass


class IllegalCharacterError(GridError):
    pass


class SizeMismatchError(GridError):
    pass


class ConstraintViolationError(GridError):
    """A digit occurs more than once in a row, column, or box."""

    def __init__(self, unit: str, index: int, digit: int):
        super().__init__(f"digit {digit} repeats in {unit} {index}")
        self.unit = unit
        self.index = index
        self.digit = digit


@dataclass(frozen=True)
class GridSize:
    """Board side length n and box side s, with n = s*s and n >= 4."""

    n: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise GridError(f"side length must be at least 4, got {self.n}")
        if self.s < 2 or self.s * self.s != self.n:
            raise GridError(f"side length {self.n} is not the square of box side {self.s}")

    @classmethod
    def of_side(cls, n: int) -> "GridSize":
        s = isqrt(n) if n > 0 else 0
        if s * s != n:
            raise GridError(f"side length must be a perfect square, got {n}")
        return cls(n, s)

    @property
    def cell_count(self) -> int:
        return self.n * self.n

    def index(self, cell: "Cell") -> int:
        """The cell's row-major index; GridError for a cell off the board."""
        if not (1 <= cell.row <= self.n and 1 <= cell.col <= self.n):
            raise GridError(f"cell {cell} out of bounds for {self.n}x{self.n} board")
        return (cell.row - 1) * self.n + cell.col - 1

    def all_cells(self) -> list["Cell"]:
        return [Cell(r, c) for r in range(1, self.n + 1) for c in range(1, self.n + 1)]


@dataclass(frozen=True, order=True)
class Cell:
    """1-based board coordinate; ordering is (row, col) lexicographic."""

    row: int
    col: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.col < 1:
            raise GridError(f"cell coordinates are 1-based, got ({self.row}, {self.col})")

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


class _Geometry:
    """The unit table of side n and box side s, cached by (n, s).

    `slots[i]` is cell i's (row, column, box) slot triple, `members[slot]`
    lists the slot's cells in index order, `peers[i]` the other cells that
    share a slot with cell i, in index order, and `units` lists the slots
    that constrain, in the order row u, column u, box u. s = 0 means no
    boxes (Latin squares): slot 2n + r mirrors row r and is left out of
    `units`. `slot_bits[i]` has bit `slot` set for each slot of cell i in
    `units`, and `all_units` is their union: the completion search marks
    the units a placement changes in such a mask.
    """

    __slots__ = (
        "n", "cells", "full", "slots", "members", "peers", "units", "slot_bits", "all_units"
    )

    _cache: dict[tuple[int, int], "_Geometry"] = {}

    def __init__(self, n: int, s: int):
        self.n = n
        self.cells = n * n
        self.full = (1 << n) - 1
        self.slots: list[tuple[int, int, int]] = []
        self.members: list[list[int]] = [[] for _ in range(3 * n)]
        for i in range(self.cells):
            r, c = divmod(i, n)
            cell_slots = (r, n + c, 2 * n + ((r // s) * s + c // s if s else r))
            self.slots.append(cell_slots)
            for slot in cell_slots:
                self.members[slot].append(i)
        self.peers: list[tuple[int, ...]] = [
            tuple(sorted({j for slot in cell_slots for j in self.members[slot]} - {i}))
            for i, cell_slots in enumerate(self.slots)
        ]
        self.units = [k * n + u for u in range(n) for k in range(3 if s else 2)]
        self.all_units = sum(1 << slot for slot in self.units)
        self.slot_bits = [sum(1 << k for k in ks) & self.all_units for ks in self.slots]

    @classmethod
    def get(cls, n: int, s: int) -> "_Geometry":
        geo = cls._cache.get((n, s))
        if geo is None:
            geo = cls(n, s)
            cls._cache[(n, s)] = geo
        return geo


def _scan_units(geo: _Geometry, entries: Sequence[int]) -> None:
    """Raise ConstraintViolationError on the first repeated nonzero digit,
    checking each cell's row, column and box in turn."""
    n = geo.n
    seen = [0] * (3 * n)
    for i, digit in enumerate(entries):
        if digit:
            bit = 1 << digit
            for slot in geo.slots[i]:
                if seen[slot] & bit:
                    kind = ("row", "col", "box")[slot // n]
                    raise ConstraintViolationError(kind, slot % n + 1, digit)
                seen[slot] |= bit


def _check_entries(geo: _Geometry, entries: Iterable[int], allow_empty: bool) -> tuple[int, ...]:
    """The entries as a tuple, after the one count, range and unit check
    that every board and Latin target runs; 0 (an empty cell) only when
    `allow_empty`. An entry must be an integer (`__index__`): a float or a
    digit string raises IllegalCharacterError, never a truncated board."""
    try:
        entries = tuple(map(operator.index, entries))
    except TypeError as exc:
        raise IllegalCharacterError(f"entries must be integers: {exc}") from None
    if len(entries) != geo.cells:
        raise LengthMismatchError(f"expected {geo.cells} entries, got {len(entries)}")
    low = 0 if allow_empty else 1
    for v in entries:
        if not (low <= v <= geo.n):
            raise IllegalCharacterError(f"entry {v} outside [{low}, {geo.n}]")
    _scan_units(geo, entries)
    return entries


class _Board:
    """Row-major entries of one board, checked once by `_check_entries`.

    The shared base of Grid and Puzzle; only a Puzzle may hold 0, an empty
    cell. Boards of different classes never compare equal.
    """

    __slots__ = ("size", "_entries")
    _allow_empty = False

    def __init__(self, size: GridSize, entries: Iterable[int]):
        self.size = size
        geo = _Geometry.get(size.n, size.s)
        self._entries = _check_entries(geo, entries, self._allow_empty)

    @property
    def entries(self) -> tuple[int, ...]:
        return self._entries

    def entry(self, row: int, col: int) -> int:
        return self[Cell(row, col)]

    def __getitem__(self, cell: Cell) -> int:
        return self._entries[self.size.index(cell)]

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.size == other.size
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.size, self._entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.size.n}x{self.size.n}, {serialize(self)!r})"


class Grid(_Board):
    """A completed board: every row, column, and box holds each digit once."""

    __slots__ = ()


class Puzzle(_Board):
    """A partially given board; 0 marks an empty cell. Givens may not clash."""

    __slots__ = ()
    _allow_empty = True

    @property
    def givens_count(self) -> int:
        return sum(1 for v in self._entries if v)


class CluePattern:
    """A boolean mask over cells selecting which entries are revealed."""

    __slots__ = ("size", "_mask")

    def __init__(self, size: GridSize, mask: Iterable[bool]):
        self.size = size
        self._mask = tuple(bool(v) for v in mask)
        if len(self._mask) != size.cell_count:
            raise LengthMismatchError(
                f"expected {size.cell_count} mask entries, got {len(self._mask)}"
            )

    @classmethod
    def all_cells(cls, size: GridSize) -> "CluePattern":
        return cls(size, [True] * size.cell_count)

    @classmethod
    def no_cells(cls, size: GridSize) -> "CluePattern":
        return cls(size, [False] * size.cell_count)

    @property
    def mask(self) -> tuple[bool, ...]:
        return self._mask

    def cardinality(self) -> int:
        return sum(self._mask)

    def cells(self) -> list[Cell]:
        return [cell for cell, v in zip(self.size.all_cells(), self._mask) if v]

    def without(self, cells: Iterable[Cell]) -> "CluePattern":
        mask = list(self._mask)
        for cell in cells:
            mask[self.size.index(cell)] = False
        return CluePattern(self.size, mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CluePattern)
            and self.size == other.size
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self.size, self._mask))

    def __repr__(self) -> str:
        return f"CluePattern({self.size.n}x{self.size.n}, {self.cardinality()} cells)"


def _parse_entries(text: str, size: GridSize) -> list[int]:
    """One character per cell for n <= 9; comma-separated tokens above.

    '.', '0' and a blank comma token denote an empty cell; every other token
    must be ASCII digits. The board checks the count and the range.
    """
    tokens = list(text) if size.n <= 9 else [tok.strip() for tok in text.split(",")]
    entries: list[int] = []
    for tok in tokens:
        if tok in (".", ""):
            entries.append(0)
        elif tok.isascii() and tok.isdigit():
            entries.append(int(tok))
        else:
            raise IllegalCharacterError(f"illegal entry {tok!r}")
    return entries


def parse_grid(text: str, size: GridSize) -> Grid:
    """Parse a single-line completed grid; rejects any constraint violation."""
    return Grid(size, _parse_entries(text, size))


def parse_puzzle(text: str, size: GridSize) -> Puzzle:
    """Parse a single-line puzzle; '.' or '0' mark empty cells."""
    return Puzzle(size, _parse_entries(text, size))


def serialize(board: Union[Grid, Puzzle]) -> str:
    """Single-line text form; round-trips bit-exact with the parsers.

    Empty puzzle cells serialize as '.'.
    """
    n = board.size.n
    if n <= 9:
        return "".join("." if v == 0 else str(v) for v in board.entries)
    return ",".join("." if v == 0 else str(v) for v in board.entries)


def _masked_entries(grid: Grid, pattern: CluePattern) -> list[int]:
    """The grid's entries, 0 wherever the pattern does not reveal the cell."""
    if grid.size != pattern.size:
        raise SizeMismatchError(
            f"grid is {grid.size.n}x{grid.size.n}, pattern is {pattern.size.n}x{pattern.size.n}"
        )
    return [v if keep else 0 for v, keep in zip(grid.entries, pattern.mask)]


def apply_pattern(grid: Grid, pattern: CluePattern) -> Puzzle:
    """Puzzle revealing exactly the grid entries selected by the pattern."""
    return Puzzle(grid.size, _masked_entries(grid, pattern))


def infer_size(token: str) -> GridSize:
    """Board size implied by one instance token of the grid file format."""
    count = len(token.split(",")) if "," in token else len(token)
    n = isqrt(count)
    if n * n != count:
        raise LengthMismatchError(f"token length {count} is not a square cell count")
    return GridSize.of_side(n)


def iter_instance_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, instance_token) from a grid/puzzle file.

    One instance per line; anything after the first whitespace is a comment.
    Blank lines and lines starting with '#' are skipped, and a leading
    byte-order mark is dropped. A file that is not UTF-8 text raises
    IllegalCharacterError.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    yield lineno, stripped.split()[0]
        except UnicodeDecodeError as exc:
            raise IllegalCharacterError(f"{path} is not UTF-8 text: {exc.reason}") from None
