import random
from math import isqrt

import pytest

from conftest import FIG_GRID_TEXT, FIG_PUZZLE_TEXT
from minclue import (
    Cell,
    CluePattern,
    ConstraintViolationError,
    Grid,
    GridError,
    GridSize,
    IllegalCharacterError,
    LengthMismatchError,
    Puzzle,
    SizeMismatchError,
    apply_pattern,
    parse_grid,
    parse_puzzle,
    serialize,
)
from minclue.grid import _Geometry, infer_size, iter_instance_lines


def unit_cells(n, s):
    """Rows, columns and boxes as row-major cell-index lists, built
    independently of the library."""
    rows = [[r * n + c for c in range(n)] for r in range(n)]
    cols = [[r * n + c for r in range(n)] for c in range(n)]
    boxes = [
        [r * n + c for r in range(br, br + s) for c in range(bc, bc + s)]
        for br in range(0, n, s)
        for bc in range(0, n, s)
    ]
    return rows, cols, boxes


def recount_units(size, entries):
    """Plain recount of all 4n^2 unit constraints, independent of the library."""
    rows, cols, boxes = unit_cells(size.n, size.s)
    want = list(range(1, size.n + 1))
    return all(sorted(entries[i] for i in unit) == want for unit in rows + cols + boxes)


class TestGridSize:
    def test_of_side(self):
        assert GridSize.of_side(9) == GridSize(9, 3)
        assert GridSize.of_side(16).s == 4

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12])
    def test_rejects_non_square_or_small(self, n):
        with pytest.raises(GridError):
            GridSize.of_side(n)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(GridError):
            GridSize(9, 2)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_index_is_row_major_and_all_cells_its_inverse(self, n):
        size = GridSize.of_side(n)
        cells = size.all_cells()
        assert [size.index(cell) for cell in cells] == list(range(n * n))
        assert cells[size.index(Cell(2, 3))] == Cell(2, 3)
        assert size.index(Cell(2, 3)) == n + 2

    @pytest.mark.parametrize("cell", [Cell(1, 5), Cell(5, 1), Cell(5, 5)])
    def test_index_rejects_cells_off_the_board(self, size4, cell):
        with pytest.raises(GridError, match="out of bounds"):
            size4.index(cell)


class TestCellOrder:
    def test_lexicographic(self):
        assert Cell(1, 9) < Cell(2, 1)
        assert sorted([Cell(2, 1), Cell(1, 2), Cell(1, 1)]) == [
            Cell(1, 1),
            Cell(1, 2),
            Cell(2, 1),
        ]

    def test_one_based(self):
        with pytest.raises(GridError):
            Cell(0, 1)


class TestParseGrid:
    def test_figure_grid(self, size9, figure_grid):
        assert figure_grid.entry(1, 1) == 7
        assert figure_grid.entry(9, 9) == 4
        assert recount_units(size9, figure_grid.entries)

    def test_serialize_round_trip(self, size9):
        assert serialize(parse_grid(FIG_GRID_TEXT, size9)) == FIG_GRID_TEXT

    def test_reads_off_the_board_raise(self, size4):
        # a wrapped index would read another cell's digit: (1, 5) is (2, 1)
        grid = parse_grid("1234341221434321", size4)
        assert grid.entry(2, 1) == 3 and grid[Cell(4, 4)] == 1
        for read in (
            lambda: grid.entry(0, 1),
            lambda: grid.entry(1, 5),
            lambda: grid[Cell(1, 5)],
            lambda: grid[Cell(5, 1)],
        ):
            with pytest.raises(GridError):
                read()

    def test_length_mismatch(self, size9):
        with pytest.raises(LengthMismatchError):
            parse_grid(FIG_GRID_TEXT[:-1], size9)

    def test_illegal_character(self, size4):
        with pytest.raises(IllegalCharacterError):
            parse_grid("12345678" + "1" * 8, size4)

    # the figure grid starts with 7: put superscript two (str.isdigit accepts
    # it) or the Arabic-Indic seven in its place
    @pytest.mark.parametrize("first", ["\u00b2", "\u0667"])
    def test_only_ascii_digits(self, size9, first):
        with pytest.raises(IllegalCharacterError):
            parse_grid(first + FIG_GRID_TEXT[1:], size9)

    # int() would truncate 1.7 to 1 and parse "1"; an entry must be an integer
    @pytest.mark.parametrize("entry", [lambda v: v + 0.7, str], ids=["float", "string"])
    def test_entries_must_be_integers(self, size4, entry):
        entries = parse_grid("1234341221434321", size4).entries
        with pytest.raises(IllegalCharacterError):
            Grid(size4, [entry(v) for v in entries])

    def test_row_violation(self, size4):
        # the 16-char example floated for this case is actually a valid grid
        assert parse_grid("1234341221434321", size4) is not None
        with pytest.raises(ConstraintViolationError) as err:
            parse_grid("1134341221434321", size4)
        assert err.value.unit == "row" and err.value.digit == 1

    def test_column_violation(self, size4):
        # rows are clean; (4,1) repeats the 1 of column 1 before its box does
        with pytest.raises(ConstraintViolationError) as err:
            parse_grid("1234341221431234", size4)
        assert (err.value.unit, err.value.index, err.value.digit) == ("col", 1, 1)

    def test_box_violation(self, size4):
        # rows and columns are clean; only the top-left box repeats digits
        with pytest.raises(ConstraintViolationError) as err:
            parse_grid("1234214334124321", size4)
        assert err.value.unit == "box"

    def test_all_oracle_grids_parse(self, grids4, size4):
        for board in grids4:
            text = "".join(str(v) for v in board)
            grid = parse_grid(text, size4)
            assert serialize(grid) == text

    def test_non_grids_rejected(self, grids4, size4):
        rng = random.Random(20240)
        valid = set(grids4)
        rejected = 0
        for _ in range(300):
            board = tuple(rng.randint(1, 4) for _ in range(16))
            if board in valid:
                continue
            with pytest.raises(ConstraintViolationError):
                parse_grid("".join(map(str, board)), size4)
            rejected += 1
        assert rejected > 250


class TestParsePuzzle:
    def test_figure_puzzle(self, figure_puzzle):
        assert figure_puzzle.givens_count == 17
        assert figure_puzzle.entry(1, 4) == 6
        assert figure_puzzle.entry(9, 4) == 5

    def test_zero_and_dot_interchangeable(self, size9):
        assert parse_puzzle(FIG_PUZZLE_TEXT.replace(".", "0"), size9) == parse_puzzle(
            FIG_PUZZLE_TEXT, size9
        )

    def test_empty_puzzle(self, size9):
        p = parse_puzzle("." * 81, size9)
        assert p.givens_count == 0
        assert serialize(p) == "." * 81

    def test_full_puzzle(self, size9):
        p = parse_puzzle(FIG_GRID_TEXT, size9)
        assert p.givens_count == 81

    def test_conflicting_givens(self, size9):
        text = "11" + "." * 79
        with pytest.raises(ConstraintViolationError):
            parse_puzzle(text, size9)


class TestApplyPattern:
    def test_identity(self, figure_grid):
        puzzle = apply_pattern(figure_grid, CluePattern.all_cells(figure_grid.size))
        assert puzzle.entries == figure_grid.entries

    def test_empty(self, figure_grid):
        puzzle = apply_pattern(figure_grid, CluePattern.no_cells(figure_grid.size))
        assert puzzle.givens_count == 0

    def test_figure_17_pattern(self, figure_grid, figure_puzzle, size9):
        pattern = CluePattern(size9, [v != 0 for v in figure_puzzle.entries])
        assert apply_pattern(figure_grid, pattern) == figure_puzzle

    def test_size_mismatch(self, figure_grid, size4):
        with pytest.raises(SizeMismatchError):
            apply_pattern(figure_grid, CluePattern.all_cells(size4))

    def test_pattern_length_checked(self, size4):
        with pytest.raises(LengthMismatchError, match="expected 16 mask entries, got 15"):
            CluePattern(size4, [True] * 15)

    def test_givens_equal_cardinality(self, figure_grid, size9):
        rng = random.Random(99)
        for _ in range(200):
            mask = [rng.random() < 0.4 for _ in range(81)]
            pattern = CluePattern(size9, mask)
            assert (
                apply_pattern(figure_grid, pattern).givens_count
                == pattern.cardinality()
            )


class TestValueSemantics:
    def test_boards_compare_by_class_size_and_entries(self, size4):
        text = "1234341221434321"
        grid = parse_grid(text, size4)
        assert repr(grid) == "Grid(4x4, '1234341221434321')"
        same = parse_grid(text, size4)
        assert grid == same and hash(grid) == hash(same)
        assert grid != parse_puzzle(text, size4)
        assert grid != parse_grid("1234342121434312", size4)

    def test_patterns_compare_by_size_and_mask(self, size4):
        pattern = CluePattern.no_cells(size4)
        assert repr(pattern) == "CluePattern(4x4, 0 cells)"
        assert pattern == CluePattern(size4, [False] * 16)
        assert hash(pattern) == hash(CluePattern(size4, [False] * 16))
        assert pattern != CluePattern.all_cells(size4)
        assert pattern != CluePattern.no_cells(GridSize.of_side(9))
        assert pattern != pattern.mask


class TestBigBoards:
    @staticmethod
    def shift_grid(n):
        s = int(n**0.5)
        return [
            (s * (r % s) + r // s + c) % n + 1 for r in range(n) for c in range(n)
        ]

    def test_16x16_comma_format(self):
        size = GridSize.of_side(16)
        grid = Grid(size, self.shift_grid(16))
        text = serialize(grid)
        assert "," in text
        assert parse_grid(text, size) == grid
        assert recount_units(size, grid.entries)

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0661"])
    def test_16x16_rejects_non_ascii_digit_tokens(self, token):
        size = GridSize.of_side(16)
        tokens = serialize(Grid(size, self.shift_grid(16))).split(",")
        tokens[0] = token
        with pytest.raises(IllegalCharacterError):
            parse_puzzle(",".join(tokens), size)

    def test_16x16_puzzle_round_trip(self):
        size = GridSize.of_side(16)
        entries = self.shift_grid(16)
        entries[5] = 0
        entries[255] = 0
        puzzle = Puzzle(size, entries)
        assert parse_puzzle(serialize(puzzle), size) == puzzle


class TestUnitTable:
    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_scans_exactly_rows_columns_and_boxes(self, n):
        geo = _Geometry.get(n, isqrt(n))
        rows, cols, boxes = unit_cells(n, isqrt(n))
        want = [unit for u in range(n) for unit in (rows[u], cols[u], boxes[u])]
        assert [geo.members[slot] for slot in geo.units] == want
        # each cell lies in exactly its row, column and box
        for i, cell_slots in enumerate(geo.slots):
            assert [i in geo.members[slot] for slot in range(3 * n)].count(True) == 3
            assert all(i in geo.members[slot] for slot in cell_slots)

    @pytest.mark.parametrize("n", [4, 5])
    def test_latin_table_scans_rows_and_columns(self, n):
        geo = _Geometry.get(n, 0)
        rows, cols, _ = unit_cells(n, 1)
        want = [unit for u in range(n) for unit in (rows[u], cols[u])]
        assert [geo.members[slot] for slot in geo.units] == want


class TestInstanceFiles:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "grids.txt"
        path.write_text(
            "# full-line comment\n\n"
            f"{FIG_GRID_TEXT}  trailing words ignored\n"
            "1234341221434321\n"
        )
        items = list(iter_instance_lines(path))
        assert [lineno for lineno, _ in items] == [3, 4]
        assert items[0][1] == FIG_GRID_TEXT

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("1234341221434321 caf\xe9\n".encode("latin-1"))
        with pytest.raises(IllegalCharacterError, match="is not UTF-8 text"):
            list(iter_instance_lines(path))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1234341221434321\n")
        assert list(iter_instance_lines(path)) == [(1, "1234341221434321")]

    def test_infer_size(self):
        assert infer_size(FIG_GRID_TEXT).n == 9
        assert infer_size("1234341221434321").n == 4
        assert infer_size(",".join(["1"] * 256)).n == 16
        with pytest.raises(LengthMismatchError):
            infer_size("12345")
