import random
import traceback
from itertools import islice
from math import inf, nan
from time import sleep

import pytest

import oracle
from conftest import GREEN
from minclue import (
    Cell,
    CluePattern,
    DeviationConstraint,
    Grid,
    GridError,
    GridSize,
    Puzzle,
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    SizeMismatchError,
    apply_pattern,
    count_solutions,
    find_alternate,
    find_deviating_grid,
    iter_solutions,
    solve_puzzle,
)
from minclue.engine import _DeviationSearch, _Ticker
from test_grid import recount_units


def pattern_of_givens(puzzle):
    return CluePattern(puzzle.size, [v != 0 for v in puzzle.entries])


class TestCountSolutions:
    def test_figure_unique(self, figure_puzzle):
        assert count_solutions(figure_puzzle, 2) == 1

    def test_figure_minus_one_clue(self, figure_grid, figure_puzzle, size9):
        pattern = pattern_of_givens(figure_puzzle).without([Cell(2, 1)])
        assert pattern.cardinality() == 16
        assert count_solutions(apply_pattern(figure_grid, pattern), 2) == 2

    def test_empty_4x4(self, size4):
        assert count_solutions(Puzzle(size4, [0] * 16), 1000) == 288

    def test_limit_caps(self, size4):
        assert count_solutions(Puzzle(size4, [0] * 16), 10) == 10

    def test_limit_must_be_positive(self, figure_puzzle):
        with pytest.raises(ValueError, match="limit must be positive"):
            count_solutions(figure_puzzle, 0)

    def test_matches_oracle_on_random_masks(self, grids4, grid4_objects, size4):
        rng = random.Random(4242)
        for _ in range(1000):
            idx = rng.randrange(len(grids4))
            mask = [rng.random() < rng.random() for _ in range(16)]
            puzzle = apply_pattern(grid4_objects[idx], CluePattern(size4, mask))
            got = count_solutions(puzzle, 1000)
            assert got == oracle.count_matching(list(grids4), puzzle.entries)

    def test_determinism(self, figure_grid, figure_puzzle):
        runs = []
        for _ in range(2):
            stats = SearchStats()
            count_solutions(figure_puzzle, 2, stats=stats)
            runs.append(stats.nodes)
        assert runs == [64, 64]
        # the same search serves find_alternate, which reaches the grid
        # first and then its alternate, and a long count
        pattern = pattern_of_givens(figure_puzzle).without([Cell(2, 1)])
        stats = SearchStats()
        assert find_alternate(figure_grid, pattern, stats=stats) is not None
        assert stats.nodes == 112
        stats = SearchStats()
        puzzle = apply_pattern(figure_grid, pattern)
        assert count_solutions(puzzle, 1000, stats=stats) == 1000
        assert stats.nodes == 19_403


class TestSolvePuzzle:
    def test_figure(self, figure_puzzle, figure_grid):
        assert solve_puzzle(figure_puzzle) == figure_grid

    def test_full_grid(self, figure_grid, size9):
        assert solve_puzzle(Puzzle(size9, figure_grid.entries)) == figure_grid

    def test_unsatisfiable_but_consistent(self, grids4, size4):
        entries = oracle.find_unsat_consistent_puzzle(list(grids4))
        puzzle = Puzzle(size4, entries)  # constructor accepts: locally consistent
        assert solve_puzzle(puzzle) is None
        assert count_solutions(puzzle, 2) == 0

    def test_solutions_are_sound(self, grids4, grid4_objects, size4):
        rng = random.Random(7)
        for _ in range(200):
            idx = rng.randrange(288)
            mask = [rng.random() < 0.3 for _ in range(16)]
            sol = solve_puzzle(apply_pattern(grid4_objects[idx], CluePattern(size4, mask)))
            assert sol is not None
            assert recount_units(size4, sol.entries)


class TestFindAlternate:
    def test_figure_17_pattern_is_unique(self, figure_grid, figure_puzzle):
        assert find_alternate(figure_grid, pattern_of_givens(figure_puzzle)) is None

    def test_green_swap(self, figure_grid, size9):
        pattern = CluePattern.all_cells(size9).without(GREEN)
        alt = find_alternate(figure_grid, pattern)
        assert alt is not None
        swapped = list(figure_grid.entries)
        for cell in GREEN:
            i = (cell.row - 1) * 9 + cell.col - 1
            swapped[i] = 8 if swapped[i] == 3 else 3
        assert alt == Grid(size9, swapped)

    def test_all_true_unique(self, figure_grid, size9):
        assert find_alternate(figure_grid, CluePattern.all_cells(size9)) is None

    def test_pattern_of_another_size(self, figure_grid, size4):
        with pytest.raises(SizeMismatchError):
            find_alternate(figure_grid, CluePattern.all_cells(size4))

    def test_alternate_lies_next_to_the_grid(self, figure_grid, size9):
        # the grid's digit goes first at every branch, so the alternate comes
        # from backtracking the grid's last decisions; the first completion
        # in ascending digit order differs from it in 69 cells
        alt = find_alternate(figure_grid, CluePattern.no_cells(size9))
        assert sum(a != b for a, b in zip(alt.entries, figure_grid.entries)) <= 10

    def test_all_false_always_has_alternate(self, figure_grid, grid4_objects, size9, size4):
        # the relaxed adversary is never forced to reproduce the target
        assert find_alternate(figure_grid, CluePattern.no_cells(size9)) is not None
        for grid in grid4_objects[:5]:
            alt = find_alternate(grid, CluePattern.no_cells(size4))
            assert alt is not None and alt != grid

    def test_agrees_with_count(self, grids4, grid4_objects, size4):
        rng = random.Random(11)
        for _ in range(400):
            idx = rng.randrange(288)
            mask = [rng.random() < rng.random() for _ in range(16)]
            pattern = CluePattern(size4, mask)
            unique = (
                count_solutions(apply_pattern(grid4_objects[idx], pattern), 2) == 1
            )
            assert (find_alternate(grid4_objects[idx], pattern) is None) == unique


class TestFindDeviatingGrid:
    def test_m4_yields_size4_set(self, figure_grid):
        got = find_deviating_grid(DeviationConstraint(figure_grid, 4))
        assert got is not None
        diff = [a != b for a, b in zip(got.entries, figure_grid.entries)]
        assert sum(diff) == 4

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tiny_m_infeasible(self, figure_grid, m):
        assert find_deviating_grid(DeviationConstraint(figure_grid, m)) is None

    def test_nogoods_respected(self, figure_grid):
        first = find_deviating_grid(DeviationConstraint(figure_grid, 4))
        cells = frozenset(
            Cell(i // 9 + 1, i % 9 + 1)
            for i, (a, b) in enumerate(zip(first.entries, figure_grid.entries))
            if a != b
        )
        second = find_deviating_grid(DeviationConstraint(figure_grid, 4, (cells,)))
        assert second is not None
        cells2 = {
            Cell(i // 9 + 1, i % 9 + 1)
            for i, (a, b) in enumerate(zip(second.entries, figure_grid.entries))
            if a != b
        }
        assert not cells <= cells2

    def test_exact_distance_against_oracle(self, grids4, grid4_objects):
        # with every minimal size-4 set barred, any size-4 answer must avoid
        # covering one of them; cross-check existence against the oracle
        boards = list(grids4)
        for idx in (0, 150):
            diffs = oracle.diff_masks(boards, idx)
            minimal = oracle.minimal_masks(diffs)
            nogood_masks = [m for m in minimal if bin(m).count("1") == 4]
            nogoods = tuple(
                frozenset(
                    Cell(i // 4 + 1, i % 4 + 1) for i in range(16) if m >> i & 1
                )
                for m in nogood_masks
            )
            got = find_deviating_grid(
                DeviationConstraint(grid4_objects[idx], 4, nogoods)
            )
            remaining = [
                d
                for d in diffs
                if bin(d).count("1") == 4
                and not any(d & ng == ng for ng in nogood_masks)
            ]
            if got is None:
                assert not remaining
            else:
                got_mask = oracle.diff_mask(got.entries, boards[idx])
                assert got_mask in remaining

    def test_m_must_be_positive(self, figure_grid):
        with pytest.raises(Exception):
            DeviationConstraint(figure_grid, 0)

    def test_empty_nogood_rejected(self, grid4_objects):
        # no grid keeps a cell of an empty set at its target
        with pytest.raises(GridError, match="at least one cell"):
            DeviationConstraint(grid4_objects[0], 4, (frozenset({Cell(1, 1)}), frozenset()))

    def test_determinism(self, figure_grid):
        a, b = [], []
        for sink in (a, b):
            stats = SearchStats()
            got = find_deviating_grid(DeviationConstraint(figure_grid, 4), stats=stats)
            sink.append((got.entries, stats.nodes))
        assert a == b


class TestExhaustedSubtrees:
    """Below a node whose deviating and forced cells make the distance,
    the deviation search fills in only the forced cells."""

    def test_every_grid_of_a_shared_diff(self, grids4, grid4_objects):
        # grid 0 has a size-12 diff that two other grids share
        by_diff = {}
        for board in grids4:
            diff = oracle.diff_mask(grids4[0], board)
            if diff.bit_count() == 12:
                by_diff.setdefault(diff, set()).add(board)
        shared = [boards for boards in by_diff.values() if len(boards) == 2]
        assert shared
        got = list(_DeviationSearch(grid4_objects[0], _Ticker(None)).grids(12))
        assert len(got) == len(set(got))
        for boards in shared:
            assert boards <= set(got)

    def test_each_digit_leaves_as_many_cells_as_it_enters(self, grids4):
        # and never exactly one: the cell a digit leaves needs the digit
        # back in its row, column and box, which one other cell cannot give
        for a in grids4:
            for b in grids4:
                if a == b:
                    continue
                leaves, enters = [0] * 5, [0] * 5
                for x, y in zip(a, b):
                    if x != y:
                        leaves[x] += 1
                        enters[y] += 1
                assert leaves == enters and 1 not in leaves, (a, b)

    def test_node_budget_ending_inside_a_completion(self, figure_grid):
        # the first size-4 grid costs 358 nodes, the last two of them
        # placements of forced cells, so a budget of 356 runs out on one
        constraint = DeviationConstraint(figure_grid, 4)
        spent = []
        for _ in range(2):
            stats = SearchStats()
            with pytest.raises(SearchInterrupted) as err:
                find_deviating_grid(constraint, SearchBudget(max_nodes=356), stats)
            assert err.value.reason == "nodes"
            assert "_fill" in [frame.name for frame in traceback.extract_tb(err.tb)]
            spent.append(stats.nodes)
        assert spent == [357, 357]
        stats = SearchStats()
        assert find_deviating_grid(constraint, SearchBudget(max_nodes=358), stats)
        assert stats.nodes == 358


class TestBudgets:
    def test_count_interrupt(self, size9):
        with pytest.raises(SearchInterrupted) as err:
            count_solutions(Puzzle(size9, [0] * 81), 10**9, SearchBudget(max_nodes=2000))
        assert err.value.reason == "nodes"

    def test_deviation_interrupt(self, figure_grid):
        with pytest.raises(SearchInterrupted):
            find_deviating_grid(
                DeviationConstraint(figure_grid, 8), SearchBudget(max_nodes=500)
            )

    def test_interrupt_never_wrong(self, figure_puzzle):
        # generous budget: same answer as the unbudgeted run
        assert count_solutions(figure_puzzle, 2, SearchBudget(max_nodes=10**7)) == 1

    @pytest.mark.parametrize(
        "limits",
        [{"max_nodes": -5}, {"max_time": -1.0}, {"max_time": nan}, {"max_nodes": nan}],
    )
    def test_limits_that_make_no_sense_rejected(self, limits):
        with pytest.raises(ValueError):
            SearchBudget(**limits)

    def test_zero_and_unbounded_limits_accepted(self):
        assert SearchBudget(max_nodes=0, max_time=inf).max_time == inf


class TestTickerSpend:
    """A solve's one ticker hands each of its searches a share of what is left."""

    @staticmethod
    def charging(nodes):
        def search(share, stats):
            stats.nodes = nodes
            return share

        return search

    def test_share_is_a_part_of_what_is_left(self):
        ticker = _Ticker(SearchBudget(max_nodes=100, max_time=60.0))
        assert ticker.spend(self.charging(30)).max_nodes == 100
        share = ticker.spend(self.charging(30), parts=2)
        assert share.max_nodes == 35
        assert 0 < share.max_time <= 30.0
        assert ticker.nodes == 60

    def test_interrupted_search_is_charged(self):
        ticker = _Ticker(SearchBudget(max_nodes=100))

        def search(share, stats):
            stats.nodes = share.max_nodes + 1
            raise SearchInterrupted("nodes", stats.nodes)

        with pytest.raises(SearchInterrupted):
            ticker.spend(search)
        assert ticker.nodes == 101

    @pytest.mark.parametrize(
        "budget, reason",
        [(SearchBudget(max_nodes=10), "nodes"), (SearchBudget(max_time=0.0), "time")],
    )
    def test_spent_budget_runs_no_search(self, budget, reason):
        ticker = _Ticker(budget)
        ticker.nodes = 10
        sleep(0.001)  # past the zero-second deadline
        with pytest.raises(SearchInterrupted) as err:
            ticker.spend(lambda share, stats: pytest.fail("searched a spent budget"))
        assert err.value.reason == reason


class TestSixteen:
    def test_shift_grid_search(self):
        size = GridSize.of_side(16)
        from test_grid import TestBigBoards

        grid = Grid(size, TestBigBoards.shift_grid(16))
        full, empty = SearchStats(), SearchStats()
        assert find_alternate(grid, CluePattern.all_cells(size), stats=full) is None
        alt = find_alternate(grid, CluePattern.no_cells(size), stats=empty)
        assert alt is not None
        # the first ascending completion differs from the grid in 192 cells
        assert 0 < sum(a != b for a, b in zip(alt.entries, grid.entries)) <= 8
        # pinned node counts: a full reveal places nothing
        assert (full.nodes, empty.nodes) == (0, 264)


class TestIterSolutions:
    def test_enumerates_exactly_the_completions(self, grids4, size4):
        got = {g.entries for g in iter_solutions(Puzzle(size4, [0] * 16))}
        assert got == set(grids4)

    def test_same_order_as_solve_and_count(self, grid4_objects, size4):
        rng = random.Random(2024)
        for _ in range(210):
            idx = rng.randrange(288)
            mask = [rng.random() < 0.3 for _ in range(16)]
            puzzle = apply_pattern(grid4_objects[idx], CluePattern(size4, mask))
            grids = list(iter_solutions(puzzle))
            assert grids[0] == solve_puzzle(puzzle)
            assert len(grids) == count_solutions(puzzle, 1000)

    def test_lazy_on_empty_9x9(self, size9):
        puzzle = Puzzle(size9, [0] * 81)
        stats = SearchStats()
        solutions = iter_solutions(puzzle, SearchBudget(max_nodes=10_000), stats)
        grids = list(islice(solutions, 3))
        solutions.close()
        assert len(set(grids)) == 3
        assert grids[0] == solve_puzzle(puzzle)
        assert all(recount_units(size9, g.entries) for g in grids)
        assert 0 < stats.nodes <= 10_000
