"""Property tests: 4x4 optima under relabelling, Sudoku as one fewest-clue
instance of the generic loop, the deviation search against its rescanning
reference, and minimal unavoidable sets under the board's symmetries."""
from hypothesis import given, settings
from hypothesis import strategies as st

from minclue import (
    Cell,
    CluePattern,
    DeviationConstraint,
    FcpInstance,
    GenerationLimits,
    Grid,
    MscpConfig,
    SearchStats,
    fcp_solve,
    find_alternate,
    find_deviating_grid,
    generate_all,
    solve_mscp,
)
from reference_deviation import reference_deviating_grid

BARE = MscpConfig(initial_cuts=0)

grid_index = st.integers(min_value=0, max_value=287)
relabelling = st.permutations([1, 2, 3, 4])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(grid_index, relabelling)
def test_relabelling_keeps_the_optimum(grid4_objects, idx, digits):
    grid = grid4_objects[idx]
    relabelled = Grid(grid.size, [digits[v - 1] for v in grid.entries])
    assert solve_mscp(relabelled, BARE).optimum == solve_mscp(grid, BARE).optimum


def sudoku_instance(grid: Grid) -> FcpInstance:
    """The grid as a generic fewest-clue instance over its 16 cell indices."""

    def finder(revealed, budget, stats):
        pattern = CluePattern(grid.size, [i in revealed for i in range(len(grid.entries))])
        alt = find_alternate(grid, pattern, budget, stats)
        return None if alt is None else alt.entries

    return FcpInstance(grid.entries, finder)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(grid_index)
def test_sudoku_is_one_fewest_clue_instance(grid4_objects, idx):
    grid = grid4_objects[idx]
    mscp = solve_mscp(grid, BARE)
    fcp = fcp_solve(sudoku_instance(grid))
    n = grid.size.n

    def index(cells):
        return frozenset((c.row - 1) * n + c.col - 1 for c in cells)

    assert fcp.best_clue == index(mscp.best_pattern.cells())
    assert fcp.certificate == tuple(index(s) for s in mscp.certificate.sets)
    assert (fcp.status, fcp.lower_bound, fcp.upper_bound, fcp.iterations, fcp.nodes) == (
        mscp.status,
        mscp.lower_bound,
        mscp.upper_bound,
        mscp.iterations,
        mscp.nodes,
    )
    assert [(t.lower, t.upper, t.certificate_size) for t in fcp.trace] == [
        (t.lower, t.upper, t.certificate_size) for t in mscp.trace
    ]


cell4 = st.builds(Cell, st.integers(1, 4), st.integers(1, 4))
nogood_family = st.lists(st.frozensets(cell4, min_size=1, max_size=6), max_size=5)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(grid_index, st.integers(min_value=1, max_value=16), nogood_family)
def test_deviation_search_matches_rescanning_reference(grid4_objects, idx, m, nogoods):
    constraint = DeviationConstraint(grid4_objects[idx], m, tuple(nogoods))
    stats, ref_stats = SearchStats(), SearchStats()
    got = find_deviating_grid(constraint, stats=stats)
    assert got == reference_deviating_grid(constraint, ref_stats)
    assert stats.nodes == ref_stats.nodes


@st.composite
def line_map(draw):
    """A permutation of the four rows (or columns) of a 4x4 board that
    permutes the two bands (stacks) and the two lines within each."""
    bands = draw(st.permutations([0, 1]))
    within = [draw(st.permutations([0, 1])) for _ in range(2)]
    return [2 * bands[i // 2] + within[i // 2][i % 2] for i in range(4)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(grid_index, line_map(), line_map(), st.booleans())
def test_minimal_sets_follow_the_board_symmetries(grid4_objects, idx, rows, cols, transpose):
    def image(i):
        r, c = rows[i // 4], cols[i % 4]
        return c * 4 + r if transpose else r * 4 + c

    grid = grid4_objects[idx]
    entries = [0] * 16
    for i, v in enumerate(grid.entries):
        entries[image(i)] = v
    mapped = Grid(grid.size, entries)

    def family(g):
        coll = generate_all(g, GenerationLimits())
        assert coll.complete
        return {frozenset((c.row - 1) * 4 + c.col - 1 for c in s) for s in coll.sets}

    assert family(mapped) == {frozenset(map(image, s)) for s in family(grid)}
