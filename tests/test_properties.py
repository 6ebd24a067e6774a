"""Property tests: 4x4 optima under relabelling, and Sudoku as one
fewest-clue instance of the generic loop."""
from hypothesis import given, settings
from hypothesis import strategies as st

from minclue import (
    CluePattern,
    FcpInstance,
    Grid,
    MscpConfig,
    fcp_solve,
    find_alternate,
    solve_mscp,
)

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
