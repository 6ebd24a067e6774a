"""Property tests: 4x4 optima under relabelling, Sudoku as one fewest-clue
instance of the generic loop, the completion and deviation searches against
their rescanning references, the deviation search against brute force, and
minimal unavoidable sets under the board's symmetries."""
import random
from contextlib import closing
from itertools import islice

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
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    fcp_solve,
    find_alternate,
    find_deviating_grid,
    generate_all,
    solve_mscp,
)
from minclue.engine import _completions, _DeviationSearch, _first, _Ticker
from minclue.grid import _Geometry
import oracle
from reference_completions import reference_solutions
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


def first_completions(solutions, geo, entries, max_nodes, limit, target=None):
    """The first `limit` completions of one search, the nodes it counted,
    and the node at which its budget stopped it (None if it did not)."""
    stats = SearchStats()
    out = []
    completions = solutions(geo, entries, SearchBudget(max_nodes=max_nodes), stats, target)
    try:
        with closing(completions):
            out.extend(islice(completions, limit))
    except SearchInterrupted as exc:
        return out, stats.nodes, exc.nodes
    return out, stats.nodes, None


def assert_matches_reference(geo, target, entries, max_nodes, limit=30):
    # in ascending digit order, and trying the target's digit first
    for order in (None, target):
        got = first_completions(_completions, geo, entries, max_nodes, limit, order)
        want = first_completions(reference_solutions, geo, entries, max_nodes, limit, order)
        assert got == want


def masked(entries, seed, density):
    rng = random.Random(seed)
    return [v if rng.random() < density else 0 for v in entries]


mask_seed = st.integers(min_value=0, max_value=2**32 - 1)
node_budget = st.one_of(st.none(), st.integers(min_value=0, max_value=400))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grid_index, mask_seed, st.floats(0.0, 1.0), node_budget)
def test_completion_search_matches_reference_on_4x4(grid4_objects, idx, seed, density, max_nodes):
    target = grid4_objects[idx].entries
    entries = masked(target, seed, density)
    assert_matches_reference(_Geometry.get(4, 2), target, entries, max_nodes, limit=300)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mask_seed, st.floats(0.15, 0.6), node_budget)
def test_completion_search_matches_reference_on_figure_grid(figure_grid, seed, density, max_nodes):
    entries = masked(figure_grid.entries, seed, density)
    assert_matches_reference(_Geometry.get(9, 3), figure_grid.entries, entries, max_nodes)


latin5_line = st.permutations(range(5))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(latin5_line, latin5_line, latin5_line, mask_seed, st.floats(0.0, 0.7), node_budget)
def test_completion_search_matches_reference_on_latin5(rows, cols, symbols, seed, density, max_nodes):
    # a row, column and symbol permutation of the back-circulant square B_5
    square = [symbols[(rows[r] + cols[c]) % 5] + 1 for r in range(5) for c in range(5)]
    entries = masked(square, seed, density)
    assert_matches_reference(_Geometry.get(5, 0), square, entries, max_nodes)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(mask_seed, st.floats(0.0, 0.8), st.integers(min_value=0, max_value=3000))
def test_completion_search_matches_reference_on_shift16(seed, density, max_nodes):
    # the largest unit table: the most unit scans a placement leaves untouched
    from test_grid import TestBigBoards

    target = TestBigBoards.shift_grid(16)
    entries = masked(target, seed, density)
    assert_matches_reference(_Geometry.get(16, 4), target, entries, max_nodes)


def every_completion(geo, entries, max_nodes, target=None):
    """All completions of one search in its order and the nodes it
    counted, or None and the nodes when its budget stopped it."""
    stats = SearchStats()
    completions = _completions(geo, entries, SearchBudget(max_nodes=max_nodes), stats, target)
    try:
        with closing(completions):
            return list(completions), stats.nodes
    except SearchInterrupted:
        return None, stats.nodes


def assert_target_first_is_exact(geo, target, entries, max_nodes):
    """Trying the target's digit first yields the target first, the same
    completions as ascending order, and the same node count when the
    search runs out; an alternate query that finds none counts the nodes
    of a uniqueness count."""
    ascending, nodes = every_completion(geo, entries, max_nodes)
    ordered, target_nodes = every_completion(geo, entries, max_nodes, target)
    assert target_nodes == nodes
    assert (ordered is None) == (ascending is None)
    if ordered is not None:
        assert len(ordered) == len(ascending) == len(set(ordered))
        assert set(ordered) == set(ascending)
    assert _first(_completions(geo, entries, None, None, target)) == tuple(target)
    stats, unique_stats = SearchStats(), SearchStats()
    if _first(_completions(geo, entries, None, stats, target), skip=1) is None:
        assert sum(1 for _ in _completions(geo, entries, None, unique_stats)) == 1
        assert stats.nodes == unique_stats.nodes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grid_index, mask_seed, st.floats(0.0, 1.0))
def test_target_first_order_is_exact_on_4x4(grid4_objects, idx, seed, density):
    target = grid4_objects[idx].entries
    entries = masked(target, seed, density)
    assert_target_first_is_exact(_Geometry.get(4, 2), target, entries, None)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mask_seed, st.floats(0.3, 1.0))
def test_target_first_order_is_exact_on_figure_grid(figure_grid, seed, density):
    # sparse masks may exceed the budget, in both orders alike
    entries = masked(figure_grid.entries, seed, density)
    assert_target_first_is_exact(_Geometry.get(9, 3), figure_grid.entries, entries, 20_000)


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(grid_index, st.integers(min_value=1, max_value=16), nogood_family)
def test_deviation_search_yields_exactly_the_grids_at_distance_m(
    grids4, grid4_objects, idx, m, nogoods
):
    grid = grid4_objects[idx]
    search = _DeviationSearch(grid, _Ticker(None))
    masks = []
    for group in nogoods:
        indices = [grid.size.index(cell) for cell in group]
        search.add_nogood(indices)
        masks.append(sum(1 << i for i in indices))
    got = list(search.grids(m))
    want = set()
    for board in grids4:
        diff = oracle.diff_mask(grid.entries, board)
        if diff.bit_count() == m and not any(mask & diff == mask for mask in masks):
            want.add(board)
    assert len(got) == len(set(got))
    assert set(got) == want


@st.composite
def line_map(draw, s=2):
    """A permutation of the s*s rows (or columns) of a board with s-line
    bands (stacks) that permutes the bands and the lines within each."""
    bands = draw(st.permutations(range(s)))
    within = [draw(st.permutations(range(s))) for _ in range(s)]
    return [s * bands[i // s] + within[i // s][i % s] for i in range(s * s)]


def index_family(coll):
    assert coll.complete
    n = coll.n
    return {frozenset((c.row - 1) * n + c.col - 1 for c in s) for s in coll.sets}


def assert_family_follows(grid, limits, rows, cols, transpose):
    n = grid.size.n

    def image(i):
        r, c = rows[i // n], cols[i % n]
        return c * n + r if transpose else r * n + c

    entries = [0] * (n * n)
    for i, v in enumerate(grid.entries):
        entries[image(i)] = v
    mapped = Grid(grid.size, entries)
    want = {frozenset(map(image, s)) for s in index_family(generate_all(grid, limits))}
    assert index_family(generate_all(mapped, limits)) == want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(grid_index, line_map(), line_map(), st.booleans())
def test_minimal_sets_follow_the_board_symmetries(grid4_objects, idx, rows, cols, transpose):
    assert_family_follows(grid4_objects[idx], GenerationLimits(), rows, cols, transpose)


# the figure grid's 22 minimal sets of size <= 6, complete in about 0.4 s
@settings(max_examples=5, derandomize=True, deadline=None)
@given(line_map(3), line_map(3), st.booleans())
def test_minimal_sets_follow_the_board_symmetries_9x9(figure_grid, rows, cols, transpose):
    assert_family_follows(figure_grid, GenerationLimits(max_size=6), rows, cols, transpose)
