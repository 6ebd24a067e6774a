import random

import pytest

import generator_throughput
from conftest import BLUE, GREEN, RED
from reference_deviation import diff_cells, reference_generate
from minclue import (
    Cell,
    CluePattern,
    CorruptCollectionError,
    DeviationConstraint,
    FingerprintMismatchError,
    GenerationLimits,
    Grid,
    GridError,
    NotUnavoidableError,
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    UnavoidableCollection,
    UnavoidableSet,
    find_deviating_grid,
    generate_all,
    grid_fingerprint,
    is_unavoidable,
    load_collection,
    minimalize,
    save_collection,
    verify_validity,
)
from minclue.unavoidable import SetRecord


def swap_cells(grid, cells, mapping):
    entries = list(grid.entries)
    n = grid.size.n
    for cell in cells:
        i = (cell.row - 1) * n + cell.col - 1
        entries[i] = mapping[entries[i]]
    return Grid(grid.size, entries)


@pytest.fixture(scope="module")
def green_variant(figure_grid):
    return swap_cells(figure_grid, GREEN, {3: 8, 8: 3})


@pytest.fixture(scope="module")
def blue_variant(figure_grid):
    # rows 4 and 7 swap their first three columns
    entries = list(figure_grid.entries)
    for col in range(3):
        i4 = 3 * 9 + col
        i7 = 6 * 9 + col
        entries[i4], entries[i7] = entries[i7], entries[i4]
    return Grid(figure_grid.size, entries)


class TestDiffCells:
    def test_green(self, figure_grid, green_variant):
        assert diff_cells(figure_grid, green_variant) == UnavoidableSet(GREEN)

    def test_blue(self, figure_grid, blue_variant):
        assert diff_cells(figure_grid, blue_variant) == UnavoidableSet(BLUE)


class TestIsUnavoidable:
    def test_colored_sets(self, figure_grid):
        assert is_unavoidable(figure_grid, GREEN)
        assert is_unavoidable(figure_grid, BLUE)
        assert is_unavoidable(figure_grid, RED)

    def test_single_cell_never(self, figure_grid):
        assert not is_unavoidable(figure_grid, [Cell(5, 5)])


class TestMinimalize:
    def test_green_already_minimal(self, figure_grid):
        assert minimalize(figure_grid, GREEN) == UnavoidableSet(GREEN)

    def test_union_keeps_canonically_first_set(self, figure_grid):
        got = minimalize(figure_grid, GREEN + BLUE)
        assert got == UnavoidableSet(GREEN)

    def test_idempotent(self, figure_grid):
        once = minimalize(figure_grid, RED)
        assert minimalize(figure_grid, once.cells) == once

    def test_rejects_avoidable_input(self, figure_grid):
        with pytest.raises(NotUnavoidableError):
            minimalize(figure_grid, [Cell(1, 1), Cell(2, 2)])

    def test_budget_covers_the_whole_shrink(self, size4):
        # nine searches of 12+11+6+10+5+9+4+8+3 = 68 nodes in all
        grid = Grid(size4, [1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 4, 3, 4, 3, 2, 1])
        cells = size4.all_cells()[:8]
        want = UnavoidableSet([Cell(1, 1), Cell(1, 3), Cell(2, 1), Cell(2, 3)])
        assert minimalize(grid, cells) == want
        with pytest.raises(SearchInterrupted):
            minimalize(grid, cells, SearchBudget(max_nodes=12))
        assert minimalize(grid, cells, SearchBudget(max_nodes=68)) == want

    def test_stats_count_the_whole_shrink(self, size4):
        # the 68 nodes above, also when one node too few stops the ninth
        # search on its third node, and when the input is avoidable
        grid = Grid(size4, [1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 4, 3, 4, 3, 2, 1])
        cells = size4.all_cells()[:8]
        stats = SearchStats()
        minimalize(grid, cells, stats=stats)
        assert stats.nodes == 68
        stats = SearchStats()
        with pytest.raises(SearchInterrupted):
            minimalize(grid, cells, SearchBudget(max_nodes=67), stats)
        assert stats.nodes == 68
        stats = SearchStats()
        with pytest.raises(NotUnavoidableError):
            minimalize(grid, [Cell(1, 1), Cell(2, 2)], stats=stats)
        assert stats.nodes > 0


def emitted(collection):
    """(set, m) pairs: a set found at distance m has exactly m cells."""
    return [(rec.cells, rec.cells.size) for rec in collection.records]


def restart_reference(grid, max_sets):
    """(set, m) pairs in the order that one-shot searches find them when each
    restarts at the same distance with every earlier set as a nogood."""
    out = []
    nogoods = []
    m = 1
    while m <= grid.size.cell_count and len(out) < max_sets:
        found = find_deviating_grid(DeviationConstraint(grid, m, tuple(nogoods)))
        if found is None:
            m += 1
            continue
        cells = diff_cells(grid, found)
        out.append((cells, m))
        nogoods.append(cells.as_frozenset())
    return out


class TestGenerateAll:
    def test_figure_size4_contains_green(self, figure_grid):
        coll = generate_all(figure_grid, GenerationLimits(max_sets=100, max_size=4))
        assert UnavoidableSet(GREEN) in set(coll.sets)
        assert coll.complete
        assert all(s.size == 4 for s in coll.sets)

    def test_4x4_complete_matches_oracle(self, grid4_objects, oracle_minimal_sets):
        # every 29th of the 288 grids, plus grid 17
        for idx in sorted({17, *range(0, 288, 29)}):
            coll = generate_all(grid4_objects[idx], GenerationLimits(max_sets=5000))
            got = {s.as_frozenset() for s in coll.sets}
            assert got == set(oracle_minimal_sets[idx]), idx
            sizes = [s.size for s in coll.sets]
            assert sizes == sorted(sizes)

    @pytest.mark.parametrize("idx", range(0, 288, 29))
    def test_4x4_sequence_matches_restarts(self, grid4_objects, idx):
        grid = grid4_objects[idx]
        limits = GenerationLimits(max_sets=5000)
        stats, ref_stats = SearchStats(), SearchStats()
        coll = generate_all(grid, limits, stats=stats)
        assert coll.complete
        assert emitted(coll) == restart_reference(grid, 5000)
        assert (emitted(coll), True) == reference_generate(grid, limits, ref_stats)
        assert stats.nodes == ref_stats.nodes

    def test_figure_sequence_matches_restarts(self, figure_grid):
        coll = generate_all(figure_grid, GenerationLimits(max_sets=8))
        assert emitted(coll) == restart_reference(figure_grid, 8)

    def test_figure_node_gate(self, figure_grid):
        # restarting the search after every set took 651,285 nodes here
        limits = generator_throughput.LIMITS
        stats, ref_stats = SearchStats(), SearchStats()
        coll = generate_all(figure_grid, limits, stats=stats)
        assert generator_throughput.outcome(coll, stats) == generator_throughput.PIN
        assert (emitted(coll), False) == reference_generate(figure_grid, limits, ref_stats)
        assert stats.nodes == ref_stats.nodes

    def test_sets_and_order_match_the_pin(self, figure_grid, grid4_objects):
        # pruning may only cut nodes: the digest was taken before the search
        # tracked forced cells, and the sets and their order must not move
        stats = SearchStats()
        colls = [generate_all(figure_grid, GenerationLimits(max_sets=45), stats=stats)]
        assert stats.nodes == 55_011
        total = 0
        for grid in grid4_objects:
            colls.append(generate_all(grid, GenerationLimits(), stats=stats))
            total += stats.nodes
        assert total == 461_088
        assert generator_throughput.digest(colls) == (
            "12ed0eb94a7850fa89c226a31869d3a532e76ce78d04646cebb8aec449bc63c3"
        )

    def test_no_superset_emissions(self, grid4_objects):
        coll = generate_all(grid4_objects[200], GenerationLimits(max_sets=5000))
        fams = coll.family()
        for later in range(len(fams)):
            for earlier in range(later):
                assert not fams[earlier] <= fams[later]

    def test_record_seconds_are_discovery_times(self, grid4_objects):
        stats = SearchStats()
        coll = generate_all(grid4_objects[3], GenerationLimits(max_sets=7), stats=stats)
        seconds = [rec.seconds for rec in coll.records]
        assert len(seconds) == 7
        assert 0.0 <= seconds[0] and seconds == sorted(seconds)
        assert seconds[-1] <= stats.elapsed
        assert not coll.complete  # cut off by max_sets

    def test_max_sets_validation(self):
        for bad in ({"max_sets": 0}, {"max_size": 0}, {"max_size": -3}):
            with pytest.raises(ValueError):
                GenerationLimits(**bad)

    def test_time_limit_marks_incomplete(self, figure_grid):
        coll = generate_all(
            figure_grid, GenerationLimits(max_sets=5000), budget=SearchBudget(max_time=0.3)
        )
        assert not coll.complete

    def test_node_limit_marks_incomplete(self, figure_grid):
        # the first size-4 set costs 358 nodes
        stats = SearchStats()
        coll = generate_all(
            figure_grid,
            GenerationLimits(max_sets=5000),
            stats=stats,
            budget=SearchBudget(max_nodes=350),
        )
        assert not coll.complete and len(coll) == 0
        assert stats.nodes == 351


class TestProposition1Sampled:
    def test_validity_iff_hitting_on_sampled_patterns(
        self, grids4, grid4_objects, oracle_minimal_sets, size4
    ):
        rng = random.Random(515)
        for idx in (5, 99, 250):
            sets = oracle_minimal_sets[idx]
            grid = grid4_objects[idx]
            for _ in range(200):
                mask = [rng.random() < rng.random() for _ in range(16)]
                pattern = CluePattern(size4, mask)
                chosen = frozenset(pattern.cells())
                hits_all = all(chosen & member for member in sets)
                assert verify_validity(grid, pattern) == hits_all


class TestSymmetryTransport:
    def test_colored_sets_survive_relabeling(self, figure_grid, size9):
        rng = random.Random(77)
        digits = list(range(1, 10))
        rng.shuffle(digits)
        mapping = {d: digits[d - 1] for d in range(1, 10)}
        relabeled = Grid(size9, [mapping[v] for v in figure_grid.entries])
        for cells in (GREEN, BLUE, RED):
            assert is_unavoidable(relabeled, cells)
            assert minimalize(relabeled, cells) == UnavoidableSet(cells)

    def test_4x4_family_invariant_under_relabeling(self, grid4_objects, size4):
        grid = grid4_objects[42]
        mapping = {1: 3, 2: 1, 3: 4, 4: 2}
        relabeled = Grid(size4, [mapping[v] for v in grid.entries])
        fam_a = {s.as_frozenset() for s in generate_all(grid, GenerationLimits()).sets}
        fam_b = {
            s.as_frozenset() for s in generate_all(relabeled, GenerationLimits()).sets
        }
        assert fam_a == fam_b


class TestCollectionIO:
    def test_round_trip(self, grid4_objects, tmp_path):
        coll = generate_all(grid4_objects[9], GenerationLimits(max_sets=12))
        path = tmp_path / "sets.unav"
        save_collection(coll, path)
        loaded = load_collection(path, grid4_objects[9])
        assert loaded == coll

    def test_collection_value_semantics(self, grid4_objects):
        def collection(grid, records):
            coll = UnavoidableCollection(grid_fingerprint(grid), 4, complete=False)
            for rec in records:
                coll.add(rec)
            return coll

        records = generate_all(grid4_objects[9], GenerationLimits(max_sets=3)).records
        coll = collection(grid4_objects[9], records)
        assert repr(coll) == "UnavoidableCollection(n=4, sets=3, complete=False)"
        assert coll == collection(grid4_objects[9], records)
        assert coll != collection(grid4_objects[10], records)
        assert coll != collection(grid4_objects[9], records[:2])
        assert coll != coll.family()
        with pytest.raises(TypeError):
            hash(coll)  # a collection grows with add, so it is not hashable
        first = coll.sets[0]
        assert first.cells[0] in first and Cell(4, 4) not in first

    def test_fingerprint_mismatch(self, grid4_objects, tmp_path):
        coll = generate_all(grid4_objects[9], GenerationLimits(max_sets=3))
        path = tmp_path / "sets.unav"
        save_collection(coll, path)
        with pytest.raises(FingerprintMismatchError):
            load_collection(path, grid4_objects[10])

    def test_board_side_mismatch(self, figure_grid, tmp_path):
        coll = UnavoidableCollection(grid_fingerprint(figure_grid), 16)
        coll.add(SetRecord(UnavoidableSet(GREEN), 0.0))
        path = tmp_path / "sets.unav"
        save_collection(coll, path)
        with pytest.raises(FingerprintMismatchError, match="side 16"):
            load_collection(path, figure_grid)

    def test_antichain_violation_detected(self, grid4_objects, oracle_minimal_sets, tmp_path):
        grid = grid4_objects[0]
        member = sorted(oracle_minimal_sets[0], key=len)[0]
        superset = set(member) | {Cell(4, 4), Cell(4, 3)} - set(member)
        superset |= set(member)
        lines = [
            f"MSCPUNAV v1 n=4 fingerprint={grid_fingerprint(grid)} complete=1",
            "m=%d: %s" % (len(member), " ".join(f"{c.row},{c.col}" for c in sorted(member))),
            "m=%d: %s" % (len(superset), " ".join(f"{c.row},{c.col}" for c in sorted(superset))),
        ]
        path = tmp_path / "bad.unav"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptCollectionError):
            load_collection(path, grid)

    @staticmethod
    def inline_file(grid, tmp_path, comments):
        lines = [f"MSCPUNAV v1 n=4 fingerprint={grid_fingerprint(grid)} complete=0"]
        lines += [
            f"m=4: 1,1 1,2 2,1 2,2 # {comments[0]}",
            f"m=4: 3,3 3,4 4,3 4,4 # {comments[1]}",
        ]
        path = tmp_path / "inline.unav"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_save_reproduces_the_file(self, grid4_objects, tmp_path):
        # index and found_at_m are written from the position and the size
        comments = (
            "index=0 found_at_m=4 seconds=0.25",
            "index=1 found_at_m=4 seconds=1.0000000000000002",
        )
        path = self.inline_file(grid4_objects[0], tmp_path, comments)
        coll = load_collection(path, grid4_objects[0])
        assert [rec.seconds for rec in coll.records] == [0.25, 1.0000000000000002]
        out = tmp_path / "again.unav"
        save_collection(coll, out)
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "bad", ["index=x found_at_m=4", "index=1 found_at_m=4.5", "index=1 seconds=abc"]
    )
    def test_malformed_metadata(self, grid4_objects, tmp_path, bad):
        path = self.inline_file(grid4_objects[0], tmp_path, ("index=0", bad))
        with pytest.raises(CorruptCollectionError, match="line 3: bad metadata"):
            load_collection(path, grid4_objects[0])

    @pytest.mark.parametrize("comment", ["café".encode("utf-8"), b"\xff"])
    def test_non_ascii_byte_in_a_comment(self, grid4_objects, tmp_path, comment):
        # decoding used to escape as an untyped UnicodeDecodeError
        path = self.inline_file(grid4_objects[0], tmp_path, ("index=0", "index=1"))
        path.write_bytes(path.read_bytes().rstrip(b"\n") + b" " + comment + b"\n")
        with pytest.raises(CorruptCollectionError, match="not ASCII text"):
            load_collection(path, grid4_objects[0])

    def test_one_leading_byte_order_mark(self, grid4_objects, tmp_path):
        # an editor may save the file with a UTF-8 byte-order mark
        path = self.inline_file(grid4_objects[0], tmp_path, ("index=0", "index=1"))
        plain = load_collection(path, grid4_objects[0])
        bom = b"\xef\xbb\xbf"
        marked = tmp_path / "marked.unav"
        marked.write_bytes(bom + path.read_bytes())
        assert load_collection(marked, grid4_objects[0]) == plain
        for data in (bom + bom + path.read_bytes(), path.read_bytes() + bom + b"\n"):
            marked.write_bytes(data)
            with pytest.raises(CorruptCollectionError, match="not ASCII text"):
                load_collection(marked, grid4_objects[0])

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "junk.unav"
        path.write_text("BOGUS\n")
        with pytest.raises(CorruptCollectionError):
            load_collection(path)

    def test_off_board_cell_never_stored(self, grid4_objects, tmp_path):
        # such a set used to be saved to a file that loading then rejected
        coll = UnavoidableCollection(grid_fingerprint(grid4_objects[0]), 4)
        with pytest.raises(GridError, match="out of bounds"):
            coll.add(SetRecord(UnavoidableSet([Cell(1, 1), Cell(1, 5)]), 0.0))
        assert len(coll) == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m=2: 1,1 1,5", "line 2: cell \\(1,5\\) out of bounds"),
            ("m=0:", "line 2: an unavoidable set cannot be empty"),
            ("m=1: 0,1", "line 2: cell coordinates are 1-based"),
            ("1,1 1,2", "line 2: expected 'm=<size>:'"),
        ],
    )
    def test_bad_set_line(self, grid4_objects, tmp_path, line, message):
        grid = grid4_objects[0]
        path = tmp_path / "bad.unav"
        path.write_text(f"MSCPUNAV v1 n=4 fingerprint={grid_fingerprint(grid)}\n{line}\n")
        with pytest.raises(CorruptCollectionError, match=message):
            load_collection(path, grid)

    @pytest.mark.parametrize("n", ["5", "0", "x"])
    def test_bad_board_side_in_header(self, grid4_objects, tmp_path, n):
        path = tmp_path / "side.unav"
        path.write_text(f"MSCPUNAV v1 n={n} fingerprint={grid_fingerprint(grid4_objects[0])}\n")
        with pytest.raises(CorruptCollectionError, match="bad header"):
            load_collection(path)

    def test_size_mismatch_line(self, grid4_objects, tmp_path):
        grid = grid4_objects[0]
        path = tmp_path / "short.unav"
        path.write_text(
            f"MSCPUNAV v1 n=4 fingerprint={grid_fingerprint(grid)} complete=1\n"
            "m=3: 1,1 1,2\n"
        )
        with pytest.raises(CorruptCollectionError):
            load_collection(path, grid)


class TestSmallSetsImpossible:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_4x4_never_below_size_4(self, grid4_objects, m):
        for grid in grid4_objects[:10]:
            assert find_deviating_grid(DeviationConstraint(grid, m)) is None
