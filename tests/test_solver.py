import logging
from itertools import takewhile

import pytest

import isomorph_bounds
import oracle
import oracle_throughput
import seeded_sweep
from conftest import GREEN
from minclue import (
    Cell,
    CluePattern,
    ConstraintViolationError,
    CorruptCollectionError,
    FcpInstance,
    FingerprintMismatchError,
    GenerationLimits,
    GridSize,
    HittingInstance,
    IllegalCharacterError,
    LengthMismatchError,
    MscpConfig,
    MscpStatus,
    NotUnavoidableError,
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    UnavoidableCollection,
    UnavoidableSet,
    disjoint_packing_bound,
    fcp_solve,
    find_alternate,
    generate_all,
    grid_fingerprint,
    is_unavoidable,
    latin_square_fcp_instance,
    load_collection,
    min_hitting_set,
    minimalize,
    parse_grid,
    save_collection,
    solve_mscp,
    verify_validity,
)
from minclue.solver import MscpInternalError
from minclue.unavoidable import SetRecord


class TestVerifyValidity:
    def test_figure_pattern(self, figure_grid, figure_puzzle, size9):
        pattern = CluePattern(size9, [v != 0 for v in figure_puzzle.entries])
        assert verify_validity(figure_grid, pattern)

    def test_all_cells(self, figure_grid, size9):
        assert verify_validity(figure_grid, CluePattern.all_cells(size9))

    def test_missing_green_cells_invalid(self, figure_grid, size9):
        assert not verify_validity(
            figure_grid, CluePattern.all_cells(size9).without(GREEN)
        )


class TestMscpConfig:
    def test_bad_limits_rejected(self):
        for bad in ({"initial_cuts": -5}, {"max_cut_size": 0}):
            with pytest.raises(ValueError):
                MscpConfig(**bad)


def oracle_optimum(grids, idx):
    diffs = oracle.diff_masks(list(grids), idx)
    value, _ = oracle.mscp_optimum(diffs, 16)
    return value


class TestSolveMscp4x4:
    @pytest.mark.parametrize("idx", [0, 57, 137, 287])
    def test_matches_oracle(self, grids4, grid4_objects, idx):
        want = oracle_optimum(grids4, idx)
        result = solve_mscp(grid4_objects[idx], MscpConfig(initial_cuts=0))
        assert result.status is MscpStatus.OPTIMAL
        assert result.lower_bound == result.upper_bound == want
        assert result.best_pattern.cardinality() == want
        assert verify_validity(grid4_objects[idx], result.best_pattern)

    def test_seeding_does_not_change_optimum(self, grids4, grid4_objects):
        idx = 123
        bare = solve_mscp(grid4_objects[idx], MscpConfig(initial_cuts=0))
        seeded = solve_mscp(grid4_objects[idx], MscpConfig(initial_cuts=1000))
        assert bare.upper_bound == seeded.upper_bound
        assert bare.status is seeded.status is MscpStatus.OPTIMAL

    def test_seeded_pattern_is_a_minimum_hitting_set_of_every_cut(self, grid4_objects):
        # the loop takes seeds into its family only as candidates miss them,
        # yet the pattern it returns hits every seed with the fewest cells
        for grid in grid4_objects[::2]:
            result = solve_mscp(grid, MscpConfig())
            assert result.iterations == 1
            pattern = set(result.best_pattern.cells())
            members = [s.as_frozenset() for s in result.certificate.sets]
            assert all(member & pattern for member in members)
            best = min_hitting_set(HittingInstance.build(grid.size.all_cells(), members))
            assert result.best_pattern.cardinality() == best.value
            assert verify_validity(grid, result.best_pattern)

    def test_each_hitting_set_family_extends_the_last(self, grid4_objects):
        # one walk for the solve, whose family at each round is the family of
        # the round before with members added at its end
        for k, grid in enumerate(grid4_objects[::2]):
            families: list = []
            with seeded_sweep.counted_rounds(families):
                solve_mscp(grid, MscpConfig())
            for before, after in zip(families, families[1:]):
                assert len(before) < len(after) and after[: len(before)] == before, k

    def test_seeded_sweep_pin(self):
        # iterations, hitting-set rounds, nodes and every result of the
        # seeded 4x4 sweep, as tests/seeded_sweep.py prints them
        assert seeded_sweep.sweep() == seeded_sweep.PIN

    def test_trace_is_monotone(self, grid4_objects):
        result = solve_mscp(grid4_objects[31], MscpConfig(initial_cuts=0))
        lowers = [t.lower for t in result.trace]
        uppers = [t.upper for t in result.trace]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        sizes = [t.certificate_size for t in result.trace]
        assert sizes == sorted(sizes)

    def test_certificate_sets_are_minimal(self, grid4_objects, oracle_minimal_sets):
        # a spread of grids, so that witness-following shrinking meets many
        # shapes of alternate diffs
        for idx in sorted({77, *range(0, 288, 29)}):
            result = solve_mscp(grid4_objects[idx], MscpConfig(initial_cuts=0))
            allowed = set(oracle_minimal_sets[idx])
            got = {s.as_frozenset() for s in result.certificate.sets}
            assert got <= allowed, idx

    def test_certificate_members_pass_the_public_checks(self, grid4_objects):
        # cuts shrunk with remembered alternates are still checked by the
        # public searches, not by the loop
        for grid in grid4_objects[::29]:
            result = solve_mscp(grid, MscpConfig(initial_cuts=0))
            for member in result.certificate:
                assert is_unavoidable(grid, member.cells)
                assert minimalize(grid, member.cells) == member

    def test_rerun_is_identical(self, grid4_objects):
        def run():
            result = solve_mscp(grid4_objects[200], MscpConfig(initial_cuts=0))
            trace = [
                (t.iteration, t.lower, t.upper, t.certificate_size)
                for t in result.trace
            ]
            return trace, [s.as_frozenset() for s in result.certificate.sets]

        assert run() == run()

    def test_certificate_lower_bound_property(self, grids4, grid4_objects):
        # every pattern valid for the grid hits all certificate members
        idx = 199
        result = solve_mscp(grid4_objects[idx], MscpConfig(initial_cuts=0))
        chosen = frozenset(result.best_pattern.cells())
        assert all(chosen & member for member in result.certificate.family())

    def test_seed_collection_reuse(self, grid4_objects):
        grid = grid4_objects[11]
        coll = generate_all(grid, GenerationLimits(max_sets=10))
        result = solve_mscp(
            grid, MscpConfig(initial_cuts=10, seed_collection=coll)
        )
        assert result.status is MscpStatus.OPTIMAL
        assert [r.cells for r in result.certificate.records[:10]] == [
            r.cells for r in coll.records
        ]

    def test_seed_collection_obeys_max_cut_size(self, grid4_objects):
        # the generator's rule: the first initial_cuts sets that fit the cap
        grid = grid4_objects[0]
        coll = generate_all(grid, GenerationLimits())
        fitting = UnavoidableCollection(coll.fingerprint, 4)
        for rec in coll.records:
            if len(rec.cells) <= 4:
                fitting.add(rec)
        assert 0 < len(fitting) < len(coll)

        def run(cfg):
            result = solve_mscp(grid, cfg)
            cuts = [r.cells for r in result.certificate.records]
            return result.status, result.upper_bound, result.nodes, cuts

        capped = run(MscpConfig(seed_collection=coll, max_cut_size=4))
        assert capped == run(MscpConfig(seed_collection=fitting))
        assert capped[:2] == (MscpStatus.OPTIMAL, 4)

    def test_seed_cell_off_the_board(self, grid4_objects):
        # a collection stating a larger board can hold the cell; the solve
        # rejects it as a collection of another board side, not a KeyError
        grid = grid4_objects[0]
        coll = UnavoidableCollection(grid_fingerprint(grid), 9)
        coll.add(SetRecord(UnavoidableSet([Cell(1, 1), Cell(1, 5)]), 0.0))
        with pytest.raises(FingerprintMismatchError, match="side 9"):
            solve_mscp(grid, MscpConfig(seed_collection=coll))

    def test_seed_collection_of_another_board_side(self, figure_grid):
        coll = UnavoidableCollection(grid_fingerprint(figure_grid), 16)
        coll.add(SetRecord(UnavoidableSet(GREEN), 0.0))
        cfg = MscpConfig(seed_collection=coll, solve_budget=SearchBudget(max_nodes=1000))
        with pytest.raises(FingerprintMismatchError, match="side 16"):
            solve_mscp(figure_grid, cfg)

    def test_seed_collection_wrong_grid(self, grid4_objects):
        coll = generate_all(grid4_objects[11], GenerationLimits(max_sets=5))
        with pytest.raises(FingerprintMismatchError):
            solve_mscp(
                grid4_objects[12],
                MscpConfig(initial_cuts=5, seed_collection=coll),
            )

    def test_seed_collection_wrong_grid_without_seed_cuts(self, grid4_objects):
        # a collection is checked against the grid even when no seed is used
        coll = generate_all(grid4_objects[11], GenerationLimits(max_sets=5))
        with pytest.raises(FingerprintMismatchError):
            solve_mscp(grid4_objects[12], MscpConfig(initial_cuts=0, seed_collection=coll))


def spanned_by_first_alternate(grid, cells):
    """Whether the first alternate inside `cells` differs on all of them,
    which one search takes for a minimal set."""
    alt = find_alternate(grid, CluePattern.all_cells(grid.size).without(cells))
    return sum(a != b for a, b in zip(alt.entries, grid.entries)) == len(cells)


class TestSuppliedSeeds:
    def test_avoidable_seed_is_rejected(self, grid4_objects, tmp_path):
        # single cells are never unavoidable: trusting them as cuts would
        # push the lower bound past the optimum 4
        grid = grid4_objects[0]
        coll = UnavoidableCollection(grid_fingerprint(grid), 4)
        for k in range(6):
            coll.add(SetRecord(UnavoidableSet([Cell(k // 4 + 1, k % 4 + 1)]), 0.0))
        path = tmp_path / "single.unav"
        save_collection(coll, path)
        loaded = load_collection(path, grid)
        with pytest.raises(NotUnavoidableError):
            solve_mscp(grid, MscpConfig(initial_cuts=6, seed_collection=loaded))

    @pytest.mark.parametrize(
        "extra",
        [
            # a minimal set and one more cell
            [Cell(1, 1)],
            # two minimal sets that share no cell
            [Cell(3, 1), Cell(3, 3), Cell(4, 1), Cell(4, 3)],
        ],
    )
    def test_non_minimal_seed_is_rejected(self, extra):
        # the loop could shrink a cut strictly inside such a seed, which the
        # certificate's antichain check would reject mid-solve
        grid = parse_grid("1234341221434321", GridSize.of_side(4))
        cells = [Cell(3, 2), Cell(3, 4), Cell(4, 2), Cell(4, 4), *extra]
        coll = UnavoidableCollection(grid_fingerprint(grid), 4)
        coll.add(SetRecord(UnavoidableSet(cells), 0.0))
        with pytest.raises(CorruptCollectionError, match="is not minimal"):
            solve_mscp(grid, MscpConfig(seed_collection=coll))

    def test_seed_spanned_by_its_first_alternate_is_rejected(self):
        # the first alternate inside the seed differs on all seven cells, yet
        # the seed holds a minimal set; trusted as a cut, it made the loop
        # find a cut inside it and raise MscpInternalError
        grid = parse_grid("1234341223414123", GridSize.of_side(4))
        cells = [Cell(*rc) for rc in ((1, 1), (1, 3), (2, 1), (2, 3), (2, 4), (4, 3), (4, 4))]
        assert spanned_by_first_alternate(grid, cells)
        assert minimalize(grid, cells) == UnavoidableSet(cells[:4])
        coll = UnavoidableCollection(grid_fingerprint(grid), 4)
        coll.add(SetRecord(UnavoidableSet(cells), 0.0))
        with pytest.raises(CorruptCollectionError, match="is not minimal"):
            solve_mscp(grid, MscpConfig(seed_collection=coll))

    def test_every_non_minimal_diff_is_rejected(self, grids4, grid4_objects):
        # every diff of every 29th 4x4 grid that strictly holds another, as
        # the only seed; 19 of them are spanned by their first alternate
        spanned = 0
        for idx in range(0, len(grids4), 29):
            grid = grid4_objects[idx]
            diffs = oracle.diff_masks(list(grids4), idx)
            for mask in sorted(set(diffs) - set(oracle.minimal_masks(diffs))):
                cells = [c for i, c in enumerate(grid.size.all_cells()) if mask >> i & 1]
                spanned += spanned_by_first_alternate(grid, cells)
                coll = UnavoidableCollection(grid_fingerprint(grid), 4)
                coll.add(SetRecord(UnavoidableSet(cells), 0.0))
                with pytest.raises(CorruptCollectionError, match="is not minimal"):
                    solve_mscp(grid, MscpConfig(seed_collection=coll))
        assert spanned == 19

    def test_seed_check_spends_at_most_half_the_nodes(self, figure_grid):
        # checking all 24 seeds costs the whole budget; held to seeding's
        # half, as the generator is, the check leaves the loop the rest
        coll = generate_all(figure_grid, GenerationLimits(max_sets=24))
        costs = []
        for rec in coll.records:
            stats = SearchStats()
            minimalize(figure_grid, rec.cells, stats=stats)
            costs.append(stats.nodes)
        budget = SearchBudget(max_nodes=sum(costs))
        cfg = MscpConfig(initial_cuts=24, seed_collection=coll, solve_budget=budget)
        result = solve_mscp(figure_grid, cfg)
        pairs = zip(result.certificate.records, coll.records)
        used = sum(1 for _ in takewhile(lambda pair: pair[0] == pair[1], pairs))
        assert 0 < used < 24
        assert sum(costs[:used]) <= sum(costs) // 2 < sum(costs[: used + 1])

    def test_budget_ending_mid_check_drops_unchecked_seeds(self, grid4_objects):
        grid = grid4_objects[0]
        coll = generate_all(grid, GenerationLimits(max_sets=10))
        cfg = MscpConfig(
            initial_cuts=10, seed_collection=coll, solve_budget=SearchBudget(max_nodes=40)
        )
        result = solve_mscp(grid, cfg)
        used = [r.cells for r in result.certificate.records]
        assert 0 < len(used) < 10
        assert used == [r.cells for r in coll.records[: len(used)]]
        # the check stops at its half of the nodes, and the loop gets the rest
        assert result.status is MscpStatus.BOUNDS_ONLY
        assert result.lower_bound <= 4 <= result.upper_bound


class TestClock:
    def test_loop_cut_seconds_are_their_iteration_times(self, figure_grid):
        cfg = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=30_000))
        result = solve_mscp(figure_grid, cfg)
        records = result.certificate.records
        assert len(records) > 10
        for k, rec in enumerate(records):
            assert result.trace[k].iteration == k + 1
            assert rec.seconds == result.trace[k].elapsed

    def test_seeded_trace_counts_from_the_call(self, grid4_objects):
        # a seed's time counts from the generator's start, inside the solve,
        # so the first iteration ends after every seed was found
        grid = grid4_objects[5]
        seeded = generate_all(grid, GenerationLimits(max_sets=1000))
        result = solve_mscp(grid, MscpConfig())
        seeds = result.certificate.records[: len(seeded)]
        assert [r.cells for r in seeds] == [r.cells for r in seeded.records]
        assert result.trace[0].elapsed > max(r.seconds for r in seeds)


class TestIterationLog:
    def logged(self, caplog, grid, cfg):
        with caplog.at_level(logging.INFO, logger="minclue.solver"):
            result = solve_mscp(grid, cfg)
        want = [
            f"iteration {e.iteration}: lower={e.lower} upper={e.upper} "
            f"cuts={e.certificate_size} elapsed={e.elapsed:.3f}s"
            for e in result.trace
        ]
        got = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        return result, got, want

    def test_one_info_line_per_trace_entry(self, grid4_objects, caplog):
        result, got, want = self.logged(caplog, grid4_objects[7], MscpConfig(initial_cuts=0))
        assert result.status is MscpStatus.OPTIMAL
        assert got == want and len(got) > 1

    def test_run_stopped_by_its_budget_logs_its_final_state(self, figure_grid, caplog):
        cfg = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=30_000))
        result, got, want = self.logged(caplog, figure_grid, cfg)
        assert result.status is MscpStatus.BOUNDS_ONLY
        assert got == want and len(got) == result.iterations > 10


class TestBudgetedSolve:
    def test_node_budget_reports_bounds(self, figure_grid):
        cfg = MscpConfig(
            initial_cuts=6,
            max_cut_size=4,
            solve_budget=SearchBudget(max_nodes=250_000),
        )
        result = solve_mscp(figure_grid, cfg)
        assert result.status in (MscpStatus.BOUNDS_ONLY, MscpStatus.INTERRUPTED)
        assert result.lower_bound <= 17 <= result.upper_bound
        assert verify_validity(figure_grid, result.best_pattern)
        assert result.best_pattern.cardinality() == result.upper_bound
        lowers = [t.lower for t in result.trace]
        assert lowers == sorted(lowers)

    def test_seeding_leaves_half_the_time_budget_to_the_loop(self, figure_grid):
        # default seeding alone would use the whole 2 s and leave upper 81
        result = solve_mscp(
            figure_grid, MscpConfig(solve_budget=SearchBudget(max_time=2.0))
        )
        assert result.status is MscpStatus.BOUNDS_ONLY
        assert result.lower_bound <= 17 <= result.upper_bound < 81
        assert verify_validity(figure_grid, result.best_pattern)
        assert result.best_pattern.cardinality() == result.upper_bound

    def test_many_seeds_still_give_the_loop_bounds(self, figure_grid):
        # seeding's half of the nodes stores 50 sets, whose minimum hitting
        # set the branch and bound cannot prove in the other half; solved
        # over the seeds its candidates miss, the family proves lower 12
        result = solve_mscp(
            figure_grid, MscpConfig(solve_budget=SearchBudget(max_nodes=200_000))
        )
        assert len(result.certificate) >= 49
        assert result.status is MscpStatus.BOUNDS_ONLY
        assert 12 <= result.lower_bound <= 17 <= result.upper_bound < 81
        assert verify_validity(figure_grid, result.best_pattern)
        assert result.best_pattern.cardinality() == result.upper_bound

    def test_generator_spending_the_budget_keeps_seed_lower_bound(self, figure_grid):
        # the first four size-4 sets cost 358, 416, 428 and 456 generator
        # nodes, so seeding's half of 880 nodes ends after three of them;
        # the loop starts from their packing bound
        limits = GenerationLimits(max_sets=4, max_size=4)
        cfg = MscpConfig(
            initial_cuts=4,
            max_cut_size=4,
            solve_budget=SearchBudget(max_nodes=880),
        )
        result = solve_mscp(figure_grid, cfg)
        seeded = generate_all(figure_grid, limits, budget=SearchBudget(max_nodes=440))
        assert len(seeded) == 3 and not seeded.complete
        assert [r.cells for r in result.certificate.records[:3]] == [
            r.cells for r in seeded.records
        ]
        packing = disjoint_packing_bound(
            HittingInstance.build(figure_grid.size.all_cells(), seeded.family())
        )
        assert 0 < packing <= result.trace[0].lower
        assert result.lower_bound <= 17 <= result.upper_bound

    def test_seeding_obeys_the_node_budget(self, figure_grid):
        # seeding may spend half of the nodes; each phase that runs out
        # stops one node past its limit. The time limit only keeps a solver
        # that ignores the node budget from running for minutes.
        budget = SearchBudget(max_nodes=20_000, max_time=20)
        result = solve_mscp(figure_grid, MscpConfig(solve_budget=budget))
        assert result.status is MscpStatus.BOUNDS_ONLY
        assert 20_000 <= result.nodes <= 20_000 + 2
        assert result.lower_bound <= 17 <= result.upper_bound
        assert verify_validity(figure_grid, result.best_pattern)
        assert result.best_pattern.cardinality() == result.upper_bound

    @pytest.mark.parametrize("max_nodes", [1000, 3000])
    def test_no_lower_bound_0_with_a_cut_in_hand(self, figure_grid, max_nodes):
        # the budget ends in the second hitting-set round, after the first
        # iteration's cut; that one cut already gives lower bound 1
        cfg = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=max_nodes))
        result = solve_mscp(figure_grid, cfg)
        assert len(result.certificate) >= 1
        assert 1 <= result.lower_bound <= 17 <= result.upper_bound
        assert result.trace[-1].lower == result.lower_bound

    def test_figure_grid_reaches_lower_7_within_13000_nodes(self, figure_grid):
        # the walk proves 7 after 10,158 nodes and 272 oracle searches,
        # so the interrupted solve keeps that bound
        cfg = MscpConfig(initial_cuts=0, solve_budget=SearchBudget(max_nodes=13_000))
        assert solve_mscp(figure_grid, cfg).lower_bound >= 7

    def test_figure_grid_node_budget_reaches_lower_9(self, figure_grid):
        # BOUNDS_ONLY 10/24 after 53 iterations and 200,001 nodes, with the
        # cuts in a pinned order: a change in any search shows here
        result = solve_mscp(figure_grid, oracle_throughput.CONFIG)
        assert oracle_throughput.outcome(result) == oracle_throughput.PIN
        assert 9 <= result.lower_bound <= 17 <= result.upper_bound
        assert verify_validity(figure_grid, result.best_pattern)
        # each cut is checked by the public searches, not by the loop
        assert len(result.certificate) == 52
        for member in result.certificate:
            assert is_unavoidable(figure_grid, member.cells)
            assert minimalize(figure_grid, member.cells) == member

    def test_figure_grid_million_node_budget_reaches_lower_12(self, figure_grid):
        # BOUNDS_ONLY 12/24 after 83 iterations, the hitting-set walk taking
        # most of the time; lower 9, 10, 11 and 12 first at iterations 36,
        # 45, 56 and 72
        result = solve_mscp(figure_grid, oracle_throughput.WALK_CONFIG)
        assert oracle_throughput.outcome(result) == oracle_throughput.WALK_PIN
        assert (
            oracle_throughput.first_iterations(result) == oracle_throughput.WALK_FIRST_ITERATIONS
        )
        assert verify_validity(figure_grid, result.best_pattern)

    def test_bounds_on_eight_isomorphs_match_the_pin(self):
        # `bounds` also checks lower <= 17 <= upper on each isomorph
        assert isomorph_bounds.bounds() == isomorph_bounds.PIN


class TestFcp:
    def test_already_unique_certificate(self):
        instance = FcpInstance(
            target=(1, 0, 1, 1), alternate_finder=lambda revealed, budget, stats: None
        )
        result = fcp_solve(instance)
        assert result.status is MscpStatus.OPTIMAL
        assert result.upper_bound == 0 and result.best_clue == frozenset()

    def test_infeasible_target_rejected(self):
        instance = FcpInstance(
            target=(1, 0), alternate_finder=lambda revealed, budget, stats: (0, 1)
        )
        with pytest.raises(ValueError):
            fcp_solve(instance)

    # every 23rd of the 576 order-4 squares, plus square 100
    @pytest.mark.parametrize("idx", sorted({100, *range(0, 576, 23)}))
    def test_latin_square_matches_oracle(self, idx):
        squares = list(oracle.latin4())
        assert len(squares) == 576
        diffs = oracle.diff_masks(squares, idx)
        want, _ = oracle.mscp_optimum(diffs, 16)
        result = fcp_solve(latin_square_fcp_instance(squares[idx]))
        assert result.status is MscpStatus.OPTIMAL
        assert result.upper_bound == want

    # the back-circulant square B_n has smallest critical set floor(n^2 / 4)
    # (Curran & van Rees, 1978); B_5 takes 13,906 nodes and B_6 4,183
    @pytest.mark.parametrize("n, want", [(5, 6), (6, 9)])
    def test_back_circulant_critical_set(self, n, want):
        square = [(r + c) % n + 1 for r in range(n) for c in range(n)]
        result = fcp_solve(latin_square_fcp_instance(square), SearchBudget(max_nodes=250_000))
        assert result.status is MscpStatus.OPTIMAL
        assert result.lower_bound == result.upper_bound == len(result.best_clue) == want

    def test_latin_rejects_empty_square(self):
        with pytest.raises(ValueError, match="the square is empty"):
            latin_square_fcp_instance([])

    def test_latin_rejects_non_latin_target(self):
        with pytest.raises(ValueError):
            latin_square_fcp_instance((1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4))

    @pytest.mark.parametrize(
        "square, error",
        [
            ((1, 2, 2, 1, 1), LengthMismatchError),
            ((1, 2, 2, 3), IllegalCharacterError),
            ((1, 2, 0, 1), IllegalCharacterError),
            ((1, 2, 1, 2), ConstraintViolationError),
            ((1.9, 2.2, 2.0, 1.0), IllegalCharacterError),
        ],
    )
    def test_latin_target_gets_the_board_entry_check(self, square, error):
        with pytest.raises(error):
            latin_square_fcp_instance(square)


class TestOracleChecks:
    """The loop checks every alternate it is handed, for any caller."""

    @staticmethod
    def broken(answer):
        target = (1, 2, 3)
        full = frozenset(range(3))
        return FcpInstance(
            target, lambda revealed, budget, stats: None if revealed == full else answer
        )

    @pytest.mark.parametrize(
        "answer, message",
        [
            ((2, 3), "wrong length"),
            ((1, 2, 3), "equals the target"),
            ((9, 9, 9), "violates the revealed clue"),
        ],
    )
    def test_broken_finder_raises(self, answer, message):
        with pytest.raises(ValueError, match=message):
            fcp_solve(self.broken(answer))

    def test_lying_finder_raises_internal_error(self):
        # the finder reports cut {0, 1} as minimal, then answers with diff
        # {1} inside it: the loop refuses rather than return a certificate
        answers = {frozenset(): (2, 2, 1), frozenset({0}): (1, 2, 1)}

        def finder(revealed, budget, stats):
            return answers.get(revealed)

        with pytest.raises(MscpInternalError, match="already implied"):
            fcp_solve(FcpInstance((1, 1, 1), finder))

    def test_latin_node_budget_keeps_bounds(self):
        squares = list(oracle.latin4())
        want, _ = oracle.mscp_optimum(oracle.diff_masks(squares, 100), 16)
        result = fcp_solve(latin_square_fcp_instance(squares[100]), SearchBudget(max_nodes=1))
        assert result.status is not MscpStatus.OPTIMAL
        assert result.lower_bound <= want <= result.upper_bound

    def test_latin_node_budget_counts_finder_nodes(self):
        # the solve's hitting-set nodes alone stay below 1000 on this square
        squares = list(oracle.latin4())
        want, _ = oracle.mscp_optimum(oracle.diff_masks(squares, 100), 16)
        result = fcp_solve(latin_square_fcp_instance(squares[100]), SearchBudget(max_nodes=1000))
        assert result.status is not MscpStatus.OPTIMAL
        assert result.nodes <= 1001
        assert result.lower_bound <= want <= result.upper_bound

    def test_budget_spent_before_the_full_reveal_check_raises(self):
        square = next(iter(oracle.latin4()))
        with pytest.raises(SearchInterrupted):
            fcp_solve(latin_square_fcp_instance(square), SearchBudget(max_nodes=0))


class TestAnswerMemory:
    """The loop answers each query with the oldest alternate found so far
    that agrees with the target on the revealed set, and calls the finder
    only when none does."""

    @staticmethod
    def check(target, finder) -> MscpStatus:
        events = []

        def recording(revealed, budget, stats):
            alt = finder(revealed, budget, stats)
            diff = None if alt is None else frozenset(
                i for i, (a, b) in enumerate(zip(alt, target)) if a != b
            )
            events.append((revealed, diff))
            return alt

        with oracle_throughput.recorded_queries(events):
            result = fcp_solve(FcpInstance(target, recording))
        found, searched, from_memory = [], None, 0
        for event in events:
            if isinstance(event, oracle_throughput.Query):
                if event.searched:
                    assert event.answer == searched
                else:
                    # the earliest remembered diff that avoids the revealed set
                    fits = [diff for diff in found if not diff & event.revealed]
                    assert fits and event.answer == fits[0]
                    from_memory += 1
                continue
            revealed, searched = event
            # no earlier alternate agrees with the target on this revealed set
            assert all(diff & revealed for diff in found)
            if searched is not None:
                found.append(searched)
        assert from_memory > 0
        return result.status

    @pytest.mark.parametrize("idx", range(0, 288, 29))
    def test_sudoku_4x4(self, grid4_objects, idx):
        grid = grid4_objects[idx]

        def finder(revealed, budget, stats):
            pattern = CluePattern(grid.size, [i in revealed for i in range(16)])
            alt = find_alternate(grid, pattern, budget, stats)
            return None if alt is None else alt.entries

        assert self.check(grid.entries, finder) is MscpStatus.OPTIMAL

    def test_back_circulant_4(self):
        square = [(r + c) % 4 + 1 for r in range(4) for c in range(4)]
        instance = latin_square_fcp_instance(square)
        assert self.check(instance.target, instance.alternate_finder) is MscpStatus.OPTIMAL
