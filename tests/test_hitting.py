import random

import pytest

import hitting_throughput
import oracle
from conftest import BLUE, GREEN, RED
from minclue import (
    Cell,
    HittingInstance,
    SearchBudget,
    SearchStats,
    disjoint_packing_bound,
    min_hitting_set,
)


def brute_value(universe, family):
    masks = []
    pos = {e: i for i, e in enumerate(universe)}
    for member in family:
        masks.append(sum(1 << pos[e] for e in member))
    k, _ = oracle.min_hitting_brute(masks, list(range(len(universe))))
    return k


class TestExamples:
    def test_empty_family(self, size9):
        sol = min_hitting_set(HittingInstance.build(size9.all_cells(), []))
        assert sol.value == 0 and sol.cells == frozenset() and sol.proven_optimal

    def test_empty_member_is_rejected(self, size9):
        inst = HittingInstance.build(size9.all_cells(), [GREEN, frozenset()])
        with pytest.raises(ValueError):
            min_hitting_set(inst)

    def test_member_outside_the_universe_is_rejected(self):
        # an unchecked universe let {2} come back as an optimum over [1]
        with pytest.raises(ValueError, match="outside the universe"):
            HittingInstance.build([1], [{2}])

    def test_single_green_set(self, size9):
        sol = min_hitting_set(HittingInstance.build(size9.all_cells(), [GREEN]))
        assert sol.value == 1
        assert sol.cells == {Cell(1, 3)}  # canonically smallest member

    def test_three_disjoint_sets(self, size9):
        inst = HittingInstance.build(size9.all_cells(), [GREEN, BLUE, RED])
        sol = min_hitting_set(inst)
        assert sol.value == 3
        assert all(sol.cells & frozenset(s) for s in (GREEN, BLUE, RED))


class TestPackingBound:
    def test_disjoint_triple(self, size9):
        inst = HittingInstance.build(size9.all_cells(), [GREEN, BLUE, RED])
        assert disjoint_packing_bound(inst) == 3

    def test_empty(self, size9):
        assert disjoint_packing_bound(HittingInstance.build(size9.all_cells(), [])) == 0

    def test_shared_cell(self):
        fam = [frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4, 5})]
        assert disjoint_packing_bound(HittingInstance.build(range(1, 6), fam)) == 1

    def test_always_below_optimum(self):
        rng = random.Random(31)
        for _ in range(200):
            uni = list(range(rng.randint(4, 12)))
            fam = [
                frozenset(rng.sample(uni, rng.randint(1, min(4, len(uni)))))
                for _ in range(rng.randint(1, 10))
            ]
            inst = HittingInstance.build(uni, fam)
            assert disjoint_packing_bound(inst) <= min_hitting_set(inst).value


class TestExactness:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(4096)
        for _ in range(250):
            uni = sorted(rng.sample(range(16), rng.randint(3, 16)))
            fam = [
                frozenset(rng.sample(uni, rng.randint(1, min(5, len(uni)))))
                for _ in range(rng.randint(1, 20))
            ]
            inst = HittingInstance.build(uni, fam)
            sol = min_hitting_set(inst)
            assert sol.proven_optimal and sol.lower_bound == sol.value
            assert sol.value == brute_value(uni, fam)
            assert all(sol.cells & member for member in fam)

    def test_monotone_under_growing_family(self):
        rng = random.Random(5)
        uni = list(range(12))
        fam = []
        prev = 0
        for _ in range(15):
            fam.append(frozenset(rng.sample(uni, rng.randint(1, 4))))
            value = min_hitting_set(HittingInstance.build(uni, fam)).value
            assert value >= prev
            prev = value


class TestUpperHint:
    def test_hint_equal_to_optimum_still_returns_witness(self):
        fam = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        sol = min_hitting_set(HittingInstance.build(range(6), fam), upper_hint=3)
        assert sol.value == 3 and sol.proven_optimal

    def test_bad_hint_detected(self):
        fam = [frozenset({0}), frozenset({1})]
        with pytest.raises(ValueError):
            min_hitting_set(HittingInstance.build(range(2), fam), upper_hint=1)


def random_family(rng, universe_size=16, max_members=20):
    uni = sorted(rng.sample(range(universe_size), rng.randint(3, universe_size)))
    fam = [
        frozenset(rng.sample(uni, rng.randint(1, min(5, len(uni)))))
        for _ in range(rng.randint(1, max_members))
    ]
    return uni, fam


class TestHints:
    """lower_hint lets the search stop at the first solution that meets it;
    with any correct hints the answer is still an exact optimum."""

    @staticmethod
    def check_optimal(sol, fam, want):
        assert sol.proven_optimal and sol.lower_bound == sol.value == want
        assert all(sol.cells & member for member in fam)

    def test_lower_hints_match_brute_force(self):
        rng = random.Random(2305)
        for _ in range(150):
            uni, fam = random_family(rng)
            inst = HittingInstance.build(uni, fam)
            want = brute_value(uni, fam)
            for hint in (0, rng.randint(0, want - 1), want):
                self.check_optimal(min_hitting_set(inst, lower_hint=hint), fam, want)

    def test_both_hints_at_the_optimum_still_return_a_witness(self):
        rng = random.Random(1697)
        for _ in range(100):
            uni, fam = random_family(rng)
            inst = HittingInstance.build(uni, fam)
            want = brute_value(uni, fam)
            self.check_optimal(min_hitting_set(inst, upper_hint=want), fam, want)
            self.check_optimal(
                min_hitting_set(inst, upper_hint=want, lower_hint=want), fam, want
            )

    def test_interrupt_with_lower_hint_is_sound(self):
        rng = random.Random(77)
        uni = list(range(24))
        for _ in range(20):
            fam = [frozenset(rng.sample(uni, 4)) for _ in range(40)]
            inst = HittingInstance.build(uni, fam)
            want = min_hitting_set(inst).value
            for hint in (0, want - 1):
                cut = min_hitting_set(
                    inst, budget=SearchBudget(max_nodes=15), lower_hint=hint
                )
                assert cut.lower_bound <= want <= cut.value
                assert all(cut.cells & member for member in fam)


class TestInterrupt:
    def test_interrupted_is_sound(self):
        rng = random.Random(9)
        uni = list(range(24))
        fam = [frozenset(rng.sample(uni, 4)) for _ in range(40)]
        inst = HittingInstance.build(uni, fam)
        full = min_hitting_set(inst)
        cut = min_hitting_set(inst, budget=SearchBudget(max_nodes=20))
        assert not cut.proven_optimal
        assert cut.lower_bound <= full.value <= cut.value
        assert all(cut.cells & member for member in fam)

    def test_no_node_falls_back_to_greedy(self):
        # a budget of no node finds no incumbent: the cells come from a greedy
        # pass, each unhit member adding its lowest cell
        fam = [{i, (i + 1) % 6} for i in range(6)]
        inst = HittingInstance.build(range(6), fam)
        cut = min_hitting_set(inst, budget=SearchBudget(max_nodes=0))
        assert cut.cells == {0, 1, 2, 3, 4} and cut.value == 5
        assert not cut.proven_optimal and cut.lower_bound == 3
        assert all(cut.cells & member for member in fam)


class TestFigureFamilyPin:
    def test_optimum_and_interrupt_match_the_pins(self):
        # the figure grid's first 45 sets: optimum 12 in 40,297 nodes, and
        # 14 over lower 10 at a 1,000-node budget; a change in the branching,
        # the cut rule or the interrupt bound shows here
        frozen = hitting_throughput.instance()
        for budget, pin in (
            (None, hitting_throughput.PIN),
            (hitting_throughput.BUDGET, hitting_throughput.BUDGET_PIN),
        ):
            stats = SearchStats()
            sol = min_hitting_set(
                frozen, upper_hint=hitting_throughput.UPPER_HINT, budget=budget, stats=stats
            )
            assert hitting_throughput.outcome(sol, stats) == pin
            assert all(sol.cells & member for member in frozen.family)
