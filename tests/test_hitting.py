import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hitting_throughput
import oracle
from conftest import BLUE, GREEN, RED
from minclue import (
    Cell,
    HittingInstance,
    HittingWalk,
    SearchBudget,
    SearchInterrupted,
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


# rounds of members over the cells 0..9, each round followed by one `next`
# and, when its flag is set, preceded by a `restart`
rounds = st.lists(
    st.tuples(
        st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


class TestWalk:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=4), max_size=6), rounds)
    def test_matches_brute_force_as_the_family_grows(self, start, steps):
        walk = HittingWalk(start)
        family = list(start)
        for members, restart in steps:
            for member in members:
                walk.add(member)
                family.append(member)
            if restart:
                walk.restart()
            found = walk.next()
            assert walk.level == len(found) == brute_value(range(10), family)
            assert all(found & member for member in family)

    def test_dropped_cells_come_back_with_a_member_holding_them(self):
        # the root keeps 0 and 3: 1 and 2 lie in fewer members than 0, and 4
        # in the same members as 3. Only {0, 4} hits the new member in two
        # cells, so a walk that kept 4 banned would wrongly climb to level 3
        walk = HittingWalk([{0, 1}, {0, 2}, {3, 4}])
        assert walk.next() == {0, 3} and walk.level == 2
        walk.add({1, 4})
        assert walk.next() == {0, 4} and walk.level == 2

    def test_a_hit_member_keeps_the_found_set(self):
        walk = HittingWalk([{0, 1}, {2, 3}])
        assert walk.next() == {0, 2}
        walk.add({0, 5})
        assert walk.next() == {0, 2} and walk.level == 2

    def test_empty_family_gives_the_empty_set(self):
        walk = HittingWalk()
        assert walk.next() == frozenset() and walk.level == 0

    def test_empty_member_is_rejected(self):
        with pytest.raises(ValueError):
            HittingWalk().add([])


class TestInterrupt:
    @staticmethod
    def family(seed):
        rng = random.Random(seed)
        return [frozenset(rng.sample(range(24), 4)) for _ in range(40)]

    def test_interrupted_is_sound(self):
        # an interrupted walk keeps a level no higher than the optimum
        for seed in range(20):
            family = self.family(seed)
            want = len(HittingWalk(family).next())
            for nodes in (0, 15, 60):
                walk = HittingWalk(family)
                with pytest.raises(SearchInterrupted):
                    walk.next(SearchBudget(max_nodes=nodes))
                assert walk.level <= want

    def test_a_resumed_walk_ends_as_an_uninterrupted_one(self):
        # each interrupt raises on a tick before its frame is popped, so
        # the resumed walk does one node more per interrupt
        for seed in range(10):
            family = self.family(seed)
            whole, stats = HittingWalk(family), SearchStats()
            want = whole.next(stats=stats)
            walk, spent, interrupts = HittingWalk(family), 0, 0
            while True:
                part = SearchStats()
                try:
                    found = walk.next(SearchBudget(max_nodes=50), part)
                    break
                except SearchInterrupted:
                    interrupts += 1
                finally:
                    spent += part.nodes
            assert found == want and walk.level == whole.level
            assert spent == stats.nodes + interrupts

    def test_budgeted_min_hitting_set_raises(self):
        inst = HittingInstance.build(range(24), self.family(9))
        with pytest.raises(SearchInterrupted):
            min_hitting_set(inst, budget=SearchBudget(max_nodes=20))


class TestFigureFamilyPin:
    # the figure grid's first 45 sets: a change in the branching, the cut
    # rule, the root dominance or the give-back shows here

    def test_optimum_and_interrupt_match_the_pins(self):
        frozen = hitting_throughput.instance()
        stats = SearchStats()
        sol = min_hitting_set(frozen, stats=stats)
        assert hitting_throughput.outcome(sol, stats) == hitting_throughput.PIN
        assert all(sol.cells & member for member in frozen.family)
        assert hitting_throughput.interrupted(frozen) == hitting_throughput.BUDGET_PIN

    def test_growing_family_matches_the_pin(self):
        frozen = hitting_throughput.instance()
        assert hitting_throughput.incremental(frozen) == hitting_throughput.INCREMENTAL_PIN
