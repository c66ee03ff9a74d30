from itertools import combinations
from random import Random

import pytest

from lowchurn.assigner import DisperserFamily, build_schedule, assign, single_bin_family
from lowchurn.baselines import sorted_order
from lowchurn.core import TaskMultiset, switching_cost
from lowchurn.oracle import (
    RamseyWitness,
    SearchBudget,
    _qualifying_subsets,
    disperser_search,
    exact_feasible,
    exhaustive_max_switching,
    ramsey_witness,
    verify_disperser,
)


class TestExactFeasible:
    def test_single_worker_must_move(self):
        assert exact_feasible(1, 3, 1).verdict == "feasible"
        assert exact_feasible(1, 3, 0).verdict == "infeasible"

    def test_three_state_multiset_instance(self):
        # {1,1},{1,2},{2,2}: assign (1,1),(1,2),(2,2); each adjacent move costs 1.
        res = exact_feasible(2, 2, 1, multisets=True)
        assert res.verdict == "feasible"
        sol = res.solution
        for a, b in combinations(sol, 2):
            diff = sum(x != y for x, y in zip(sol[a], sol[b]))
            if TaskMultisetPair.adjacent(a, b):
                assert diff <= 1

    def test_feasible_at_k_equals_w(self):
        # Trivial upper bound: any function stays within w.
        assert exact_feasible(3, 5, 3).verdict == "feasible"

    def test_monotone_in_target(self):
        verdicts = [exact_feasible(2, 4, k).verdict for k in (0, 1, 2)]
        seen_feasible = False
        for v in verdicts:
            if v == "feasible":
                seen_feasible = True
            assert v == "feasible" or not seen_feasible

    def test_solution_is_certified(self):
        res = exact_feasible(3, 4, 2)
        if res.verdict != "feasible":
            pytest.skip("instance not feasible at this target")
        sol = res.solution
        for a, b in combinations(sol, 2):
            if TaskMultisetPair.adjacent(a, b):
                assert sum(x != y for x, y in zip(sol[a], sol[b])) <= 2
        for state, cand in sol.items():
            assert sorted(cand) == list(state)

    def test_budget_exhaustion(self):
        res = exact_feasible(3, 5, 2, budget=SearchBudget(node_limit=1))
        assert res.verdict == "budget_exhausted"

    def test_sets_need_enough_tasks(self):
        with pytest.raises(ValueError):
            exact_feasible(3, 2, 1)

    def test_deep_search_needs_no_recursion(self):
        # 1770 states, one search level each: deeper than the interpreter's
        # recursion limit, inside the CLI's 20 000-state cap.
        res = exact_feasible(2, 60, 2)
        assert res.verdict == "feasible"
        assert res.nodes == 1770

    def test_node_counts_pinned(self):
        # Exact node counts of the search order; any change to the visiting
        # order or the pruning shows here.
        assert exact_feasible(3, 5, 2).nodes == 55
        assert exact_feasible(3, 5, 3).nodes == 10
        assert exact_feasible(3, 5, 2, multisets=True).nodes == 92_971
        res = exact_feasible(4, 8, 3, budget=SearchBudget(node_limit=20_000))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 20_001)


class TaskMultisetPair:
    @staticmethod
    def adjacent(a: tuple, b: tuple) -> bool:
        from lowchurn.core import TaskMultiset, is_adjacent

        t = max(max(a), max(b))
        return is_adjacent(
            TaskMultiset.from_elements(a, t), TaskMultiset.from_elements(b, t)
        )


class TestExhaustiveMaxSwitching:
    def test_sorted_small_sets(self):
        worst, witness = exhaustive_max_switching(lambda T: sorted_order(T, 2), 2, 3)
        assert worst <= min(3 - 1, 2)
        assert witness is not None

    def test_single_task_universe_has_no_pairs(self):
        worst, witness = exhaustive_max_switching(
            lambda T: sorted_order(T, 3), 3, 1, multisets=True
        )
        assert worst == 0
        assert witness is None

    def test_pipeline_respects_round_bound(self):
        s = build_schedule(3, 4, c=4, master_seed=6)
        worst, witness = exhaustive_max_switching(
            lambda T: assign(s, T).assignment, 3, 4, multisets=True
        )
        assert worst <= 4 * s.total_rounds
        assert witness is not None

    def test_audit_dominates_exact_optimum(self):
        # Cross-check between the two engines on w=2, t=3 task sets.
        optimum = next(
            k for k in range(0, 3) if exact_feasible(2, 3, k).verdict == "feasible"
        )
        worst, _ = exhaustive_max_switching(lambda T: sorted_order(T, 2), 2, 3)
        assert worst >= optimum


class TestDispersers:
    def test_single_bin_always_qualifies(self):
        rng = Random(3)
        for _ in range(10):
            fam = DisperserFamily.random_table(6, 3, 1, k_param=1, epsilon=0.0, rng=rng)
            assert verify_disperser(fam)

    def test_constant_table_fails(self):
        fam = DisperserFamily(4, 2, 2, 1, 0.25, tuple((0, 0) for _ in range(4)))
        assert not verify_disperser(fam)

    def test_qualifying_subset_count(self):
        # N=4, k_param=1: C(4,2)+C(4,3)+C(4,4) = 11 subsets to check.
        assert sum(1 for _ in _qualifying_subsets(4, 2)) == 11

    def test_search_finds_tiny_disperser(self):
        fam = disperser_search(4, 2, 2, k_param=1, epsilon=0.25, seed=1)
        assert fam is not None
        assert verify_disperser(fam)
        # For these parameters the property forces jointly injective rows.
        assert len(set(fam.table)) == 4

    def test_search_none_within_hopeless_budget(self):
        # One random table almost surely misses these parameters.
        fam = disperser_search(
            8, 6, 2, k_param=1, epsilon=0.05, budget=SearchBudget(node_limit=1), seed=0
        )
        assert fam is None

    def test_oversized_domain_rejected(self):
        with pytest.raises(ValueError):
            disperser_search(64, 2, 2, k_param=1, epsilon=0.25)

    def test_vacuous_when_no_subset_qualifies(self):
        fam = single_bin_family(2, 2, k_param=4)
        assert verify_disperser(fam)


def _sorted_fn(w):
    return lambda T: sorted_order(T, w)


class TestRamseyWitness:
    def test_single_worker_any_pair_is_witness(self):
        witness = ramsey_witness(_sorted_fn(1), 1, 3)
        assert witness == RamseyWitness((1, 2), (1,))

    def test_sorted_order_is_monochromatic(self):
        witness = ramsey_witness(_sorted_fn(2), 2, 4)
        assert witness is not None
        assert witness.vertices == (1, 2, 3)
        assert witness.pattern == (1, 2)

    def test_witness_forces_full_switch(self):
        w, t = 2, 4
        witness = ramsey_witness(_sorted_fn(w), w, t)
        low = TaskMultiset.from_elements(witness.vertices[:-1], t)
        high = TaskMultiset.from_elements(witness.vertices[1:], t)
        assert switching_cost(sorted_order(low, w), sorted_order(high, w)) == w

    def test_no_witness_for_parity_colored_function(self):
        # Color pairs by sum parity: no 3 vertices agree on all their pairs.
        def parity_fn(T: TaskMultiset):
            a, b = T.elements()
            from lowchurn.core import Assignment

            if (a + b) % 2 == 0:
                return Assignment.from_mapping({1: a, 2: b}, 2)
            return Assignment.from_mapping({1: b, 2: a}, 2)

        assert ramsey_witness(parity_fn, 2, 4) is None

    def test_universe_too_small(self):
        assert ramsey_witness(_sorted_fn(3), 3, 3) is None
