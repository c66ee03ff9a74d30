import tracemalloc
from random import Random

import numpy as np
import pytest

from lowchurn import baselines
from lowchurn.baselines import PriorityOracle, _greedy_order, random_permutation_assign, sorted_order
from lowchurn.core import TaskMultiset, adjacent_step, random_multiset, switching_cost
from lowchurn.hashing import derive
from lowchurn.oracle import exhaustive_max_switching
from lowchurn.reduction import decode, lift_np


def ms(*elements, t=9):
    return TaskMultiset.from_elements(elements, t)


class BaseOrderOracle:
    """Stub priorities: an explicit preference list of base task ids per worker."""

    def __init__(self, orders: dict[int, list[int]], w: int) -> None:
        self.orders = orders
        self.w = w

    def priority_matrix(self, workers, tasks):
        return np.array(
            [[self.orders[wk].index(decode(t, self.w)[0]) for t in tasks] for wk in workers],
            dtype=np.uint64,
        )


class TestSortedOrder:
    def test_numerical_order(self):
        assert sorted_order(ms(2, 5, 9), w=3).mapping == {1: 2, 2: 5, 3: 9}

    def test_repeated_task(self):
        assert sorted_order(ms(7, 7), w=2).mapping == {1: 7, 2: 7}

    def test_small_multiset_leaves_tail_unassigned(self):
        a = sorted_order(ms(4), w=3)
        assert a.mapping == {1: 4}
        assert 3 not in a.mapping

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            sorted_order(ms(1, 2, 3), w=2)

    def test_adjacent_pair_costs_min_t_minus_one_w(self):
        # t=3, w=3: the pair {1,2,3} -> {2,3,3} shifts workers 1 and 2; worker 3 keeps task 3.
        t1 = TaskMultiset.from_elements([1, 2, 3], 3)
        t2 = TaskMultiset.from_elements([2, 3, 3], 3)
        cost = switching_cost(sorted_order(t1, 3), sorted_order(t2, 3))
        assert cost == 2 == min(3 - 1, 3)

    def test_exhaustive_bound_small_instances(self):
        for w in range(1, 7):
            for t in range(1, 7):
                worst, _ = exhaustive_max_switching(
                    lambda T: sorted_order(T, w), w, t, multisets=True
                )
                assert worst <= min(t - 1, w)


class TestRandomPermutationAssign:
    def test_first_worker_takes_favorite(self):
        oracle = PriorityOracle(derive(77))
        w = 3
        T = ms(2, 5, 9)
        a = random_permutation_assign(oracle, T, w=w)
        chosen = a.mapping[1]
        prios = {task: oracle.priority(1, (task - 1) * w + 1) for task in (2, 5, 9)}
        assert chosen == min(prios, key=prios.get)

    def test_greedy_hand_trace(self):
        # Worker 1 prefers 3 over 1 over 2; worker 2 prefers 2 over 1 over 3.
        oracle = BaseOrderOracle({1: [3, 1, 2], 2: [2, 1, 3]}, w=2)
        a = random_permutation_assign(oracle, TaskMultiset.from_elements([1, 2], 3), w=2)
        assert a.mapping == {1: 1, 2: 2}

    def test_realizes_multisets(self):
        oracle = PriorityOracle(derive(5))
        rng = Random(13)
        for _ in range(60):
            T = random_multiset(rng.randint(0, 5), 7, rng)
            assert random_permutation_assign(oracle, T, w=5).realizes(T)

    def test_remainder_sets_drift_by_at_most_one(self):
        # Greedy i-remainders of adjacent task sets differ by at most one element.
        rng = Random(21)
        n, w = 30, 8
        for trial in range(40):
            oracle = PriorityOracle(derive(trial))
            s1 = set(rng.sample(range(1, n + 1), w))
            out = rng.choice(sorted(s1))
            inn = rng.choice(sorted(set(range(1, n + 1)) - s1))
            s2 = (s1 - {out}) | {inn}
            workers = list(range(1, w + 1))
            chosen1 = _greedy_order(oracle, workers, sorted(s1))
            chosen2 = _greedy_order(oracle, workers, sorted(s2))
            for i in range(w + 1):
                a_i = s1 - set(chosen1[:i])
                b_i = s2 - set(chosen2[:i])
                assert len(a_i - b_i) <= 1

    def test_mean_switching_cost_is_logarithmic_smoke(self):
        w, t = 16, 64
        bound = sum(2 / (w - i + 1) for i in range(1, w + 1))
        rng = Random(99)
        total = 0
        pairs = 400
        for idx in range(pairs):
            oracle = PriorityOracle(derive(1234, idx))
            T1 = random_multiset(w, t, rng)
            T2 = adjacent_step(T1, rng, w=w)
            total += switching_cost(
                random_permutation_assign(oracle, T1, w),
                random_permutation_assign(oracle, T2, w),
            )
        assert total / pairs <= bound

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            random_permutation_assign(PriorityOracle(1), ms(1, 2), w=1)

    def test_blocks_of_rows_match_the_scalar_greedy(self):
        # 1500 lifted tasks: the key matrix is built in three blocks of rows.
        w = 1500
        assert w * w > 2 * baselines._KEY_CELLS
        oracle = PriorityOracle(derive(6))
        T = random_multiset(w, 500, Random(8))
        left = lift_np(T, w).tolist()
        want = {}
        for worker in range(1, w + 1):
            task = min(left, key=lambda x: (oracle.priority(worker, x), x))
            left.remove(task)
            want[worker] = decode(task, w)[0]
        assert random_permutation_assign(oracle, T, w).mapping == want

    def test_keys_take_bounded_memory(self):
        w = 2048
        T = random_multiset(w, 4 * w, Random(2))
        tracemalloc.start()
        try:
            random_permutation_assign(PriorityOracle(derive(4)), T, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20  # the whole 2048 x 2048 key matrix with its temporaries is 96 MB


class TestPriorityOracle:
    def test_matrix_matches_scalar(self):
        oracle = PriorityOracle(derive(8, 15))
        workers = [1, 5, 9]
        tasks = [2, 3, 11, 40]
        matrix = oracle.priority_matrix(workers, tasks)
        for r, wk in enumerate(workers):
            for c, tk in enumerate(tasks):
                assert int(matrix[r, c]) == oracle.priority(wk, tk)

    def test_induces_total_order_per_worker(self):
        oracle = PriorityOracle(derive(3))
        keys = [oracle.priority(2, task) for task in range(1, 200)]
        assert len(set(keys)) == len(keys)
