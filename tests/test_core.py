import re
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowchurn.core import (
    Assignment,
    TaskMultiset,
    adjacent_step,
    is_adjacent,
    random_multiset,
    switching_cost,
)
from lowchurn.embed import SparseVector

T6 = 6


def ms(*elements, t=T6):
    return TaskMultiset.from_elements(elements, t)


elements_lists = st.lists(st.integers(1, T6), max_size=8)


class TestMultisetAlgebra:
    # ``difference`` is the one multiset operation; a - (a - b) is the
    # pointwise min of multiplicities and b + (a - b) the pointwise max.
    def test_footnote_example(self):
        # The max(0, m_a - m_b) rule applied by hand to A={1,1,2}, B={1,3}.
        a, b = ms(1, 1, 2), ms(1, 3)
        assert a.difference(b) == ms(1, 2)
        assert b.difference(a) == ms(3)

    def test_empty_side(self):
        a, b = ms(), ms(5)
        assert a.difference(b) == ms()
        assert b.difference(a) == ms(5)

    def test_single_element_multiplicities(self):
        a, b = ms(2, 2, 2), ms(2)
        assert a.difference(b) == ms(2, 2)
        assert b.difference(a) == ms()

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ms(1).difference(TaskMultiset.from_elements([1], 9))

    @given(elements_lists, elements_lists)
    def test_size_identity(self, xs, ys):
        # |a - b| + |a & b| == |a|, with |a & b| == |b| - |b - a|.
        a, b = ms(*xs), ms(*ys)
        assert len(a.difference(b)) + len(b) - len(b.difference(a)) == len(a)

    @given(elements_lists, elements_lists)
    def test_pointwise_max_min(self, xs, ys):
        a, b = ms(*xs), ms(*ys)
        for task in range(1, T6 + 1):
            ma, mb = a.multiplicity(task), b.multiplicity(task)
            assert a.difference(b).multiplicity(task) == max(0, ma - mb)
            assert mb + a.difference(b).multiplicity(task) == max(ma, mb)
            assert a.difference(a.difference(b)).multiplicity(task) == min(ma, mb)


class TestMultisetBasics:
    def test_text_roundtrip(self):
        T = TaskMultiset.parse("1,2,2,5", 9)
        assert T.format() == "1,2,2,5"
        assert T.elements() == (1, 2, 2, 5)
        assert TaskMultiset.parse("", 9) == TaskMultiset((), 9)

    def test_parse_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TaskMultiset.parse("2,1", 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskMultiset(((0, 1),), 5)
        with pytest.raises(ValueError):
            TaskMultiset(((6, 1),), 5)
        with pytest.raises(ValueError):
            TaskMultiset(((2, 1), (2, 1)), 5)
        with pytest.raises(ValueError):
            TaskMultiset(((2, 0),), 5)

    @pytest.mark.parametrize(
        "t, entries, message",
        [
            (0, (), "task universe size must be >= 1"),
            (5, ((0, 1),), "task id 0 outside universe [1, 5]"),
            (5, ((6, 1),), "task id 6 outside universe [1, 5]"),
            (5, ((2, 1), (2, 1)), "task ids must be strictly increasing"),
            (5, ((3, 1), (2, 1)), "task ids must be strictly increasing"),
            (5, ((1, 1), (2, 0)), "multiplicities must be >= 1"),
        ],
    )
    def test_invalid_entries_rejected_by_the_multiset(self, t, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TaskMultiset(entries, t)

    def test_from_elements_takes_integral_values_only(self):
        # An integral float is its task; any other value is refused, not truncated to a task.
        assert TaskMultiset.from_elements((3.0, 3, True), 5) == TaskMultiset(((1, 1), (3, 2)), 5)
        for elements, bad in [((2.5, 3), "2.5"), ((2**70, 2.5), "2.5"), (("4",), "'4'")]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'task id {bad} is not an integer')}$"):
                TaskMultiset.from_elements(elements, 2**71)

    @given(data=st.data(), width=st.integers(0, 5), count=st.integers(1, 6))
    def test_from_rows_is_from_elements_of_each_row(self, data, width, count):
        rows = [sorted(data.draw(st.lists(st.integers(1, T6), min_size=width, max_size=width))) for _ in range(count)]
        made = TaskMultiset.from_rows(np.array(rows, np.int64).reshape(count, width), T6)
        assert made == [TaskMultiset.from_elements(row, T6) for row in rows]
        for T in made:
            assert not T.tasks.flags.writeable and not T.counts.flags.writeable

    @pytest.mark.parametrize(
        "t, rows, message",
        [
            (0, [[1]], "task universe size must be >= 1"),
            (5, [[1, 2], [0, 3]], "task id 0 outside universe [1, 5]"),
            (5, [[1, 6], [0, 3]], "task id 6 outside universe [1, 5]"),  # the first fault in row order
            (5, [[1, 2], [3, 2]], "rows must be non-decreasing"),
        ],
    )
    def test_from_rows_refuses_a_bad_row(self, t, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TaskMultiset.from_rows(np.array(rows, np.int64), t)

    def test_size_is_recorded_by_every_constructor(self):
        made = [
            *TaskMultiset.from_rows(np.array([[1, 1, 4], [2, 3, 3]], np.int64), 9),
            TaskMultiset(((1, 2), (4, 1), (9, 3)), 9),
            TaskMultiset((), 9),
            TaskMultiset.from_elements([5, 1, 5, 5, 2], 9),
            TaskMultiset.parse("1,2,2,5", 9),
            TaskMultiset.parse("", 9),
            ms(1, 1, 2, 3, 3, 3).difference(ms(1, 3)),
            SparseVector.from_values(9, {2: 3, 7: 1}).to_multiset(),
        ]
        for T in made:
            assert "size" in T.__dict__  # recorded while the runs were checked, not summed on first read
            assert len(T) == T.size == sum(count for _, count in T.entries) == len(T.elements())


class TestAdjacency:
    def test_swap_is_adjacent(self):
        assert is_adjacent(ms(1, 2, 2), ms(2, 2, 3))

    def test_size_varying_is_adjacent(self):
        assert is_adjacent(ms(1, 2), ms(1, 2, 2))

    def test_double_swap_is_not(self):
        assert not is_adjacent(ms(1, 1), ms(2, 2))

    def test_equal_multisets_are_not(self):
        assert not is_adjacent(ms(1, 2), ms(1, 2))

    @given(elements_lists, elements_lists)
    def test_symmetric(self, xs, ys):
        a, b = ms(*xs), ms(*ys)
        assert is_adjacent(a, b) == is_adjacent(b, a)


class TestSwitchingCost:
    def test_one_worker_moves(self):
        a1 = Assignment.from_mapping({1: 4, 2: 2}, w=2)
        a2 = Assignment.from_mapping({1: 4, 2: 7}, w=2)
        assert switching_cost(a1, a2) == 1

    def test_identity_is_zero(self):
        a = Assignment.from_mapping({1: 4, 2: 2}, w=2)
        assert switching_cost(a, a) == 0

    def test_unassigned_counts_as_change(self):
        a1 = Assignment.from_mapping({1: 4, 2: 2}, w=2)
        a2 = Assignment.from_mapping({1: 4}, w=2)
        assert switching_cost(a1, a2) == 1

    def test_worker_universe_mismatch(self):
        with pytest.raises(ValueError):
            switching_cost(Assignment(2, ()), Assignment(3, ()))

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4), st.lists(st.integers(1, 5), max_size=4))
    def test_symmetric_and_bounded(self, xs, ys):
        w = 4
        a1 = Assignment.from_mapping({i + 1: x for i, x in enumerate(xs)}, w)
        a2 = Assignment.from_mapping({i + 1: y for i, y in enumerate(ys)}, w)
        assert switching_cost(a1, a2) == switching_cost(a2, a1)
        assert 0 <= switching_cost(a1, a2) <= w

    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=12),
        st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=12),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_matches_mapping_formula(self, d1, d2, n1, n2):
        # Sparse dictionaries leave workers unassigned and misalign the pair
        # lists; their dense prefixes 1..n take the aligned fast path.
        w = 12
        dense1 = {i: d1.get(i, 1) for i in range(1, n1 + 1)}
        dense2 = {i: d2.get(i, 2) for i in range(1, n2 + 1)}
        for m1, m2 in ((d1, d2), (dense1, dense2), (d1, dense2)):
            a1, a2 = Assignment.from_mapping(m1, w), Assignment.from_mapping(m2, w)
            want = sum(1 for worker in m1.keys() | m2.keys() if m1.get(worker) != m2.get(worker))
            assert switching_cost(a1, a2) == want
            assert switching_cost(a2, a1) == want


class TestAssignment:
    def test_realizes(self):
        a = Assignment.from_mapping({1: 2, 2: 2, 3: 5}, w=4)
        assert a.realizes(ms(2, 2, 5))
        assert not a.realizes(ms(2, 5, 5))

    def test_duplicate_worker_rejected(self):
        with pytest.raises(ValueError):
            Assignment(3, ((1, 2), (1, 3)))

    def test_worker_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Assignment(2, ((3, 1),))


class TestAdjacentStep:
    def test_always_adjacent(self):
        rng = Random(1)
        T = ms(1, 2, 3)
        for _ in range(300):
            nxt = adjacent_step(T, rng, w=3)
            assert is_adjacent(T, nxt)
            assert len(nxt) == len(T)
            T = nxt

    def test_size_varying_always_adjacent(self):
        rng = Random(2)
        T = ms(1, 2)
        sizes = set()
        for _ in range(500):
            nxt = adjacent_step(T, rng, w=4, size_varying=True)
            assert is_adjacent(T, nxt)
            sizes.add(len(nxt))
            T = nxt
        assert 0 in sizes or 1 in sizes  # walk actually shrinks sometimes
        assert 4 in sizes  # and reaches the cap

    def test_forced_swap(self):
        # Removing a copy of 1 and inserting 3 must produce {1,3}.
        T = TaskMultiset.from_elements([1, 1], 3)
        want = TaskMultiset.from_elements([1, 3], 3)
        hits = sum(adjacent_step(T, Random(seed), w=2) == want for seed in range(200))
        assert hits > 0

    def test_reachability_of_full_state_space(self):
        # All 10 size-3 multisets over [3] show up within 10^4 steps.
        rng = Random(7)
        T = TaskMultiset.from_elements([1, 2, 3], 3)
        seen = {T.elements()}
        for _ in range(10_000):
            T = adjacent_step(T, rng, w=3)
            seen.add(T.elements())
        assert len(seen) == 10

    def test_empty_fixed_size_rejected(self):
        with pytest.raises(ValueError):
            adjacent_step(ms(), Random(0), w=3)

    def test_single_task_universe_rejected(self):
        T = TaskMultiset.from_elements([1, 1], 1)
        with pytest.raises(ValueError):
            adjacent_step(T, Random(0), w=2)

    def test_empty_size_varying_inserts(self):
        nxt = adjacent_step(ms(), Random(0), w=3, size_varying=True)
        assert len(nxt) == 1


def test_random_multiset_respects_bounds():
    rng = Random(5)
    for _ in range(50):
        T = random_multiset(6, 4, rng)
        assert len(T) == 6
        assert all(1 <= e <= 4 for e in T.elements())
