"""Results stored as arrays against the tuple formulas they replace.

``Assignment``, ``AssignResult`` and ``DenseCode`` keep read-only arrays and
build their tuples when read. Each test here compares an array-built object
or an array-reading function with the plain tuple formula, on the same data
built both ways.
"""
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowchurn import assigner
from lowchurn.assigner import AssignSession, assign, assign_set, build_schedule
from lowchurn.core import Assignment, TaskMultiset, adjacent_step, random_multiset, switching_cost
from lowchurn.embed import DenseCode, hamming
from lowchurn.harness import _round_costs


def reference_check(w, pairs):
    """The checks ``Assignment`` made on its pairs when it stored them as a tuple, first fault first."""
    if w < 0:
        raise ValueError("worker count must be >= 0")
    prev = 0
    for worker, _ in pairs:
        if not 1 <= worker <= w:
            raise ValueError(f"worker {worker} outside [1, {w}]")
        if worker <= prev:
            raise ValueError("pairs must be sorted by worker with no duplicates")
        prev = worker


def reference_switching_cost(a1, a2):
    m1, m2 = dict(a1.pairs), dict(a2.pairs)
    return sum(1 for worker in m1.keys() | m2.keys() if m1.get(worker) != m2.get(worker))


def reference_round_costs(a, b):
    """Per round, the (worker, lifted task, round) triples in one result but not the other, trailing zeros dropped."""
    triples = [
        {(x, y, r) for (x, _), y, r in zip(res.assignment.pairs, res.lifted_tasks, res.match_rounds) if r >= 0}
        for res in (a, b)
    ]
    costs = [0] * max(a.rounds_executed, b.rounds_executed)
    for _, _, r in triples[0] ^ triples[1]:
        costs[r] += 1
    while costs and costs[-1] == 0:
        costs.pop()
    return tuple(costs)


def reference_per_round_pairs(res):
    rounds = [set() for _ in range(res.rounds_executed)]
    for (worker, _), task, r in zip(res.assignment.pairs, res.lifted_tasks, res.match_rounds):
        if r >= 0:
            rounds[r].add((worker, task))
    return tuple(map(frozenset, rounds))


def ids_array(values):
    """``values`` as the engine would hold them: uint64, or Python ints once one passes 2**64 - 1."""
    return np.array(values, np.uint64 if all(v < 1 << 64 for v in values) else object)


@st.composite
def assignments(draw, w):
    """Pairs for ``w`` workers: workers 1..n or a sparse sorted sample, tasks small or past 2**64."""
    n = draw(st.integers(0, w))
    dense = draw(st.booleans())
    workers = list(range(1, n + 1)) if dense else sorted(draw(st.sets(st.integers(1, max(w, 1)), min_size=n, max_size=n)))
    top = draw(st.sampled_from([3, 50, 2**40, 2**70]))
    tasks = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    return tuple(zip(workers, tasks))


def both_ways(w, pairs):
    """The assignment of ``pairs`` built from the tuple and from the arrays."""
    workers, tasks = [x for x, _ in pairs], [y for _, y in pairs]
    return Assignment(w, pairs), Assignment.from_arrays(w, np.array(workers, np.int64), ids_array(tasks))


def assert_read_only(*arrays):
    for a in arrays:
        assert not a.flags.writeable
        if a.size:
            with pytest.raises(ValueError):
                a[0] = a[0]


class TestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), w=st.integers(0, 40))
    def test_array_and_tuple_construction_agree(self, data, w):
        pairs = data.draw(assignments(w))
        a, b = both_ways(w, pairs)
        assert a == b and hash(a) == hash(b) == hash((w, pairs))
        assert repr(a) == repr(b) == f"Assignment(w={w!r}, pairs={pairs!r})"
        assert a.pairs == b.pairs == pairs and a.mapping == b.mapping == dict(pairs)
        assert_read_only(a.workers, a.tasks, b.workers, b.tasks)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), w=st.integers(0, 30))
    def test_switching_cost_is_the_mapping_formula(self, data, w):
        a1, b1 = both_ways(w, data.draw(assignments(w), label="first"))
        a2, b2 = both_ways(w, data.draw(assignments(w), label="second"))
        want = reference_switching_cost(a1, a2)
        # Tuple-built, array-built and mixed, in both orders.
        for x, y in [(a1, a2), (b1, b2), (a1, b2), (b1, a2)]:
            assert switching_cost(x, y) == switching_cost(y, x) == want

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.integers(-1, 6),
        pairs=st.lists(st.tuples(st.integers(-2, 8), st.integers(1, 5)), max_size=6),
    )
    def test_same_checks_and_messages_as_the_tuple_loop(self, w, pairs):
        pairs = tuple(pairs)
        try:
            reference_check(w, pairs)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        for build in (
            lambda: Assignment(w, pairs),
            lambda: Assignment.from_arrays(w, np.array([x for x, _ in pairs], np.int64), np.array([y for _, y in pairs])),
        ):
            if expected is None:
                assert build().pairs == pairs
            else:
                with pytest.raises(ValueError) as exc:
                    build()
                assert str(exc.value) == expected

    def test_realizes_reads_the_arrays(self):
        T = TaskMultiset.from_elements([2, 2, 5], 9)
        assert Assignment(3, ((1, 5), (2, 2), (3, 2))).realizes(T)
        assert not Assignment(3, ((1, 5), (2, 2), (3, 5))).realizes(T)
        assert not Assignment(4, ((1, 5), (2, 2), (4, 2))).realizes(T)  # not workers 1..3
        assert not Assignment(3, ((1, 5), (2, 2))).realizes(T)
        assert Assignment(3, ()).realizes(TaskMultiset((), 9))


class TestDenseCode:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), top=st.sampled_from([3, 2**40, 2**70]))
    def test_array_and_tuple_construction_agree(self, data, top):
        u = data.draw(st.lists(st.integers(1, top), max_size=20), label="u")
        n = data.draw(st.sampled_from([len(u), len(u), len(u) + 1]), label="length of v")
        v = data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n), label="v")
        for coords in (u, v):
            a, b = DenseCode(tuple(coords)), DenseCode(ids_array(coords))
            assert a == b and hash(a) == hash(b) == hash((tuple(coords),))
            assert repr(a) == repr(b) == f"DenseCode(coords={tuple(coords)!r})"
            assert_read_only(a.tasks, b.tasks)
        if len(u) != len(v):
            with pytest.raises(ValueError):
                hamming(DenseCode(tuple(u)), DenseCode(tuple(v)))
            return
        want = sum(1 for x, y in zip(u, v) if x != y)
        for x in (DenseCode(tuple(u)), DenseCode(ids_array(u))):
            for y in (DenseCode(tuple(v)), DenseCode(ids_array(v))):
                assert hamming(x, y) == want


def random_results(schedule, rng, count):
    """Results of ``assign`` on random multisets of every size from 0 to w, repeats included."""
    w, t = schedule.w, schedule.t
    return [assign(schedule, random_multiset(rng.randint(0, w), t, rng)) for _ in range(count)]


class TestAssignResult:
    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from([1, 4, 17, 64, 200]),
        t=st.sampled_from([1, 3, 50, 2**33 + 7]),
        keep=st.sampled_from([None, 0, 5, 40]),
        seed=st.integers(0, 2**32),
    )
    def test_trace_readers_are_the_tuple_formulas(self, w, t, keep, seed):
        schedule = build_schedule(w, t, 2, seed)
        if keep is not None:  # cut schedules leave a residual for the fallback
            schedule = assigner.RoundSchedule(w, t, 2, seed, schedule.rounds[:keep])
        rng = Random(seed)
        results = random_results(schedule, rng, 6)
        for res in results:
            assert res.per_round_pairs == reference_per_round_pairs(res)
            assert res.lifted_tasks == tuple(res.lifted.tolist()) and res.match_rounds == tuple(res.rounds.tolist())
            assert res.rounds.dtype == np.int64
            assert_read_only(res.lifted, res.rounds, res.assignment.workers, res.assignment.tasks)
            assert repr(res) == (
                f"AssignResult(assignment={res.assignment!r}, fallback_pairs={res.fallback_pairs!r}, "
                f"lifted_tasks={res.lifted_tasks!r}, match_rounds={res.match_rounds!r}, "
                f"rounds_executed={res.rounds_executed!r})"
            )
            rebuilt = assigner.AssignResult(
                res.assignment, res.fallback_pairs, res.lifted_tasks, res.match_rounds, res.rounds_executed
            )
            assert rebuilt == res and hash(rebuilt) == hash(res)
        for a, b in zip(results, results[1:]):
            assert _round_costs(a, b) == reference_round_costs(a, b)
            assert switching_cost(a.assignment, b.assignment) == reference_switching_cost(a.assignment, b.assignment)

    def test_assign_set_keeps_sparse_workers(self):
        schedule = build_schedule(50, 20, 2, 3)
        res = assign_set(schedule, [3, 9, 40], [7, 700, 999])
        assert res.assignment.workers.tolist() == [3, 9, 40]
        assert res.per_round_pairs == reference_per_round_pairs(res)
        assert switching_cost(res.assignment, Assignment(50, ())) == 3


class TestSessionAliasing:
    @pytest.mark.parametrize("keep", [None, 60])
    def test_results_held_from_earlier_steps_do_not_change(self, keep):
        w, t = 200, 800
        schedule = build_schedule(w, t, 4, 21)
        if keep is not None:  # a cut schedule, so the fallback's entries are patched too
            schedule = assigner.RoundSchedule(w, t, 4, 21, schedule.rounds[:keep])
        session, rng = AssignSession(schedule), Random(21)
        T = random_multiset(w, t, rng)
        held = []
        for step in range(40):
            res = session(T)
            held.append((T, res, res.lifted.copy(), res.rounds.copy(), res.assignment.tasks.copy()))
            assert_read_only(res.lifted, res.rounds, res.assignment.workers, res.assignment.tasks)
            T = adjacent_step(T, rng, w=w, size_varying=step % 3 == 0)
        assert session.replays == 39
        assert any(res.fallback_pairs for _, res, *_ in held) == (keep is not None)
        for T, res, lifted, rounds, tasks in held:
            assert np.array_equal(res.lifted, lifted) and np.array_equal(res.rounds, rounds)
            assert np.array_equal(res.assignment.tasks, tasks)
            assert res == assign(schedule, T)
