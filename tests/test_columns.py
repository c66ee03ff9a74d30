"""Values stored as arrays against the tuple formulas they replace.

``TaskMultiset``, ``SparseVector``, ``Assignment``, ``AssignResult`` and
``DenseCode`` keep read-only arrays and build their tuples when read. Each
test here compares an array-built object or an array-reading function with
the plain tuple formula, on the same data built both ways. The tuple-stored
multiset and vector, and the walk step over them, are kept below as
references.
"""
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowchurn import assigner
from lowchurn.assigner import AssignSession, assign, assign_set, build_schedule
from lowchurn.baselines import PriorityOracle, random_permutation_assign, sorted_order
from lowchurn.core import Assignment, TaskMultiset, adjacent_step, is_adjacent, random_multiset, switching_cost
from lowchurn.embed import DenseCode, SparseVector, embed_with_result, hamming
from lowchurn.harness import _round_costs
from lowchurn.reduction import lifted_changes


def reference_check_runs(entries, n, faults):
    """The checks the multiset and the vector made on their runs when they stored them as tuples."""
    prev = total = 0
    for i, count in entries:
        if not 1 <= i <= n:
            raise ValueError(faults[0].format(i, n))
        if i <= prev:
            raise ValueError(faults[1])
        if count < 1:
            raise ValueError(faults[2])
        prev = i
        total += count
    return total


@dataclass(frozen=True)
class ReferenceMultiset:
    """``TaskMultiset`` as it was when it stored its value as a tuple of ``(task, count)`` runs."""

    entries: tuple[tuple[int, int], ...]
    t: int
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("task universe size must be >= 1")
        faults = ("task id {} outside universe [1, {}]", "task ids must be strictly increasing",
                  "multiplicities must be >= 1")
        object.__setattr__(self, "size", reference_check_runs(self.entries, self.t, faults))

    @classmethod
    def from_elements(cls, elements, t):
        return cls(tuple(sorted(Counter(elements).items())), t)

    @classmethod
    def parse(cls, text, t):
        text = text.strip()
        if not text:
            return cls((), t)
        try:
            elements = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad multiset text {text!r}: {exc}") from None
        if any(b < a for a, b in zip(elements, elements[1:])):
            raise ValueError(f"multiset text must be non-decreasing: {text!r}")
        return cls.from_elements(elements, t)

    def format(self):
        return ",".join(str(e) for e in self.elements())

    def __len__(self):
        return self.size

    def elements(self):
        out = []
        for task, count in self.entries:
            out.extend([task] * count)
        return tuple(out)

    @cached_property
    def _counts(self):
        return dict(self.entries)

    def multiplicity(self, task):
        return self._counts.get(task, 0)

    def difference(self, other):
        if self.t != other.t:
            raise ValueError(f"multisets over different universes: {self.t} vs {other.t}")
        entries = []
        for task, count in self.entries:
            kept = count - other.multiplicity(task)
            if kept > 0:
                entries.append((task, kept))
        return ReferenceMultiset(tuple(entries), self.t)


def reference_is_adjacent(t1, t2):
    d12, d21 = t1.difference(t2), t2.difference(t1)
    if len(t1) == len(t2):
        return len(d12) == 1 and len(d21) == 1
    if abs(len(t1) - len(t2)) == 1:
        return len(d12) + len(d21) == 1
    return False


def reference_adjacent_step(T, rng, *, w, size_varying=False):
    """``adjacent_step`` as it was on the tuple-stored multiset: the same moves and the same draws."""
    if len(T) > w:
        raise ValueError("multiset larger than worker count")
    moves = []
    if len(T) >= 1 and T.t >= 2:
        moves.append("swap")
    if size_varying:
        if len(T) < w:
            moves.append("insert")
        if len(T) >= 1:
            moves.append("remove")
    if not moves:
        raise ValueError("no adjacent multiset exists for this input")
    for _ in range(1000):
        move = moves[rng.randrange(len(moves))]
        if move == "insert":
            return ReferenceMultiset.from_elements(T.elements() + (rng.randint(1, T.t),), T.t)
        elements = list(T.elements())
        victim = elements.pop(rng.randrange(len(elements)))
        if move == "remove":
            return ReferenceMultiset.from_elements(elements, T.t)
        replacement = rng.randint(1, T.t)
        if replacement == victim:
            continue
        elements.append(replacement)
        return ReferenceMultiset.from_elements(elements, T.t)
    raise RuntimeError("adjacent walk failed to move after 1000 draws")


@dataclass(frozen=True)
class ReferenceVector:
    """``SparseVector`` as it was when it stored its value as a tuple of ``(position, value)`` pairs."""

    n: int
    entries: tuple[tuple[int, int], ...]
    weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        faults = ("position {} outside [1, {}]", "positions must be strictly increasing", "stored values must be >= 1")
        object.__setattr__(self, "weight", reference_check_runs(self.entries, self.n, faults))

    @classmethod
    def from_support(cls, n, positions):
        return cls(n, tuple((p, 1) for p in sorted(positions)))

    @classmethod
    def from_values(cls, n, values):
        return cls(n, tuple(sorted((p, v) for p, v in values.items() if v != 0)))

    @classmethod
    def parse(cls, line):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'n k positions', got {line!r}")
        n, k = int(parts[0]), int(parts[1])
        entries = {}
        for tok in parts[2].split(","):
            if ":" in tok:
                pos_s, val_s = tok.split(":", 1)
                pos, val = int(pos_s), int(val_s)
            else:
                pos, val = int(tok), 1
            if pos in entries:
                raise ValueError(f"duplicate position {pos} in {line!r}")
            entries[pos] = val
        vec = cls.from_values(n, entries)
        if vec.weight != k:
            raise ValueError(f"declared weight {k} but entries sum to {vec.weight}")
        return vec

    @property
    def is_binary(self):
        return all(val == 1 for _, val in self.entries)


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


# Universe sizes whose ids fit int64, and ones with ids past 2**63 and past 2**64, which the
# arrays hold as Python ints (object dtype).
UNIVERSES = [1, 2, 5, 2**63 + 5, 2**64 + 5]


def ids_of(t):
    """Ids in ``[1, t]``, drawn near both ends so that small and huge ids mix."""
    return st.one_of(st.integers(1, min(t, 9)), st.integers(max(1, t - 9), t))


def outcome(build):
    """What ``build()`` returns, or the type and message of the error it raises."""
    try:
        return build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def same_multiset(T, ref):
    """``T`` holds the reference's value, and every reader of it agrees with the reference's."""
    assert type(T) is TaskMultiset and type(ref) is ReferenceMultiset
    assert T.entries == ref.entries and T.t == ref.t
    assert hash(T) == hash(ref)  # both hash (entries, t)
    assert repr(T) == repr(ref).replace("ReferenceMultiset", "TaskMultiset", 1)
    assert len(T) == len(ref) and T.elements() == ref.elements() and T.format() == ref.format()
    assert T == TaskMultiset(ref.entries, ref.t)
    assert_read_only(T.tasks, T.counts)


class TestTaskMultiset:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), t=st.sampled_from(UNIVERSES))
    def test_every_constructor_and_reader_matches_the_tuple_reference(self, data, t):
        xs = data.draw(st.lists(ids_of(t), max_size=10), label="xs")
        ys = data.draw(st.lists(ids_of(t), max_size=10), label="ys")
        ra, rb = ReferenceMultiset.from_elements(xs, t), ReferenceMultiset.from_elements(ys, t)
        tasks, counts = [task for task, _ in ra.entries], [count for _, count in ra.entries]
        built = [
            TaskMultiset(ra.entries, t),
            TaskMultiset.from_elements(xs, t),
            TaskMultiset.parse(ra.format(), t),
            TaskMultiset.from_arrays(ids_array(tasks), np.array(counts, np.int64), t),
        ]
        if all(x < 2**63 for x in xs):  # a row of int64 ids
            built += TaskMultiset.from_rows(np.array([sorted(xs)], np.int64), t)
        b = TaskMultiset.from_elements(ys, t)
        for a in built:
            assert "entries" not in a.__dict__  # built from the arrays when first read
            same_multiset(a, ra)
            assert a == built[0] and hash(a) == hash(built[0])
            for task in {1, t, *xs, *ys}:
                assert a.multiplicity(task) == ra.multiplicity(task)
            same_multiset(a.difference(b), ra.difference(rb))
            same_multiset(b.difference(a), rb.difference(ra))
            assert is_adjacent(a, b) == is_adjacent(b, a) == reference_is_adjacent(ra, rb)

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        t=st.sampled_from([-1, 0, *UNIVERSES]),
        raw=st.lists(st.tuples(st.integers(-3, 12), st.integers(-1, 3)), max_size=6),
    )
    def test_every_constructor_raises_the_tuple_references_message(self, data, t, raw):
        # Small ids, and ids past 2**63 and 2**64 with the same faults: out of the
        # universe, out of order, or with a count below 1.
        shift = data.draw(st.sampled_from([0, 2**63, 2**64]), label="shift")
        entries = tuple((task + shift if task > 0 else task, count) for task, count in raw)
        elements = [task for task, count in entries for _ in range(max(count, 1))]
        text = ",".join(map(str, sorted(elements)))
        tasks, counts = [task for task, _ in entries], [count for _, count in entries]
        pairs = [
            (lambda: ReferenceMultiset(entries, t), lambda: TaskMultiset(entries, t)),
            (lambda: ReferenceMultiset.from_elements(elements, t), lambda: TaskMultiset.from_elements(elements, t)),
            (lambda: ReferenceMultiset.parse(text, t), lambda: TaskMultiset.parse(text, t)),
            (lambda: ReferenceMultiset.parse(",".join(map(str, elements)), t),
             lambda: TaskMultiset.parse(",".join(map(str, elements)), t)),
            (lambda: ReferenceMultiset(entries, t),
             lambda: TaskMultiset.from_arrays(ids_array(tasks) if min(tasks, default=1) > 0 else np.array(tasks, object),
                                              np.array(counts, np.int64), t)),
        ]
        for reference, build in pairs:
            want, got = outcome(reference), outcome(build)
            if isinstance(want, tuple):
                assert got == want
            else:
                same_multiset(got, want)


class TestSparseVector:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from(UNIVERSES))
    def test_every_constructor_and_reader_matches_the_tuple_reference(self, data, n):
        support = data.draw(st.sets(ids_of(n), max_size=8), label="support")
        values = {p: data.draw(st.integers(0, 3), label="value") for p in support}
        cases = [
            (ReferenceVector.from_support(n, support), SparseVector.from_support(n, support)),
            (ReferenceVector.from_support(n, support), SparseVector.from_support(n, np.array(sorted(support), object))),
            (ReferenceVector.from_values(n, values), SparseVector.from_values(n, values)),
        ]
        ref = cases[-1][0]
        if ref.entries:
            line = f"{n} {ref.weight} " + ",".join(f"{p}:{v}" for p, v in ref.entries)
            cases.append((ReferenceVector.parse(line), SparseVector.parse(line)))
        cases.append((ref, SparseVector(n, ref.entries)))
        for ref, x in cases:
            assert "entries" not in x.__dict__
            assert x.entries == ref.entries and hash(x) == hash(ref) and x.weight == ref.weight
            assert repr(x) == repr(ref).replace("ReferenceVector", "SparseVector", 1)
            assert x.is_binary == ref.is_binary and x == SparseVector(n, ref.entries)
            assert_read_only(x.positions, x.values)
            same_multiset(x.to_multiset(), ReferenceMultiset(ref.entries, n))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.sampled_from([-1, 0, *UNIVERSES]),
        raw=st.lists(st.tuples(st.integers(-3, 12), st.integers(-1, 3)), max_size=6),
    )
    def test_every_constructor_raises_the_tuple_references_message(self, data, n, raw):
        shift = data.draw(st.sampled_from([0, 2**63, 2**64]), label="shift")
        entries = tuple((p + shift if p > 0 else p, v) for p, v in raw)
        positions = [p for p, _ in entries]
        values = dict(entries)
        line = f"{n} {sum(values.values())} " + ",".join(f"{p}:{v}" for p, v in values.items())
        pairs = [
            (lambda: ReferenceVector(n, entries), lambda: SparseVector(n, entries)),
            (lambda: ReferenceVector.from_support(n, positions), lambda: SparseVector.from_support(n, positions)),
            (lambda: ReferenceVector.from_values(n, values), lambda: SparseVector.from_values(n, values)),
            (lambda: ReferenceVector.parse(line), lambda: SparseVector.parse(line)),
        ]
        for reference, build in pairs:
            want, got = outcome(reference), outcome(build)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.entries == want.entries and got.weight == want.weight


class TestAdjacentStep:
    @pytest.mark.parametrize("w", [1, 3, 64, 1024])
    @pytest.mark.parametrize("t", [2, 5, 65536])
    def test_replays_the_tuple_walk_byte_for_byte(self, w, t):
        # 125 steps for each of the 24 (w, t, kind) walks: 3000 in all.
        for size_varying in (False, True):
            seed = w * t + size_varying
            rng, ref_rng = Random(seed), Random(seed)
            ref = ReferenceMultiset.from_elements([ref_rng.randint(1, t) for _ in range(w)], t)
            T = TaskMultiset.from_elements([rng.randint(1, t) for _ in range(w)], t)
            for _ in range(125):
                T = adjacent_step(T, rng, w=w, size_varying=size_varying)
                ref = reference_adjacent_step(ref, ref_rng, w=w, size_varying=size_varying)
                assert T.entries == ref.entries and len(T) == len(ref)
                assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("T, kwargs", [
        (((), 5), {}),  # empty, fixed size
        ((((1, 2),), 1), {}),  # one task, fixed size
        (((), 5), {"w": 0, "size_varying": True}),  # empty and no room to insert
        ((((2, 4),), 5), {"w": 3}),  # larger than the worker count
    ])
    def test_keeps_the_no_move_errors(self, T, kwargs):
        kwargs = {"w": 4, **kwargs}
        want = outcome(lambda: reference_adjacent_step(ReferenceMultiset(*T), Random(0), **kwargs))
        assert isinstance(want, tuple)
        assert outcome(lambda: adjacent_step(TaskMultiset(*T), Random(0), **kwargs)) == want

    def test_keeps_the_failed_to_move_error_and_its_draws(self):
        class Stuck(Random):
            """Every replacement drawn is task 1, the only task of the multiset."""

            def randint(self, a, b):
                super().randint(a, b)
                return 1

        rng, ref_rng = Stuck(4), Stuck(4)
        want = outcome(lambda: reference_adjacent_step(ReferenceMultiset(((1, 3),), 6), ref_rng, w=3))
        assert want == (RuntimeError, "adjacent walk failed to move after 1000 draws")
        assert outcome(lambda: adjacent_step(TaskMultiset(((1, 3),), 6), rng, w=3)) == want
        assert rng.getstate() == ref_rng.getstate()


class TestNoTuplesOnTheHotPaths:
    """The array readers never build ``entries``: a quiet fall back to the tuples would show here."""

    @staticmethod
    def built(T):
        return TaskMultiset.from_arrays(np.array(T.tasks), np.array(T.counts), T.t)

    @staticmethod
    def untouched(*values):
        for x in values:
            assert "entries" not in x.__dict__, type(x).__name__

    def test_assign_baselines_and_the_walk(self):
        w, t = 64, 256
        rng = Random(8)
        T = self.built(random_multiset(40, t, rng))
        assign(build_schedule(w, t, 2, 8), T)
        sorted_order(T, w)
        random_permutation_assign(PriorityOracle(3), T, w)
        U = adjacent_step(T, rng, w=w, size_varying=True)
        assert lifted_changes(T, U, w, 8) is not None
        self.untouched(T, U)

    def test_session_full_run_and_replay(self):
        w, t = 256, 1024
        session, rng = AssignSession(build_schedule(w, t, 4, 2)), Random(2)
        T = self.built(random_multiset(w, t, rng))
        U = adjacent_step(T, rng, w=w)
        session(T)
        session(U)
        assert (session.calls, session.replays) == (2, 1)
        self.untouched(T, U)

    def test_embed(self):
        w, n = 64, 256
        x = SparseVector.from_support(n, Random(6).sample(range(1, n + 1), w))
        embed_with_result(build_schedule(w, n, 2, 6), x)
        self.untouched(x)
