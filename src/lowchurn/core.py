"""Task multisets, worker assignments, adjacency, and the switching-cost metric.

Workers are the integers ``1..w`` and tasks the integers ``1..t``. A
:class:`TaskMultiset` records the current demand per task as two read-only
arrays, the tasks in ascending order and the count of each; its ``entries``
tuple is a view built from them when first read. An
:class:`Assignment` realizes those demands, one worker per unit of demand,
assigning workers ``1..size`` and leaving workers ``size+1..w`` idle when the
demand is below ``w``. The switching cost between two assignments counts the
workers whose task changed, where moving between assigned and unassigned
counts as a change.

Everything in this module is a pure function of its arguments (random state
is always passed explicitly), so concurrent use needs no coordination.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "TaskMultiset",
    "Assignment",
    "WorkerTaskInput",
    "is_adjacent",
    "switching_cost",
    "adjacent_step",
    "random_multiset",
]


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only array; a sequence of ints becomes int64, or object where one does not fit."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.array(values, np.int64)
        except OverflowError:
            values = np.array(values, object)
    values.setflags(write=False)
    return values


def _checked_runs(ids, counts, n: int, faults: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """``ids`` and ``counts`` as read-only arrays, and their total count, once checked as runs.

    Each array is int64, or object where an id does not fit: an int64 array is kept, and any
    other is made as ``_frozen`` makes a sequence of ints. ``counts[i]`` copies of each
    ``ids[i]`` must be sorted runs over ``[1, n]``. The first fault raises ``ValueError`` with
    the caller's message for it from ``faults``: ``n`` below 1, then, as a pass over the runs
    meets them, an id outside ``[1, n]`` (formatted with the id and ``n``), ids not strictly
    increasing, or a count below 1.
    """
    if n < 1:
        raise ValueError(faults[0])
    ids, counts = (_frozen(x if isinstance(x, np.ndarray) and x.dtype == np.int64 else np.asarray(x).tolist())
                   for x in (ids, counts))
    # count_nonzero, not any(): a few us less per call on small arrays.
    if ids.size and (ids[0] < 1 or ids[-1] > n or np.count_nonzero(ids[1:] <= ids[:-1]) or counts.min() < 1):
        bad = [(ids < 1) | (ids > n), np.r_[False, ids[1:] <= ids[:-1]], counts < 1]  # each fault, per run
        k = np.logical_or.reduce(bad).argmax()
        raise ValueError(faults[next(f for f in range(3) if bad[f][k]) + 1].format(ids[k], n))
    return ids, counts, int(counts.sum())


def _counts_in(tasks: np.ndarray, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The count of each of ``ids`` in the runs ``counts[i]`` copies of ``tasks[i]``: 0 where it has no run."""
    if not tasks.size:
        return np.zeros(ids.size, np.int64)
    i = tasks.searchsorted(ids).clip(max=tasks.size - 1)
    return np.where(tasks[i] == ids, counts[i], 0)


def _decimal(values: np.ndarray) -> str:
    """``",".join(map(str, values.tolist()))`` for positive ``values``, built one decimal place at a time.

    On 16384 int64 ids (2-core x86-64 VM, numpy 2.4.6) it takes 0.69 ms against the join's 2.7 ms,
    and the mrbb ``run_walk`` at w=16384, t=4w runs about 1.35x the steps/s it does with the join; ids
    past int64 take the join.
    """
    if values.dtype == object or not values.size:
        return ",".join(map(str, values.tolist()))
    top = len(str(values.max()))
    chars = np.full((top + 1, values.size), ord(","), np.uint8)  # row r: place r of every value, then commas
    for row, place in zip(chars, 10 ** np.arange(top - 1, -1, -1)):
        rest = values // place  # and rest - rest // 10 * 10, as the remainder ufunc is the slower
        row[:] = rest - rest // 10 * 10 + ord("0") * (rest > 0)  # 0 for a place in front of the first digit
    return chars.T.tobytes().replace(b"\0", b"")[:-1].decode()


_MULTISET_FAULTS = ("task universe size must be >= 1", "task id {} outside universe [1, {}]",
                    "task ids must be strictly increasing", "multiplicities must be >= 1")


# ``TaskMultiset``, ``Assignment``, ``AssignResult``, ``DenseCode`` and ``embed.SparseVector`` keep
# read-only arrays. A field whose class attribute is a ``cached_property`` is a tuple view of
# them, built when first read; the generated ``==``, hash and ``repr`` read it like any other field.
@dataclass(frozen=True, init=False)
class TaskMultiset:
    """Multiset over the task universe ``[1, t]``: ``counts[i]`` copies of each task ``tasks[i]``.

    ``tasks``, strictly increasing, and ``counts``, each at least 1, are read-only
    arrays. ``entries``, the sorted ``(task, count)`` runs that give the
    multiset its canonical value for hashing and deduplication, is built from
    them when first read. ``size``, the total count, is recorded while the
    runs are checked. Size caps (``|T| <= w``) are enforced by the assignment
    entry points, not here: a multiset may exceed any particular worker count.
    """

    entries: tuple[tuple[int, int], ...] = cached_property(
        lambda self: tuple(zip(self.tasks.tolist(), self.counts.tolist())))
    t: int
    size: int = field(init=False, repr=False, compare=False)

    def __init__(self, entries: Sequence[tuple[int, int]], t: int) -> None:
        self._store(t, *_frozen(entries).reshape(-1, 2).T)

    @classmethod
    def from_arrays(cls, tasks: np.ndarray, counts: np.ndarray, t: int) -> "TaskMultiset":
        """``counts[i]`` copies of each ``tasks[i]``, checked like ``TaskMultiset(entries, t)``; keeps both, read-only."""
        return object.__new__(cls)._store(t, tasks, counts)

    def _store(self, t: int, tasks, counts) -> "TaskMultiset":
        tasks, counts, size = _checked_runs(tasks, counts, t, _MULTISET_FAULTS)
        self.__dict__.update(tasks=tasks, counts=counts, t=t, size=size)
        return self

    @classmethod
    def from_elements(cls, elements: Iterable[int], t: int) -> "TaskMultiset":
        """The multiset of ``elements``, each an integral value in ``[1, t]``: ``3.0`` is task 3, ``2.5`` is refused.

        The sorted ``Counter`` runs are strictly increasing with counts of at least 1, so only
        ``t`` and the id range are checked, with ``TaskMultiset(entries, t)``'s messages.
        """
        runs = sorted(Counter(elements).items())
        if t < 1:
            raise ValueError(_MULTISET_FAULTS[0])
        keys = [task for task, _ in runs]
        try:
            tasks = np.array(keys, np.int64)
        except OverflowError:  # an id past int64
            tasks = np.array(list(map(int, keys)), object)
        ids = tasks.tolist()
        if ids != keys:
            raise ValueError(f"task id {next(x for x, i in zip(keys, ids) if x != i)!r} is not an integer")
        if runs and (ids[0] < 1 or ids[-1] > t):
            raise ValueError(_MULTISET_FAULTS[1].format(next(i for i in ids if not 1 <= i <= t), t))
        counts = [count for _, count in runs]
        self = object.__new__(cls)
        self.__dict__.update(tasks=_frozen(tasks), counts=_frozen(counts), t=t, size=sum(counts))
        return self

    @classmethod
    def from_rows(cls, rows: np.ndarray, t: int) -> list["TaskMultiset"]:
        """The multiset of each row of the 2-D int64 array ``rows``, whose rows must be non-decreasing over ``[1, t]``.

        One pass finds every row's runs, and one check in array form refuses
        ``t`` below 1 and then an id outside ``[1, t]``, the first in row
        order, with ``TaskMultiset(entries, t)``'s messages, and then a
        decreasing row. The multisets keep read-only slices of the runs'
        arrays.
        """
        if t < 1:
            raise ValueError(_MULTISET_FAULTS[0])
        size = rows.shape[1]
        if rows.size and (rows.min() < 1 or rows.max() > t or np.count_nonzero(rows[:, 1:] < rows[:, :-1])):
            bad = (rows < 1) | (rows > t)
            if bad.any():
                raise ValueError(_MULTISET_FAULTS[1].format(rows.ravel()[bad.argmax()], t))
            raise ValueError("rows must be non-decreasing")
        head = np.ones(rows.shape, bool)  # the first slot of each run
        head[:, 1:] = rows[:, 1:] != rows[:, :-1]
        at = np.flatnonzero(head)
        tasks, counts = _frozen(rows.ravel()[at]), _frozen(np.diff(at, append=rows.size))
        ends = np.count_nonzero(head, axis=1).cumsum().tolist()
        out = []
        for a, b in zip([0, *ends], ends):
            self = object.__new__(cls)
            self.__dict__.update(tasks=tasks[a:b], counts=counts[a:b], t=t, size=size)
            out.append(self)
        return out

    @classmethod
    def parse(cls, text: str, t: int) -> "TaskMultiset":
        """Parse the comma-separated text form, e.g. ``"1,2,2,5"``. Empty string is the empty multiset."""
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

    def format(self) -> str:
        return _decimal(np.repeat(self.tasks, self.counts))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def elements(self) -> tuple[int, ...]:
        return tuple(np.repeat(self.tasks, self.counts).tolist())

    def multiplicity(self, task: int) -> int:
        return int(_counts_in(self.tasks, self.counts, _frozen([task]))[0])

    def difference(self, other: "TaskMultiset") -> "TaskMultiset":
        """Pointwise ``max(0, m_self - m_other)``."""
        if self.t != other.t:
            raise ValueError(f"multisets over different universes: {self.t} vs {other.t}")
        kept = self.counts - _counts_in(other.tasks, other.counts, self.tasks)
        return TaskMultiset.from_arrays(self.tasks[kept > 0], kept[kept > 0], self.t)

    def _moved(self, i: int | None, task: int | None) -> "TaskMultiset":
        """This multiset less one copy of ``tasks[i]`` and plus one of ``task``, each skipped when None."""
        tasks, counts = self.tasks, self.counts.copy()
        if i is not None:
            counts[i] -= 1
        if task is not None:
            j = int(tasks.searchsorted(task))
            if j < tasks.size and tasks[j] == task:
                counts[j] += 1
            else:  # a new run of one copy, at j
                tasks, counts = (np.concatenate([x[:j], _frozen([y]), x[j:]]) for x, y in ((tasks, task), (counts, 1)))
        kept = counts > 0
        return TaskMultiset.from_arrays(tasks[kept], counts[kept], self.t)


@dataclass(frozen=True, init=False)
class Assignment:
    """A worker-to-task mapping; workers not listed are unassigned.

    It is two read-only arrays: ``workers``, sorted, distinct and in ``[1, w]``, and
    ``tasks``, the task of each. ``pairs`` (one per assigned worker, in worker order) and
    ``mapping`` are built from them when first read.
    """

    w: int
    pairs: tuple[tuple[int, int], ...] = cached_property(
        lambda self: tuple(zip(self.workers.tolist(), self.tasks.tolist())))

    def __init__(self, w: int, pairs: Sequence[tuple[int, int]]) -> None:
        self._store(w, *_frozen(pairs).reshape(-1, 2).T)

    @classmethod
    def from_arrays(cls, w: int, workers: np.ndarray, tasks: np.ndarray) -> "Assignment":
        """Worker ``workers[i]`` on task ``tasks[i]``, checked like ``Assignment(w, pairs)``; keeps both, read-only."""
        return object.__new__(cls)._store(w, _frozen(workers), _frozen(tasks))

    def _store(self, w: int, workers: np.ndarray, tasks: np.ndarray) -> "Assignment":
        if w < 0:
            raise ValueError("worker count must be >= 0")
        # count_nonzero, not any(): a few us less per call on small arrays.
        if workers.size and (workers[0] < 1 or workers[-1] > w or np.count_nonzero(workers[1:] <= workers[:-1])):
            bad = (workers < 1) | (workers > w)
            bad[1:] |= workers[1:] <= workers[:-1]
            x = workers[bad.argmax()]  # the first fault, as a loop over the pairs meets it
            if not 1 <= x <= w:
                raise ValueError(f"worker {x} outside [1, {w}]")
            raise ValueError("pairs must be sorted by worker with no duplicates")
        self.__dict__.update(w=w, workers=workers, tasks=tasks)
        return self

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], w: int) -> "Assignment":
        return cls(w, tuple(sorted(mapping.items())))

    @cached_property
    def mapping(self) -> dict[int, int]:
        return dict(zip(self.workers.tolist(), self.tasks.tolist()))

    def realizes(self, tasks: TaskMultiset) -> bool:
        """True iff the assigned tasks equal ``tasks`` with multiplicity and workers 1..|tasks| are used."""
        workers, n = self.workers, len(tasks)
        if workers.size != n or (n and workers[-1] != n):  # sorted distinct workers from 1 are 1..n iff the last is n
            return False
        return np.array_equal(np.sort(self.tasks), np.repeat(tasks.tasks, tasks.counts))


def switching_cost(a1: Assignment, a2: Assignment) -> int:
    """Number of workers whose task differs between the two assignments.

    A worker assigned in exactly one of the two counts as differing, which is
    what the size-varying setting requires.
    """
    if a1.w != a2.w:
        raise ValueError("assignments over different worker universes")
    w1, w2, t1, t2 = a1.workers, a2.workers, a1.tasks, a2.tasks
    if (not w1.size or w1[-1] == w1.size) and (not w2.size or w2[-1] == w2.size):
        # Both are workers 1..size, so the shorter task array lines up with the other's prefix.
        n = min(t1.size, t2.size)
        return int(np.count_nonzero(t1[:n] != t2[:n])) + abs(t1.size - t2.size)
    m1, m2 = a1.mapping, a2.mapping
    return sum(1 for worker in m1.keys() | m2.keys() if m1.get(worker) != m2.get(worker))


@dataclass(frozen=True, init=False)
class WorkerTaskInput:
    """A pair of plain sets: unmatched workers and unmatched tasks.

    Pipeline entry points require ``|workers| == |tasks|``; the partial
    assignment stages themselves tolerate unequal sizes, which the
    difference-score machinery relies on.
    """

    workers: frozenset[int]
    tasks: frozenset[int]

    def __init__(self, workers: Iterable[int], tasks: Iterable[int]) -> None:
        # Writes the frozen fields directly: a stage builds one residual per call.
        self.__dict__.update(workers=frozenset(workers), tasks=frozenset(tasks))


def is_adjacent(t1: TaskMultiset, t2: TaskMultiset) -> bool:
    """True for equal-size multisets swapping one element, or sizes differing by one with symmetric difference one."""
    d12 = t1.difference(t2)  # checks that the universes match
    d21 = t2.difference(t1)
    if len(t1) == len(t2):
        return len(d12) == 1 and len(d21) == 1
    if abs(len(t1) - len(t2)) == 1:
        return len(d12) + len(d21) == 1
    return False


def _check_fits(T: TaskMultiset, w: int) -> None:
    """Reject a multiset with more elements than there are workers."""
    if len(T) > w:
        raise ValueError("multiset larger than worker count")


def random_multiset(size: int, t: int, rng: Random) -> TaskMultiset:
    """Multiset of ``size`` tasks drawn iid uniform from ``[1, t]``."""
    return TaskMultiset.from_elements((rng.randint(1, t) for _ in range(size)), t)


def adjacent_step(
    T: TaskMultiset, rng: Random, *, w: int, size_varying: bool = False
) -> TaskMultiset:
    """One move of the random adjacent walk.

    Default move keeps the size fixed: remove one element chosen uniformly by
    multiplicity and insert one uniform task id, redrawing until the result
    actually differs. With ``size_varying`` the move kind is chosen uniformly
    among the feasible ones in {swap, insert, remove}, where insert requires
    ``len(T) < w`` and remove requires a nonempty multiset. The output is
    always adjacent to ``T``.
    """
    _check_fits(T, w)
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

    ends = np.cumsum(T.counts)  # the index of each run's last element, among T's sorted elements, plus one
    for _ in range(1000):
        move = moves[rng.randrange(len(moves))]
        if move == "insert":
            return T._moved(None, rng.randint(1, T.t))
        i = int(ends.searchsorted(rng.randrange(len(T)), "right"))  # the victim's run
        if move == "remove":
            return T._moved(i, None)
        replacement = rng.randint(1, T.t)
        if replacement == T.tasks[i]:
            continue  # identical multiset is not adjacent; redraw
        return T._moved(i, replacement)
    raise RuntimeError("adjacent walk failed to move after 1000 draws")
