"""Task multisets, worker assignments, adjacency, and the switching-cost metric.

Workers are the integers ``1..w`` and tasks the integers ``1..t``. A
:class:`TaskMultiset` records the current demand per task; an
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


def _check_runs(entries: Iterable[tuple[int, int]], n: int, faults: tuple[str, str, str]) -> int:
    """The total count of sorted ``(id, count)`` runs over ``[1, n]``, checked in one pass.

    The first fault raises ``ValueError`` with the caller's message for it from ``faults``: an
    id outside ``[1, n]`` (formatted with the id and ``n``), ids not strictly increasing, or a
    count below 1.
    """
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
class TaskMultiset:
    """Multiset over the task universe ``[1, t]``, stored as sorted (id, count) runs.

    The sorted-run form gives a canonical value for hashing and
    deduplication; ``size``, the total count, is recorded while the runs are
    checked. Size caps (``|T| <= w``) are enforced by the assignment
    entry points, not here: a multiset may exceed any particular worker count.
    """

    entries: tuple[tuple[int, int], ...]
    t: int
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("task universe size must be >= 1")
        faults = ("task id {} outside universe [1, {}]", "task ids must be strictly increasing",
                  "multiplicities must be >= 1")
        object.__setattr__(self, "size", _check_runs(self.entries, self.t, faults))

    @classmethod
    def _from_checked(cls, entries: tuple[tuple[int, int], ...], t: int, size: int) -> "TaskMultiset":
        """The multiset of ``entries`` with its known ``size``, skipping ``__post_init__``.

        For callers that have already made the same checks: ``t >= 1``, and
        ``entries`` are strictly increasing ids in ``[1, t]`` with counts
        ``>= 1`` that sum to ``size``.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(entries=entries, t=t, size=size)
        return obj

    @classmethod
    def from_elements(cls, elements: Iterable[int], t: int) -> "TaskMultiset":
        counts = Counter(elements)
        return cls(tuple(sorted(counts.items())), t)

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
        return ",".join(str(e) for e in self.elements())

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def elements(self) -> tuple[int, ...]:
        out: list[int] = []
        for task, count in self.entries:
            out.extend([task] * count)
        return tuple(out)

    @cached_property
    def _counts(self) -> dict[int, int]:
        return dict(self.entries)

    def multiplicity(self, task: int) -> int:
        return self._counts.get(task, 0)

    def difference(self, other: "TaskMultiset") -> "TaskMultiset":
        """Pointwise ``max(0, m_self - m_other)``."""
        if self.t != other.t:
            raise ValueError(f"multisets over different universes: {self.t} vs {other.t}")
        entries = []
        for task, count in self.entries:
            kept = count - other.multiplicity(task)
            if kept > 0:
                entries.append((task, kept))
        return TaskMultiset(tuple(entries), self.t)


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only array; a sequence of ints becomes int64, or object where one does not fit."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.array(values, np.int64)
        except OverflowError:
            values = np.array(values, object)
    values.setflags(write=False)
    return values


# ``Assignment``, ``AssignResult`` and ``DenseCode`` keep read-only arrays. A field whose class
# attribute is a ``cached_property`` is a tuple view of them, built when first read; the
# generated ``==``, hash and ``repr`` read it like any other field.
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
        return np.sort(self.tasks).tolist() == list(tasks.elements())


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

    for _ in range(1000):
        move = moves[rng.randrange(len(moves))]
        if move == "insert":
            return TaskMultiset.from_elements(T.elements() + (rng.randint(1, T.t),), T.t)
        elements = list(T.elements())
        victim = elements.pop(rng.randrange(len(elements)))
        if move == "remove":
            return TaskMultiset.from_elements(elements, T.t)
        replacement = rng.randint(1, T.t)
        if replacement == victim:
            continue  # identical multiset is not adjacent; redraw
        elements.append(replacement)
        return TaskMultiset.from_elements(elements, T.t)
    raise RuntimeError("adjacent walk failed to move after 1000 draws")
