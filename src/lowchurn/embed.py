"""Densify sparse vectors into low-dimensional Hamming space via assignment.

A weight-``k`` binary vector in ``n`` dimensions becomes a length-``k`` code
over the alphabet ``[n]``: coordinate ``i`` is the task (vector position)
that worker ``i`` receives when the assignment function runs on the vector's
support. Because the code's coordinates are a permutation of the support,
``Ham(code_x, code_y) >= |T(x) \\ T(y)| >= Ham(x, y) / 2`` holds per pair
with no assumptions; the upper side is inherited from the assigner's
switching cost along a chain of adjacent supports, which the audit reports
next to the observed worst ratio. A code keeps the assignment's task array,
and :func:`hamming` compares two codes' arrays.

Vectors with non-negative integer entries are supported too: the support
becomes a multiset (position repeated by its value) and the input metric is
the l1 distance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assigner import AssignResult, RoundSchedule, assign
from .core import TaskMultiset, _checked_runs, _frozen

__all__ = [
    "SparseVector",
    "DenseCode",
    "PairAudit",
    "DistortionReport",
    "embed",
    "embed_with_result",
    "hamming",
    "distortion_audit",
]


@dataclass(frozen=True, init=False)
class SparseVector:
    """A nonnegative integer vector: the nonzero ``values[i]`` at each position ``positions[i]``.

    ``positions``, strictly increasing, and ``values``, each at least 1, are
    read-only arrays; ``entries``, the sorted ``(position, value)`` pairs, is
    built from them when first read. Binary vectors have all values equal to
    one; the weight ``k`` is the sum of values either way.
    """

    n: int
    entries: tuple[tuple[int, int], ...] = cached_property(
        lambda self: tuple(zip(self.positions.tolist(), self.values.tolist())))
    weight: int = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, entries) -> None:
        self._store(n, *_frozen(entries).reshape(-1, 2).T)

    def _store(self, n: int, positions, values) -> "SparseVector":
        faults = ("dimension must be >= 1", "position {} outside [1, {}]", "positions must be strictly increasing",
                  "stored values must be >= 1")
        positions, values, weight = _checked_runs(positions, values, n, faults)
        self.__dict__.update(n=n, positions=positions, values=values, weight=weight)
        return self

    @classmethod
    def from_support(cls, n: int, positions) -> "SparseVector":
        positions = np.sort(positions if isinstance(positions, np.ndarray) else _frozen(list(positions)))
        return object.__new__(cls)._store(n, positions, np.ones(positions.size, np.int64))

    @classmethod
    def from_values(cls, n: int, values: dict[int, int]) -> "SparseVector":
        return cls(n, tuple(sorted((p, v) for p, v in values.items() if v != 0)))

    @classmethod
    def parse(cls, line: str) -> "SparseVector":
        """Parse ``"n k p1,p2,...,pk"`` or the valued form ``"n k p1:v1,p2:v2,..."``."""
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'n k positions', got {line!r}")
        n, k = int(parts[0]), int(parts[1])
        entries: dict[int, int] = {}
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
    def is_binary(self) -> bool:
        return bool(np.all(self.values == 1))

    def to_multiset(self) -> TaskMultiset:
        """The support as a task multiset over ``[n]`` (position repeated by value), sharing the vector's arrays."""
        return TaskMultiset.from_arrays(self.positions, self.values, self.n)


@dataclass(frozen=True, init=False)
class DenseCode:
    """Length-``k`` code word: ``tasks[i-1]`` (a read-only array) is worker ``i``'s task; ``coords`` is its tuple."""

    coords: tuple[int, ...] = cached_property(lambda self: tuple(self.tasks.tolist()))

    def __init__(self, coords) -> None:
        self.__dict__["tasks"] = _frozen(coords)


def hamming(u, v) -> int:
    """Coordinate disagreements between codes, or the input-side distance between vectors.

    For binary vectors this is Hamming distance over all ``n`` coordinates;
    for valued vectors it is the l1 distance (they coincide on binary input).
    """
    if isinstance(u, DenseCode) and isinstance(v, DenseCode):
        if u.tasks.size != v.tasks.size:
            raise ValueError("codes of different length")
        return int(np.count_nonzero(u.tasks != v.tasks))
    if isinstance(u, SparseVector) and isinstance(v, SparseVector):
        if u.n != v.n:
            raise ValueError("vectors of different dimension")
        U, V = u.to_multiset(), v.to_multiset()
        return len(U.difference(V)) + len(V.difference(U))
    raise TypeError("hamming() needs two DenseCodes or two SparseVectors")


def embed_with_result(schedule: RoundSchedule, x: SparseVector) -> tuple[DenseCode, AssignResult]:
    """Embed ``x`` and keep the underlying assignment bookkeeping."""
    if x.weight != schedule.w:
        raise ValueError(f"vector weight {x.weight} does not match schedule workers {schedule.w}")
    if x.n != schedule.t:
        raise ValueError(f"vector dimension {x.n} does not match schedule tasks {schedule.t}")
    result = assign(schedule, x.to_multiset())
    return DenseCode(result.assignment.tasks), result


def embed(schedule: RoundSchedule, x: SparseVector) -> DenseCode:
    """The code whose i-th coordinate is the task assigned to worker ``i`` on the support of ``x``."""
    code, _ = embed_with_result(schedule, x)
    return code


@dataclass(frozen=True)
class PairAudit:
    """One audited pair; ``index`` is its position in the pairs given to :func:`distortion_audit`."""

    input_distance: int
    code_distance: int
    ratio: float
    fallback: bool
    index: int


@dataclass(frozen=True)
class DistortionReport:
    """Distortion summary over a sample of vector pairs.

    ``structural_ceiling`` is ``2 * total_rounds``: an adjacent support step
    can move at most ``4 * total_rounds`` assignments while each step covers
    input distance 2, so fallback-free ratios can never exceed it. Observed
    and structural numbers are reported separately so a regression in either
    is visible.
    """

    pairs: tuple[PairAudit, ...]
    min_ratio: float | None
    max_ratio: float | None
    structural_ceiling: float
    fallback_pairs: int
    skipped_identical: int

    @property
    def lower_bound_ok(self) -> bool:
        return self.min_ratio is None or self.min_ratio >= 0.5


def distortion_audit(
    schedule: RoundSchedule, pairs: list[tuple[SparseVector, SparseVector]]
) -> DistortionReport:
    """Measure ``distance(code_x, code_y) / distance(x, y)`` over the given pairs.

    Pairs with identical vectors are skipped (the ratio is undefined). Every
    audited pair is also checked against the exact per-pair floor
    ``code_distance >= |T(x) \\ T(y)|``.
    """
    rows: list[PairAudit] = []
    cache: dict[SparseVector, tuple[DenseCode, AssignResult]] = {}

    def embedded(x: SparseVector) -> tuple[DenseCode, AssignResult]:
        if x not in cache:
            cache[x] = embed_with_result(schedule, x)
        return cache[x]

    for index, (x, y) in enumerate(pairs):
        d_in = hamming(x, y)
        if d_in == 0:
            continue
        code_x, res_x = embedded(x)
        code_y, res_y = embedded(y)
        d_code = hamming(code_x, code_y)
        one_sided = len(x.to_multiset().difference(y.to_multiset()))
        if d_code < one_sided:
            raise AssertionError(
                f"code distance {d_code} below exact floor {one_sided}; embedding is broken"
            )
        fallback = res_x.used_fallback or res_y.used_fallback
        rows.append(PairAudit(d_in, d_code, d_code / d_in, fallback, index))

    ratios = [r.ratio for r in rows]
    return DistortionReport(
        pairs=tuple(rows),
        min_ratio=min(ratios) if ratios else None,
        max_ratio=max(ratios) if ratios else None,
        structural_ceiling=2.0 * schedule.total_rounds,
        fallback_pairs=sum(row.fallback for row in rows),
        skipped_identical=len(pairs) - len(rows),
    )
