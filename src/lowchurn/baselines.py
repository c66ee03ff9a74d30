"""Reference assignment functions to compare the pipeline against.

``sorted_order`` is the classic baseline: workers take tasks in numerical
order, which costs up to ``min(t-1, w)`` reassignments per adjacent move.
``random_permutation_assign`` gives every worker an implicit random
preference order over tasks and assigns workers one by one to their favorite
remaining task; its switching cost is small on average but has no worst-case
guarantee.

Preference orders are realized through keyed 64-bit priorities rather than
stored permutations, so a :class:`PriorityOracle` costs O(1) memory at any
universe size. Both functions are pure given their oracle.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Assignment, TaskMultiset
from .hashing import GOLDEN, MASK64, derive_np, mix64
from .reduction import id_dtype, lift_np, project_np
from .reduction import lift  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = ["PriorityOracle", "sorted_order", "random_permutation_assign"]


class PriorityOracle:
    """Keyed priorities inducing, per worker, a total preference order on tasks.

    Lower key means more preferred; ties (absent in practice with 64-bit
    keys) break toward the smaller task id because tasks are scanned in
    ascending order.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def priority(self, worker: int, task: int) -> int:
        return mix64(mix64(self.seed ^ ((worker * GOLDEN) & MASK64)) ^ ((task * GOLDEN) & MASK64))

    def priority_matrix(self, workers: Sequence[int], tasks: Sequence[int]) -> np.ndarray:
        """uint64 key matrix, bit-identical to :meth:`priority` entrywise."""
        ws = derive_np(np.uint64(self.seed), np.asarray(workers, dtype=np.uint64))
        return derive_np(ws[:, None], np.asarray(tasks, dtype=np.uint64))


def sorted_order(T: TaskMultiset, w: int) -> Assignment:
    """Worker ``i`` takes the i-th smallest element of ``T`` (with multiplicity)."""
    if len(T) > w:
        raise ValueError("multiset larger than worker count")
    return Assignment.from_arrays(w, np.arange(1, len(T) + 1), np.array(T.elements(), id_dtype(T.t)))


# The greedy pass builds the key matrix this many cells at a time, in blocks
# of whole worker rows, so its memory stays bounded at any size; inputs of
# up to 1024 tasks are one block.
_KEY_CELLS = 1 << 20
_TAKEN = 0xFFFFFFFFFFFFFFFF  # the largest key: a task already chosen


def _greedy_order(oracle, workers: Sequence[int], tasks: Sequence[int]) -> np.ndarray:
    """Tasks chosen by the greedy pass, in worker order. ``tasks`` must be sorted."""
    chosen = []
    rows = max(1, _KEY_CELLS // len(tasks))
    for start in range(0, len(workers), rows):
        keys = oracle.priority_matrix(workers[start:start + rows], tasks)
        if chosen:
            keys[:, chosen] = _TAKEN
        for row in keys:
            j = row.argmin()
            keys[:, j] = _TAKEN  # no later worker prefers it
            chosen.append(j)
    return np.asarray(tasks)[chosen]


def random_permutation_assign(oracle: PriorityOracle, T: TaskMultiset, w: int) -> Assignment:
    """Greedy assignment by worker id: each takes its most-preferred remaining task.

    Multisets are supported through the lifted-set reduction, so preferences
    are over lifted task ids and the result is projected back to base tasks.
    """
    size = len(T)
    if size > w:
        raise ValueError("multiset larger than worker count")
    if size == 0:
        return Assignment(w, ())
    workers = np.arange(1, size + 1)
    chosen = _greedy_order(oracle, workers, lift_np(T, w))
    return Assignment.from_arrays(w, workers, project_np(chosen, w))
