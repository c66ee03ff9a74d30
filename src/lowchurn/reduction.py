"""Lift task multisets over ``[t]`` into plain task sets over ``[w*t]``.

Each demand unit becomes its own lifted task: the x-th copy of task ``i``
maps to the pair ``(i, x)``, encoded as the integer ``(i-1)*w + x``. Copies
of the same task are therefore contiguous in the encoded order, and the
encoding preserves the lexicographic order of ``(base, copy)``. Adjacent
multisets lift to adjacent sets, so any set assigner's switching behavior
survives the round trip; projecting an assignment back simply drops the copy
index.

``lift_np`` is the one lift, the lifted set as a sorted id array, and
``lift`` is the same set as a frozenset. ``project_np`` is the projection:
the base task of every id in an array at once.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .core import TaskMultiset

__all__ = ["encode", "decode", "id_dtype", "lift", "lift_np", "project_np"]


def encode(base: int, copy: int, w: int) -> int:
    """Encode the ``copy``-th unit of task ``base`` into ``[1, w*t]``."""
    if not 1 <= copy <= w:
        raise ValueError(f"copy index {copy} outside [1, {w}]")
    if base < 1:
        raise ValueError("task ids start at 1")
    return (base - 1) * w + copy


def decode(encoded: int, w: int) -> tuple[int, int]:
    """Inverse of :func:`encode`: return ``(base, copy)``."""
    if encoded < 1:
        raise ValueError("encoded ids start at 1")
    return (encoded - 1) // w + 1, (encoded - 1) % w + 1


def id_dtype(n: int) -> type:
    """The array dtype for ids in ``[1, n]``: uint64, or Python ints (object) from ``2**64`` on."""
    return np.uint64 if n < 1 << 64 else object


def lift_np(T: TaskMultiset, w: int) -> np.ndarray:
    """The ids of the lifted set, ascending; rejects a multiplicity above ``w``.

    The ids have dtype ``id_dtype(w * t)``. Copy ``x`` of a task sits
    ``x - 1`` places after the task's first copy, so every id is its position
    in the array plus a per-task shift.
    """
    if len(T) > w:  # only then can one multiplicity exceed w
        for task, count in T.entries:
            if count > w:
                raise ValueError(f"multiplicity {count} of task {task} exceeds worker count {w}")
    dtype = id_dtype(w * T.t)
    runs = np.fromiter(chain.from_iterable(T.entries), dtype, 2 * len(T.entries))
    tasks, counts = runs[0::2], runs[1::2]
    shifts = (tasks - 1) * w + 1 - (np.cumsum(counts) - counts)
    ids = np.repeat(shifts, counts.astype(np.intp))
    ids += np.arange(len(T), dtype=dtype)
    return ids


def lift(T: TaskMultiset, w: int) -> frozenset[int]:
    """The lifted set in encoded form; ``|lift(T)| == |T|``."""
    return frozenset(lift_np(T, w).tolist())


def project_np(lifted, w: int) -> np.ndarray:
    """The base task of every lifted id in ``lifted``: the array form of ``decode(id, w)[0]``."""
    return (np.asarray(lifted) - 1) // w + 1
