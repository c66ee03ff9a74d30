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
the base task of every id in an array at once. ``lifted_changes`` is the
difference between two lifted sets, worked out from the multisets'
``tasks`` and ``counts`` arrays without lifting either. Nothing here reads a
multiset's ``entries`` tuple.
"""
from __future__ import annotations

import numpy as np

from .core import TaskMultiset, _counts_in

__all__ = ["encode", "decode", "id_dtype", "lift", "lift_np", "lifted_changes", "project_np"]


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
    if len(T) > w and (over := np.flatnonzero(T.counts > w)).size:  # only then can one multiplicity exceed w
        raise ValueError(f"multiplicity {T.counts[over[0]]} of task {T.tasks[over[0]]} exceeds worker count {w}")
    dtype = id_dtype(w * T.t)
    tasks, counts = T.tasks.astype(dtype), T.counts.astype(dtype)
    # Methods, not np.cumsum and np.repeat, and few operations with a Python int: each wrapper
    # and each conversion of an int costs about 0.4 us, most of a small call's work.
    shifts = tasks * w - (counts.cumsum() - counts) - (w - 1)
    return shifts.repeat(T.counts) + np.arange(len(T), dtype=dtype)


def lift(T: TaskMultiset, w: int) -> frozenset[int]:
    """The lifted set in encoded form; ``|lift(T)| == |T|``."""
    return frozenset(lift_np(T, w).tolist())


def project_np(lifted, w: int) -> np.ndarray:
    """The base task of every lifted id in ``lifted``: the array form of ``decode(id, w)[0]``."""
    return (np.asarray(lifted) - 1) // w + 1


def lifted_changes(a: TaskMultiset, b: TaskMultiset, w: int, limit: int) -> tuple[list[int], list[int]] | None:
    """The lifted ids only ``a`` has and those only ``b`` has, or None past ``limit`` of them.

    The two lists are ``lift(a, w) - lift(b, w)`` and ``lift(b, w) - lift(a,
    w)``, each ascending. The runs the two multisets share at either end are
    cut off with elementwise comparisons; each side's remaining tasks are
    looked up in the other's, and only the tasks whose counts differ are
    lifted. On walk steps (w=1024 and 16384, t=4w, 2-core x86-64 VM, numpy
    2.4.6) this takes 0.95 and 0.38 of the time of the loop over ``entries``
    that it replaced.
    """
    ta, ca, tb, cb = a.tasks, a.counts, b.tasks, b.counts
    m = min(ta.size, tb.size)
    differ = np.flatnonzero((ta[:m] != tb[:m]) | (ca[:m] != cb[:m]))
    head = int(differ[0]) if differ.size else m  # runs shared at the front
    k = m - head
    differ = np.flatnonzero((ta[ta.size - k:] != tb[tb.size - k:]) | (ca[ca.size - k:] != cb[cb.size - k:]))
    tail = k - 1 - int(differ[-1]) if differ.size else k  # and at the back
    ta, ca, tb, cb = (x[head:x.size - tail] for x in (ta, ca, tb, cb))
    in_b, in_a = _counts_in(tb, cb, ta), _counts_in(ta, ca, tb)
    changed, added = np.flatnonzero(in_b != ca), np.flatnonzero(in_a == 0)  # a's tasks whose count differs; b's new ones
    if changed.size + added.size > limit:  # each changes at least one id
        return None
    gone, new = [], []
    for task, x, y in sorted([*zip(ta[changed].tolist(), ca[changed].tolist(), in_b[changed].tolist()),
                              *zip(tb[added].tolist(), [0] * added.size, cb[added].tolist())]):
        first = (task - 1) * w
        gone.extend(range(first + y + 1, first + x + 1))
        new.extend(range(first + x + 1, first + y + 1))
    return (gone, new) if len(gone) + len(new) <= limit else None
