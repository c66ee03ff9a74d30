"""The k-bin hash partial-assignment stage.

A stage hashes the unmatched workers and unmatched tasks into ``k`` bins with
two fixed functions and, in every bin holding at least one of each, matches
the smallest worker to the smallest task. The stage is deterministic given
its hash functions, tolerates ``|W| != |T|``, and two structural facts about
it carry the whole pipeline: outputs never drift further apart than inputs
(measured by :func:`difference_score`), and a single-element input change
perturbs the matching by at most two pairs.

Stages are composed by threading each one's residual into the next; the
package's one loop that does so is ``assigner._run_stages``.

``BinHash.match`` runs the stage; ``BinHash.apply`` is the same stage on one
:class:`WorkerTaskInput`, with the residual its pairs leave. ``BinHash``
objects are immutable after construction and both methods are pure, so
stages can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import WorkerTaskInput
from .hashing import GOLDEN, MASK64, MUL1, MUL2, mix64, mix64_np

__all__ = ["BinHash", "StageOutcome", "difference_score", "is_matching"]

_TAG_WORKER = 0x57F00D
_TAG_TASK = 0x7A5CADE


@dataclass(frozen=True)
class StageOutcome:
    """Result of one stage: the pairs it matched and what remains."""

    matched: frozenset[tuple[int, int]]
    residual: WorkerTaskInput
    active_bins: int


class BinHash:
    """One k-bin hash stage.

    ``h1`` maps worker ids and ``h2`` maps task ids into ``[1, k]``; both must
    be total and stable for the lifetime of the object. :meth:`from_seed`
    builds the standard pair from a 64-bit seed; explicit callables are
    accepted so tests and disperser-backed stages can inject their own tables.
    """

    __slots__ = ("k", "h1", "h2", "_seed_w", "_seed_t")

    def __init__(self, k: int, h1: Callable[[int], int], h2: Callable[[int], int]) -> None:
        if k < 1:
            raise ValueError("bin count must be >= 1")
        self.k = k
        self.h1 = h1
        self.h2 = h2
        self._seed_w: int | None = None
        self._seed_t: int | None = None

    @classmethod
    def from_seed(cls, k: int, seed: int) -> "BinHash":
        return cls.from_seeds(k, mix64(seed ^ _TAG_WORKER), mix64(seed ^ _TAG_TASK))

    @classmethod
    def from_seeds(cls, k: int, seed_w: int, seed_t: int) -> "BinHash":
        """The seeded stage with the worker and task seeds already derived (see :func:`seeds_np`)."""
        obj = cls(k, lambda x: _bin_of(seed_w, x, k), lambda x: _bin_of(seed_t, x, k))
        obj._seed_w = seed_w
        obj._seed_t = seed_t
        return obj

    @property
    def seeds(self) -> tuple[int, int] | None:
        """``(worker seed, task seed)`` of a :meth:`from_seed` stage; None for callable stages."""
        return None if self._seed_w is None else (self._seed_w, self._seed_t)

    def match(self, workers: Iterable[int], tasks: Iterable[int]) -> list[tuple[int, int]]:
        """Matched (worker, task) pairs for this stage, unordered."""
        best_w = _smallest_per_bin(workers, self.k, self._seed_w, self.h1)
        best_t = _smallest_per_bin(tasks, self.k, self._seed_t, self.h2, best_w)
        return [(best_w[b], task) for b, task in best_t.items()]

    def apply(self, wt: WorkerTaskInput) -> StageOutcome:
        """Run the stage on one worker-task input: :meth:`match`'s pairs and the residual they leave."""
        pairs = self.match(wt.workers, wt.tasks)
        workers, tasks = zip(*pairs) if pairs else ((), ())
        residual = WorkerTaskInput(wt.workers.difference(workers), wt.tasks.difference(tasks))
        return StageOutcome(frozenset(pairs), residual, len(pairs))


def seeds_np(seed: np.ndarray) -> np.ndarray:
    """The ``(worker seeds, task seeds)`` that :meth:`BinHash.from_seed` derives, as a ``(2, R)`` array.

    ``seed`` is a uint64 array of ``R`` stage seeds; the result is bit-identical
    to ``BinHash.from_seed(k, s).seeds`` for each of them.
    """
    return mix64_np(seed ^ np.array([[_TAG_WORKER], [_TAG_TASK]], dtype=np.uint64))


def _bin_of(seed: int, x: int, k: int) -> int:
    return mix64(seed ^ ((x * GOLDEN) & MASK64)) % k


def _smallest_per_bin(
    xs: Iterable[int], k: int, seed: int | None, h: Callable[[int], int], wanted: dict | None = None,
    gold: int = GOLDEN, mask: int = MASK64, mul1: int = MUL1, mul2: int = MUL2,
) -> dict[int, int]:
    """The smallest of ``xs`` in each bin: bins are ``_bin_of(seed, x, k)``, or ``h(x)`` when ``seed`` is None.

    Only bins in ``wanted`` are kept when it is given: a stage needs a task's
    bin only if some worker landed there. ``xs`` is scanned in increasing
    order, so the first element seen in a bin is its smallest, and the scan
    stops once every wanted bin (or all ``k``) holds one. ``mix64`` is inlined
    with its constants bound as locals: the scalar engine spends most of its
    time here.
    """
    best: dict[int, int] = {}
    need = k if wanted is None else len(wanted)
    if not need:
        return best
    for x in sorted(xs):
        if seed is None:
            b = h(x)
        else:
            v = (x * gold) & mask ^ seed
            v = ((v ^ (v >> 30)) * mul1) & mask
            v = ((v ^ (v >> 27)) * mul2) & mask
            b = (v ^ (v >> 31)) % k
        if b not in best and (wanted is None or b in wanted):
            best[b] = x
            if len(best) == need:
                break
    return best


def difference_score(i1: WorkerTaskInput, i2: WorkerTaskInput) -> int:
    """``|W1\\W2| + |W2\\W1| + |T1\\T2| + |T2\\T1|``, the drift between two inputs."""
    return (
        len(i1.workers ^ i2.workers)
        + len(i1.tasks ^ i2.tasks)
    )


def is_matching(pairs: Iterable[tuple[int, int]]) -> bool:
    """True iff no worker and no task appears in more than one pair."""
    pairs = list(pairs)
    return len({w for w, _ in pairs}) == len(pairs) and len({t for _, t in pairs}) == len(pairs)
