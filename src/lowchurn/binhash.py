"""The seeded k-bin hash partial-assignment stage.

A stage hashes the unmatched workers and unmatched tasks into ``k`` bins with
two seeded functions and, in every bin holding at least one of each, matches
the smallest worker to the smallest task. The stage is deterministic given
its seeds, tolerates ``|W| != |T|``, and two structural facts about
it carry the whole pipeline: outputs never drift further apart than inputs
(measured by :func:`difference_score`), and a single-element input change
perturbs the matching by at most two pairs.

Stages compose by threading each one's residual into the next. The
package composes no stage: its one engine asks a schedule's rounds for
their bins, ``SeededRounds.bins`` hashing as this stage does and an
explicit schedule's ``TableRounds`` reading disperser tables. The tests'
reference loop (``tests/reference.py``) composes stages, and the engine is
checked against it bit for bit.

``BinHash.match`` runs the stage; ``BinHash.apply`` is the same stage on one
:class:`WorkerTaskInput`, with the residual its pairs leave. ``BinHash``
objects are immutable after construction and both methods are pure, so
stages can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """One seeded k-bin hash stage.

    Worker ``x`` lands in bin ``_bin_of(seed_w, x, k)`` and task ``y`` in
    ``_bin_of(seed_t, y, k)``, both in ``[0, k)``. :meth:`from_seed` derives
    the two seeds from one 64-bit stage seed; :func:`seeds_np` derives them
    for a whole schedule at once.
    """

    __slots__ = ("k", "seeds")

    def __init__(self, k: int, seed_w: int, seed_t: int) -> None:
        if k < 1:
            raise ValueError("bin count must be >= 1")
        self.k = k
        self.seeds = (seed_w, seed_t)

    @classmethod
    def from_seed(cls, k: int, seed: int) -> "BinHash":
        return cls(k, mix64(seed ^ _TAG_WORKER), mix64(seed ^ _TAG_TASK))

    def match(self, workers: Iterable[int], tasks: Iterable[int]) -> list[tuple[int, int]]:
        """Matched (worker, task) pairs for this stage, unordered."""
        best_w = _smallest_per_bin(workers, self.k, self.seeds[0])
        best_t = _smallest_per_bin(tasks, self.k, self.seeds[1], best_w)
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
    xs: Iterable[int], k: int, seed: int, wanted: dict | None = None,
    gold: int = GOLDEN, mask: int = MASK64, mul1: int = MUL1, mul2: int = MUL2,
) -> dict[int, int]:
    """The smallest of ``xs`` in each of the bins ``_bin_of(seed, x, k)``.

    Only bins in ``wanted`` are kept when it is given: a stage needs a task's
    bin only if some worker landed there. ``xs`` is scanned in increasing
    order, so the first element seen in a bin is its smallest, and the scan
    stops once every wanted bin (or all ``k``) holds one. ``mix64`` is inlined
    with its constants bound as locals: a stage spends most of its time
    here.
    """
    best: dict[int, int] = {}
    need = k if wanted is None else len(wanted)
    if not need:
        return best
    for x in sorted(xs):
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
