"""Multi-round balls-to-bins assignment and its disperser-backed explicit variant.

The randomized pipeline runs outer rounds ``i = 1..ceil(log_1.1 w)``; round
``i`` repeats a ``k_i``-bin hash ``c * ceil(log2 n)`` times with
``k_i = max(1, ceil(w / 1.1**i))`` and ``n = w*t``. Multisets are lifted to
sets over ``[n]`` first and the set assignment is projected back. Any input
left unmatched after the schedule ends is completed by a deterministic
fallback (sorted residual workers to sorted residual tasks); that policy
voids the worst-case switching guarantee, so every result reports how many
pairs it contributed.

A built schedule is its seed arrays. :func:`build_schedule` derives every
round's worker seed, task seed and bin count in one numpy pass over the
grid, and ``RoundSchedule.rounds`` is a :class:`SeededRounds` view of those
arrays: the :class:`BinHash` stages the scalar loop needs
(``SeededRounds.stages``) are derived from them the first time they are
read, once per schedule.

The explicit variant replaces seeded hash functions with a per-level family
of verified strong dispersers, sweeping each family's seeds in order instead
of drawing fresh randomness. :func:`explicit_schedule` lays those sweeps out
as another :class:`RoundSchedule`, whose rounds are a :class:`TableRounds`
reading each seed's column of its family's table, so every entry point runs
both constructions, on the array engine. The repetition count per level is
a caller parameter; the per-sweep progress guarantee is what makes a finite
count sufficient.

A schedule's rounds are the one place that turns ids into bins: each kind
of rounds has a ``bins(rows, wt)`` method that gives the bins of both sides
of a residual in a block of rounds, ``SeededRounds`` by hashing
(``hashing.bins_np``) and ``TableRounds`` by reading tables. Two engines
give bit-identical output, the same pairs and the same trace:

* the scalar loop (``_run_stages``) calls ``BinHash.match`` round after
  round on Python sets. It is the reference, and it runs the seeded
  schedules past the array engine's limits (``_on_arrays``);
* the array engine (``_run_arrays``) runs one block of rounds at a time
  (``_run_block``), asking the rounds for each block's bins once. Each
  block is sized to a planned number of expected collisions, ``_SORT_HITS``
  above ``_TAIL_N`` and ``_TAIL_HITS`` in the tail, where a block runs at
  most ``k`` rounds (``_block_size``), in three regimes:

  - head rounds: a block of one round above ``_TAIL_N``, or a round
    expected to hold more than ``_TAIL_HITS`` collisions at any size, is one
    numpy round: each side's first position in each bin, scattered over the
    bins or, where they are sparse, only the workers', read back at the
    tasks' bins;
  - sorted blocks: above ``_TAIL_N``, a longer block keys the residual's
    bins under all its rounds and sorts the keys once, as uint32 where they
    fit; a worker meets a task where two neighbouring keys differ in the
    side bit alone, and only those bins are visited, in round order;
  - the all-pairs tail: at ``_TAIL_N`` workers or fewer, any other block
    compares every worker's bin with every task's in each of its rounds.

  A run of single-bin rounds takes no bins: it pairs the residual's
  smallest ids, one pair per round, as the scalar loop does.

The trace of a run is each worker's match round, -1 for the fallback.
Wrapped by ``_run`` in the array engine's form, both engines take and
return arrays: the residual goes in as one ``(2, n)`` array, sorted
workers over sorted tasks, and comes back as the matched pairs with their
rounds plus the residual left at the end. ``_pack`` scatters those and the
rank-order fallback, which is that residual's rows side by side, into one
task and one round per worker. ``assign`` stays in numpy from input to
result: the lift (``reduction.lift_np``), the engine, the scatter and the
projection to base tasks (``reduction.project_np``). The result keeps those
arrays, and its tuples are built only when read. ``assign_set`` is the same
path wrapped for plain id sets.

``assign`` and ``assign_set`` run the array engine on every explicit
schedule and on every seeded one with ``n < 2**63`` and ``w < 2**31``, and
the scalar loop on the seeded rest.

:class:`AssignSession` answers a sequence of multisets with the results
``assign`` gives, working each one out from the last when their lifted sets
differ in a few ids (``reduction.lifted_changes``). Its docstring is the
contract; :class:`_Cache` holds the cell layout and each element's hashed
bins, and :class:`_Replay` the events that carry one run to the next.

Schedules and families are immutable; ``assign`` and ``assign_set`` are
pure, so evaluating many inputs in parallel is safe.
A session is a cache with one owner: it is not for concurrent use.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress, count
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .binhash import BinHash, seeds_np
from .core import Assignment, TaskMultiset, WorkerTaskInput, _check_fits, _frozen
from .hashing import bins_np, derive, derive_np
from .reduction import id_dtype, lift_np, lifted_changes, project_np
from .reduction import lift  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "RoundSchedule",
    "AssignResult",
    "AssignSession",
    "DisperserFamily",
    "build_schedule",
    "assign_set",
    "assign",
    "explicit_schedule",
    "seed_sweep",
    "single_bin_family",
    "trivial_families",
    "outer_round_count",
    "bins_for_round",
]


def outer_round_count(w: int) -> int:
    """Smallest ``i >= 1`` with ``1.1**i >= w``, i.e. ``ceil(log_1.1 w)`` forced positive.

    Computed with exact integer powers (``11**i >= w * 10**i``) so boundary
    worker counts never fall victim to float rounding.
    """
    if w < 1:
        raise ValueError("worker count must be >= 1")
    i, p11, p10 = 1, 11, 10
    while p11 < w * p10:
        i += 1
        p11 *= 11
        p10 *= 10
    return i


def bins_for_round(w: int, i: int) -> int:
    """``max(1, ceil(w / 1.1**i))``, exactly."""
    p10 = 10**i
    p11 = 11**i
    return max(1, -((-w * p10) // p11))


class _Rounds:
    """What a schedule's two kinds of rounds share: a length, slicing, and equality, hashing and a repr by ``_key``.

    An index must be a slice, which gives a view of the same arrays
    (``_slice``). There is no round object to index or iterate: an integer
    index raises ``TypeError``, and so does iteration, which asks for
    index 0.
    """

    kind = ""

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, index: slice) -> _Rounds:
        if not isinstance(index, slice):
            raise TypeError(f"{self.kind} rounds take a slice, not {type(index).__name__}")
        return self._slice(index)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<{len(self)} {self.kind} rounds>"


class SeededRounds(_Rounds):
    """The rounds of a built schedule, held as arrays.

    ``seeds[0]`` and ``seeds[1]`` hold each round's worker and task seeds
    (:attr:`BinHash.seeds`), ``ks`` its bin count and ``ij`` its grid
    coordinates ``(i, j)``, one column per round; all are read-only.
    :meth:`bins` hashes ids under a block of rounds for the array engine, and
    ``kmax[r]``, the most bins of any round from ``r`` on, is ``ks[r]``:
    ``ks`` never rises. ``stages`` is each round's :class:`BinHash`, for the
    scalar loop, built on first read and kept, so each is built once. A
    slice is a view of the same arrays. Equality and hashing compare the
    arrays.
    """

    kind = "seeded"

    def __init__(self, seeds: np.ndarray, ks: np.ndarray, ij: np.ndarray) -> None:
        self.seeds, self.ij = _frozen(seeds), _frozen(ij)
        self.ks = self.kmax = _frozen(ks)

    def _slice(self, index: slice) -> SeededRounds:
        return SeededRounds(self.seeds[:, index], self.ks[index], self.ij[:, index])

    @cached_property
    def stages(self) -> tuple[BinHash, ...]:
        return tuple(map(BinHash, self.ks.tolist(), *self.seeds.tolist()))

    def bins(self, rows: slice, wt: np.ndarray) -> np.ndarray:
        """The bin of each id of ``wt`` (workers over tasks, uint64) in each round of ``rows``, as ``(2, B, n)`` uint64.

        Above ``_TAIL_N`` ids, a block with one bin count, its first and last
        (``ks`` never rises), is hashed by numpy's scalar division, the faster
        over many ids; a tail's few ids take one remainder by the bin counts,
        the fewer numpy calls.
        """
        ks = self.ks[rows, None]
        k = ks.item(0) if wt.shape[1] > _TAIL_N and ks.item(0) == ks.item(-1) else ks
        return bins_np(self.seeds[:, rows, None], wt[:, None, :], k)

    def _key(self) -> tuple:
        return self.seeds.tobytes(), self.ks.tobytes(), self.ij.tobytes()


class TableRounds(_Rounds):
    """The rounds of an explicit schedule: seed columns of disperser tables.

    ``ij`` holds each round's level ``i`` and seed ``j``, both 1-based, one
    column per round. Round ``(i, j)`` puts each id ``x``, worker or task, in
    bin ``families[i-1].array[x-1, j-1]`` of its family's ``M``, which
    ``ks`` holds; ``kmax[r]`` is the most bins of any round from ``r`` on, as
    bin counts may rise. :meth:`bins` reads a block of rounds' columns for
    the array engine, with no copy of the tables and no stage object. A slice
    is a view of the same arrays. Equality and hashing compare the families
    and ``ij``.
    """

    kind = "table"

    def __init__(self, families: tuple[DisperserFamily, ...], ij: np.ndarray) -> None:
        self.families, self.ij, self._at = families, _frozen(ij), ij - 1  # _at: each round's level and column, 0-based
        self.ks = _frozen(np.array([f.M for f in families], np.uint64)[ij[0] - 1])
        self.kmax = np.maximum.accumulate(self.ks[::-1])[::-1]

    def _slice(self, index: slice) -> TableRounds:
        return TableRounds(self.families, self.ij[:, index])

    def bins(self, rows: slice, wt: np.ndarray) -> np.ndarray:
        """The bin of each id of ``wt`` (workers over tasks) in each round of ``rows``, as ``(2, B, n)``.

        Each level's rounds are one gather from its table, in the table's
        dtype; the levels run in order.
        """
        i, j = self._at[:, rows]
        ids = wt[:, None, :] - 1
        if i[0] == i[-1]:
            return self.families[i[0]].array[ids, j[:, None]]
        return np.concatenate([self.families[f].array[ids, j[i == f, None]] for f in range(i[0], i[-1] + 1)], axis=1)

    def _key(self) -> tuple:
        return self.families, self.ij.tobytes()


@dataclass(frozen=True)
class RoundSchedule:
    """The full grid of hashing rounds for one assignment function.

    A built schedule (:func:`build_schedule`) is a deterministic function of
    ``(w, t, c, master_seed)``; the stage at ``(i, j)`` derives its hash seed
    from those coordinates, so rebuilding with equal inputs reproduces every
    bin placement. Its ``rounds`` is a :class:`SeededRounds`: the seed and
    bin-count arrays are the schedule, and :class:`BinHash` stages are
    derived from them only when read. An explicit schedule
    (:func:`explicit_schedule`) is a function of its families, with ``c`` its
    sweeps per level and ``master_seed`` 0; its ``rounds`` is a
    :class:`TableRounds`. Either kind gives the array engine each block's
    bins (``rounds.bins``).
    """

    w: int
    t: int
    c: int
    master_seed: int
    rounds: SeededRounds | TableRounds = field(repr=False)

    @property
    def n(self) -> int:
        return self.w * self.t

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)


def build_schedule(w: int, t: int, c: int = 4, master_seed: int = 0) -> RoundSchedule:
    """Construct the round grid for ``w`` workers over ``t`` task kinds.

    Round ``(i, j)`` has the hash seed ``derive(master_seed, i, j)`` and
    ``k = bins_for_round(w, i)``. The first step of ``derive`` runs in Python,
    so any integer master seed works; the ``i`` and ``j`` steps and the
    worker/task seed split run over the whole grid in numpy. No
    :class:`BinHash` is built here.
    """
    if w < 1 or t < 1 or c < 1:
        raise ValueError("w, t, c must all be >= 1")
    n = w * t
    reps = c * max(1, (n - 1).bit_length())
    outer = outer_round_count(w)
    per_outer = [bins_for_round(w, i) for i in range(1, outer + 1)]
    ks = np.repeat(np.array(per_outer, dtype=id_dtype(w)), reps)
    i = np.arange(1, outer + 1, dtype=np.uint64)
    j = np.arange(1, reps + 1, dtype=np.uint64)
    seeds = derive_np(derive_np(np.uint64(derive(master_seed)), i)[:, None], j)
    ij = np.array([np.repeat(i, reps), np.tile(j, outer)], dtype=np.int64)
    return RoundSchedule(w, t, c, master_seed, SeededRounds(seeds_np(seeds.ravel()), ks, ij))


@dataclass(frozen=True, init=False)
class AssignResult:
    """An assignment plus the bookkeeping needed to audit how it was produced.

    The trace is two read-only arrays, one entry per worker in the order of
    ``assignment.workers``: ``lifted``, the task id the engine paired it with
    (a lifted id when a multiset was assigned), and ``rounds`` (int64), the
    index of the round that matched them, -1 for a fallback pair.
    ``rounds_executed`` is all of the schedule's rounds if a residual was
    left, else those up to the round that emptied the input.
    ``fallback_pairs == 0`` means every pair came from schedule rounds, so
    the switching-cost guarantee applies. ``lifted_tasks``, ``match_rounds``,
    ``per_round_pairs`` and ``per_round_matches`` are built when read.
    """

    assignment: Assignment
    fallback_pairs: int
    lifted_tasks: tuple[int, ...] = cached_property(lambda self: tuple(self.lifted.tolist()))
    match_rounds: tuple[int, ...] = cached_property(lambda self: tuple(self.rounds.tolist()))
    rounds_executed: int

    def __init__(self, assignment, fallback_pairs, lifted_tasks, match_rounds, rounds_executed) -> None:
        self.__dict__.update(assignment=assignment, fallback_pairs=fallback_pairs, lifted=_frozen(lifted_tasks),
                             rounds=_frozen(match_rounds), rounds_executed=rounds_executed)

    @cached_property
    def per_round_pairs(self) -> tuple[frozenset[tuple[int, int]], ...]:
        matched: dict[int, list[tuple[int, int]]] = {}
        for worker, task, r in zip(self.assignment.workers.tolist(), self.lifted.tolist(), self.rounds.tolist()):
            if r >= 0:
                matched.setdefault(r, []).append((worker, task))
        rounds = [frozenset()] * self.rounds_executed  # most rounds match nothing
        for r, pairs in matched.items():
            rounds[r] = frozenset(pairs)
        return tuple(rounds)

    @property
    def per_round_matches(self) -> tuple[int, ...]:
        return tuple(map(len, self.per_round_pairs))

    @property
    def used_fallback(self) -> bool:
        return self.fallback_pairs > 0


def _run_stages(stages: Sequence[BinHash], workers: set[int], tasks: set[int]) -> list[frozenset[tuple[int, int]]]:
    """The scalar reference loop: each run stage's pairs, until the sets empty; mutates the given sets."""
    per_round: list[frozenset[tuple[int, int]]] = []
    for stage in stages:
        if not workers and not tasks:
            break
        matched = stage.match(workers, tasks)
        per_round.append(frozenset(matched))
        for worker, task in matched:
            workers.discard(worker)
            tasks.discard(task)
    return per_round


# Residuals of at most this many workers run the all-pairs tail block; larger
# ones run a sorted block or one head round (see ``_block_size``). Time of a
# sorted block over that of the tail block on the same residual of 8 to 64
# and rounds, on the machine below: 1.3-3.5 at w=64, t=256 (59 bins), where
# walk-64-mix runs; 1.3-2.0 at w=1024; 0.8-1.5 at w=16384, below 1 at n >= 32.
# A tail round expected to hold more collisions than a tail block plans for,
# ``_TAIL_HITS``, runs as a head round instead: each collision is a step of
# the tail's Python loop, and at n=64 in 32 bins a head round took 12 us
# against 38 for the tail. With that rule, time of ``assign`` at w=64,
# t=256 over that of the all-pairs tail for every round at or below
# ``_TAIL_N``, in one process on the same random multisets: 0.96 at sizes
# 49 to 64, 1.01 below.
_TAIL_N = 64
# A head round over a residual of n in k <= _DENSE_BINS * n bins finds each
# bin's first worker and task with a scatter over k slots; sparser rounds
# sort their 2n keys instead. Sort time over scatter time for residuals of
# 65 to 8000 on the machine above: 1.5-4.9 at k = n, 0.8-1.2 at k = 16n,
# 0.3-1.0 at k = 64n.
_DENSE_BINS = 8
# A tail block stops at about ``_TAIL_HITS`` expected collisions, or at n*n
# over n < 4 ids, a sorted block at about ``_SORT_HITS``, and both at
# ``_TAIL_BUDGET`` work (see ``_block_size``). Time of a whole ``assign``
# with 32 over that with 16 in both regimes, the two alternating in one
# process on the same random multisets of size w with t = 4w, three runs on
# the machine above: w=64 0.98-0.99, w=256 1.02-1.12, w=1024 1.05-1.06,
# w=4096 1.00-1.06, w=16384 0.98-1.06.
_TAIL_BUDGET = 1 << 16
_TAIL_HITS = 16
# A sorted block's numpy calls cost the same whatever it finds, and its
# pairing loop costs about 1 us per collision, so it plans for more
# collisions than a tail block. Time of a whole ``assign`` with _SORT_HITS
# at 32, 48, 64 and 96 over that at 16, all alternating in one process on
# the same 10 embed-style inputs (weight w over t = 4w), three runs on the
# machine above: w=1024 0.95-0.96, 0.94-0.95, 0.94-0.95, 0.95-0.96; w=4096
# 0.92-0.94, 0.91-0.92, 0.89-0.92, 0.91-0.93; w=16384 0.92-0.94, 0.89-0.90,
# 0.89-0.90, 0.90-0.92.
_SORT_HITS = 48

# What an engine returns: the matched pairs as (workers, tasks, rounds) rows,
# where rounds is one round index or one per pair, and the residual it
# leaves, workers over tasks.
Matches = list[tuple[Sequence[int], Sequence[int], "Sequence[int] | int"]]
Run = tuple[Matches, np.ndarray]


def _rows(workers: Iterable[int], tasks: Iterable[int], dtype: type) -> np.ndarray:
    """Sorted workers over sorted tasks as one ``(2, size)`` id array."""
    return np.array([sorted(workers), sorted(tasks)], dtype).reshape(2, -1)


def _on_arrays(schedule: RoundSchedule) -> bool:
    """Whether the array engine runs ``schedule``: table rounds always, seeded ones below ``n = 2**63`` and ``w = 2**31``.

    Past those, ids or a seeded block's sort keys would no longer fit in a
    uint64 (see :func:`_colliding_bins`).
    """
    return isinstance(schedule.rounds, TableRounds) or (schedule.n < 1 << 63 and schedule.w < 1 << 31)


def _run(schedule: RoundSchedule, wt: np.ndarray) -> Run:
    """Run ``schedule`` over the residual ``wt`` on the engine :func:`_on_arrays` picks.

    The scalar loop's pairs come back in the array engine's form.
    """
    if _on_arrays(schedule):
        return _run_arrays(schedule.rounds, wt)
    W, T = set(wt[0].tolist()), set(wt[1].tolist())
    per_round = _run_stages(schedule.rounds.stages, W, T)
    rows = [(x, y, r) for r in compress(count(), per_round) for x, y in per_round[r]]
    ws, ts, rs = np.array(rows, wt.dtype).reshape(-1, 3).T
    return [(ws, ts, rs)], _rows(W, T, wt.dtype)


def _run_arrays(rounds: SeededRounds | TableRounds, wt: np.ndarray) -> Run:
    """Array engine over a schedule's rounds, bit-identical to :func:`_run_stages`.

    ``wt`` is the residual as one uint64 array, sorted workers in row 0 and
    sorted tasks in row 1. :func:`_run_block` runs the next block of rounds
    until the rounds end or the residual empties. Each head round's matches
    stay the arrays it found them in, with the round's index; the blocks'
    few matches are gathered into one set of lists. The residual left over
    stays sorted.
    """
    matched: Matches = []
    blocks: list[tuple[int, int, int]] = []
    r, total = 0, len(rounds)
    while r < total and wt.shape[1]:
        wt, r, _ = _run_block(rounds, wt, r, matched, blocks)
    if blocks:
        matched.append(tuple(map(list, zip(*blocks))))
    return matched, wt


def _run_block(rounds: SeededRounds | TableRounds, wt: np.ndarray, r: int, matched: Matches,
               blocks: list[tuple[int, int, int]]) -> tuple[np.ndarray, int, str]:
    """Run the block of rounds from ``r`` over the residual ``wt``; returns the residual left, the next round and the regime.

    A run of single-bin rounds needs no bins: each of its rounds pairs the
    smallest worker left with the smallest task left, so the run pairs the
    residual's first columns, one pair per round (regime ``"single"``).
    Otherwise the next :func:`_block_size` rounds run as one block: one
    ``rounds.bins`` call gives the block's bins for both sides, and the
    block runs in the regime the module docstring gives for the residual's
    size, ``"head"``, ``"sorted"`` or ``"tail"``. A head round appends its
    matches to ``matched``, a block its pairs to ``blocks``.
    """
    ks = rounds.ks
    n, k = wt.shape[1], ks.item(r)
    if k == 1:
        ones = ks[r : r + n] == 1
        m = ones.size if ones.all() else int(ones.argmin())
        matched.append((wt[0][:m], wt[1][:m], np.arange(r, r + m)))
        return wt[:, m:], r + m, "single"
    block = min(len(ks) - r, _block_size(n, k))
    bins = rounds.bins(slice(r, r + block), wt)
    if block == 1 and (n > _TAIL_N or n * n > _TAIL_HITS * k):
        # A dense head round can match half its ids, and a boolean index over such a
        # mask takes about 4 times as long as its flat indices: 194 against 44 us at n=16384.
        regime, wt = "head", wt.take(np.flatnonzero(_head_round(bins[:, 0], wt, k, r, matched)))
    elif n <= _TAIL_N:
        regime, wt = "tail", wt[_tail_block(bins, wt, r, blocks)]
    else:
        regime, wt = "sorted", wt[_sort_block(bins, wt, rounds.kmax.item(r), r, blocks)]
    return wt.reshape(2, -1), r + block, regime


def _block_size(n: int, k: int) -> int:
    """How many rounds of ``k`` bins or fewer to run at once over a residual of ``n``.

    A round of k bins has about n*n/k colliding pairs, so a block stops at
    a planned number of expected collisions: rounds that match a lot shrink
    the residual and go in short blocks, rounds that rarely match go in long
    ones. A tail block plans for ``_TAIL_HITS``, but for at most n*n
    collisions, so it runs at most k rounds: within k rounds of k bins even
    one worker and one task are expected to meet, and the rounds hashed
    after the match that empties the residual are wasted. That cap binds
    only below 4 ids. A sorted block plans for ``_SORT_HITS``, more than a
    tail block, since its fixed numpy cost is larger than its cost per
    collision. A block also stays within ``_TAIL_BUDGET``: B * n * n bin
    comparisons in the all-pairs tail, B * n ids per side in a sorted block.
    Above ``_TAIL_N`` a block of 1 is a head round; at or below it, so is
    a round expected to hold more than ``_TAIL_HITS`` collisions.
    """
    if n <= _TAIL_N:
        return max(1, min(_TAIL_BUDGET, min(_TAIL_HITS, n * n) * k) // (n * n))
    return max(1, min(_SORT_HITS * k // (n * n), _TAIL_BUDGET // n))


def _colliding_bins(bins: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a block's bins and find the bins where a worker meets a task.

    ``bins`` has shape ``(2, B, n)``: each residual position's bin in each of
    B rounds, workers in row 0 and tasks in row 1, all below ``k``. Sorting
    the keys ``((h*k + bin)*2 + side) << s | p`` of block round h and
    position p, with ``s`` the bit length of ``n - 1``, lists each (round,
    bin, side) group's positions in ascending order, so in id order, with
    the groups in round order. The keys stay below ``4*B*k*n``: a sorted
    block has ``B*n <= _TAIL_BUDGET`` (:func:`_block_size`), and k, the most
    bins of any round from the block's first on, is below 2**31: at most
    ``w`` for seeded rounds (:func:`_on_arrays`) and a family's ``M`` for
    table rounds (:func:`explicit_schedule`). So every key is below 2**49.
    They are uint32 wherever they fit in one: the sort and every pass then
    move half the bytes. A bin's workers come directly before its tasks, so
    a worker meets a task exactly where two neighbouring keys' groups differ
    in the side bit alone.

    Returns the block round ``h`` of each bin where a worker meets a task,
    the sorted positions, and, one column per such bin, the index there of
    its first worker, its first task and the end of its tasks.
    """
    _, B, n = bins.shape
    shift = (n - 1).bit_length()
    dtype = np.uint32 if (2 * B * k) << shift <= 1 << 32 else np.uint64
    keys = bins.astype(dtype)
    keys += np.arange(0, B * k, k, dtype=dtype)[:, None]
    keys <<= dtype(shift + 1)
    keys[1] |= dtype(1 << shift)
    keys |= np.arange(n, dtype=dtype)
    keys = keys.ravel()
    keys.sort()
    groups, one = keys >> dtype(shift), dtype(1)
    meet = groups[np.flatnonzero((groups[1:] ^ groups[:-1]) == one) + 1]  # the task groups that follow their workers
    runs = np.searchsorted(groups, [meet - one, meet, meet + one])
    return (meet >> one) // dtype(k), keys & dtype((1 << shift) - 1), runs


def _head_round(bins: np.ndarray, wt: np.ndarray, k: int, r: int, matched: Matches) -> np.ndarray:
    """Run round ``r``, of ``k`` bins, over the residual with its ``(2, n)`` ``bins``; returns the mask of ids left unmatched.

    A bin holding a worker and a task pairs its smallest of each. The rows
    are sorted, so those sit at the bin's first position in each row: a
    scatter of both rows over the k bins finds them. In more than
    ``_DENSE_BINS`` bins per id, few bins collide, so only the workers'
    first positions are scattered into one table over the bins. Read back
    at the tasks' bins, it gives the few tasks that meet a worker, in
    ascending order; a stable sort by bin then finds each bin's first such
    task, and the table its worker. Either way the pairs come out in bin
    order.
    """
    n = wt.shape[1]
    if bins.dtype == np.uint64:
        bins = bins.view(np.int64)  # numpy scatters by signed indices without a cast: 62 against 77 us at n=16384
    at = np.arange(n)
    if k <= _DENSE_BINS * n:
        first = np.full((2, k), n)
        np.minimum.at(first[0], bins[0], at)
        np.minimum.at(first[1], bins[1], at)
        pos_w, pos_t = first.take(np.flatnonzero((first[0] < n) & (first[1] < n)), axis=1)
    else:
        first = np.full(k, n)
        np.minimum.at(first, bins[0], at)
        pos_t = np.flatnonzero(first[bins[1]] < n)  # the tasks that share a bin with a worker, ascending
        hit = bins[1][pos_t]
        order = np.argsort(hit, kind="stable")
        hit = hit[order]
        lead = np.empty(hit.size, dtype=bool)
        lead[:1] = True
        np.not_equal(hit[1:], hit[:-1], out=lead[1:])
        pos_t, pos_w = pos_t[order[lead]], first[hit[lead]]
    # A row, then its positions: numpy's mixed index ``wt[0, pos]`` takes a path 2-3 times slower.
    matched.append((wt[0][pos_w], wt[1][pos_t], r))
    keep = np.ones((2, n), dtype=bool)
    keep[0][pos_w] = keep[1][pos_t] = False
    return keep


def _sort_block(bins: np.ndarray, wt: np.ndarray, k: int, start: int, pairs: list[tuple[int, int, int]]) -> np.ndarray:
    """Run the block of rounds from ``start`` over a residual above ``_TAIL_N``; returns the mask of ids left unmatched.

    ``bins`` holds the residual's bins in every round of the block, all
    below ``k``: ``rounds.kmax`` at its first round, the block's largest bin
    count for seeded rounds. One sort (:func:`_colliding_bins`)
    lists the bins holding a worker and a task. They are visited in round
    order: each pairs its smallest live worker with its smallest live task,
    and the pair is appended to ``pairs`` with its round. A member matched
    earlier in the block is skipped, and the next member of its bin takes
    its place.
    """
    rounds, pos, runs = _colliding_bins(bins, k)
    firsts = pos[runs[:2]].tolist()  # each bin's smallest worker and task
    used_w: set[int] = set()
    used_t: set[int] = set()
    at_w: list[int] = []
    at_t: list[int] = []
    rs: list[int] = []
    for h, a, b, c, x, y in zip(rounds.tolist(), *runs.tolist(), *firsts):
        if x in used_w:
            x = next((p for p in pos[a + 1 : b].tolist() if p not in used_w), None)
        if y in used_t:
            y = next((p for p in pos[b + 1 : c].tolist() if p not in used_t), None)
        if x is not None and y is not None:
            used_w.add(x)
            used_t.add(y)
            at_w.append(x)
            at_t.append(y)
            rs.append(start + h)
    # Rows first, as in _head_round: the mixed ``keep[0, at_w]`` and ``wt[0, at_w]`` are 2-6 times slower.
    keep = np.ones(wt.shape, dtype=bool)
    keep[0][at_w] = keep[1][at_t] = False
    pairs.extend(zip(wt[0][at_w].tolist(), wt[1][at_t].tolist(), rs))
    return keep


def _tail_block(bins: np.ndarray, wt: np.ndarray, start: int, pairs: list[tuple[int, int, int]]) -> np.ndarray:
    """Run the block of rounds from ``start`` over a small residual; returns the mask of ids left unmatched.

    ``bins`` holds the residual's bins in every round of the block. Only
    colliding (worker, task) index pairs, those sharing a bin, are visited.
    In each round the first live collision of a bin, in index order, pairs
    its smallest live worker with its smallest live task, and the pair is
    appended to ``pairs`` with its round. Rounds without a live collision
    match nothing, like the scalar loop's rounds after the residual empties.
    """
    n = wt.shape[1]
    # Each collision as one flat index (h*n + i)*n + j: ascending is round, worker, task order.
    flat = (bins[0][:, :, None] == bins[1][:, None, :]).ravel().nonzero()[0]  # np.flatnonzero's wrappers cost 1 us
    hit = bins[0].ravel()[flat // n]
    ws, ts = wt.tolist()
    keep = [[True] * n, [True] * n]
    alive_w, alive_t = keep
    seen: set[tuple[int, int]] = set()  # the (round, bin) of each pair made
    left = n
    for f, bin_ in zip(flat.tolist(), hit.tolist()):
        h, i, j = f // n // n, f // n % n, f % n
        if alive_w[i] and alive_t[j] and (h, bin_) not in seen:
            seen.add((h, bin_))
            alive_w[i] = alive_t[j] = False
            pairs.append((ws[i], ts[j], start + h))
            left -= 1
            if not left:  # the residual is empty: no later collision is live
                break
    return np.array(keep)


def _pack(workers: np.ndarray, matched: Matches, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The task and match round of each of the sorted ``workers``, by scatter.

    A worker takes its matched task and round, or else its rank-order
    fallback and round -1: the residual's rows are sorted, so they already
    pair sorted leftover workers with sorted leftover tasks.
    """
    dense = not workers.size or workers[-1] == workers.size  # workers are 1..size
    task_of = np.empty(workers.size, dtype=residual.dtype)
    round_of = np.empty(workers.size, dtype=np.int64)
    if residual.shape[1]:  # most runs leave none to scatter
        matched = [*matched, (*residual, -1)]
    for ws, ts, rs in matched:
        at = np.asarray(ws, np.int64) - 1 if dense else np.searchsorted(workers, ws)
        task_of[at] = ts
        round_of[at] = rs
    return task_of, round_of


def _result(w: int, wt: np.ndarray, run: Run, total: int, lifted: bool) -> AssignResult:
    """The :class:`AssignResult` of an engine run over the input ``wt`` on ``total`` rounds, holding the packed arrays."""
    matched, residual = run
    return _finish(w, wt[0], *_pack(wt[0], matched, residual), residual.shape[1], total, lifted)


def _finish(w: int, workers: np.ndarray, tasks: np.ndarray, rounds: np.ndarray, fallback: int, total: int,
            lifted: bool) -> AssignResult:
    """The :class:`AssignResult` of a run's trace: each of the sorted ``workers``' task and match round.

    With ``lifted``, ``tasks`` are lifted ids and the assignment holds their
    base tasks. The workers are checked once, in array form.
    """
    assignment = Assignment.from_arrays(w, workers, project_np(tasks, w) if lifted else tasks)
    # A run that leaves no residual ends with the round of its last match.
    executed = total if fallback else int(rounds.max(initial=-1)) + 1
    return AssignResult(assignment, fallback, tasks, rounds, executed)


def assign_set(schedule: RoundSchedule, workers: Sequence[int], tasks: Sequence[int]) -> AssignResult:
    """Assign a plain worker set to an equal-size task set over ``[n]``.

    Runs the whole round grid on the pair, then completes any residual by
    rank-order matching. The result is always a perfect matching.
    """
    wt = _rows(*_check_sets(workers, tasks, schedule.w, schedule.n), id_dtype(schedule.n))
    return _result(schedule.w, wt, _run(schedule, wt), schedule.total_rounds, False)


def _check_sets(workers: Iterable[int], tasks: Iterable[int], w: int, n: int) -> tuple[set[int], set[int]]:
    """The worker and task sets, once they are checked to be of one size, in ``[1, w]`` and ``[1, n]``."""
    W, T = set(workers), set(tasks)
    if len(W) != len(T):
        raise ValueError(f"|workers| != |tasks|: {len(W)} vs {len(T)}")
    if W and not (1 <= min(W) and max(W) <= w):
        raise ValueError(f"workers outside [1, {w}]")
    if T and not (1 <= min(T) and max(T) <= n):
        raise ValueError(f"tasks outside [1, {n}]")
    return W, T


def assign(schedule: RoundSchedule, T: TaskMultiset) -> AssignResult:
    """Assign workers ``1..|T|`` to the task multiset ``T``.

    Lifts ``T`` to a set over ``[w*t]``, runs it on the same engine as
    :func:`assign_set`, and projects back; workers ``|T|+1..w`` stay
    unassigned. The trace (``lifted_tasks`` and the derived
    ``per_round_pairs``) remains in lifted ids. The lifted ids, the pairs,
    the fallback and the projection stay numpy arrays, and the result keeps
    them: no tuple is built until one is read.
    """
    _check_multiset(schedule, T)
    return _assign(schedule, T)


def _assign(schedule: RoundSchedule, T: TaskMultiset) -> AssignResult:
    """:func:`assign` on a multiset already checked by :func:`_check_multiset`."""
    wt = _lifted_rows(T, schedule.w)
    return _result(schedule.w, wt, _run(schedule, wt), schedule.total_rounds, True)


def _check_multiset(schedule: RoundSchedule, T: TaskMultiset) -> None:
    """Reject the multisets ``assign`` rejects."""
    if T.t != schedule.t:
        raise ValueError(f"multiset universe {T.t} does not match schedule t={schedule.t}")
    _check_fits(T, schedule.w)


def _lifted_rows(T: TaskMultiset, w: int) -> np.ndarray:
    """Workers ``1..|T|`` over the ascending lifted ids of ``T``."""
    tasks = lift_np(T, w)
    return np.array([np.arange(1, len(T) + 1, dtype=tasks.dtype), tasks])


# Sessions keep a cache only for schedules with at least this many workers;
# below it every call is a plain ``assign``, because the incremental path's
# fixed cost per call loses to a full run of the short schedule. Time of
# ``assign`` over time of the session on the same 600-step walks (t = 4w,
# fixed-size / size-varying, restarted every 64 steps, the size-varying ones
# at a random size; best of four passes of each, in alternating order; two
# seeds), on a 2-core x86-64 VM with Python 3.11.7 and numpy 2.4.6, with the
# session's rows: w=160 0.81-0.84 / 0.76-0.80, w=192 0.84-0.85 / 0.83-0.85,
# w=256 0.96-0.98 / 0.85-0.93, w=512 1.14-1.19 / 1.07-1.08, w=1024 (t=64w)
# 1.41-1.44 / 1.35-1.44. When the bound was set the session led from w=96
# on; the array engine has since got faster, and the crossover now lies
# between w=256 and w=512, so from 160 to 256 a session call costs up to
# 1.3x a plain one. The bound stays at 160, where the pinned w=256 walks
# keep exercising the incremental path.
SESSION_MIN_W = 160
# An input that differs from the cached one in more than this many lifted
# ids, added plus removed, workers and tasks together, is run in full.
_SESSION_MAX_CHANGES = 8
# The replay hashes new-only elements a window of rounds at a time: this
# many rounds first, and each next window twice as many as the one before.
# Session time per walk step at w=1024, t=65536 over that at 128, the
# variants called in turn on the same steps (3 x 1500 steps): 64 and 256
# both 1.01.
_WINDOW = 128
# The session's rows hold at most this many bins between calls (see
# ``_Cache``): 2 MB at w=1024, whose bins fit in a uint16. Over 8000 steps
# of a fixed-size walk at w=1024, t=65536 (one seed) the rows grew to 1.29M
# bins with no cap; under this one they filled it after about 4700 steps,
# and the walk hashed 435 element-rounds per step against 423 with no cap,
# 663 under a cap of 2**18 and about 2070 with no rows kept.
_ROW_BINS = 1 << 20
_NO_LIMIT = np.iinfo(np.int64).max


class AssignSession:
    """Repeated :func:`assign` on one schedule, each call worked out from the previous one.

    ``session(T)`` returns an :class:`AssignResult` equal to
    ``assign(schedule, T)``: the same assignment, fallback count, lifted
    tasks and match rounds. The function stays memoryless; the session only
    keeps the last input's result as a cache (see :class:`_Cache`).

    In a run, each element is live from round 0 up to its end: its match
    round, or the schedule's length if the fallback paired it. One hash
    round never increases the difference between two inputs, so when ``T``'s
    lifted ids differ from the cached input's in at most
    ``_SESSION_MAX_CHANGES`` ids (one walk step changes two), only a few
    ends move, and the new run is worked out by following them (see
    :class:`_Replay`). Every other call is ``assign``: the first call, a
    larger difference, and an empty input before or after. A full run keeps
    only its input and its result; the first call that replays builds the
    cache's tables from them, so one-shot and unrelated inputs never pay for
    them. The tables are linear in the input, whatever ``w``. Each
    element's bins, once hashed, are kept in a row for the next replay, so
    a walk hashes an (element, round) once while the element stays in the
    input; the rows hold at most ``_ROW_BINS`` bins between calls besides
    the build's, one per cell (see :class:`_Cache`). Explicit
    schedules, seeded ones the array engine does not run, those with fewer
    than ``SESSION_MIN_W`` workers (a measured crossover), and those whose
    cells would not fit in an int64 keep no cache: each call is a plain
    ``assign``.

    A call that raises drops the cache, so the next call is a full run. One
    session is not for concurrent use; :func:`assign` still is.

    ``calls`` counts the calls that returned, ``replays`` those answered by
    the incremental path, and ``changed_rounds`` the rounds whose pairs
    those replays changed.
    """

    def __init__(self, schedule: RoundSchedule) -> None:
        self.schedule = schedule
        self._cache: _Cache | None = None
        self.calls = self.replays = self.changed_rounds = 0

    @cached_property
    def _grid(self) -> _Grid | None:
        schedule, rounds = self.schedule, self.schedule.rounds
        if schedule.w < SESSION_MIN_W or not isinstance(rounds, SeededRounds) or not len(rounds) or not _on_arrays(schedule):
            return None
        grid = _Grid(schedule.w, rounds.seeds, rounds.ks)
        # Cells pack ``round * K + bin`` above a slot into one int64.
        return grid if (grid.total * grid.K) << grid.shift < 1 << 63 else None

    def __call__(self, T: TaskMultiset) -> AssignResult:
        cache, self._cache = self._cache, None
        schedule, grid = self.schedule, self._grid
        _check_multiset(schedule, T)
        if grid is None:
            result = _assign(schedule, T)
        else:
            changed = None if cache is None else cache.advance(T)
            if changed is None:
                cache = _Cache(grid, T, _assign(schedule, T))
            else:
                self.replays += 1
                self.changed_rounds += changed
            self._cache, result = cache, cache.result
        self.calls += 1
        return result


class _Grid:
    """A seeded schedule as the session reads it: seeds, bin counts, ``K``, cell layout and the rows' dtype."""

    def __init__(self, w: int, seeds: np.ndarray, ks: np.ndarray) -> None:
        self.w, self.seeds, self.ks = w, seeds, ks
        self.total = len(ks)
        self.K = int(ks.max())
        self.dtype = np.min_scalar_type(self.K - 1)  # the narrowest that holds every bin
        self.base = np.arange(self.total, dtype=np.int64) * self.K
        self.shift = (w - 1).bit_length()  # a slot is below w
        self.mask = (1 << self.shift) - 1


class _Cache:
    """One input's result, in the form :class:`AssignSession` updates it in.

    ``end[s]`` maps each worker (``s = 0``) or lifted task (``s = 1``) of the
    input to its end (see :class:`AssignSession`). Each element has a slot,
    ``slot[s][x]``, and ``elems[s][i]`` is the element in slot ``i``, None
    once it left the input. The tables are built from the result's trace,
    where slot ``i`` holds worker ``i + 1`` and its task; freed slots are
    taken first, so there are no more slots than elements in one input,
    and each is below ``w``. ``cells[s]`` is the
    sorted array of ``(round * K + bin) << shift | slot`` over every round
    each element of side ``s`` is live in: 6 to 7 cells per element at
    w=1024 and t=65536. The cells of one bin form a run of the array, found
    by bisection.

    An element's row (:meth:`row`) is its bins from round 0 on, as far as
    any call has hashed it, in the narrowest dtype that holds ``K``. The
    build's bins, each element's up to its end, stay as one array,
    ``seed_bins``, and an element's row is a slice of it (``seeded[s]`` maps
    the element to its index in the build) until :meth:`hashed` first
    hashes it on; from then on ``rows[s, x]`` holds it, the rows written
    last at the end. A row is hashed on only past its last round, so a
    replay hashes no (element, round) twice while the row is kept: an end
    that moves back leaves the row as it is, ready for the next time the
    end moves on. A row is dropped when its element leaves the input. Past
    ``_ROW_BINS`` bins in ``rows``, after a call, the rows written longest
    ago are dropped, and a dropped row is hashed again from round 0 when it
    is next read. So between calls ``rows`` holds at most ``_ROW_BINS``
    bins, besides the build's array of one bin per cell.
    """

    def __init__(self, grid: _Grid, T: TaskMultiset, result: AssignResult) -> None:
        self.grid, self.T, self.result = grid, T, result
        self.cells: list[np.ndarray] | None = None

    def _build(self) -> None:
        """Build the tables from the result's trace, both sides in one vectorized pass, and keep its bins as rows."""
        grid, trace = self.grid, self.result
        ends = np.where(trace.rounds < 0, grid.total, trace.rounds)
        ids = np.array([np.arange(1, ends.size + 1, dtype=np.uint64), trace.lifted])
        self.elems = ids.tolist()
        self.end = tuple(dict(zip(side, ends.tolist())) for side in self.elems)
        self.slot = tuple({x: i for i, x in enumerate(side)} for side in self.elems)
        self.free: tuple[list, list] = ([], [])  # slots of elements that left the input
        n = np.minimum(ends, grid.total - 1) + 1  # each element is live in rounds 0 to n - 1
        rounds = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        bins = bins_np(grid.seeds[:, rounds], np.repeat(ids, n, axis=1), grid.ks[rounds])
        cells = (grid.base[rounds] + bins.view(np.int64)) << grid.shift | np.repeat(np.arange(ends.size), n)
        cells.sort()
        self.cells = list(cells)
        self.seed_bins, self.seed_at = bins.astype(grid.dtype), [0, *np.cumsum(n).tolist()]
        self.seeded = tuple(map(dict.copy, self.slot))  # a slot is the element's index in the build until it leaves
        self.rows: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()  # the newest row last
        self.row_bins = 0

    def row(self, s: int, x: int) -> np.ndarray:
        """The row of ``x`` on side ``s``: the one in ``rows``, else the build's, else an empty one."""
        row = self.rows.get((s, x))
        if row is not None:
            return row
        i = self.seeded[s].get(x)
        return self.seed_bins[s, self.seed_at[i] : self.seed_at[i + 1]] if i is not None else self.seed_bins[s, :0]

    def hashed(self, s: int, xs: list[int], stop: int) -> list[np.ndarray]:
        """The rows of ``xs`` on side ``s``, those that end before round ``stop`` first hashed on to it.

        The rows that end at one round are hashed on in one ``bins_np`` call.
        """
        out = [self.row(s, x) for x in xs]
        short: dict[int, list[int]] = {}  # the length of a row that ends before stop -> the indices of xs with one
        for i, row in enumerate(out):
            if row.size < stop:
                short.setdefault(row.size, []).append(i)
        grid, rows, seeded = self.grid, self.rows, self.seeded[s]
        for have, at in short.items():
            ids = np.array([xs[i] for i in at], np.uint64)[:, None]
            bins = bins_np(grid.seeds[s, have:stop], ids, grid.ks[have:stop]).astype(grid.dtype)
            for i, part in zip(at, bins):
                x = xs[i]
                if have:
                    part = np.concatenate([out[i], part])
                    seeded.pop(x, None)
                    self.row_bins -= len(rows.pop((s, x), ()))
                rows[s, x] = out[i] = part
                self.row_bins += stop
        return out

    def members(self, s: int, r: int, b: int) -> list[int]:
        """The elements of side ``s`` live in bin ``b`` of round ``r``."""
        grid, cells, key = self.grid, self.cells[s], r * self.grid.K + b
        lo, hi = cells.searchsorted([key << grid.shift, (key + 1) << grid.shift]).tolist()
        elems, mask = self.elems[s], grid.mask
        return [elems[c & mask] for c in cells[lo:hi].tolist()] if lo < hi else []

    def meets(self, s: int, keys: np.ndarray) -> np.ndarray:
        """Whether each flat index ``round * K + bin`` in ``keys`` holds a live element of side ``s``."""
        cells, shift = self.cells[s], self.grid.shift
        # The first cell at or past a key's lowest cell holds the key if any does.
        return cells.take(cells.searchsorted(keys << shift), mode="clip") >> shift == keys

    def update(self, s: int, ends: dict[int, int]) -> None:
        """Move the ends of side ``s``'s elements to ``ends``, -1 for one that left the input.

        An element whose end comes earlier drops its cells past the new end,
        and one that left the input its row too. One whose end comes later
        gains cells up to it, read from its row, which the replay hashed on
        that far.
        """
        grid, end, slot, free, elems = self.grid, self.end[s], self.slot[s], self.free[s], self.elems[s]
        cells = self.cells[s]
        cuts = [(x, e) for x, e in ends.items() if e < end.get(x, -1)]
        if cuts:
            limit = np.full(len(elems), _NO_LIMIT, np.int64)  # per slot, the first cell it drops
            for x, e in cuts:
                limit[slot[x]] = (e + 1) * grid.K << grid.shift
                if e < 0:
                    free.append(slot.pop(x))
                    elems[free[-1]] = None
                    del end[x]
                    self.seeded[s].pop(x, None)
                    self.row_bins -= len(self.rows.pop((s, x), ()))
            cells = cells[cells < limit[cells & grid.mask]]
        added = []
        for x, e in ends.items():
            first, stop = end.get(x, -1) + 1, min(e + 1, grid.total)
            if first > e:
                continue  # no later end
            i = slot.get(x)
            if i is None:
                i = free.pop() if free else len(elems)
                elems[i:i + 1] = [x]  # a free slot, or a new one at the end
                slot[x] = i
            added.append((grid.base[first:stop] + self.row(s, x)[first:stop]) << grid.shift | i)
        if added:
            # A stable sort merges the sorted cells with the few new ones in linear time.
            cells = np.sort(np.concatenate([cells, *added]), kind="stable")
        self.cells[s] = cells
        end.update((x, e) for x, e in ends.items() if e >= 0)

    def advance(self, T: TaskMultiset) -> int | None:
        """Update the cache, its result included, to the input ``T``; returns the rounds that changed.

        None, with the cache unchanged, when the incremental path does not
        apply: an empty input before or after, or too many changed ids.
        """
        w, old_size, size = self.grid.w, len(self.T), len(T)
        limit = _SESSION_MAX_CHANGES - abs(old_size - size)
        if not old_size or not size or limit < 0:
            return None
        changes = lifted_changes(self.T, T, w, limit)
        if changes is None:
            return None
        self.T, old, total = T, self.result, self.grid.total
        if not (changes[0] or changes[1] or old_size != size):
            return 0
        if self.cells is None:
            self._build()
        workers = range(size + 1, old_size + 1), range(old_size + 1, size + 1)
        replay = _Replay(self, (workers[0], changes[0]), (workers[1], changes[1]))
        ends, fallback = replay.ends, old.rounds < 0  # the old run's fallback, read from its trace
        residual = [
            sorted([x for x in ids[fallback].tolist() if x not in ends[s]] + [x for x, e in ends[s].items() if e == total])
            for s, ids in enumerate((old.assignment.workers, old.lifted))
        ]
        for s in (0, 1):
            self.update(s, ends[s])
        while self.row_bins > _ROW_BINS:
            self.row_bins -= self.rows.popitem(last=False)[1].size
        # Copies of the trace, resized to the new input, so results already returned keep
        # theirs; only the workers that pair differently, and the fallback's, change.
        tasks, rounds = (a[:size].copy() if size <= a.size else np.resize(a, size)  # a copy costs far less
                         for a in (old.lifted, old.rounds))
        at = np.array([*replay.partner, *residual[0]], np.int64) - 1
        tasks[at] = [*replay.partner.values(), *residual[1]]
        rounds[at] = [ends[0][x] for x in replay.partner] + [-1] * len(residual[0])
        self.result = _finish(w, np.arange(1, size + 1, dtype=tasks.dtype), tasks, rounds, len(residual[0]), total, True)
        return len(replay.changes)


class _Replay:
    """The new run worked out from the cached one by following the elements whose end moves.

    In each round an element is live in both runs, in neither, or in one
    only; the last kind is the delta. ``ends[s]`` maps each element whose end
    may have moved to its end in the new run: -1 if it left the input, the
    schedule's length while it is unmatched. An element is new-only in the
    rounds after its old end up to its new one, old-only the other way round.

    A bin's pair can differ between the runs only if it holds a delta
    element: a new-only one that shares the bin with a live element of the
    other side, or an old-only one that the old run matched there. So the
    unmatched new-only elements are looked up a window of rounds at a time
    (``_WINDOW`` rounds, then twice as many per window) in the cache's rows,
    which one ``bins_np`` call per side hashes on where they fall short, and
    one that turns new-only inside a window over the rest of it. Each bin
    where one meets a cached cell of the other side or another new-only
    element is queued, and so is each old-only element's old match, read
    from its row. Events pop in round and bin order, and a bin
    is resolved at its first event whose element is still in the delta;
    every element it pairs differently moves its end. An event's bin is its
    element's bin in that round, and resolving a bin moves only its members'
    ends and queues only later rounds, so resolving one bin never changes
    whether another bin's event is in the delta. The delta test only saves
    calls, half of a w=1024 walk's: a bin with no delta element has the same
    live members in both runs, so resolving it changes nothing. Past the
    cached run's last match only new-only elements are live, so the same
    events carry the new run on to its end. :meth:`_Cache.advance` applies
    ``ends`` and ``partner`` to the cache and its result.
    """

    def __init__(self, cache: _Cache, removed, added) -> None:
        self.cache, self.grid = cache, cache.grid
        total = self.grid.total
        self.ends: tuple[dict, dict] = ({}, {})
        self.partner: dict[int, int] = {}  # worker -> its new lifted task, for every worker that pairs differently
        self.live: tuple[dict, dict] = ({}, {})  # unmatched new-only element -> the first round it is new-only in
        self.changes: set[int] = set()  # rounds whose pairs differ
        self.heap: list[tuple[int, int, int, int]] = []  # (round, bin, side, element that queued it)
        for s in (0, 1):
            for x in removed[s]:
                self.ends[s][x] = -1
                self._kill(s, x)
            for x in added[s]:
                self.ends[s][x] = total
            self.live[s].update(dict.fromkeys(added[s], 0))  # looked up when the first window opens
        heap, ends, end = self.heap, self.ends, cache.end
        start, size = 0, _WINDOW
        done = None  # the last bin resolved; one bin's events pop one after another
        while start < total and (heap or self.live[0] or self.live[1]):
            self.stop = stop = min(start + size, total)
            for s in (0, 1):
                self._hash(s, list(self.live[s]), start, s == 1)
            while heap and heap[0][0] < stop:
                r, b, s, x = heappop(heap)
                old, new = end[s].get(x, -1), ends[s][x]
                if (r, b) != done and (old < r <= new or new < r <= old):  # still in the delta
                    done = (r, b)
                    self._resolve(r, b)
            start, size = stop, 2 * size

    def _kill(self, s: int, x: int) -> None:
        """``x`` is live in the old run only from now on: queue the bin of its old match."""
        cache, m = self.cache, self.cache.end[s][x]
        if m < self.grid.total:
            row = cache.row(s, x)
            if m >= row.size:  # dropped for the cap
                row = cache.hashed(s, [x], m + 1)[0]
            heappush(self.heap, (m, int(row[m]), s, x))

    def _hash(self, s: int, xs: list[int], start: int, meet_new: bool) -> None:
        """Look up the new-only ``xs`` of side ``s`` from round ``start`` to the window's end and queue what they meet.

        With ``meet_new``, meetings with the other side's new-only elements,
        whose rows reach the window's end, are queued too.
        """
        if not xs:
            return
        cache, rows = self.cache, slice(start, self.stop)
        hashed = cache.hashed(s, xs, self.stop)
        bins = hashed[0][None, rows] if len(xs) == 1 else np.array([row[rows] for row in hashed])
        hits = cache.meets(1 - s, bins + self.grid.base[rows])
        if meet_new:
            for y in self.live[1 - s]:
                hits |= bins == cache.row(1 - s, y)[rows]
        at, j = np.nonzero(hits)
        for i, r, b in zip(at.tolist(), (j + start).tolist(), bins[at, j].tolist()):
            heappush(self.heap, (r, b, s, xs[i]))

    def _resolve(self, r: int, b: int) -> None:
        """Work out bin ``b`` of round ``r`` in the new run and record how it differs."""
        cache, ends, old, new = self.cache, self.ends, [], []
        for s in (0, 1):
            group = cache.members(s, r, b)
            here = [x for x in group if x not in ends[s]]  # an old member with a moved end is old-only
            here += [x for x, first in self.live[s].items() if first <= r and cache.row(s, x)[r] == b]
            old.append(min(group, default=None))
            new.append(min(here, default=None))
        old_pair = (None, None) if None in old else tuple(old)
        new_pair = (None, None) if None in new else tuple(new)
        if old_pair == new_pair:
            return
        self.changes.add(r)
        if new_pair[0] is not None:
            self.partner[new_pair[0]] = new_pair[1]
        for s, o, n in zip((0, 1), old_pair, new_pair):
            if n is not None:
                ends[s][n] = r
            if o == n:
                continue  # matched in this round by both runs, maybe to another partner
            if o is not None and o not in ends[s]:  # live in both runs until now: new-only from the next round
                ends[s][o] = self.grid.total
                self.live[s][o] = r + 1
                self._hash(s, [o], r + 1, True)
            if n is not None and self.live[s].pop(n, None) is None:  # live in both until now: old-only from here
                self._kill(s, n)


@dataclass(frozen=True, init=False)
class DisperserFamily:
    """A seeded bin-placement family ``[N] x [D] -> [M]``, held as its table.

    ``array[x-1, d-1]``, in ``[0, M)``, is the bin of element ``x`` under seed
    ``d``: an ``N x D`` read-only array of the smallest unsigned dtype that
    holds ``M - 1``, not copied when given as one. ``table`` is the same
    table as nested tuples, built when read; ``==`` and ``hash`` go through
    it. The family qualifies as a ``(k_param, epsilon)`` strong disperser when
    for every subset ``S`` of the domain with ``|S| >= 2**k_param`` the
    seed-annotated image ``{(array[s-1, d-1], d)}`` covers at least
    ``(1 - epsilon) * M * D`` of the ``M * D`` cells. ``oracle.verify_disperser``
    checks that exhaustively for small ``N``; nothing here assumes it.
    """

    N: int
    D: int
    M: int
    k_param: int
    epsilon: float
    table: tuple[tuple[int, ...], ...] = cached_property(lambda self: tuple(map(tuple, self.array.tolist())))

    def __init__(self, N: int, D: int, M: int, k_param: int, epsilon: float, table) -> None:
        if N < 1 or D < 1 or M < 1:
            raise ValueError("N, D, M must be >= 1")
        if k_param < 0 or not 0 <= epsilon < 1:
            raise ValueError("need k_param >= 0 and 0 <= epsilon < 1")
        array = np.asarray(table)
        if array.shape != (N, D):
            raise ValueError("table must be N rows of D seeds")
        if array.min() < 0 or array.max() >= M:
            raise ValueError("table values must lie in [0, M)")
        array = _frozen(array.astype(np.min_scalar_type(M - 1), copy=False).view())
        self.__dict__.update(N=N, D=D, M=M, k_param=k_param, epsilon=epsilon, array=array)

    @classmethod
    def random_table(
        cls, N: int, D: int, M: int, k_param: int, epsilon: float, rng: Random
    ) -> "DisperserFamily":
        """A uniformly random function table (not necessarily a verified disperser), drawn row by row."""
        if N < 1 or D < 1 or M < 1:  # before the draw, which has no bins to draw from at M < 1
            raise ValueError("N, D, M must be >= 1")
        table = np.array([rng.randrange(M) for _ in range(N * D)], np.min_scalar_type(M - 1))
        return cls(N, D, M, k_param, epsilon, table.reshape(N, D))


def single_bin_family(N: int, D: int, k_param: int = 0, epsilon: float = 0.25) -> DisperserFamily:
    """The one-bin family; every function with M=1 is a verified disperser. Its table is one zero, broadcast."""
    return DisperserFamily(N, D, 1, k_param, epsilon, np.broadcast_to(np.uint8(0), (N, D)))


def trivial_families(w: int, N: int, D: int = 4) -> tuple[DisperserFamily, ...]:
    """A full single-bin ladder covering levels ``k = ceil(log2 w)-1 .. 0``.

    Each of its rounds pairs the smallest worker left with the smallest task
    left, as the rank-order fallback does, so its :func:`explicit_schedule`
    gives exactly ``baselines.sorted_order``'s assignment, hence its churn.
    """
    levels = max(1, (w - 1).bit_length())
    return tuple(single_bin_family(N, D, k_param=levels - i) for i in range(1, levels + 1))


def seed_sweep(
    family: DisperserFamily, wt: WorkerTaskInput
) -> tuple[frozenset[tuple[int, int]], WorkerTaskInput, list[frozenset[tuple[int, int]]]]:
    """One pass over the family's seeds on the array engine: the pairs, the residual, each run stage's pairs.

    The input is a worker set and a task set of one size in ``[1, N]``,
    refused otherwise as :func:`assign_set` refuses it. The family's D seeds
    run as table rounds, and the stages listed end with the one that matches
    the last pair, as the scalar loop stops once the sets are empty.
    """
    rows = _rows(*_check_sets(wt.workers, wt.tasks, family.N, family.N), np.uint64)
    rounds = TableRounds((family,), np.array([np.ones(family.D, np.int64), np.arange(1, family.D + 1)]))
    run = _run_arrays(rounds, rows)
    per_stage = list(_result(family.N, rows, run, family.D, False).per_round_pairs)
    return frozenset().union(*per_stage), WorkerTaskInput(*run[1].tolist()), per_stage


def explicit_schedule(families: Sequence[DisperserFamily], reps: int, w: int, t: int) -> RoundSchedule:
    """The explicit variant's schedule for ``w`` workers over ``t`` task kinds.

    ``families[i-1]`` drives level ``i``: it must be declared for min-entropy
    parameter ``ceil(log2 w) - i``, cover the universe, ``N >= w*t``, and
    have fewer than 2**31 bins, the array engine's bound on a block's bin
    count (:func:`_colliding_bins`), so the schedule takes every input of its
    universe or is refused here. Level ``i`` sweeps its family's seeds
    ``reps`` times; round ``(i, j)`` reads seed ``j``'s column of the
    family's table (:class:`TableRounds`). The schedule runs on the array
    engine through :func:`assign`, :func:`assign_set` and all that calls
    them. Over :func:`trivial_families` it gives exactly
    ``baselines.sorted_order``'s assignment, hence its churn.
    """
    if w < 1 or t < 1 or reps < 1:
        raise ValueError("w, t, reps must all be >= 1")
    levels = max(1, (w - 1).bit_length())  # ceil(log2 w), at least one level
    if len(families) != levels:
        raise ValueError(f"need {levels} families for w={w}, got {len(families)}")
    for i, family in enumerate(families, start=1):
        if family.k_param != levels - i:
            raise ValueError(f"family declares k_param={family.k_param}, level requires {levels - i}")
        if family.N < w * t:
            raise ValueError(f"family domain N={family.N} smaller than the universe w*t={w * t}")
        if family.M >= 1 << 31:
            raise ValueError(f"family has M={family.M} bins, past the array engine's 2**31 - 1")
    i = np.repeat(np.arange(1, levels + 1), [f.D * reps for f in families])
    j = np.concatenate([np.tile(np.arange(1, f.D + 1), reps) for f in families])
    return RoundSchedule(w, t, reps, 0, TableRounds(tuple(families), np.array([i, j])))
