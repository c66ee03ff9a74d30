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
arrays: the :class:`Round` and :class:`BinHash` objects the scalar loop
needs are derived from them the first time they are asked for, once per
schedule.

The explicit variant replaces seeded hash functions with a per-level family
of verified strong dispersers, sweeping each family's seeds in order instead
of drawing fresh randomness. The repetition count per level is a caller
parameter; the per-sweep progress guarantee is what makes a finite count
sufficient.

Two engines give bit-identical output, the same pairs and the same trace:

* the scalar loop (``_run_stages``) calls ``BinHash.match`` round after
  round on Python sets. It is the reference and the package's only scalar
  stage loop: stages built from callables run only on it, so
  :func:`seed_sweep` and the explicit variant always do;
* the array engine (``_run_arrays``) reads the schedule's seed and bin
  count arrays as they are (``RoundSchedule.round_arrays``). It runs the
  rounds in blocks, each sized to about ``_TAIL_HITS`` expected collisions
  (``_block_size``), in three regimes:

  - head rounds: above ``_TAIL_N`` workers, a block of one round is one
    numpy round, a scatter over the bins or, where they are sparse, one
    sort of the round's keys;
  - sorted blocks: above ``_TAIL_N``, a longer block hashes the residual
    under all its rounds in one call and sorts the keys once, and only the
    bins where a worker meets a task are visited, in round order;
  - the all-pairs tail: at ``_TAIL_N`` workers or fewer, every worker's bin
    is compared with every task's in each round of the block.

The trace of a run is each worker's match round, -1 for the fallback.
Wrapped by ``_run_scalar`` in the array engine's form, both engines take
and return arrays: the residual goes in as one ``(2, n)`` array, sorted
workers over sorted tasks, and comes back as the matched pairs with their
rounds plus the residual left at the end. ``_pack`` scatters those and the
rank-order fallback, which is that residual's rows side by side, into one
task and one round per worker. ``assign`` stays in numpy from input to
result: the lift (``reduction.lift_np``), the engine, the scatter and the
projection to base tasks (``reduction.project_np``). The result keeps those
arrays, and its tuples are built only when read. ``assign_set`` is the same
path wrapped for plain id sets, and ``assign_explicit`` the same path on the
explicit variant's stages.

``assign`` and ``assign_set`` run the array engine whenever
``round_arrays`` exists (rounds from :func:`build_schedule`, ``n < 2**63``
and ``w < 2**31``), and the scalar loop otherwise.

:class:`AssignSession` answers a sequence of multisets with the results
``assign`` gives, working each one out from the last when their lifted sets
differ in a few ids (``reduction.lifted_changes``). Its docstring is the
contract; :class:`_Cache` holds the cell layout and :class:`_Replay` the
events that carry one run to the next.

Schedules and families are immutable; ``assign``, ``assign_set``, and
``assign_explicit`` are pure, so evaluating many inputs in parallel is safe.
A session is a cache with one owner: it is not for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, compress, count
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .binhash import BinHash, _bin_of, seeds_np
from .core import Assignment, TaskMultiset, WorkerTaskInput, _check_fits, _frozen
from .hashing import bins_np, derive, derive_np
from .reduction import id_dtype, lift_np, lifted_changes, project_np
from .reduction import lift  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "Round",
    "RoundSchedule",
    "AssignResult",
    "AssignSession",
    "DisperserFamily",
    "build_schedule",
    "assign_set",
    "assign",
    "assign_explicit",
    "assign_explicit_set",
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


@dataclass(frozen=True)
class Round:
    """One repetition of the k-bin hash inside the schedule."""

    i: int
    j: int
    k: int
    hash: BinHash


class SeededRounds(Sequence[Round]):
    """The rounds of a built schedule, held as arrays; :class:`Round` objects come from them.

    ``seeds[0]`` and ``seeds[1]`` hold each round's worker and task seeds
    (:attr:`BinHash.seeds`), ``ks`` its bin count and ``ij`` its grid
    coordinates ``(i, j)``, one column per round; all are read-only. The
    first iteration or integer index builds every :class:`Round`, a
    :meth:`BinHash.from_seeds` stage with provenance ``(i, j)``, and keeps
    them, so each is built once. A slice is a view of the same arrays.
    Equality and hashing compare the arrays.
    """

    def __init__(self, seeds: np.ndarray, ks: np.ndarray, ij: np.ndarray) -> None:
        for a in (seeds, ks, ij):
            a.flags.writeable = False
        self.seeds, self.ks, self.ij = seeds, ks, ij

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SeededRounds(self.seeds[:, index], self.ks[index], self.ij[:, index])
        return self._rounds[index]

    def __iter__(self):
        return iter(self._rounds)

    @cached_property
    def _rounds(self) -> tuple[Round, ...]:
        (i, j), (seed_w, seed_t) = self.ij.tolist(), self.seeds.tolist()
        return tuple(
            Round(i, j, k, BinHash.from_seeds(k, sw, st, (i, j)))
            for i, j, k, sw, st in zip(i, j, self.ks.tolist(), seed_w, seed_t)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeededRounds):
            return NotImplemented
        return (
            np.array_equal(self.seeds, other.seeds)
            and np.array_equal(self.ks, other.ks)
            and np.array_equal(self.ij, other.ij)
        )

    def __hash__(self) -> int:
        return hash((self.seeds.tobytes(), self.ij.tobytes()))

    def __repr__(self) -> str:
        return f"<{len(self)} seeded rounds>"


@dataclass(frozen=True)
class RoundSchedule:
    """The full grid of hashing rounds for one assignment function.

    A schedule is a deterministic function of ``(w, t, c, master_seed)``; the
    stage at ``(i, j)`` derives its hash seed from those coordinates, so
    rebuilding with equal inputs reproduces every bin placement. A built
    schedule's ``rounds`` is a :class:`SeededRounds`: the seed and bin-count
    arrays are the schedule, and :class:`Round` objects are derived from them
    only when asked for. Any other sequence of rounds, callable stages
    included, is taken as given and runs on the scalar engine.
    """

    w: int
    t: int
    c: int
    master_seed: int
    rounds: Sequence[Round] = field(repr=False)

    @property
    def n(self) -> int:
        return self.w * self.t

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def round_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Every round's seeds and bin count as uint64 arrays, for the array engine.

        ``seeds[0]`` holds the worker seeds and ``seeds[1]`` the task seeds of
        the rounds' :meth:`BinHash.from_seed` hashes; ``ks`` holds their ``k``.
        These are the arrays of a built schedule's :class:`SeededRounds`,
        read as they are. None when ``rounds`` is any other sequence, or when
        ``n >= 2**63`` or ``w >= 2**31``: past those, ids or the engine's sort
        keys no longer fit in a uint64. A block of B rounds of at most
        ``k <= w`` bins over a residual of n keys each id below ``4 * B * k * n``
        (:func:`_colliding_bins`); B is 1 with ``n <= w``, or else
        ``B * n <= _TAIL_BUDGET`` (:func:`_block_size`), so every key is below
        ``4 * w * max(w, _TAIL_BUDGET)``, which is below 2**64.
        """
        rounds = self.rounds
        if not isinstance(rounds, SeededRounds) or self.n >= 1 << 63 or self.w >= 1 << 31:
            return None
        return rounds.seeds, rounds.ks

    @cached_property
    def stages(self) -> tuple[BinHash, ...]:
        """Every round's hash in order, the stages the scalar loop runs; built once per schedule."""
        return tuple(r.hash for r in self.rounds)


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
_TAIL_N = 64
# A head round over a residual of n in k <= _DENSE_BINS * n bins finds each
# bin's first worker and task with a scatter over k slots; sparser rounds
# sort their 2n keys instead. Sort time over scatter time for residuals of
# 65 to 8000 on the machine above: 1.5-4.9 at k = n, 0.8-1.2 at k = 16n,
# 0.3-1.0 at k = 64n.
_DENSE_BINS = 8
# A block of rounds stops at about ``_TAIL_HITS`` expected collisions and
# at ``_TAIL_BUDGET`` work (see ``_block_size``). Time of a whole ``assign``
# with 32 over that with 16, the two alternating in one process on the same
# random multisets of size w with t = 4w, three runs on the machine above:
# w=64 0.98-0.99, w=256 1.02-1.12, w=1024 1.05-1.06, w=4096 1.00-1.06,
# w=16384 0.98-1.06.
_TAIL_BUDGET = 1 << 16
_TAIL_HITS = 16

# What an engine returns: the matched pairs as (workers, tasks, rounds) rows,
# where rounds is one round index or one per pair, and the residual it
# leaves, workers over tasks.
Matches = list[tuple[Sequence[int], Sequence[int], "Sequence[int] | int"]]
Run = tuple[Matches, np.ndarray]


def _rows(workers: Iterable[int], tasks: Iterable[int], dtype: type) -> np.ndarray:
    """Sorted workers over sorted tasks as one ``(2, size)`` id array."""
    return np.array([sorted(workers), sorted(tasks)], dtype).reshape(2, -1)


def _run_scalar(stages: Sequence[BinHash], wt: np.ndarray) -> Run:
    """The scalar loop over the residual ``wt``, in the array engine's form."""
    W, T = set(wt[0].tolist()), set(wt[1].tolist())
    per_round = _run_stages(stages, W, T)
    rows = [(x, y, r) for r in compress(count(), per_round) for x, y in per_round[r]]
    ws, ts, rs = np.array(rows, wt.dtype).reshape(-1, 3).T
    return [(ws, ts, rs)], _rows(W, T, wt.dtype)


def _run(schedule: RoundSchedule, wt: np.ndarray) -> Run:
    """Run ``schedule`` over the residual ``wt`` on the engine the module docstring picks."""
    arrays = schedule.round_arrays
    if arrays is None:
        return _run_scalar(schedule.stages, wt)
    return _run_arrays(arrays, wt)


def _run_arrays(arrays: tuple[np.ndarray, np.ndarray], wt: np.ndarray) -> Run:
    """Array engine over a seeded schedule, bit-identical to :func:`_run_stages`.

    ``wt`` is the residual as one uint64 array, sorted workers in row 0 and
    sorted tasks in row 1, so each hash call covers both sides. The next
    :func:`_block_size` rounds run as one block, in the regime the module
    docstring gives for the residual's size. Each head round's matches stay
    the arrays it found them in, with the round's index; the blocks' few
    matches are gathered into one set of lists. The residual left over stays
    sorted.
    """
    seeds, ks = arrays
    rounds = len(ks)
    matched: Matches = []
    blocks: list[tuple[int, int, int]] = []
    r = 0
    while r < rounds and wt.shape[1]:
        n, k = wt.shape[1], int(ks[r])
        block = min(rounds - r, _block_size(n, k))
        rows = slice(r, r + block)
        if n <= _TAIL_N:
            keep = _tail_block(seeds[:, rows, None], wt, ks[rows, None], r, blocks)
        elif block > 1:
            keep = _sort_block(seeds[:, rows, None], wt, ks[rows, None], k, r, blocks)
        else:
            keep = _head_round(seeds[:, r, None], wt, k, r, matched)
        r += block
        wt = wt[keep].reshape(2, -1)
    if blocks:
        matched.append(tuple(map(list, zip(*blocks))))
    return matched, wt


def _block_size(n: int, k: int) -> int:
    """How many rounds of ``k`` bins or fewer to run at once over a residual of ``n``.

    A round of k bins has about n*n/k colliding pairs, so a block stops at
    about ``_TAIL_HITS`` expected collisions: rounds that match a lot shrink
    the residual and go in short blocks, rounds that rarely match go in long
    ones. A block also stays within ``_TAIL_BUDGET``: B * n * n bin
    comparisons in the all-pairs tail, B * n ids per side in a sorted block.
    Above ``_TAIL_N`` a block of 1 is a head round.
    """
    if n <= _TAIL_N:
        return max(1, min(_TAIL_BUDGET, _TAIL_HITS * k) // (n * n))
    return max(1, min(_TAIL_HITS * k // (n * n), _TAIL_BUDGET // n))


def _colliding_bins(bins: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort a block's bins and find the bins where a worker meets a task.

    ``bins`` has shape ``(2, B, n)``: each residual position's bin, all below
    ``k``, in each of B rounds, workers in row 0 and tasks in row 1. Sorting
    the keys ``((h*k + bin)*2 + side) << s | p`` of block round h and
    position p, with ``s`` the bit length of ``n - 1``, lists each (round,
    bin, side) group's positions in ascending order, so in id order, with
    the groups in round order. The keys stay below ``4*B*k*n``, which
    ``RoundSchedule.round_arrays`` bounds.

    Returns each group's ``(h*k + bin)*2 + side``, the sorted positions, the
    index of each group's first key there, and the groups ``i`` that are a
    bin's workers followed by that bin's tasks in group ``i + 1``.
    """
    _, B, n = bins.shape
    shift = np.uint64((n - 1).bit_length())
    keys = bins + np.arange(0, B * k, k, dtype=np.uint64)[:, None]
    keys <<= shift + np.uint64(1)
    keys[1] |= np.uint64(1) << shift
    keys |= np.arange(n, dtype=np.uint64)
    keys = keys.ravel()
    keys.sort()
    groups, pos = keys >> shift, keys & ((np.uint64(1) << shift) - np.uint64(1))
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(groups[1:], groups[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    groups = groups[starts]
    both = np.flatnonzero(groups[1:] - groups[:-1] == (groups[1:] & np.uint64(1)))
    return groups, pos, starts, both


def _head_round(seeds: np.ndarray, wt: np.ndarray, k: int, r: int, matched: Matches) -> np.ndarray:
    """Run round ``r`` over a large residual; returns the mask of ids left unmatched.

    A bin holding a worker and a task pairs its smallest of each. The rows
    are sorted, so those sit at the bin's first position in each row: a
    scatter over the k bins finds them, or, in more than ``_DENSE_BINS``
    bins per id, :func:`_colliding_bins` as a block of one round.
    """
    n = wt.shape[1]
    bins = bins_np(seeds, wt, np.uint64(k))
    if k <= _DENSE_BINS * n:
        first = np.full((2, k), n)
        at = np.arange(n)
        np.minimum.at(first[0], bins[0], at)
        np.minimum.at(first[1], bins[1], at)
        pos_w, pos_t = first[:, np.flatnonzero((first[0] < n) & (first[1] < n))]
    else:
        _, pos, starts, both = _colliding_bins(bins[:, None], k)
        pos_w, pos_t = pos[starts[both]], pos[starts[both + 1]]
    matched.append((wt[0, pos_w], wt[1, pos_t], r))
    keep = np.ones((2, n), dtype=bool)
    keep[0, pos_w] = keep[1, pos_t] = False
    return keep


def _sort_block(
    seeds: np.ndarray, wt: np.ndarray, ks: np.ndarray, k: int, start: int, pairs: list[tuple[int, int, int]]
) -> np.ndarray:
    """Run the block of rounds from ``start`` over a residual above ``_TAIL_N``; returns the mask of ids left unmatched.

    ``k`` is the block's first and largest bin count. The residual is
    hashed under every round of the block at once, and one sort
    (:func:`_colliding_bins`) lists the bins holding a worker and a task.
    They are visited in round order: each pairs its smallest live worker
    with its smallest live task, and the pair is appended to ``pairs`` with
    its round. A member matched earlier in the block is skipped, and the
    next member of its bin takes its place.
    """
    groups, pos, starts, both = _colliding_bins(bins_np(seeds, wt[:, None, :], ks), k)
    rounds = ((groups[both] >> np.uint64(1)) // np.uint64(k) + np.uint64(start)).tolist()
    runs = np.append(starts, pos.size)[both + np.arange(3)[:, None]]  # a bin's workers, then its tasks
    firsts = pos[runs[:2]].tolist()  # each bin's smallest worker and task
    used_w: set[int] = set()
    used_t: set[int] = set()
    found = []
    for r, a, b, c, x, y in zip(rounds, *runs.tolist(), *firsts):
        if x in used_w:
            x = next((p for p in pos[a + 1 : b].tolist() if p not in used_w), None)
        if y in used_t:
            y = next((p for p in pos[b + 1 : c].tolist() if p not in used_t), None)
        if x is not None and y is not None:
            used_w.add(x)
            used_t.add(y)
            found.append((x, y, r))
    keep = np.ones(wt.shape, dtype=bool)
    if found:
        at_w, at_t, rs = map(list, zip(*found))
        keep[0, at_w] = keep[1, at_t] = False
        pairs.extend(zip(wt[0, at_w].tolist(), wt[1, at_t].tolist(), rs))
    return keep


def _tail_block(
    seeds: np.ndarray, wt: np.ndarray, ks: np.ndarray, start: int, pairs: list[tuple[int, int, int]]
) -> np.ndarray:
    """Run the block of rounds from ``start`` over a small residual; returns the mask of ids left unmatched.

    The residual is hashed under every round of the block at once, and only
    colliding (worker, task) index pairs, those sharing a bin, are visited.
    In each round the first live collision of a bin, in index order, pairs
    its smallest live worker with its smallest live task, and the pair is
    appended to ``pairs`` with its round. Rounds without a live collision
    match nothing, like the scalar loop's rounds after the residual empties.
    """
    n = wt.shape[1]
    b = bins_np(seeds, wt[:, None, :], ks)
    # Each collision as one flat index (h*n + i)*n + j: ascending is round, worker, task order.
    flat = np.flatnonzero(b[0][:, :, None] == b[1][:, None, :])
    bins = b[0].ravel()[flat // n]
    ws, ts = wt.tolist()
    keep = [[True] * n, [True] * n]
    alive_w, alive_t = keep
    seen: set[tuple[int, int]] = set()  # the (round, bin) of each pair made
    for f, bin_ in zip(flat.tolist(), bins.tolist()):
        h, i, j = f // n // n, f // n % n, f % n
        if alive_w[i] and alive_t[j] and (h, bin_) not in seen:
            seen.add((h, bin_))
            alive_w[i] = alive_t[j] = False
            pairs.append((ws[i], ts[j], start + h))
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
    for ws, ts, rs in chain(matched, [(*residual, -1)]):
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


def _check_sets(workers: Iterable[int], tasks: Iterable[int], w: int, n: float) -> tuple[set[int], set[int]]:
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
# at a random size; the two called in alternating order; two seeds), on a
# 2-core x86-64 VM with Python 3.11.7 and numpy 2.4.6: w=64 (no cache, so
# the noise) 0.99-1.00 / 0.98-0.99, w=96 1.04-1.06 / 0.88-0.92, w=128
# 1.07-1.08 / 0.91-1.00, w=160 1.16-1.18 / 1.07-1.14, w=192 1.26-1.27 /
# 1.13-1.23, w=256 1.37-1.39 / 1.30-1.35, w=1024 (t=64w) 2.23-2.28 / -.
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
    them. The tables are linear in the input, whatever ``w``. Schedules the
    array engine does not run, with fewer than ``SESSION_MIN_W`` workers (a
    measured crossover), or whose cells would not fit in an int64 keep no
    cache: each call is a plain ``assign``.

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
        schedule = self.schedule
        arrays = schedule.round_arrays if schedule.w >= SESSION_MIN_W else None
        if arrays is None or not len(arrays[1]):
            return None
        grid = _Grid(schedule.w, *arrays)
        # Cells pack ``round * K + bin`` above a slot into one int64.
        return grid if (grid.total * grid.K) << grid.shift < 1 << 63 else None

    def __call__(self, T: TaskMultiset) -> AssignResult:
        cache, self._cache = self._cache, None
        schedule, grid = self.schedule, self._grid
        _check_multiset(schedule, T)
        if grid is None:
            result = assign(schedule, T)
        else:
            changed = None if cache is None else cache.advance(T)
            if changed is None:
                cache = _Cache(grid, T, assign(schedule, T))
            else:
                self.replays += 1
                self.changed_rounds += changed
            self._cache, result = cache, cache.result
        self.calls += 1
        return result


class _Grid:
    """A seeded schedule as the session reads it: seeds, bin counts, ``K`` and cell layout."""

    def __init__(self, w: int, seeds: np.ndarray, ks: np.ndarray) -> None:
        self.w, self.seeds, self.ks = w, seeds, ks
        self.total = len(ks)
        self.K = int(ks.max())
        self.base = np.arange(self.total, dtype=np.int64) * self.K
        self.shift = (w - 1).bit_length()  # a slot is below w
        self.mask = (1 << self.shift) - 1


class _Cache:
    """One input's result, in the form :class:`AssignSession` updates it in.

    ``end[s]`` maps each worker (``s = 0``) or lifted task (``s = 1``) of the
    input to its end (see :class:`AssignSession`). Each element has a slot, ``slot[s][x]``, and
    ``elems[s][i]`` is the element in slot ``i``, None once it left the
    input; freed slots are taken first, so there are no more slots than
    elements in one input, and each is below ``w``. ``cells[s]`` is the
    sorted array of ``(round * K + bin) << shift | slot`` over every round
    each element of side ``s`` is live in: 6 to 7 cells per element at
    w=1024 and t=65536. The cells of one bin form a run of the array, found
    by bisection.
    """

    def __init__(self, grid: _Grid, T: TaskMultiset, result: AssignResult) -> None:
        self.grid, self.T, self.result = grid, T, result
        self.cells: list[np.ndarray] | None = None

    def _build(self) -> None:
        """Build the tables from the result's trace, in one vectorized pass per side."""
        grid, tasks, rounds = self.grid, self.result.lifted.tolist(), self.result.rounds.tolist()
        ends = [grid.total if r < 0 else r for r in rounds]
        self.end = (dict(zip(range(1, len(rounds) + 1), ends)), dict(zip(tasks, ends)))
        self.elems = [sorted(end) for end in self.end]
        self.slot = tuple({x: i for i, x in enumerate(side)} for side in self.elems)
        self.free: tuple[list, list] = ([], [])  # slots of elements that left the input
        self.cells = []
        for s, end in enumerate(self.end):
            ids = np.fromiter(end, np.int64, len(end))
            n = np.minimum(np.fromiter(end.values(), np.int64, len(end)), grid.total - 1) + 1
            rounds = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            bins = bins_np(grid.seeds[s, rounds], np.repeat(ids, n).view(np.uint64), grid.ks[rounds])
            slots = np.repeat(np.fromiter(map(self.slot[s].__getitem__, end), np.int64, len(end)), n)
            cells = (grid.base[rounds] + bins.view(np.int64)) << grid.shift | slots
            cells.sort()
            self.cells.append(cells)

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

    def update(self, s: int, ends: dict[int, int], grow: dict[int, np.ndarray]) -> None:
        """Move the ends of side ``s``'s elements to ``ends``, -1 for one that left the input.

        An element whose end comes earlier drops its cells past the new end.
        One whose end comes later gains cells up to it, and ``grow`` holds
        its bins from the round after its old end on.
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
            cells = cells[cells < limit[cells & grid.mask]]
        added = []
        for x, bins in grow.items():
            i = slot.get(x)
            if i is None:
                i = free.pop() if free else len(elems)
                elems[i:i + 1] = [x]  # a free slot, or a new one at the end
                slot[x] = i
            first, stop = end.get(x, -1) + 1, min(ends[x] + 1, grid.total)
            added.append((grid.base[first:stop] + bins[: stop - first]) << grid.shift | i)
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
            self.update(s, ends[s], {x: np.concatenate(rows) for x, rows in replay.grow[s].items()})
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
    unmatched new-only elements are hashed a window of rounds at a time
    (``_WINDOW`` rounds, then twice as many per window), one ``bins_np``
    call per side, and one that turns new-only inside a window over the rest
    of it. Each bin where one meets a cached cell of the other side or
    another new-only element is queued, and so is each old-only element's
    old match, one scalar hash. Events pop in round and bin order, and a bin
    is resolved at its first event whose element is still in the delta;
    every element it pairs differently moves its end. An event's bin is its
    element's bin in that round, and resolving a bin moves only its members'
    ends and queues only later rounds, so resolving one bin never changes
    whether another bin's event is in the delta. The delta test only saves
    calls, half of a w=1024 walk's: a bin with no delta element has the same
    live members in both runs, so resolving it changes nothing. Past the
    cached run's last match only new-only elements are live, so the same
    events carry the new run on to its end. :meth:`_Cache.advance` applies
    ``ends``, ``grow`` and ``partner`` to the cache and its result.
    """

    def __init__(self, cache: _Cache, removed, added) -> None:
        self.cache, self.grid = cache, cache.grid
        total = self.grid.total
        self.ends: tuple[dict, dict] = ({}, {})
        self.partner: dict[int, int] = {}  # worker -> its new lifted task, for every worker that pairs differently
        self.live: tuple[dict, dict] = ({}, {})  # unmatched new-only element -> (round, its bins from there on)
        self.grow: tuple[dict, dict] = ({}, {})  # every element that was new-only -> its bins, window by window
        self.changes: set[int] = set()  # rounds whose pairs differ
        self.heap: list[tuple[int, int, int, int]] = []  # (round, bin, side, element that queued it)
        for s in (0, 1):
            for x in removed[s]:
                self.ends[s][x] = -1
                self._kill(s, x)
            for x in added[s]:
                self.ends[s][x] = total
                self.grow[s][x] = []
            self.live[s].update(dict.fromkeys(added[s]))  # hashed when the first window opens
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
        grid, m = self.grid, self.cache.end[s][x]
        if m < grid.total:
            heappush(self.heap, (m, _bin_of(int(grid.seeds[s, m]), x, int(grid.ks[m])), s, x))

    def _hash(self, s: int, xs: list[int], start: int, meet_new: bool) -> None:
        """Hash the new-only ``xs`` of side ``s`` from round ``start`` to the window's end and queue what they meet.

        With ``meet_new``, meetings with the other side's new-only elements,
        hashed from ``start`` or before, are queued too.
        """
        if not xs:
            return
        grid, rows = self.grid, slice(start, self.stop)
        bins = bins_np(grid.seeds[s, rows], np.array(xs, np.uint64)[:, None], grid.ks[rows]).view(np.int64)
        hits = self.cache.meets(1 - s, bins + grid.base[rows])
        if meet_new:
            for first, other in self.live[1 - s].values():
                hits |= bins == other[start - first :]
        at, j = np.nonzero(hits)
        for i, r, b in zip(at.tolist(), (j + start).tolist(), bins[at, j].tolist()):
            heappush(self.heap, (r, b, s, xs[i]))
        for x, row in zip(xs, bins):
            self.live[s][x] = (start, row)
            self.grow[s][x].append(row)

    def _resolve(self, r: int, b: int) -> None:
        """Work out bin ``b`` of round ``r`` in the new run and record how it differs."""
        cache, ends, old, new = self.cache, self.ends, [], []
        for s in (0, 1):
            group = cache.members(s, r, b)
            here = [x for x in group if x not in ends[s]]  # an old member with a moved end is old-only
            here += [x for x, (first, row) in self.live[s].items() if first <= r and row[r - first] == b]
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
                self.grow[s][o] = []
                self._hash(s, [o], r + 1, True)
            if n is not None and self.live[s].pop(n, None) is None:  # live in both until now: old-only from here
                self._kill(s, n)


@dataclass(frozen=True)
class DisperserFamily:
    """A seeded bin-placement family ``eval: [N] x [D] -> [M]``.

    The family qualifies as a ``(k_param, epsilon)`` strong disperser when for
    every subset ``S`` of the domain with ``|S| >= 2**k_param`` the
    seed-annotated image ``{(eval(s, d), d)}`` covers at least
    ``(1 - epsilon) * M * D`` of the ``M * D`` cells. ``oracle.verify_disperser``
    checks that exhaustively for small ``N``; nothing here assumes it.
    """

    N: int
    D: int
    M: int
    k_param: int
    epsilon: float
    table: tuple[tuple[int, ...], ...]  # table[element-1][seed-1] in [0, M)

    def __post_init__(self) -> None:
        if self.N < 1 or self.D < 1 or self.M < 1:
            raise ValueError("N, D, M must be >= 1")
        if self.k_param < 0 or not 0 <= self.epsilon < 1:
            raise ValueError("need k_param >= 0 and 0 <= epsilon < 1")
        if len(self.table) != self.N or any(len(row) != self.D for row in self.table):
            raise ValueError("table must be N rows of D seeds")
        if any(not 0 <= v < self.M for row in self.table for v in row):
            raise ValueError("table values must lie in [0, M)")

    def eval(self, element: int, seed: int) -> int:
        """Bin of ``element`` under seed ``seed``; all three are 1-based."""
        return self.table[element - 1][seed - 1] + 1

    @classmethod
    def random_table(
        cls, N: int, D: int, M: int, k_param: int, epsilon: float, rng: Random
    ) -> "DisperserFamily":
        """A uniformly random function table (not necessarily a verified disperser)."""
        table = tuple(tuple(rng.randrange(M) for _ in range(D)) for _ in range(N))
        return cls(N, D, M, k_param, epsilon, table)

    def stage(self, seed: int, provenance: tuple = ()) -> BinHash:
        """The partial-assignment stage using ``eval(., seed)`` for workers and tasks."""
        h = lambda x: self.eval(x, seed)  # noqa: E731
        return BinHash(self.M, h, h, provenance)


def single_bin_family(N: int, D: int, k_param: int = 0, epsilon: float = 0.25) -> DisperserFamily:
    """The one-bin family; every function with M=1 is a verified disperser."""
    return DisperserFamily(N, D, 1, k_param, epsilon, tuple((0,) * D for _ in range(N)))


def trivial_families(w: int, N: int, D: int = 4) -> tuple[DisperserFamily, ...]:
    """A full single-bin ladder covering levels ``k = ceil(log2 w)-1 .. 0``."""
    levels = max(1, (w - 1).bit_length())
    return tuple(single_bin_family(N, D, k_param=levels - i) for i in range(1, levels + 1))


def seed_sweep(
    family: DisperserFamily, wt: WorkerTaskInput, provenance: tuple = ()
) -> tuple[frozenset[tuple[int, int]], WorkerTaskInput, list[frozenset[tuple[int, int]]]]:
    """One pass over the family's seeds on the scalar loop: the pairs, the residual, each run stage's pairs."""
    stages = [family.stage(j, provenance + (j,)) for j in range(1, family.D + 1)]
    workers, tasks = set(wt.workers), set(wt.tasks)
    per_stage = _run_stages(stages, workers, tasks)
    return frozenset().union(*per_stage), WorkerTaskInput(workers, tasks), per_stage


def _explicit_stages(families: Sequence[DisperserFamily], reps: int, w: int, needed: int) -> list[BinHash]:
    """The explicit variant's stages, once the families are checked for ``w`` workers and ids to ``needed``.

    ``families[i-1]`` drives level ``i`` and must be declared for min-entropy
    parameter ``ceil(log2 w) - i``; each level runs ``reps`` seed sweeps.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    levels = max(1, (w - 1).bit_length())  # ceil(log2 w), at least one level
    if len(families) != levels:
        raise ValueError(f"need {levels} families for w={w}, got {len(families)}")
    for i, family in enumerate(families, start=1):
        if family.k_param != levels - i:
            raise ValueError(f"family declares k_param={family.k_param}, level requires {levels - i}")
        if family.N < needed:
            raise ValueError(f"family domain N={family.N} smaller than needed {needed}")
    return [
        stage
        for level, family in enumerate(families, start=1)
        for stage in [family.stage(j, (level, j)) for j in range(1, family.D + 1)] * reps
    ]


def assign_explicit_set(
    families: Sequence[DisperserFamily],
    reps: int,
    workers: Sequence[int],
    tasks: Sequence[int],
    w: int,
) -> AssignResult:
    """Explicit-variant assignment of a worker set to an equal-size task set.

    Falls back like the randomized variant if anything remains.
    """
    W, T = _check_sets(workers, tasks, w, float("inf"))  # the families' domain bounds the tasks
    needed = max(W | T, default=1)
    stages = _explicit_stages(families, reps, w, needed)
    wt = _rows(W, T, id_dtype(needed))
    return _result(w, wt, _run_scalar(stages, wt), len(stages), False)


def assign_explicit(
    families: Sequence[DisperserFamily], reps: int, T: TaskMultiset, w: int
) -> AssignResult:
    """Explicit-variant assignment of workers ``1..|T|`` to a task multiset, lifted like :func:`assign`."""
    _check_fits(T, w)
    wt = _lifted_rows(T, w)
    stages = _explicit_stages(families, reps, w, int(wt[1, -1]) if len(T) else 1)
    return _result(w, wt, _run_scalar(stages, wt), len(stages), True)
