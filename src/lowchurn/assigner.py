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

Two engines give bit-identical output, the same pairs and the same
per-round trace:

* the scalar loop (``_run_stages``) calls ``BinHash.match`` round after
  round on Python sets. It is the reference, and the only engine for stages
  built from callables, so the explicit variant always runs on it;
* the array engine (``_run_arrays``) reads the schedule's seed and bin
  count arrays as they are (``RoundSchedule.round_arrays``). While more than
  ``_TAIL_N`` workers remain it runs one numpy round at a time. Below that
  it hashes the residual under a block of upcoming rounds at once and
  visits only the rounds where some worker shares a bin with some task;
  every other round is recorded as matching nothing without being run.

Wrapped by ``_run_scalar`` in the array engine's form, both take and return
arrays: the residual goes in as one ``(2, n)`` array, sorted workers over
sorted tasks, and comes back as the matched pairs plus the residual left at
the end. ``_pack`` scatters the pairs and the rank-order fallback, which is
that residual's rows side by side, into one task per worker. ``assign``
stays in numpy from input to result: the lift (``reduction.lift_np``), the
engine, the scatter and the projection to base tasks
(``reduction.project_np``); the only Python objects it builds are the
per-round trace and the one :class:`Assignment` it returns. ``assign_set``
is the same path wrapped for plain id sets.

``assign`` and ``assign_set`` pick the array engine when the schedule has at
least ``ARRAY_MIN_W`` workers and ``round_arrays`` exists (rounds from
:func:`build_schedule`, ``n < 2**63`` and ``w < 2**31``), and the scalar
loop otherwise.

Schedules and families are immutable; ``assign``, ``assign_set``, and
``assign_explicit`` are pure, so evaluating many inputs in parallel is safe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .binhash import BinHash, StageOutcome, compose, seeds_np
from .core import Assignment, TaskMultiset, WorkerTaskInput
from .hashing import bins_np, derive, derive_np
from .reduction import id_dtype, lift, lift_np, project, project_np

__all__ = [
    "Round",
    "RoundSchedule",
    "AssignResult",
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
        keys (below ``4 * w * w``) no longer fit in a uint64.
        """
        rounds = self.rounds
        if not isinstance(rounds, SeededRounds) or self.n >= 1 << 63 or self.w >= 1 << 31:
            return None
        return rounds.seeds, rounds.ks


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


@dataclass(frozen=True)
class AssignResult:
    """An assignment plus the bookkeeping needed to audit how it was produced.

    ``per_round_pairs`` holds each executed round's matched pairs (in lifted
    task ids when a multiset was assigned); rounds after the input emptied are
    omitted. ``fallback_pairs == 0`` means every pair came from schedule
    rounds, so the switching-cost guarantee applies.
    """

    assignment: Assignment
    fallback_pairs: int
    per_round_pairs: tuple[frozenset[tuple[int, int]], ...]

    @property
    def per_round_matches(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.per_round_pairs)

    @property
    def used_fallback(self) -> bool:
        return self.fallback_pairs > 0


def _run_stages(
    stages: Sequence[BinHash], workers: set[int], tasks: set[int]
) -> tuple[list[tuple[int, int]], list[frozenset[tuple[int, int]]]]:
    """The scalar reference loop; mutates the given sets."""
    pairs: list[tuple[int, int]] = []
    per_round: list[frozenset[tuple[int, int]]] = []
    for stage in stages:
        if not workers and not tasks:
            break
        matched = stage.match(workers, tasks)
        per_round.append(frozenset(matched))
        if matched:
            pairs.extend(matched)
            for worker, task in matched:
                workers.discard(worker)
                tasks.discard(task)
    return pairs, per_round


# ``assign_set`` runs schedules for fewer workers on the scalar loop. The array
# engine pays a fixed numpy cost per round or block, which loses where
# schedules are short and most rounds match. Speed-up of a whole ``assign``
# call (scalar time over array time), both engines alternating on the same
# random multisets with t = 4w, of random size / of size w, on a 2-core
# x86-64 VM with Python 3.11.7 and numpy 2.4.6: w=4 0.80 / 0.77, w=8
# 1.05 / 0.92, w=16 1.17 / 1.03, w=32 1.52 (random size), w=64 1.91 / 1.81,
# w=1024 4.9 (size w), w=16384 10.8 (size w).
ARRAY_MIN_W = 16
# Residuals of more than this many workers run one round at a time.
_TAIL_N = 64
# A head round over a residual of n in k <= _DENSE_BINS * n bins finds each
# bin's first worker and task with a scatter over k slots; sparser rounds
# sort their 2n keys instead. Sort time over scatter time for residuals of
# 65 to 8000 on the machine above: 1.5-4.9 at k = n, 0.8-1.2 at k = 16n,
# 0.3-1.0 at k = 64n.
_DENSE_BINS = 8
# A tail block of B rounds over a residual of n makes B * n * n bin
# comparisons, at most ``_TAIL_BUDGET``. A round of k bins has about n*n/k
# colliding pairs, so blocks also stop at about ``_TAIL_HITS`` expected
# collisions: rounds that match a lot shrink the residual and go in short
# blocks, rounds that rarely match go in long ones.
_TAIL_BUDGET = 1 << 16
_TAIL_HITS = 16
_NO_PAIRS: frozenset[tuple[int, int]] = frozenset()

# What an engine returns: the matched pairs as (workers, tasks) row pairs,
# the per-round trace, and the residual it leaves, workers over tasks.
Matches = list[tuple[Sequence[int], Sequence[int]]]
Run = tuple[Matches, list[frozenset[tuple[int, int]]], np.ndarray]


def _rows(workers: Iterable[int], tasks: Iterable[int], dtype: type) -> np.ndarray:
    """Sorted workers over sorted tasks as one ``(2, size)`` id array."""
    return np.array([sorted(workers), sorted(tasks)], dtype).reshape(2, -1)


def _run_scalar(stages: Sequence[BinHash], wt: np.ndarray) -> Run:
    """The scalar loop over the residual ``wt``, in the array engine's form."""
    W, T = set(wt[0].tolist()), set(wt[1].tolist())
    pairs, per_round = _run_stages(stages, W, T)
    matched = np.array(pairs, wt.dtype).reshape(-1, 2).T
    return [(matched[0], matched[1])], per_round, _rows(W, T, wt.dtype)


def _run(schedule: RoundSchedule, wt: np.ndarray) -> Run:
    """Run ``schedule`` over the residual ``wt`` on the engine the module docstring picks."""
    arrays = schedule.round_arrays if schedule.w >= ARRAY_MIN_W else None
    if arrays is None:
        return _run_scalar([r.hash for r in schedule.rounds], wt)
    return _run_arrays(arrays, wt)


def _run_arrays(arrays: tuple[np.ndarray, np.ndarray], wt: np.ndarray) -> Run:
    """Array engine over a seeded schedule, bit-identical to :func:`_run_stages`.

    ``wt`` is the residual as one uint64 array, sorted workers in row 0 and
    sorted tasks in row 1, so each hash call covers both sides. Each head
    round's matches stay the arrays it found them in; the tail blocks' few
    matches are gathered into one pair of lists. The trace has an entry for
    every executed round, empty where the round matched nothing, and the
    residual left over stays sorted.
    """
    seeds, ks = arrays
    rounds = len(ks)
    matched: Matches = []
    tail: list[tuple[int, int]] = []
    per_round: list[frozenset[tuple[int, int]]] = []
    r = 0
    while r < rounds and wt.shape[1]:
        n = wt.shape[1]
        if n > _TAIL_N:
            keep = _head_round(seeds[:, r, None], wt, int(ks[r]), matched, per_round)
            r += 1
        else:
            cap = min(_TAIL_BUDGET, _TAIL_HITS * int(ks[r]))
            block = min(rounds - r, max(1, cap // (n * n)))
            rows = slice(r, r + block)
            keep = _tail_block(seeds[:, rows, None], wt, ks[rows, None], tail, per_round)
            r += block
        wt = wt[keep].reshape(2, -1)
    if tail:
        ws, ts = zip(*tail)
        matched.append((list(ws), list(ts)))
    return matched, per_round, wt


def _head_round(
    seeds: np.ndarray,
    wt: np.ndarray,
    k: int,
    matched: Matches,
    per_round: list[frozenset[tuple[int, int]]],
) -> np.ndarray:
    """Run one round over a large residual; returns the mask of ids left unmatched.

    A bin holding a worker and a task pairs its smallest of each. The rows
    are sorted, so those sit at the bin's first position in each row.
    """
    n = wt.shape[1]
    bins = bins_np(seeds, wt, np.uint64(k))
    if k <= _DENSE_BINS * n:
        first = np.full((2, k), n)
        at = np.arange(n)
        np.minimum.at(first[0], bins[0], at)
        np.minimum.at(first[1], bins[1], at)
        pos_w, pos_t = first[:, (first < n).all(axis=0)]
    else:
        # Sorting ``key * 2n + p`` over flattened positions p, with key
        # ``2*bin + row``, puts each key's first position first. A bin
        # matches where key ``2b`` is followed by ``2b+1``.
        size = 2 * n
        keys = bins << np.uint64(1)
        keys[1] |= np.uint64(1)
        order = np.sort(keys.ravel() * np.uint64(size) + np.arange(size, dtype=np.uint64))
        keys, pos = np.divmod(order, np.uint64(size))
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys, pos = keys[first], pos[first]
        both = np.flatnonzero(keys[1:] - keys[:-1] == (keys[1:] & np.uint64(1)))
        pos_w, pos_t = pos[both], pos[both + 1] - np.uint64(n)
    ws, ts = wt[0, pos_w], wt[1, pos_t]
    matched.append((ws, ts))
    per_round.append(frozenset(zip(ws.tolist(), ts.tolist())))
    keep = np.ones((2, n), dtype=bool)
    keep[0, pos_w] = keep[1, pos_t] = False
    return keep


def _tail_block(
    seeds: np.ndarray,
    wt: np.ndarray,
    ks: np.ndarray,
    pairs: list[tuple[int, int]],
    per_round: list[frozenset[tuple[int, int]]],
) -> np.ndarray:
    """Run a block of rounds over a small residual; returns the mask of ids left unmatched.

    The residual is hashed under every round of the block at once, and only
    colliding (worker, task) index pairs, those sharing a bin, are visited.
    In each round the first live collision of a bin, in index order, pairs
    its smallest live worker with its smallest live task. Rounds without a
    live collision match nothing. Appends to ``pairs`` and ``per_round``
    and stops at the round that empties the residual, like the scalar loop.
    """
    block, n = len(ks), wt.shape[1]
    b = bins_np(seeds, wt[:, None, :], ks)
    rows, iw, it = np.nonzero(b[0][:, :, None] == b[1][:, None, :])
    bins = b[0][rows, iw]
    ws, ts = wt.tolist()
    keep = [[True] * n, [True] * n]
    alive_w, alive_t = keep
    left, done, cur = n, 0, -1
    got: list[tuple[int, int]] = []
    seen: set[int] = set()
    # A sentinel collision in row ``block`` flushes the last visited round.
    collisions = zip(rows.tolist() + [block], iw.tolist() + [0], it.tolist() + [0], bins.tolist() + [0])
    for h, i, j, bin_ in collisions:
        if h != cur:
            if got:
                per_round.extend([_NO_PAIRS] * (cur - done))
                per_round.append(frozenset(got))
                pairs.extend(got)
                done, left = cur + 1, left - len(got)
                if not left:
                    break
                got = []
            if h == block:
                per_round.extend([_NO_PAIRS] * (block - done))
                break
            seen.clear()
            cur = h
        if alive_w[i] and alive_t[j] and bin_ not in seen:
            seen.add(bin_)
            alive_w[i] = alive_t[j] = False
            got.append((ws[i], ts[j]))
    return np.array(keep)


def _pack(workers: np.ndarray, matched: Matches, residual: np.ndarray) -> np.ndarray:
    """The task of each of the sorted ``workers``, by scatter.

    A worker takes its matched task, or else its rank-order fallback: the
    residual's rows are sorted, so they already pair sorted leftover workers
    with sorted leftover tasks.
    """
    dense = not workers.size or workers[-1] == workers.size  # workers are 1..size
    task_of = np.empty(workers.size, dtype=residual.dtype)
    for ws, ts in chain(matched, [residual]):
        task_of[np.asarray(ws, np.int64) - 1 if dense else np.searchsorted(workers, ws)] = ts
    return task_of


def _set_result(w: int, wt: np.ndarray, run: Run) -> AssignResult:
    """The :class:`AssignResult` of an engine run over the input ``wt``."""
    matched, per_round, residual = run
    task_of = _pack(wt[0], matched, residual)
    assignment = Assignment(w, tuple(zip(wt[0].tolist(), task_of.tolist())))
    return AssignResult(assignment, residual.shape[1], tuple(per_round))


def assign_set(schedule: RoundSchedule, workers: Sequence[int], tasks: Sequence[int]) -> AssignResult:
    """Assign a plain worker set to an equal-size task set over ``[n]``.

    Runs the whole round grid on the pair, then completes any residual by
    rank-order matching. The result is always a perfect matching.
    """
    W = set(workers)
    T = set(tasks)
    if len(W) != len(T):
        raise ValueError(f"|workers| != |tasks|: {len(W)} vs {len(T)}")
    if W and not (1 <= min(W) and max(W) <= schedule.w):
        raise ValueError(f"workers outside [1, {schedule.w}]")
    if T and not (1 <= min(T) and max(T) <= schedule.n):
        raise ValueError(f"tasks outside [1, {schedule.n}]")
    wt = _rows(W, T, id_dtype(schedule.n))
    return _set_result(schedule.w, wt, _run(schedule, wt))


def assign(schedule: RoundSchedule, T: TaskMultiset) -> AssignResult:
    """Assign workers ``1..|T|`` to the task multiset ``T``.

    Lifts ``T`` to a set over ``[w*t]``, runs it on the same engine as
    :func:`assign_set`, and projects back; workers ``|T|+1..w`` stay
    unassigned. ``per_round_pairs`` remains in lifted ids. The lifted ids,
    the pairs, the fallback and the projection all stay numpy arrays up to
    the one :class:`Assignment` built at the end.
    """
    if T.t != schedule.t:
        raise ValueError(f"multiset universe {T.t} does not match schedule t={schedule.t}")
    size = len(T)
    if size > schedule.w:
        raise ValueError("multiset larger than worker count")
    w = schedule.w
    tasks = lift_np(T, w)
    wt = np.array([np.arange(1, size + 1, dtype=tasks.dtype), tasks])
    matched, per_round, residual = _run(schedule, wt)
    base = project_np(_pack(wt[0], matched, residual), w)
    assignment = Assignment(w, tuple(zip(range(1, size + 1), base.tolist())))
    return AssignResult(assignment, residual.shape[1], tuple(per_round))


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
) -> tuple[frozenset[tuple[int, int]], WorkerTaskInput, list[StageOutcome]]:
    """One full pass over the family's seeds, composing the D per-seed stages."""
    stages = [family.stage(j, provenance + (j,)) for j in range(1, family.D + 1)]
    return compose(stages, wt)


def _expected_levels(w: int) -> list[int]:
    levels = max(1, (w - 1).bit_length())  # ceil(log2 w), at least one level
    return [levels - i for i in range(1, levels + 1)]


def assign_explicit_set(
    families: Sequence[DisperserFamily],
    reps: int,
    workers: Sequence[int],
    tasks: Sequence[int],
    w: int,
) -> AssignResult:
    """Explicit-variant assignment of a worker set to an equal-size task set.

    ``families[i-1]`` drives level ``i`` and must be declared for min-entropy
    parameter ``ceil(log2 w) - i``; each level runs ``reps`` seed sweeps.
    Falls back like the randomized variant if anything remains.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    expected = _expected_levels(w)
    if len(families) != len(expected):
        raise ValueError(f"need {len(expected)} families for w={w}, got {len(families)}")
    for family, k_expected in zip(families, expected):
        if family.k_param != k_expected:
            raise ValueError(
                f"family declares k_param={family.k_param}, level requires {k_expected}"
            )
    W = set(workers)
    T = set(tasks)
    if len(W) != len(T):
        raise ValueError(f"|workers| != |tasks|: {len(W)} vs {len(T)}")
    if W and not (1 <= min(W) and max(W) <= w):
        raise ValueError(f"workers outside [1, {w}]")
    if T and min(T) < 1:
        raise ValueError("task ids start at 1")
    needed = max(W | T, default=1)
    for family in families:
        if family.N < needed:
            raise ValueError(f"family domain N={family.N} smaller than needed {needed}")

    # Each level's sweep repeated ``reps`` times; the loop stops once nothing is left.
    stages = [
        stage
        for level, family in enumerate(families, start=1)
        for stage in [family.stage(j, (level, j)) for j in range(1, family.D + 1)] * reps
    ]
    wt = _rows(W, T, id_dtype(needed))
    return _set_result(w, wt, _run_scalar(stages, wt))


def assign_explicit(
    families: Sequence[DisperserFamily], reps: int, T: TaskMultiset, w: int
) -> AssignResult:
    """Explicit-variant assignment of workers ``1..|T|`` to a task multiset."""
    size = len(T)
    if size > w:
        raise ValueError("multiset larger than worker count")
    result = assign_explicit_set(families, reps, range(1, size + 1), lift(T, w), w)
    projected = project(result.assignment, T, w)
    return AssignResult(projected, result.fallback_pairs, result.per_round_pairs)
