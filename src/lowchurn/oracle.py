"""Exact and exhaustive verification engines.

Four tools live here, all exact within their budgets:

* :func:`exact_feasible` decides by backtracking whether *any* assignment
  function on a small instance can keep every adjacent transition at or below
  a target switching cost. States are visited in BFS order from the
  lexicographically smallest one so each new state is already constrained by
  fixed neighbors, and the first state is pinned to sorted order (worker
  relabeling is a symmetry of the problem). Domains are bitsets, pruned with
  one ``&`` per neighbor against masks built on first use within the call.
  A subtree that failed is remembered under the domains it depends on and
  replayed, not searched again, when they recur; ``nodes`` still counts the
  plain search's tree, node for node.
* :func:`exhaustive_max_switching` measures the true worst adjacent transition
  of a concrete assignment function by comparing every adjacent pair.
* :func:`disperser_search` hunts for tiny verified strong-disperser tables by
  random restarts, with :func:`verify_disperser` as the exhaustive
  subset-by-subset check.
* :func:`ramsey_witness` scans for ``w+1`` tasks whose size-``w`` subsets all
  receive the same assignment pattern; such a configuration forces a
  transition that reassigns every worker.

The exact search and the audit take adjacency from :func:`_rest_groups`, the
one place that knows the rule: two states are adjacent exactly when they
share a rest, the state less one slot. No tool here caps its instance; the
CLI does (``oracle exact``: w <= 5 and at most 20 000 states; ``oracle
audit``: at most 100 000 states; ``oracle ramsey``: at most 10**6
(w+1)-subsets). The audit's memory grows with its pairs, not its states:
see :func:`exhaustive_max_switching`.

Each search runs single-threaded; callers may explore independent instances
in parallel since nothing here shares mutable state.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate, combinations, combinations_with_replacement, permutations
from random import Random
from typing import Callable, Literal

import numpy as np

from .assigner import DisperserFamily
from .core import Assignment, TaskMultiset, switching_cost

__all__ = [
    "SearchBudget",
    "FeasibilityResult",
    "RamseyWitness",
    "exact_feasible",
    "exhaustive_max_switching",
    "verify_disperser",
    "disperser_search",
    "ramsey_witness",
]

AssignFn = Callable[[TaskMultiset], Assignment]
Verdict = Literal["feasible", "infeasible", "budget_exhausted"]

# A position of the exact search that has stored this many failed subtrees
# and replayed none drops them and stores no more. On multisets the most a
# position stored before its first replay was 92 at (3, 5, 2), 384 at
# (3, 6, 2), 1748 at (3, 7, 2) and 966 at (4, 6, 2); on sets, (4, 8, 3) to
# 2 000 000 nodes stored 30 407 and 7011 keys at its two busiest positions
# and replayed none.
_UNUSED_KEYS = 4096
# ``ramsey_witness`` remembers the colors of subsets holding at most this many
# elements in all, so a scan at large w keeps tens of MB, not one w-tuple per
# call: at w=16383, t=16384 the one (w+1)-set has 16384 faces of 16383 tasks.
_COLORED_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exact searches: explored nodes and wall-clock seconds."""

    node_limit: int = 50_000_000
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.time_limit != self.time_limit:  # NaN: every comparison with the deadline would be false
            raise ValueError("time_limit must not be NaN")


@dataclass(frozen=True)
class FeasibilityResult:
    verdict: Verdict
    solution: dict[tuple[int, ...], tuple[int, ...]] | None
    nodes: int


def _states(w: int, t: int, multisets: bool) -> list[tuple[int, ...]]:
    if w < 0:
        raise ValueError("w must be >= 0")
    if multisets:
        if t < 1 <= w:
            raise ValueError(f"no size-{w} task multisets exist over [{t}]")
        return [tuple(s) for s in combinations_with_replacement(range(1, t + 1), w)]
    if t < w:
        raise ValueError(f"no size-{w} task sets exist over [{t}]")
    return [tuple(s) for s in combinations(range(1, t + 1), w)]


def _rest_groups(states: np.ndarray) -> np.ndarray:
    """The rows of ``states`` grouped by rest: one row per rest, its members' indices ascending.

    A ``rest`` is a sorted row less one slot. Two sorted rows of one size are
    adjacent exactly when they share a rest: swapping one element keeps the
    rest of the row, and the rest of an adjacent pair is their common part,
    so each pair shares one. Each group is therefore a clique, and every rest
    has the same number of rows: ``t`` on multisets, ``t - w + 1`` on sets.
    Dropping each slot in turn gives every row's rests, and one lexsort by
    rest, then by row, groups them; rests are compared column by column, not
    folded into one integer code, which overflows int64 (at w=63, t=2 on
    multisets, for one). A row is kept once per distinct rest: a repeated
    element gives one rest twice. At w=0 there is no rest and no group.
    """
    count, w = states.shape
    if not w:
        return np.zeros((0, 1), np.intp)
    drop = np.arange(1, w) - (np.arange(w - 1) < np.arange(w)[:, None])  # row i: every slot but i
    rests = states[:, drop].reshape(count * w, w - 1)
    owner = np.arange(count).repeat(w)
    order = np.lexsort((owner, *rests.T[::-1]))
    rests, owner = rests[order], owner[order]
    head = np.ones(owner.size, bool)  # the first entry of each rest's group
    head[1:] = (rests[1:] != rests[:-1]).any(axis=1)
    keep = head.copy()
    keep[1:] |= owner[1:] != owner[:-1]
    return owner[keep].reshape(np.count_nonzero(head), -1)


def _neighbors(groups: np.ndarray, count: int) -> list[list[int]]:
    """Each of ``count`` states' adjacent states, as ascending index lists: the other members of its rest groups.

    ``groups`` is :func:`_rest_groups` of the states. The lists hold
    ``count x degree`` ints in all: 7.9M at w=2, t=200 sets, where ``oracle
    exact`` peaks at 137 MB.
    """
    out: list[list[int]] = [[] for _ in range(count)]
    for group in groups.tolist():
        for k, me in enumerate(group):
            out[me] += group[:k] + group[k + 1 :]
    for found in out:
        found.sort()  # each adjacent pair shares one group, so no neighbor comes twice
    return out


def _columns(rows: np.ndarray) -> np.ndarray:
    """``rows`` by columns, one contiguous row per slot, padded with zero columns to a multiple of 8.

    The padding makes each array whole bytes of packed bits, so a neighbor's
    mask is one slice of them. By columns, a mask row adds up ``w`` long
    rows of differences instead of counting along short ones: 6 against
    121 us over a 4440 x 5 stack.
    """
    cols = np.zeros((rows.shape[1], -(-len(rows) // 8) * 8), rows.dtype)
    cols[:, : len(rows)] = rows.T
    return cols


def _bfs_order(states: list[tuple[int, ...]], neighbors: list[list[int]]) -> list[int]:
    """The states by breadth-first distance from state 0, ties by index; unreachable states last."""
    n = len(states)
    dist = [n] * n
    dist[0] = 0
    queue = [0]
    for idx in queue:  # grows while it is read: a FIFO
        for nb in neighbors[idx]:
            if dist[nb] == n:
                dist[nb] = dist[idx] + 1
                queue.append(nb)
    return sorted(range(n), key=dist.__getitem__)


def exact_feasible(
    w: int,
    t: int,
    target_k: int,
    *,
    multisets: bool = False,
    budget: SearchBudget | None = None,
) -> FeasibilityResult:
    """Decide whether any assignment function on the instance has switching cost <= target_k.

    Enumerates every size-``w`` task state over ``[t]`` (sets by default;
    multisets on request), then backtracks over per-state bijections with
    forward checking on not-yet-assigned neighbors. ``feasible`` and
    ``infeasible`` verdicts are exact; ``budget_exhausted`` draws no
    conclusion.

    A domain is an int whose bit ``j`` allows the state's ``j``-th sorted
    candidate, tried in increasing bit order. Placing ``j`` prunes each later
    neighbor with one ``&`` against a mask row that one numpy compare builds
    the first time ``j`` is tried there and keeps until the call returns: at
    most one row per node, so O(nodes x degree) memory. At ``target_k >= w``
    nothing can be pruned and no row is built.

    Failed subtrees are cached. The subtree below position ``p`` in the
    search order depends only on the domains of positions ``p`` up to
    ``reach[p]``, one past the furthest later neighbor of any position before
    ``p``: every position from ``reach[p]`` on is still full, and the masks
    are fixed. So a subtree that failed fails again from the same domains,
    after the same number of nodes. Its count is kept under that slice of
    domains if it is at least the slice's length (a smaller subtree costs
    less to search again than its key costs to build), and when the slice
    recurs the search adds the count and backtracks. A position that has
    kept ``_UNUSED_KEYS`` subtrees and replayed none drops them and keeps no
    more: on sets most keys never recur. ``nodes`` and
    ``node_limit`` count the plain search's tree, in which a replayed subtree
    holds every node it held when it was searched; so the counts, verdicts
    and solutions are the plain search's. A replay past ``node_limit`` stops
    at ``node_limit + 1``; one that passes a multiple of 4096 under a
    deadline reads the clock once and, past the deadline, stops at the first
    such multiple.
    """
    if target_k < 0:
        raise ValueError("target switching cost must be >= 0")
    budget = budget or SearchBudget()
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit

    states = _states(w, t, multisets)
    neighbors = _neighbors(_rest_groups(np.array(states, np.int64).reshape(len(states), w)), len(states))

    order = _bfs_order(states, neighbors)
    position = {idx: pos for pos, idx in enumerate(order)}

    # Per position, its state's candidates as the rows of one array, in
    # ascending order: the state indexed by every permutation of its slots,
    # which for a set are already distinct and sorted. Worker relabeling
    # permutes every state's tuple the same way, so the first state is
    # pinned to sorted order.
    dtype = np.min_scalar_type(t)
    perms = np.array(list(permutations(range(w))), np.intp)
    cands = [np.array(states[idx], dtype)[perms] for idx in order]
    if multisets:  # a repeated task repeats rows
        cands = [np.unique(c, axis=0) for c in cands]
    cands[0] = np.array([states[order[0]]], dtype)
    # Per-position domains, rewritten destructively with an undo trail.
    full = [(1 << len(c)) - 1 for c in cands]
    domains = full[:]
    cands = [_columns(c) for c in cands]  # from here on, candidate j is column j
    slots = np.min_scalar_type(w)  # holds a count of differing slots
    # Each position's not-yet-placed neighbors, in the order they are pruned;
    # none at target_k >= w, where every pair of candidates is within reach.
    prunable = neighbors if target_k < w else [[] for _ in states]
    later = [[q for q in map(position.__getitem__, prunable[idx]) if q > p] for p, idx in enumerate(order)]
    masks: list[dict[int, list[tuple[int, int]]]] = [{} for _ in order]

    def mask_row(p: int, j: int) -> list[tuple[int, int]]:
        """``(q, mask)`` for each later neighbor ``q`` of ``p`` that candidate ``j`` prunes."""
        diff = np.concatenate([cands[q] for q in later[p]], axis=1) != cands[p][:, j, None]
        near = np.add.reduce(diff, axis=0, dtype=slots) <= target_k
        packed = np.packbits(near, bitorder="little").tobytes()
        bounds = [0, *accumulate(cands[q].shape[1] // 8 for q in later[p])]
        row = [(q, int.from_bytes(packed[a:b], "little")) for q, a, b in zip(later[p], bounds, bounds[1:])]
        return [(q, mask) for q, mask in row if ~mask & full[q]]  # an all-ones mask prunes nothing

    # ``reach[p]`` is one past the furthest later neighbor of any position
    # before ``p``, and ``failed[p]`` maps ``tuple(domains[p:reach[p]])`` to
    # the node count of a subtree that failed from those domains, or is None
    # once ``p`` gave up caching; ``replayed[p]`` is whether one has recurred.
    reach = list(accumulate((max(qs, default=p) + 1 for p, qs in enumerate(later)), max, initial=0))
    failed: list[dict[tuple[int, ...], int] | None] = [{} for _ in order]
    replayed = [False] * len(order)
    nodes = 0
    # The budget stops the search at node ``node_limit + 1`` or, under a
    # deadline, at the first multiple of 4096 nodes where the clock is past
    # it. ``check`` is the next node where either can happen.
    node_limit = budget.node_limit
    check = node_limit + 1 if deadline is None else min(4096, node_limit + 1)

    # Depth-first over positions with an explicit stack: ``next_cand[p]`` is
    # the bit after the one placed at position ``p``, ``trails[p]`` undoes
    # the pruning done by it and ``entered[p]`` is the node count when the
    # search entered ``p``.
    depth = len(order)
    next_cand = [0] * (depth + 1)
    entered = [0] * depth
    trails: list[list[tuple[int, int]] | None] = [None] * depth
    pos = 0
    found = True
    while pos < depth:
        trail = trails[pos]
        if trail is not None:  # back from a failed subtree: undo its candidate
            for q, old in trail:
                domains[q] = old
            trails[pos] = None
        else:
            entered[pos] = nodes
            if failed[pos] and (count := failed[pos].get(tuple(domains[pos : reach[pos]]))) is not None:
                replayed[pos] = True
                # Replay the subtree's nodes. If they reach ``check``, that first
                # check decides, with one clock read for every multiple passed;
                # then the node limit does.
                nodes += count
                if nodes >= check:
                    if check > node_limit or time.monotonic() > deadline:
                        return FeasibilityResult("budget_exhausted", None, check)
                    if nodes > node_limit:
                        return FeasibilityResult("budget_exhausted", None, node_limit + 1)
                    check = min(nodes // 4096 * 4096 + 4096, node_limit + 1)
                pos -= 1
                continue
        j = next_cand[pos] - 1
        bits = domains[pos] >> next_cand[pos]
        while bits:
            step = (bits & -bits).bit_length()
            bits >>= step
            j += step
            nodes += 1
            if nodes >= check:
                if nodes > node_limit or time.monotonic() > deadline:
                    return FeasibilityResult("budget_exhausted", None, nodes)
                check = min(nodes + 4096, node_limit + 1)
            row = masks[pos].get(j) if later[pos] else ()
            if row is None:
                row = masks[pos][j] = mask_row(pos, j)
            trail = []
            for q, mask in row:
                old = domains[q]
                new = old & mask
                if new != old:
                    trail.append((q, old))
                    domains[q] = new
                    if not new:
                        break  # q has no candidate left
            else:  # every later neighbor kept a candidate: place j
                next_cand[pos] = j + 1
                trails[pos] = trail
                break
            for q, old in trail:
                domains[q] = old
        else:  # every candidate failed: backtrack
            if pos == 0:
                found = False
                break
            if (count := nodes - entered[pos]) >= reach[pos] - pos and (keys := failed[pos]) is not None:
                keys[tuple(domains[pos : reach[pos]])] = count
                if not replayed[pos] and len(keys) >= _UNUSED_KEYS:
                    failed[pos] = None  # many keys and no replay: this position caches no more
            pos -= 1
            continue
        pos += 1
        next_cand[pos] = 0

    if not found:
        return FeasibilityResult("infeasible", None, nodes)
    solution = {states[idx]: tuple(cands[pos][:, next_cand[pos] - 1].tolist()) for pos, idx in enumerate(order)}
    return FeasibilityResult("feasible", solution, nodes)


def exhaustive_max_switching(
    assignfn: AssignFn, w: int, t: int, *, multisets: bool = False
) -> tuple[int, tuple[TaskMultiset, TaskMultiset] | None]:
    """Exact maximum switching cost of ``assignfn`` over every adjacent state pair.

    Returns the maximum and a witness pair, the first pair ``(a, b)``, ``a <
    b`` in state order, to reach it; or ``(0, None)`` when the instance has
    no adjacent pairs at all (e.g. ``t == 1``). Every result becomes one row
    of a task matrix, filled by one scatter, with 0 for an unassigned worker
    (tasks are in ``[1, t]``), so a pair's cost, :func:`switching_cost` with
    its rule that a worker assigned in only one of the two differs, is the
    count of columns where its rows differ, taken for all pairs at once.

    Each pair lies in exactly one rest group (:func:`_rest_groups`), so the
    rows of each group are compared against each other, one worker column
    at a time, into a ``(groups, g, g)`` count array of the narrowest type
    that holds the worker count; no pair list is built. The witness is each
    ``(group, a)``'s first ``b > a`` at the maximum, by ``argmax``, and then
    the least of those ``(a, b)``. Memory is about twice the count array,
    ``groups x g**2`` bytes under 256 workers, with ``g = t`` on multisets
    and ``t - w + 1`` on sets: at w=2, t=447 sets, 99 681 states, the CLI's
    audit peaks at 328 MB (Python 3.11, numpy 2.4). At w=1 the one group
    holds all ``t`` states, so t=100 000 would need 10 GB.
    """
    tuples = _states(w, t, multisets)
    grid = np.array(tuples, np.int64).reshape(len(tuples), w)
    states = TaskMultiset.from_rows(grid, t)
    results = [assignfn(s) for s in states]
    groups = _rest_groups(grid)
    rests, g = groups.shape
    if g < 2:
        return 0, None
    universe = results[0].w
    if any(r.w != universe for r in results):
        raise ValueError("assignments over different worker universes")
    tasks = np.zeros((len(results), universe), dtype=np.int64)
    rows = np.arange(len(results)).repeat([r.workers.size for r in results])
    workers = np.concatenate([r.workers for r in results], dtype=np.int64, casting="unsafe")
    tasks[rows, workers - 1] = np.concatenate([r.tasks for r in results], dtype=np.int64, casting="unsafe")
    costs = np.zeros((rests, g, g), np.min_scalar_type(universe))
    for col in tasks.T:
        at = col[groups]
        costs += at[:, :, None] != at[:, None, :]
    best = costs.max()  # each pair's cost is in both triangles, and the diagonal holds 0
    hit = costs == best
    hit &= np.triu(np.ones((g, g), bool), 1)  # each pair once, as (i, j) with i < j
    row, i = np.nonzero(hit.any(axis=2))
    a, b = groups[row, i], groups[row, hit.argmax(axis=2)[row, i]]
    first = np.lexsort((b, a))[0]
    return int(best), (states[a[first]], states[b[first]])


def verify_disperser(family: DisperserFamily) -> bool:
    """Exhaustively check the covering property over every large-enough subset.

    For each ``S`` with ``|S| >= 2**k_param`` the seed-annotated image must
    cover at least ``(1 - epsilon) * M * D`` cells. Adding an element to
    ``S`` never uncovers a cell, so coverage is monotone in ``S`` and the
    subsets of exactly ``2**k_param`` elements decide it. Only feasible for
    small domains; cost grows with ``C(N, 2**k_param)``.
    """
    size = 2**family.k_param
    if size > family.N:
        return True  # no qualifying subsets: vacuously a disperser
    need = (1.0 - family.epsilon) * family.M * family.D
    seeds = list(zip(*family.table))  # per seed, every element's bin
    covered = (sum(len({bins[s] for s in S}) for bins in seeds) for S in combinations(range(family.N), size))
    return all(cells >= need for cells in covered)


def disperser_search(
    N: int,
    D: int,
    M: int,
    k_param: int,
    epsilon: float,
    budget: SearchBudget | None = None,
    *,
    seed: int = 0,
) -> DisperserFamily | None:
    """Random-restart search for a verified disperser table; None if the budget ends first.

    Every returned family has passed :func:`verify_disperser`, so callers can
    treat it as ground truth for downstream checks.
    """
    if N > 32:
        raise ValueError("exhaustive verification is only feasible for N <= 32")
    budget = budget or SearchBudget(node_limit=20_000)
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    rng = Random(seed)
    for _ in range(budget.node_limit):
        if deadline is not None and time.monotonic() > deadline:
            return None
        candidate = DisperserFamily.random_table(N, D, M, k_param, epsilon, rng)
        if verify_disperser(candidate):
            return candidate
    return None


@dataclass(frozen=True)
class RamseyWitness:
    """``w+1`` tasks whose size-``w`` subsets all get the same assignment pattern.

    ``pattern[i-1]`` is the rank (1-based, within the sorted subset) of the
    task handed to worker ``i``; it is shared by every subset. The two extreme
    subsets then exhibit switching cost exactly ``w``.
    """

    vertices: tuple[int, ...]
    pattern: tuple[int, ...]


def _color_of(assignfn: AssignFn, subset: tuple[int, ...], t: int) -> tuple[int, ...]:
    T = TaskMultiset.from_elements(subset, t)
    rank = {task: r + 1 for r, task in enumerate(subset)}
    result = assignfn(T)
    return tuple(rank[task] for _, task in result.pairs)


def ramsey_witness(assignfn: AssignFn, w: int, t: int) -> RamseyWitness | None:
    """First ``w+1``-subset of ``[t]`` that is monochromatic under the assignment coloring.

    Colors each size-``w`` subset by the pattern of ranks its workers
    receive; a monochromatic ``w+1``-clique pins every worker to "shift one
    task up" between the two extreme subsets, which is verified before
    returning. The ``w+1``-subsets go in ``combinations`` order, each is
    given up at its first face whose color differs, and each face is
    colored by one call of ``assignfn`` and remembered, up to
    ``_COLORED_ELEMENTS`` subset elements in all; past that, a face is
    colored again each time it recurs.
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t < w + 1:
        return None
    colors: dict[tuple[int, ...], tuple[int, ...]] = {}

    def color(subset: tuple[int, ...]) -> tuple[int, ...]:
        if (pattern := colors.get(subset)) is None:
            pattern = _color_of(assignfn, subset, t)
            if len(colors) * w < _COLORED_ELEMENTS:
                colors[subset] = pattern
        return pattern

    for vertices in combinations(range(1, t + 1), w + 1):
        pattern = color(vertices[1:])
        if all(color(vertices[:k] + vertices[k + 1 :]) == pattern for k in range(1, w + 1)):
            low = TaskMultiset.from_elements(vertices[:-1], t)
            high = TaskMultiset.from_elements(vertices[1:], t)
            got = switching_cost(assignfn(low), assignfn(high))
            assert got == w, f"monochromatic witness must force cost {w}, saw {got}"
            return RamseyWitness(vertices, pattern)
    return None
