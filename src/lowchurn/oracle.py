"""Exact and exhaustive verification engines.

Four tools live here, all exact within their budgets:

* :func:`exact_feasible` decides by backtracking whether *any* assignment
  function on a small instance can keep every adjacent transition at or below
  a target switching cost. States are visited in BFS order from the
  lexicographically smallest one so each new state is already constrained by
  fixed neighbors, and the first state is pinned to sorted order (worker
  relabeling is a symmetry of the problem). Domains are bitsets, pruned with
  one ``&`` per neighbor against masks built on first use within the call.
* :func:`exhaustive_max_switching` measures the true worst adjacent transition
  of a concrete assignment function by enumerating every adjacent pair.
* :func:`disperser_search` hunts for tiny verified strong-disperser tables by
  random restarts, with :func:`verify_disperser` as the exhaustive
  subset-by-subset check.
* :func:`ramsey_witness` scans for ``w+1`` tasks whose size-``w`` subsets all
  receive the same assignment pattern; such a configuration forces a
  transition that reassigns every worker.

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
    if multisets:
        if t < 1 <= w:
            raise ValueError(f"no size-{w} task multisets exist over [{t}]")
        return [tuple(s) for s in combinations_with_replacement(range(1, t + 1), w)]
    if t < w:
        raise ValueError(f"no size-{w} task sets exist over [{t}]")
    return [tuple(s) for s in combinations(range(1, t + 1), w)]


def _neighbors(states: list[tuple[int, ...]]) -> list[list[int]]:
    """Each state's adjacent states, as ascending index lists.

    Two states of one size are adjacent exactly when they share a ``rest``,
    a sorted tuple less one element: swapping one element keeps the rest of
    the tuple. So the states are grouped by each of their rests, and a
    state's neighbors are the union of its rests' groups, less the state
    itself.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    member_of = [[groups.setdefault(state[:i] + state[i + 1 :], []) for i in range(len(state))] for state in states]
    for me, mine in enumerate(member_of):
        for group in mine:
            group.append(me)
    out = []
    for me, mine in enumerate(member_of):
        found = set().union(*mine)
        found.discard(me)
        out.append(sorted(found))
    return out


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
    """
    if target_k < 0:
        raise ValueError("target switching cost must be >= 0")
    budget = budget or SearchBudget()
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit

    states = _states(w, t, multisets)
    neighbors = _neighbors(states)

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
    # Zero rows pad each array to whole bytes, so a neighbor's mask is one slice of the packed bits.
    cands = [np.concatenate([c, np.zeros((-len(c) % 8, w), dtype)]) for c in cands]
    # Each position's not-yet-placed neighbors, in the order they are pruned;
    # none at target_k >= w, where every pair of candidates is within reach.
    prunable = neighbors if target_k < w else [[] for _ in states]
    later = [[q for q in map(position.__getitem__, prunable[idx]) if q > p] for p, idx in enumerate(order)]
    masks: list[dict[int, list[tuple[int, int]]]] = [{} for _ in order]

    def mask_row(p: int, j: int) -> list[tuple[int, int]]:
        """``(q, mask)`` for each later neighbor ``q`` of ``p`` that candidate ``j`` prunes."""
        diff = np.concatenate([cands[q] for q in later[p]]) != cands[p][j]
        packed = np.packbits(np.count_nonzero(diff, axis=1) <= target_k, bitorder="little").tobytes()
        bounds = [0, *accumulate(len(cands[q]) // 8 for q in later[p])]
        row = [(q, int.from_bytes(packed[a:b], "little")) for q, a, b in zip(later[p], bounds, bounds[1:])]
        return [(q, mask) for q, mask in row if ~mask & full[q]]  # an all-ones mask prunes nothing

    nodes = 0

    # Depth-first over positions with an explicit stack: ``next_cand[p]`` is
    # the bit after the one placed at position ``p`` and ``trails[p]`` undoes
    # the pruning done by it.
    depth = len(order)
    next_cand = [0] * (depth + 1)
    trails: list[list[tuple[int, int]] | None] = [None] * depth
    pos = 0
    found = True
    while pos < depth:
        trail = trails[pos]
        if trail is not None:  # back from a failed subtree: undo its candidate
            for q, old in trail:
                domains[q] = old
            trails[pos] = None
        j = next_cand[pos] - 1
        bits = domains[pos] >> next_cand[pos]
        while bits:
            step = (bits & -bits).bit_length()
            bits >>= step
            j += step
            nodes += 1
            if nodes > budget.node_limit or (
                deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline
            ):
                return FeasibilityResult("budget_exhausted", None, nodes)
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
            pos -= 1
            continue
        pos += 1
        next_cand[pos] = 0

    if not found:
        return FeasibilityResult("infeasible", None, nodes)
    solution = {states[idx]: tuple(cands[pos][next_cand[pos] - 1].tolist()) for pos, idx in enumerate(order)}
    return FeasibilityResult("feasible", solution, nodes)


def exhaustive_max_switching(
    assignfn: AssignFn, w: int, t: int, *, multisets: bool = False
) -> tuple[int, tuple[TaskMultiset, TaskMultiset] | None]:
    """Exact maximum switching cost of ``assignfn`` over every adjacent state pair.

    Returns the maximum and a witness pair, or ``(0, None)`` when the
    instance has no adjacent pairs at all (e.g. ``t == 1``).
    """
    tuples = _states(w, t, multisets)
    states = [TaskMultiset.from_elements(s, t) for s in tuples]
    results = [assignfn(s) for s in states]
    best = 0
    witness: tuple[TaskMultiset, TaskMultiset] | None = None
    for a_idx, adjacent in enumerate(_neighbors(tuples)):
        for b_idx in adjacent:
            if b_idx < a_idx:
                continue  # each pair once, as (a, b) with a < b
            cost = switching_cost(results[a_idx], results[b_idx])
            if cost > best or witness is None:
                best = cost
                witness = (states[a_idx], states[b_idx])
    return best, witness


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
    returning.
    """
    if t < w + 1:
        return None
    for vertices in combinations(range(1, t + 1), w + 1):
        colors = {
            _color_of(assignfn, tuple(v for k, v in enumerate(vertices) if k != skip), t)
            for skip in range(w + 1)
        }
        if len(colors) == 1:
            pattern = colors.pop()
            low = TaskMultiset.from_elements(vertices[:-1], t)
            high = TaskMultiset.from_elements(vertices[1:], t)
            got = switching_cost(assignfn(low), assignfn(high))
            assert got == w, f"monochromatic witness must force cost {w}, saw {got}"
            return RamseyWitness(vertices, pattern)
    return None
