"""Exact and exhaustive verification engines.

Four tools live here, all exact within their budgets:

* :func:`exact_feasible` decides by backtracking whether *any* assignment
  function on a small instance can keep every adjacent transition at or below
  a target switching cost. States are visited in BFS order from the
  lexicographically smallest one so each new state is already constrained by
  fixed neighbors, and the first state is pinned to sorted order (worker
  relabeling is a symmetry of the problem).
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
from itertools import combinations, combinations_with_replacement, permutations
from operator import ne
from random import Random
from typing import Callable, Iterable, Literal

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


def _neighbors(states: list[tuple[int, ...]], t: int) -> list[list[int]]:
    """Each state's adjacent states, as ascending index lists.

    A neighbor swaps one element of a sorted state tuple for another task in
    ``[1, t]``; the sorted result is looked up in a state-to-index table, so
    the scan costs ``len(states) * w * t`` lookups instead of a test of every
    pair of states.
    """
    index = {state: i for i, state in enumerate(states)}
    out = []
    for state in states:
        found = set()
        for i, old in enumerate(state):
            rest = state[:i] + state[i + 1 :]
            swapped = (tuple(sorted(rest + (new,))) for new in range(1, t + 1) if new != old)
            found.update(map(index.get, swapped))
        found.discard(None)
        out.append(sorted(found))
    return out


def _bfs_order(states: list[tuple[int, ...]], neighbors: list[list[int]]) -> list[int]:
    order: list[int] = []
    seen = [False] * len(states)
    queue = [0]
    seen[0] = True
    while queue:
        nxt: list[int] = []
        for idx in queue:
            order.append(idx)
            for nb in neighbors[idx]:
                if not seen[nb]:
                    seen[nb] = True
                    nxt.append(nb)
        queue = sorted(nxt)
    order.extend(i for i in range(len(states)) if not seen[i])
    return order


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
    """
    if target_k < 0:
        raise ValueError("target switching cost must be >= 0")
    budget = budget or SearchBudget()
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit

    states = _states(w, t, multisets)
    neighbors = _neighbors(states, t)

    order = _bfs_order(states, neighbors)
    position = {idx: pos for pos, idx in enumerate(order)}

    all_candidates = [sorted(set(permutations(state))) for state in states]
    # Worker relabeling permutes every state's tuple the same way, so the
    # first state can be pinned to its sorted assignment.
    all_candidates[order[0]] = [states[order[0]]]

    # Per-position domains, rewritten destructively with an undo trail.
    domains: list[list[tuple[int, ...]]] = [all_candidates[idx] for idx in order]
    chosen: list[tuple[int, ...] | None] = [None] * len(order)
    nodes = 0

    # Depth-first over positions with an explicit stack: ``next_cand[p]`` is
    # the index of the next candidate to try at position ``p`` and
    # ``trails[p]`` undoes the pruning done by its current one.
    depth = len(order)
    next_cand = [0] * (depth + 1)
    trails: list[list[tuple[int, list[tuple[int, ...]]]] | None] = [None] * depth
    pos = 0
    found = True
    while pos < depth:
        trail = trails[pos]
        if trail is not None:  # back from a failed subtree: undo its candidate
            for nb_pos, old in trail:
                domains[nb_pos] = old
            chosen[pos] = None
            trails[pos] = None
        state_idx = order[pos]
        domain = domains[pos]
        for idx in range(next_cand[pos], len(domain)):
            cand = domain[idx]
            nodes += 1
            if nodes > budget.node_limit or (
                deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline
            ):
                return FeasibilityResult("budget_exhausted", None, nodes)
            chosen[pos] = cand
            trail = []
            ok = True
            for nb in neighbors[state_idx]:
                nb_pos = position[nb]
                if chosen[nb_pos] is not None:
                    continue  # already checked when that neighbor was placed
                # Keep candidates within target_k positions of ``cand``.
                pruned = [c for c in domains[nb_pos] if sum(map(ne, c, cand)) <= target_k]
                if len(pruned) != len(domains[nb_pos]):
                    trail.append((nb_pos, domains[nb_pos]))
                    domains[nb_pos] = pruned
                if not pruned:
                    ok = False
                    break
            if ok:
                next_cand[pos] = idx + 1
                trails[pos] = trail
                break
            for nb_pos, old in trail:
                domains[nb_pos] = old
            chosen[pos] = None
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
    solution = {states[idx]: chosen[pos] for pos, idx in enumerate(order)}
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
    for a_idx, adjacent in enumerate(_neighbors(tuples, t)):
        for b_idx in adjacent:
            if b_idx < a_idx:
                continue  # each pair once, as (a, b) with a < b
            cost = switching_cost(results[a_idx], results[b_idx])
            if cost > best or witness is None:
                best = cost
                witness = (states[a_idx], states[b_idx])
    return best, witness


def _qualifying_subsets(N: int, min_size: int) -> Iterable[tuple[int, ...]]:
    for size in range(min_size, N + 1):
        yield from combinations(range(1, N + 1), size)


def verify_disperser(family: DisperserFamily) -> bool:
    """Exhaustively check the covering property over every large-enough subset.

    For each ``S`` with ``|S| >= 2**k_param`` the seed-annotated image must
    cover at least ``(1 - epsilon) * M * D`` cells. Only feasible for small
    domains; cost grows with ``2**N``.
    """
    need = (1.0 - family.epsilon) * family.M * family.D
    table = family.table
    D = family.D
    min_size = 2**family.k_param
    if min_size > family.N:
        return True  # no qualifying subsets: vacuously a disperser
    for S in _qualifying_subsets(family.N, min_size):
        cells = 0
        for d in range(D):
            cells += len({table[s - 1][d] for s in S})
        if cells < need:
            return False
    return True


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
