"""Correctness checks applied to every output the benchmark times.

Each check is a pure function of an output and what the benchmark knows
independently of the library, so the self-check can feed it a deliberately
corrupted output and see it fire. None of them calls a function the tracer
wraps, so checking adds no spans.
"""
from __future__ import annotations

from collections import Counter


def churn_ok(churn: int, total_rounds: int, fallback_free: bool) -> bool:
    """The paper's end-to-end bound: an adjacent step moves at most ``4 * R`` workers.

    Only fallback-free pairs carry the guarantee.
    """
    return not fallback_free or churn <= 4 * total_rounds


def code_ok(coords: tuple[int, ...], support: tuple[int, ...]) -> bool:
    """A code's coordinates are a permutation of the vector's support."""
    return len(coords) == len(support) and Counter(coords) == Counter(support)


def embed_pair_ok(code_distance: int, support_x: frozenset[int], support_y: frozenset[int]) -> bool:
    """``Ham(code_x, code_y) >= |T(x) \\ T(y)|`` and ``>= Ham(x, y) / 2`` for binary vectors."""
    one_sided = len(support_x - support_y)
    input_distance = len(support_x ^ support_y)
    return code_distance >= one_sided and 2 * code_distance >= input_distance


def churn(a, b) -> int:
    """Workers whose task differs between two assignments, computed without the library."""
    ma, mb = dict(a.pairs), dict(b.pairs)
    return sum(ma.get(x) != mb.get(x) for x in ma.keys() | mb.keys())


def witness_ok(max_cost: int, witness, assign_fn) -> bool:
    """The exhaustive maximum is attained on its witness: two adjacent inputs that far apart."""
    if witness is None:
        return max_cost == 0
    a, b = witness
    adjacent = len(a) == len(b) and len(a.difference(b)) == 1 and len(b.difference(a)) == 1
    return adjacent and churn(assign_fn(a), assign_fn(b)) == max_cost


def verdict_ok(result, expected_verdict: str, expected_nodes: int | None) -> bool:
    """An exact-oracle verdict, and where it is fixed by a budget, its node count."""
    if result.verdict != expected_verdict:
        return False
    return expected_nodes is None or result.nodes == expected_nodes
