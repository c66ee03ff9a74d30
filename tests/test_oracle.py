import time
import tracemalloc
from itertools import combinations, permutations
from operator import ne
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowchurn import oracle
from lowchurn.assigner import DisperserFamily, build_schedule, assign, single_bin_family
from lowchurn.baselines import sorted_order
from lowchurn.core import Assignment, TaskMultiset, switching_cost
from lowchurn.oracle import (
    FeasibilityResult,
    RamseyWitness,
    SearchBudget,
    _bfs_order,
    _neighbors,
    _rest_groups,
    _rest_shape,
    _states,
    disperser_search,
    exact_feasible,
    exhaustive_max_switching,
    ramsey_witness,
    verify_disperser,
)


# The reference engine: the list-domain search, neighbor scan, every-size
# disperser check and pair-by-pair audit that the bitset search, the rest
# groups, ``verify_disperser`` and the task-matrix audit replaced, kept to
# test them against. None of it calls the library's adjacency code.
def reference_neighbors(states: list[tuple[int, ...]], t: int) -> list[list[int]]:
    """The plain neighbor scan: each state's adjacent states, by sorting every swapped tuple."""
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


def reference_bfs_order(states: list[tuple[int, ...]], neighbors: list[list[int]]) -> list[int]:
    """The level-by-level search that ``_bfs_order`` replaced: one sorted queue per level, then the unreached."""
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


def reference_verify_disperser(family: DisperserFamily) -> bool:
    """The covering check over every subset of at least ``2**k_param`` elements, one size at a time."""
    need = (1.0 - family.epsilon) * family.M * family.D
    for size in range(2**family.k_param, family.N + 1):
        for S in combinations(range(1, family.N + 1), size):
            if sum(len({family.table[s - 1][d] for s in S}) for d in range(family.D)) < need:
                return False
    return True


def reference_max_switching(assignfn, w: int, t: int, multisets: bool):
    """``exhaustive_max_switching`` as a loop over the adjacent pairs, one ``switching_cost`` each."""
    tuples = _states(w, t, multisets)
    states = [TaskMultiset.from_elements(s, t) for s in tuples]
    results = [assignfn(s) for s in states]
    best, witness = 0, None
    for a, adjacent in enumerate(reference_neighbors(tuples, t)):
        for b in adjacent:
            if b < a:
                continue  # each pair once, as (a, b) with a < b
            cost = switching_cost(results[a], results[b])
            if cost > best or witness is None:
                best, witness = cost, (states[a], states[b])
    return best, witness


def drawn_assignfn(rng: Random, w: int, t: int, spare: int):
    """An assignment function over ``w + spare`` workers that draws each state's result once and keeps it.

    A result's workers are drawn from ``1..w + spare``, so not always
    ``1..size``, and its tasks from ``[1, t]``.
    """
    drawn = {}

    def assignfn(T):
        if T not in drawn:
            workers = sorted(rng.sample(range(1, w + spare + 1), len(T)))
            drawn[T] = Assignment(w + spare, [(x, rng.randint(1, t)) for x in workers])
        return drawn[T]

    return assignfn


def rest_group_pairs(groups: np.ndarray) -> list[tuple[int, int]]:
    """Every pair ``(x, y)``, ``x < y``, within a row of ``groups``, in ``(x, y)`` order, repeats kept."""
    return sorted(pair for group in groups.tolist() for pair in combinations(group, 2))


def reference_pairs(states: list[tuple[int, ...]], t: int) -> list[tuple[int, int]]:
    return [(x, y) for x, adjacent in enumerate(reference_neighbors(states, t)) for y in adjacent if x < y]


def reference_exact_feasible(
    w: int,
    t: int,
    target_k: int,
    *,
    multisets: bool = False,
    budget: SearchBudget | None = None,
) -> FeasibilityResult:
    """The plain search: ``exact_feasible`` with list domains, filtered by Hamming distance."""
    if target_k < 0:
        raise ValueError("target switching cost must be >= 0")
    budget = budget or SearchBudget()
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit

    states = _states(w, t, multisets)
    neighbors = reference_neighbors(states, t)

    order = reference_bfs_order(states, neighbors)
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


class TestExactFeasible:
    def test_single_worker_must_move(self):
        assert exact_feasible(1, 3, 1).verdict == "feasible"
        assert exact_feasible(1, 3, 0).verdict == "infeasible"

    def test_three_state_multiset_instance(self):
        # {1,1},{1,2},{2,2}: assign (1,1),(1,2),(2,2); each adjacent move costs 1.
        res = exact_feasible(2, 2, 1, multisets=True)
        assert res.verdict == "feasible"
        sol = res.solution
        for a, b in combinations(sol, 2):
            diff = sum(x != y for x, y in zip(sol[a], sol[b]))
            if TaskMultisetPair.adjacent(a, b):
                assert diff <= 1

    def test_feasible_at_k_equals_w(self):
        # Trivial upper bound: any function stays within w.
        assert exact_feasible(3, 5, 3).verdict == "feasible"

    def test_monotone_in_target(self):
        verdicts = [exact_feasible(2, 4, k).verdict for k in (0, 1, 2)]
        seen_feasible = False
        for v in verdicts:
            if v == "feasible":
                seen_feasible = True
            assert v == "feasible" or not seen_feasible

    def test_solution_is_certified(self):
        res = exact_feasible(3, 4, 2)
        if res.verdict != "feasible":
            pytest.skip("instance not feasible at this target")
        sol = res.solution
        for a, b in combinations(sol, 2):
            if TaskMultisetPair.adjacent(a, b):
                assert sum(x != y for x, y in zip(sol[a], sol[b])) <= 2
        for state, cand in sol.items():
            assert sorted(cand) == list(state)

    def test_budget_exhaustion(self):
        res = exact_feasible(3, 5, 2, budget=SearchBudget(node_limit=1))
        assert res.verdict == "budget_exhausted"

    def test_sets_need_enough_tasks(self):
        with pytest.raises(ValueError):
            exact_feasible(3, 2, 1)

    def test_budget_and_target_are_checked(self):
        with pytest.raises(ValueError, match="^node_limit must be >= 1$"):
            SearchBudget(node_limit=0)
        with pytest.raises(ValueError, match="^target switching cost must be >= 0$"):
            exact_feasible(3, 5, -1)

    @pytest.mark.parametrize("time_limit", [float("nan"), -float("nan")])
    def test_nan_time_limit_is_rejected(self, time_limit):
        # Every comparison with NaN is false, so a NaN deadline would never end a search.
        with pytest.raises(ValueError, match="^time_limit must not be NaN$"):
            SearchBudget(time_limit=time_limit)

    def test_deep_search_needs_no_recursion(self):
        # 1770 states, one search level each: deeper than the interpreter's
        # recursion limit, inside the CLI's 20 000-state cap.
        res = exact_feasible(2, 60, 2)
        assert res.verdict == "feasible"
        assert res.nodes == 1770

    def test_node_counts_pinned(self):
        # Exact node counts of the search order; any change to the visiting
        # order or the pruning shows here.
        assert exact_feasible(3, 5, 2).nodes == 55
        assert exact_feasible(3, 5, 3).nodes == 10
        assert exact_feasible(3, 5, 2, multisets=True).nodes == 92_971
        res = exact_feasible(4, 8, 3, budget=SearchBudget(node_limit=20_000))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 20_001)
        # Nearly all of this tree is replayed from failed subtrees, and counted node by node.
        assert exact_feasible(4, 6, 2, multisets=True).nodes == 7_514_973

    @pytest.mark.parametrize("keys", [1, 8, 64])
    def test_positions_that_stop_caching_keep_the_counts(self, monkeypatch, keys):
        # A position that has kept this many failed subtrees and replayed none
        # drops them and keeps no more; at these limits most positions do,
        # and the counts, verdicts and solutions stay the plain search's.
        want = [exact_feasible(2, 60, 2), exact_feasible(3, 5, 3, multisets=True)]
        monkeypatch.setattr(oracle, "_UNUSED_KEYS", keys)
        assert exact_feasible(3, 5, 2).nodes == 55
        assert exact_feasible(3, 5, 2, multisets=True).nodes == 92_971
        res = exact_feasible(4, 8, 3, budget=SearchBudget(node_limit=20_000))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 20_001)
        assert [exact_feasible(2, 60, 2), exact_feasible(3, 5, 3, multisets=True)] == want

    def test_deadline_ends_the_search_at_a_check(self):
        # The deadline is read every 4096 nodes, so an expired one ends the
        # search at node 4096.
        res = exact_feasible(3, 5, 2, multisets=True, budget=SearchBudget(time_limit=0.0))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 4096)

    def test_deadline_inside_a_replayed_subtree_ends_the_search_at_its_check(self):
        # Nodes 4007-4150 of this search replay a failed subtree, so node 4096 is
        # never visited; the replay reads the clock once and stops there.
        res = exact_feasible(3, 7, 2, multisets=True, budget=SearchBudget(time_limit=0.0))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 4096)

    def test_masks_are_built_at_most_once_per_node(self, monkeypatch):
        # Mask rows are built when a candidate is first tried, never ahead of
        # the search, so no mask work runs unchecked between two deadline
        # reads: an expired deadline stops this 2002-state instance at 4096
        # nodes with at most that many rows built.
        rows = []
        packbits = np.packbits
        monkeypatch.setattr(np, "packbits", lambda *a, **kw: rows.append(1) or packbits(*a, **kw))
        res = exact_feasible(5, 14, 4, budget=SearchBudget(time_limit=0.0))
        assert (res.verdict, res.nodes) == ("budget_exhausted", 4096)
        assert 0 < len(rows) <= res.nodes


def _both(args, multisets, limit):
    budget = SearchBudget(node_limit=limit) if limit else None
    return (
        exact_feasible(*args, multisets=multisets, budget=budget),
        reference_exact_feasible(*args, multisets=multisets, budget=budget),
    )


class TestAgainstReference:
    """The bitset search and neighbor scan against the reference engine.

    Results are compared whole: verdict, node count and solution map, so a
    ``budget_exhausted`` exit must come at the same node.
    """

    @settings(max_examples=150, deadline=None)
    @given(w=st.integers(1, 3), t=st.integers(1, 6), multisets=st.booleans(), data=st.data())
    @example(w=0, t=2, multisets=False, data=None)
    @example(w=3, t=5, multisets=True, data=None)
    def test_search_matches_reference(self, w, t, multisets, data):
        if not multisets and t < w:
            with pytest.raises(ValueError):
                exact_feasible(w, t, 0)
            return
        if data is None:  # searched to the end; w3t5k2-multi is infeasible at 92 971 nodes
            target_k, limit = min(w, 2), 100_000
        else:
            target_k = data.draw(st.integers(0, w), label="target_k")
            # A limit at or under the search's length (capped at 4000 nodes),
            # so most draws end in ``budget_exhausted`` and the rest finish.
            length = exact_feasible(w, t, target_k, multisets=multisets, budget=SearchBudget(node_limit=4000)).nodes
            limit = data.draw(st.integers(1, length), label="node_limit")
        ours, ref = _both((w, t, target_k), multisets, limit)
        assert ours == ref

    @pytest.mark.parametrize(
        "args, multisets, limit",
        [
            ((4, 6, 2), False, None),
            ((4, 6, 3), False, None),
            ((4, 7, 2), False, 3000),
            ((4, 8, 3), False, 3000),
            ((4, 4, 2), True, None),
            ((4, 5, 1), True, 3000),
            ((5, 6, 2), False, None),
            ((5, 7, 4), False, None),
            ((5, 8, 2), False, 1500),
            ((5, 10, 3), False, 2000),
            ((5, 4, 3), True, 3000),
            # Whole set searches, where failing candidates reorder mask rows most.
            ((4, 7, 3), False, None),
            ((5, 7, 3), False, None),
            ((4, 9, 3), False, 30_000),
        ],
    )
    def test_wider_instances_match_reference(self, args, multisets, limit):
        ours, ref = _both(args, multisets, limit)
        assert ours == ref

    @pytest.mark.parametrize("limit", [51, 85, 86, 8_192, 8_355, 31_000, 62_000, 91_248])
    def test_budget_inside_a_replayed_subtree_matches_reference(self, limit):
        # w3t5k2-multi replays 85 872 of its 92 971 nodes from failed subtrees,
        # among them nodes 52-86, 8160-8355, 30 998-31 856, 61 988-62 846 and
        # 90 390-91 248. A limit inside one, or at either end, must stop at the
        # node where the plain search stops.
        ours, ref = _both((3, 5, 2), True, limit)
        assert ours == ref

    @settings(max_examples=100, deadline=None)
    @given(w=st.integers(0, 4), t=st.integers(1, 8), multisets=st.booleans())
    def test_neighbors_match_reference(self, w, t, multisets):
        if not multisets and t < w:
            return
        states = _states(w, t, multisets)
        grid = np.array(states, np.int64).reshape(len(states), w)
        assert _neighbors(_rest_groups(grid), len(states)) == reference_neighbors(states, t)

    @settings(max_examples=100, deadline=None)
    @given(w=st.integers(0, 4), t=st.integers(1, 9), multisets=st.booleans())
    @example(w=3, t=3, multisets=False)
    @example(w=4, t=4, multisets=True)
    def test_bfs_order_matches_reference(self, w, t, multisets):
        if not multisets and t < w:
            return
        states = _states(w, t, multisets)
        neighbors = reference_neighbors(states, t)
        assert _bfs_order(states, neighbors) == reference_bfs_order(states, neighbors)

    @settings(max_examples=100, deadline=None)
    @given(graph=st.integers(1, 12).flatmap(lambda n: st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)))
    def test_bfs_order_matches_reference_on_any_graph(self, graph):
        # Directed, possibly disconnected: unreached states come last, in index order.
        neighbors = [sorted(nbs) for nbs in graph]
        states = [()] * len(graph)
        assert _bfs_order(states, neighbors) == reference_bfs_order(states, neighbors)


class TaskMultisetPair:
    @staticmethod
    def adjacent(a: tuple, b: tuple) -> bool:
        from lowchurn.core import TaskMultiset, is_adjacent

        t = max(max(a), max(b))
        return is_adjacent(
            TaskMultiset.from_elements(a, t), TaskMultiset.from_elements(b, t)
        )


class TestExhaustiveMaxSwitching:
    def test_sorted_small_sets(self):
        worst, witness = exhaustive_max_switching(lambda T: sorted_order(T, 2), 2, 3)
        assert worst <= min(3 - 1, 2)
        assert witness is not None

    def test_single_task_universe_has_no_pairs(self):
        worst, witness = exhaustive_max_switching(
            lambda T: sorted_order(T, 3), 3, 1, multisets=True
        )
        assert worst == 0
        assert witness is None

    def test_pipeline_respects_round_bound(self):
        s = build_schedule(3, 4, c=4, master_seed=6)
        worst, witness = exhaustive_max_switching(
            lambda T: assign(s, T).assignment, 3, 4, multisets=True
        )
        assert worst <= 4 * s.total_rounds
        assert witness is not None

    def test_audit_dominates_exact_optimum(self):
        # Cross-check between the two engines on w=2, t=3 task sets.
        optimum = next(
            k for k in range(0, 3) if exact_feasible(2, 3, k).verdict == "feasible"
        )
        worst, _ = exhaustive_max_switching(lambda T: sorted_order(T, 2), 2, 3)
        assert worst >= optimum

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.integers(1, 5),
        t=st.integers(1, 6),
        multisets=st.booleans(),
        spare=st.integers(0, 3),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_the_pair_loop(self, w, t, multisets, spare, rng):
        assume(multisets or t >= w)
        assignfn = drawn_assignfn(rng, w, t, spare)
        assert exhaustive_max_switching(assignfn, w, t, multisets=multisets) == reference_max_switching(
            assignfn, w, t, multisets
        )

    def test_matches_the_pair_loop_past_an_int64_rest_code(self):
        # A rest of 62 slots over [2] read as one positional code needs 62
        # base-3 digits, past int64; the pairs compare rests column by column.
        assignfn = drawn_assignfn(Random(5), 63, 2, 2)
        got = exhaustive_max_switching(assignfn, 63, 2, multisets=True)
        assert got == reference_max_switching(assignfn, 63, 2, True)
        assert got[0] > 0

    def test_matches_the_pair_loop_where_int64_rest_codes_collide(self):
        # At w=34, t=3 on multisets a rest has 33 slots. Read as one positional
        # code in base t + 1 = 4, wrapped to int64, slot 32 weighs 4**32 = 2**64
        # and drops out, so rests that differ only there share a code: such a
        # code would pair states that are not adjacent.
        w, t = 34, 3
        tuples = _states(w, t, True)
        states = np.array(tuples)
        drop = np.arange(1, w) - (np.arange(w - 1) < np.arange(w)[:, None])
        rests = np.unique(states[:, drop].reshape(-1, w - 1), axis=0)
        codes = rests @ ((t + 1) ** np.arange(w - 1, dtype=np.uint64)).view(np.int64)
        assert np.unique(codes).size < len(rests)
        assert rest_group_pairs(_rest_groups(states)) == reference_pairs(tuples, t)
        # Sorted order moves at most 2 workers over an adjacent pair here, and 3
        # over a pair whose rests differ only in slot 32.
        assignfn = _sorted_fn(w)
        got = exhaustive_max_switching(assignfn, w, t, multisets=True)
        assert got == reference_max_switching(assignfn, w, t, True) and got[0] == 2

    def test_a_tie_keeps_the_first_pair_in_state_order(self):
        # Over the 2-sets of [4], pairs (0, 3) and (1, 2) both reach cost 2 and
        # every other pair costs at most 1. In (a, b) order (0, 3) comes first;
        # in the order of their rests, or of b, (1, 2) does.
        tasks = {(1, 2): (1, 1), (1, 3): (1, 2), (1, 4): (2, 1), (2, 3): (2, 2), (2, 4): (2, 1), (3, 4): (2, 2)}

        def assignfn(T):
            return Assignment(2, list(zip((1, 2), tasks[T.elements()])))

        worst, witness = exhaustive_max_switching(assignfn, 2, 4)
        assert (worst, witness[0].elements(), witness[1].elements()) == (2, (1, 2), (2, 3))
        assert (worst, witness) == reference_max_switching(assignfn, 2, 4, False)

    @pytest.mark.parametrize(
        "w, t, multisets",
        [(4, 10, True), (3, 5, True), (3, 5, False), (4, 8, False), (2, 60, False), (1, 5, True),
         (63, 2, True), (40, 2, True), (0, 3, True), (1, 1, True), (3, 3, False)],
    )
    def test_adjacent_pairs_are_the_neighbor_lists(self, w, t, multisets):
        # Each rest group holds every state that extends its rest, so all
        # groups have one size; each adjacent pair shares exactly one group.
        states = _states(w, t, multisets)
        groups = _rest_groups(np.array(states, np.int64).reshape(len(states), w))
        if w:
            assert groups.shape[1] == (t if multisets else t - w + 1)
            assert groups.shape == _rest_shape(w, t, multisets)  # the CLI's pair caps read this
        else:  # the one empty state has no rest
            assert not groups.size and _rest_shape(w, t, multisets) == (0, 0)
        assert rest_group_pairs(groups) == reference_pairs(states, t)

    def test_peak_memory_stays_with_the_groups_not_the_pairs(self):
        # The 11 175 2-sets of [150] have 1.66M adjacent pairs in 150 rest
        # groups of 149: the audit's count array is 3.3 MB of uint8, where a
        # list of the pairs as index arrays peaked at about 100 MB.
        tracemalloc.start()
        try:
            worst, witness = exhaustive_max_switching(lambda T: sorted_order(T, 2), 2, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (worst, witness[0].format(), witness[1].format()) == (2, "1,2", "2,3")
        assert peak < 40 << 20, peak

    def test_results_over_different_universes_are_refused(self):
        def assignfn(T):
            return Assignment(len(T) + T.tasks[0].item(), [(x, 1) for x in range(1, len(T) + 1)])

        with pytest.raises(ValueError, match="different worker universes"):
            exhaustive_max_switching(assignfn, 2, 3)


class TestDispersers:
    def test_single_bin_always_qualifies(self):
        rng = Random(3)
        for _ in range(10):
            fam = DisperserFamily.random_table(6, 3, 1, k_param=1, epsilon=0.0, rng=rng)
            assert verify_disperser(fam)

    def test_constant_table_fails(self):
        fam = DisperserFamily(4, 2, 2, 1, 0.25, tuple((0, 0) for _ in range(4)))
        assert not verify_disperser(fam)

    def test_verdict_matches_every_size_reference(self):
        # The check over subsets of exactly 2**k_param elements against the one over every larger size too.
        rng = Random(17)
        verdicts = []
        for _ in range(400):
            N, D, M, k_param = rng.randint(1, 7), rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
            fam = DisperserFamily.random_table(N, D, M, k_param, rng.choice([0.0, 0.25, 0.5]), rng)
            verdicts.append(verify_disperser(fam))
            assert verdicts[-1] == reference_verify_disperser(fam), fam
        assert True in verdicts and False in verdicts

    def test_search_finds_tiny_disperser(self):
        fam = disperser_search(4, 2, 2, k_param=1, epsilon=0.25, seed=1)
        assert fam is not None
        assert verify_disperser(fam)
        # For these parameters the property forces jointly injective rows.
        assert len(set(fam.table)) == 4

    def test_search_none_within_hopeless_budget(self):
        # One random table almost surely misses these parameters.
        fam = disperser_search(
            8, 6, 2, k_param=1, epsilon=0.05, budget=SearchBudget(node_limit=1), seed=0
        )
        assert fam is None

    def test_oversized_domain_rejected(self):
        with pytest.raises(ValueError):
            disperser_search(64, 2, 2, k_param=1, epsilon=0.25)

    def test_vacuous_when_no_subset_qualifies(self):
        fam = single_bin_family(2, 2, k_param=4)
        assert verify_disperser(fam)


def _sorted_fn(w):
    return lambda T: sorted_order(T, w)


class TestRamseyWitness:
    def test_single_worker_any_pair_is_witness(self):
        witness = ramsey_witness(_sorted_fn(1), 1, 3)
        assert witness == RamseyWitness((1, 2), (1,))

    def test_sorted_order_is_monochromatic(self):
        witness = ramsey_witness(_sorted_fn(2), 2, 4)
        assert witness is not None
        assert witness.vertices == (1, 2, 3)
        assert witness.pattern == (1, 2)

    def test_witness_forces_full_switch(self):
        w, t = 2, 4
        witness = ramsey_witness(_sorted_fn(w), w, t)
        low = TaskMultiset.from_elements(witness.vertices[:-1], t)
        high = TaskMultiset.from_elements(witness.vertices[1:], t)
        assert switching_cost(sorted_order(low, w), sorted_order(high, w)) == w

    def test_no_witness_for_parity_colored_function(self):
        # Color pairs by sum parity: no 3 vertices agree on all their pairs.
        def parity_fn(T: TaskMultiset):
            a, b = T.elements()
            from lowchurn.core import Assignment

            if (a + b) % 2 == 0:
                return Assignment.from_mapping({1: a, 2: b}, 2)
            return Assignment.from_mapping({1: b, 2: a}, 2)

        assert ramsey_witness(parity_fn, 2, 4) is None

    def test_universe_too_small(self):
        assert ramsey_witness(_sorted_fn(3), 3, 3) is None

    def test_mrbb_witness_at_w4_colors_each_subset_once(self):
        # Every 4-subset of [12] is colored at most once, and a 5-set is
        # given up at its first face of another color: at most C(12, 4) = 495
        # calls, witness check included, where coloring every face of every
        # 5-set took 1882.
        schedule, calls = build_schedule(4, 12, 4, 0), []
        witness = ramsey_witness(lambda T: calls.append(T) or assign(schedule, T).assignment, 4, 12)
        assert witness == RamseyWitness((2, 3, 5, 9, 12), (4, 2, 1, 3))
        assert len(calls) <= 495

    def test_a_full_memo_colors_faces_again(self, monkeypatch):
        # Past its bound the scan remembers no more colors: the same witness,
        # with faces colored again as they recur.
        monkeypatch.setattr(oracle, "_COLORED_ELEMENTS", 40)  # ten 4-subsets
        schedule, calls = build_schedule(4, 12, 4, 0), []
        witness = ramsey_witness(lambda T: calls.append(T) or assign(schedule, T).assignment, 4, 12)
        assert witness == RamseyWitness((2, 3, 5, 9, 12), (4, 2, 1, 3))
        assert 495 < len(calls) < 1882

    @pytest.mark.parametrize(("w", "t"), [(1, 4), (2, 4), (2, 5), (2, 7), (3, 5), (3, 6), (3, 7), (4, 6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_every_face_scan(self, w, t, seed):
        # The scan that colors all w + 1 faces of every (w+1)-set, calling the
        # function for each, gives the same first witness or none.
        schedule = build_schedule(w, t, 1, seed)
        fn = lambda T: assign(schedule, T).assignment  # noqa: E731

        def color(subset):
            assignment = fn(TaskMultiset.from_elements(subset, t))
            return tuple(subset.index(task) + 1 for _, task in assignment.pairs)

        want = None
        for vertices in combinations(range(1, t + 1), w + 1):
            colors = {color(vertices[:k] + vertices[k + 1 :]) for k in range(w + 1)}
            if len(colors) == 1:
                want = RamseyWitness(vertices, colors.pop())
                break
        assert ramsey_witness(fn, w, t) == want
