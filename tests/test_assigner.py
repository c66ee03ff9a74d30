import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowchurn import assigner, harness
from lowchurn.assigner import (
    AssignSession,
    DisperserFamily,
    RoundSchedule,
    SeededRounds,
    TableRounds,
    assign,
    assign_set,
    bins_for_round,
    build_schedule,
    explicit_schedule,
    outer_round_count,
    seed_sweep,
    single_bin_family,
    trivial_families,
)
from lowchurn.baselines import sorted_order
from lowchurn.binhash import BinHash, _bin_of, is_matching
from lowchurn.core import (
    Assignment,
    TaskMultiset,
    WorkerTaskInput,
    adjacent_step,
    random_multiset,
    switching_cost,
)
from lowchurn.embed import SparseVector, embed_with_result
from lowchurn.hashing import GOLDEN, MASK64, MUL1, MUL2, bins_np, derive
from lowchurn.reduction import decode, id_dtype, lift, lift_np
from reference import run_stages, stages


def ms(*elements, t=8):
    return TaskMultiset.from_elements(elements, t)


def oracle_outer(w):
    """Independent ceil(log_1.1 w) floor-one oracle via exact fractions."""
    i = 1
    while Fraction(11, 10) ** i < w:
        i += 1
    return i


def oracle_bins(w, i):
    return max(1, math.ceil(Fraction(w) / Fraction(11, 10) ** i))


class TestScheduleArithmetic:
    def test_degenerate_single_worker(self):
        s = build_schedule(1, 5, c=4, master_seed=0)
        assert set(s.rounds.ij[0].tolist()) == {1}
        assert all(k == 1 for k in s.rounds.ks.tolist())

    def test_spec_scale_point(self):
        # w=16, t=4, c=4: 30 outer rounds x 24 repetitions.
        s = build_schedule(16, 4, c=4, master_seed=0)
        assert outer_round_count(16) == oracle_outer(16) == 30
        n = 64
        reps = 4 * max(1, math.ceil(math.log2(n)))
        assert reps == 24
        assert s.total_rounds == 30 * 24 == 720

    def test_exact_log_helpers_match_fraction_oracle(self):
        for w in list(range(1, 70)) + [100, 128, 1000]:
            assert outer_round_count(w) == oracle_outer(w), w
            for i in (1, 2, 5, outer_round_count(w)):
                assert bins_for_round(w, i) == oracle_bins(w, i), (w, i)

    def test_bins_non_increasing_and_reach_one(self):
        for w in (1, 2, 7, 16, 64):
            s = build_schedule(w, 3, c=2, master_seed=1)
            ks = s.rounds.ks.tolist()
            assert all(a >= b for a, b in zip(ks, ks[1:]))
            assert ks[-1] == 1

    def test_deterministic(self):
        a = build_schedule(6, 5, c=3, master_seed=42)
        b = build_schedule(6, 5, c=3, master_seed=42)
        inp = WorkerTaskInput(frozenset({1, 3, 5}), frozenset({2, 8, 13}))
        assert np.array_equal(a.rounds.ij, b.rounds.ij) and np.array_equal(a.rounds.ks, b.rounds.ks)
        for sa, sb in zip(stages(a.rounds), stages(b.rounds)):
            assert sa.apply(inp) == sb.apply(inp)

    def test_bad_params_rejected(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                build_schedule(*bad)


class TestAssignSet:
    def test_empty(self):
        s = build_schedule(4, 4)
        res = assign_set(s, [], [])
        assert res.assignment.pairs == ()
        assert res.fallback_pairs == 0

    def test_singleton_forced(self):
        s = build_schedule(4, 4)
        res = assign_set(s, [2], [9])
        assert res.assignment.mapping == {2: 9}

    def test_unbalanced_rejected(self):
        s = build_schedule(4, 4)
        with pytest.raises(ValueError):
            assign_set(s, [1], [])

    def test_out_of_range_rejected(self):
        s = build_schedule(4, 4)
        with pytest.raises(ValueError):
            assign_set(s, [5], [1])
        with pytest.raises(ValueError):
            assign_set(s, [1], [17])

    def test_exhaustive_perfect_matching_small(self):
        # Every (W, T) with W in [4], T in [8], |W|=|T|: 495 inputs.
        s = build_schedule(4, 2, c=4, master_seed=3)
        count = 0
        for j in range(0, 5):
            for W in combinations(range(1, 5), j):
                for T in combinations(range(1, 9), j):
                    res = assign_set(s, W, T)
                    count += 1
                    assert is_matching(res.assignment.pairs)
                    assert {w for w, _ in res.assignment.pairs} == set(W)
                    assert {t for _, t in res.assignment.pairs} == set(T)
        assert count == 495

    def test_per_round_pairs_match_compose_trace(self):
        # Two routes to the same pipeline: the engine and stages composed by
        # hand from BinHash.apply. The same rounds over a universe past 2**64
        # ids run on object arrays, and must give the same pairs.
        rng = Random(4)
        for w, t in ((6, 3), (40, 5)):
            seeded = build_schedule(w, t, c=2, master_seed=9)
            huge = RoundSchedule(w, 2**62, 2, 9, seeded.rounds)
            assert huge.n >= 1 << 64
            for _ in range(30):
                j = rng.randint(0, w)
                W = rng.sample(range(1, w + 1), j)
                T = rng.sample(range(1, seeded.n + 1), j)
                trace, residual = [], WorkerTaskInput(frozenset(W), frozenset(T))
                for stage in stages(seeded.rounds):
                    if not residual.workers and not residual.tasks:
                        break
                    out = stage.apply(residual)
                    trace.append(out.matched)
                    residual = out.residual
                for s in (seeded, huge):
                    res = assign_set(s, W, T)
                    assert res.per_round_pairs == tuple(trace)
                    assert res.fallback_pairs == len(residual.workers)


def sample_ids(rng, n, k, top):
    """``k`` distinct ids of ``[1, n]``, drawn one at a time: ``rng.sample`` refuses ranges past ``sys.maxsize``.

    A hypothesis ``rng`` draws mostly small ids. With ``top`` each drawn
    ``x`` gives ``n + 1 - x`` instead, so the ids sit at the top of the
    range: past 2**63 and 2**64 where ``n`` is.
    """
    ids = {}
    while len(ids) < k:
        x = rng.randrange(1, n + 1)
        ids[n + 1 - x if top else x] = None
    return list(ids)


def run_arrays(schedule, workers, tasks):
    """``assign_set``'s result from the engine, called directly."""
    wt = assigner._rows(workers, tasks, id_dtype(schedule.n))
    run = assigner._run_arrays(schedule.rounds, wt)
    return assigner._result(schedule.w, wt, run, schedule.total_rounds, False)


def assert_full_and_cut_match_reference(s, tasks):
    """Workers 1..40 on ``tasks``, on ``s`` and on its first 3 rounds, are the reference's:
    no fallback on the whole schedule, and one on the cut."""
    full = assign_set(s, range(1, 41), tasks)
    assert full.fallback_pairs == 0
    assert_matches_reference(full, *reference_run(s, range(1, 41), tasks))
    short = RoundSchedule(40, s.t, 1, s.master_seed, s.rounds[:3])
    cut = assign_set(short, range(1, 41), tasks)
    assert cut.fallback_pairs > 0
    assert len(cut.per_round_pairs) == 3
    assert_matches_reference(cut, *reference_run(short, range(1, 41), tasks))


def block_bins(seeds, ks, wt):
    """``wt``'s bins in each round of a block, as the engine asks seeded rounds for them."""
    ks = np.asarray(ks, np.uint64)
    rounds = SeededRounds(np.array(seeds, np.uint64), ks, np.zeros((2, ks.size), np.int64))
    return rounds.bins(slice(None), wt)


def scalar_block(seeds, ks, wt, start):
    """A block's pairs from bins of one id at a time, by round and then worker, and the ids it leaves.

    ``seeds[s][h]`` is the seed of side ``s`` in block round ``h``, ``ks[h]``
    its bin count and ``wt`` the residual, workers over tasks; the pairs
    carry their round from ``start``.
    """
    live, want = [set(wt[0].tolist()), set(wt[1].tolist())], []
    for h, k in enumerate(ks.tolist()):
        best = [{}, {}]
        for side in (0, 1):
            for x in live[side]:
                b = _bin_of(seeds[side][h], x, k)
                best[side][b] = min(x, best[side].get(b, x))
        for x, y in sorted((x, best[1][b]) for b, x in best[0].items() if b in best[1]):
            want.append((x, y, start + h))
            live[0].discard(x)
            live[1].discard(y)
    return want, live


def unmix64(z):
    """The ``x`` with ``mix64(x) == z``: each step of the finalizer undone, last first."""
    for shift, mul in ((31, MUL2), (27, MUL1)):
        z ^= (z >> shift) ^ (z >> 2 * shift)
        z = z * pow(mul, -1, 1 << 64) & MASK64
    return z ^ (z >> 30) ^ (z >> 60)


def reference_run(schedule, workers, tasks):
    """The plain reference: the stage loop on sets, then rank-order completion, with no arrays.

    Returns the per-round trace and every ``(worker, task, match round)`` row,
    sorted by worker, with round -1 for the fallback's pairs.
    """
    W, T = set(workers), set(tasks)
    per_round = run_stages(stages(schedule.rounds), W, T)
    rows = [(x, y, r) for r, matched in enumerate(per_round) for x, y in matched]
    rows += [(x, y, -1) for x, y in zip(sorted(W), sorted(T))]
    return tuple(per_round), sorted(rows)


def table_reference_run(schedule, workers, tasks):
    """:func:`reference_run` for an explicit schedule, with no arrays and no engine code.

    Round ``(i, j)`` reads each id's bin from level ``i``'s ``table`` at seed
    ``j``, one id at a time, and pairs each bin's smallest worker with its
    smallest task, until the sets empty.
    """
    W, T = set(workers), set(tasks)
    per_round = []
    families = schedule.rounds.families
    for i, j in zip(*schedule.rounds.ij.tolist()):
        if not W and not T:
            break
        table, best = families[i - 1].table, [{}, {}]
        for side, ids in enumerate((W, T)):
            for x in sorted(ids):
                best[side].setdefault(table[x - 1][j - 1], x)
        pairs = frozenset((x, best[1][b]) for b, x in best[0].items() if b in best[1])
        per_round.append(pairs)
        W.difference_update(x for x, _ in pairs)
        T.difference_update(y for _, y in pairs)
    rows = [(x, y, r) for r, matched in enumerate(per_round) for x, y in matched]
    rows += [(x, y, -1) for x, y in zip(sorted(W), sorted(T))]
    return tuple(per_round), sorted(rows)


def assert_matches_reference(got, per_round, rows, project=lambda task: task):
    """``got`` is what the reference gives: the same ``(assignment, fallback_pairs,
    per_round_pairs)`` triple, each worker's task and the index of the reference
    round holding its pair (-1 exactly for the fallback's), and as many rounds."""
    want = Assignment(got.assignment.w, tuple((x, project(y)) for x, y, _ in rows))
    fallback = sum(r < 0 for *_, r in rows)
    assert (got.assignment, got.fallback_pairs, got.per_round_pairs) == (want, fallback, per_round)
    workers = [x for x, _ in got.assignment.pairs]
    assert list(zip(workers, got.lifted_tasks, got.match_rounds)) == rows
    assert got.rounds_executed == len(per_round)


class TestArrayEngine:
    @settings(max_examples=80, deadline=None)
    @given(
        w=st.sampled_from([1, 3, 8, 15, 16, 17, 40, 64, 65, 130, 300, 1024, 2048]),
        t=st.sampled_from([1, 3, 2**33 + 7, 2**61 + 3, 2**70]),
        c=st.integers(1, 2),
        master_seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_bit_identical_to_scalar_reference(self, w, t, c, master_seed, data):
        schedule = build_schedule(w, t, c, master_seed)
        # A truncated schedule often ends with a residual left, so the
        # fallback and the end of the round grid are compared too.
        keep = data.draw(st.none() | st.integers(1, schedule.total_rounds), label="rounds kept")
        if keep is not None:
            schedule = RoundSchedule(w, t, c, master_seed, schedule.rounds[:keep])
        # Full workforces reach the one-round-at-a-time regime above 64, and
        # at 1024 and 2048 workers the sorted blocks above 64 too.
        size = data.draw(st.just(w) | st.integers(0, w), label="size")
        rng = data.draw(st.randoms(use_true_random=False))
        top = data.draw(st.booleans(), label="ids from the top")
        workers = rng.sample(range(1, w + 1), size)
        tasks = sample_ids(rng, schedule.n, size, top)
        reference = reference_run(schedule, workers, tasks)
        assert_matches_reference(run_arrays(schedule, workers, tasks), *reference)
        assert_matches_reference(assign_set(schedule, workers, tasks), *reference)

    def test_ids_past_32_bits_and_fallback_are_exercised(self):
        # Two cases the differential test reaches only by chance: ids past
        # 2**32, and a residual left when the schedule ends.
        s = build_schedule(40, 2**33 + 7, c=1, master_seed=3)
        assert_full_and_cut_match_reference(s, Random(8).sample(range(2**32, s.n + 1), 40))

    def test_ids_past_64_bits_and_fallback_are_exercised(self):
        # Ids past 2**64 are Python ints in object arrays, hashed by their low
        # 64 bits, whose top bit is set on about half of them.
        s = build_schedule(40, 2**70, c=1, master_seed=3)
        rng = Random(8)
        tasks = [rng.randrange(2**64, s.n + 1) for _ in range(40)]
        assert len(set(tasks)) == 40 and 10 < sum(x >> 63 & 1 for x in tasks) < 30
        assert_full_and_cut_match_reference(s, tasks)

    def test_block_keys_fit_at_the_guard(self):
        # A sorted block packs its round, bin, side and position into one
        # uint64 key. Run one at the extremes the array engine allows: ids past
        # 2**32, the bin counts of the largest w below 2**31 and the longest
        # block _block_size gives, with rounds from two outer rounds. Each
        # listed round forces one chosen worker and task into a shared bin
        # by its task seed; some of them were matched by an earlier round.
        w = 2**31 - 1
        n = assigner._TAIL_N + 1
        k = bins_for_round(w, 1)
        B = assigner._block_size(n, k)
        assert B > 1000 and B == assigner._block_size(n, w)  # the largest block above _TAIL_N
        ks = np.array([k] * (B // 2) + [bins_for_round(w, 2)] * (B - B // 2), np.uint64)
        rng = Random(17)
        ids = rng.sample(range(2**62, 2**63), 2 * n)
        wt = np.array([sorted(ids[:n]), sorted(ids[n:])], np.uint64)
        seeds = [[rng.getrandbits(64) for _ in range(B)] for _ in range(2)]
        forced = {B - 1: (ids[0], ids[n])}  # in the last round, a worker and a task no other round forces
        for h in rng.sample(range(B - 1), 40):
            forced[h] = rng.choice(ids[1:n]), rng.choice(ids[n + 1 :])
        for h, (x, y) in forced.items():
            seeds[1][h] = seeds[0][h] ^ ((x * GOLDEN) & MASK64) ^ ((y * GOLDEN) & MASK64)
        start = 5000
        pairs = []
        keep = assigner._sort_block(block_bins(seeds, ks, wt), wt, k, start, pairs)
        want, live = scalar_block(seeds, ks, wt, start)
        assert sorted(pairs) == sorted(want)
        assert {(x, y) for x, y, r in pairs if r - start in forced} <= set(forced.values())
        assert B - 1 + start in {r for *_, r in pairs} and 20 < len(pairs) < 40  # some forced pairs were taken
        assert [sorted(side) for side in live] == [wt[s, keep[s]].tolist() for s in (0, 1)]

    @pytest.mark.parametrize(
        ("k", "B"),
        [
            # The guard's extremes with one bin count for the whole block: the hash
            # divides by a scalar and the keys are uint64.
            (bins_for_round(2**31 - 1, 1), None),
            # The keys' top is (2*B*k) << 7 over 65 ids: 2**32 here, so they are uint32
            # up to the last; one bin more and they no longer fit.
            (2**20, 16),
            (2**20 + 1, 16),
        ],
    )
    def test_sort_block_with_one_bin_count(self, k, B):
        # The last round puts the largest worker and task, the last positions, in the
        # last bin, k - 1, so the block's largest key sits in the largest (round, bin,
        # side) group a block can have. That round's worker seed is the inverse of
        # mix64 at k - 1, and each forced pair shares a bin by its task seed.
        n = assigner._TAIL_N + 1
        if B is None:
            B = assigner._block_size(n, k)
            assert B > 1000
        rng = Random(k)
        ids = rng.sample(range(2**62, 2**63), 2 * n)
        wt = np.array([sorted(ids[:n]), sorted(ids[n:])], np.uint64)
        seeds = [[rng.getrandbits(64) for _ in range(B)] for _ in range(2)]
        x, y = wt[0, -1].item(), wt[1, -1].item()
        forced = {B - 1: (x, y)}
        for h in rng.sample(range(B - 1), min(40, B - 1)):
            forced[h] = rng.choice(wt[0, :-1].tolist()), rng.choice(wt[1, :-1].tolist())
        seeds[0][B - 1] = unmix64(k - 1) ^ ((x * GOLDEN) & MASK64)
        assert _bin_of(seeds[0][B - 1], x, k) == k - 1
        for h, (p, q) in forced.items():
            seeds[1][h] = seeds[0][h] ^ ((p * GOLDEN) & MASK64) ^ ((q * GOLDEN) & MASK64)
        ks = np.full(B, k, np.uint64)
        start = 3000
        pairs = []
        keep = assigner._sort_block(block_bins(seeds, ks, wt), wt, k, start, pairs)
        want, live = scalar_block(seeds, ks, wt, start)
        assert sorted(pairs) == sorted(want)
        assert (x, y, start + B - 1) in pairs
        assert [sorted(side) for side in live] == [wt[s, keep[s]].tolist() for s in (0, 1)]

    @pytest.mark.parametrize("seed", range(20))
    def test_sort_block_with_two_bin_counts(self, seed):
        # Three rounds of 97 bins, then three of 89, on random seeds: no pair is
        # forced, so a block hashed under its first bin count alone finds other pairs.
        rng = Random(seed)
        n = rng.randint(assigner._TAIL_N + 1, 3 * assigner._TAIL_N)
        ids = rng.sample(range(1, 2**40), 2 * n)
        wt = np.array([sorted(ids[:n]), sorted(ids[n:])], np.uint64)
        seeds = [[rng.getrandbits(64) for _ in range(6)] for _ in range(2)]
        ks = np.array([97] * 3 + [89] * 3, np.uint64)
        start = 40
        pairs = []
        keep = assigner._sort_block(block_bins(seeds, ks, wt), wt, 97, start, pairs)
        want, live = scalar_block(seeds, ks, wt, start)
        assert sorted(pairs) == sorted(want)
        assert {r - start for *_, r in pairs} >= {3, 4, 5}  # the 89-bin rounds matched too
        assert [sorted(side) for side in live] == [wt[s, keep[s]].tolist() for s in (0, 1)]

    @pytest.mark.parametrize(
        ("n", "k", "B", "forced"),
        [
            # The longest blocks _block_size gives, at the largest bin count
            # the array engine allows: one pair forced into the block's last round,
            # or two pairs, one each into its first and last rounds.
            (1, bins_for_round(2**31 - 1, 1), None, "last"),
            (2, bins_for_round(2**31 - 1, 1), None, "first and last"),
            # A full tail residual in a block of several rounds.
            (assigner._TAIL_N, bins_for_round(2**31 - 1, 1), None, "first and last"),
            # Few bins: one bin holds several live workers and tasks in a round.
            (assigner._TAIL_N, 5, 6, "first and last"),
            # A block the work floor lengthens, crossing an outer round as w=64's
            # rounds of 59 bins give way to 53: its later rounds hash into fewer bins.
            pytest.param(8, (59, 53), None, "first and last", id="8-59 then 53-None-first and last"),
        ],
    )
    def test_tail_block_at_its_extremes(self, n, k, B, forced):
        # The tail visits each collision by one flat index into the block's
        # (round, worker, task) compare; its pairs must come out in that
        # order, round by round and ascending by worker within a round. Ids
        # are past 2**62, and a forced pair shares a bin by its task seed.
        # A pair of bin counts gives the block's first and second halves.
        first, then = k if isinstance(k, tuple) else (k, k)
        if B is None:
            B = assigner._block_size(n, first)
            assert B > 1
        if first != then:  # the floor, not the planned collisions, sets the length
            assert B == assigner._TAIL_WORK // n > assigner._TAIL_HITS * first // (n * n)
        rng = Random(n * B)
        ids = rng.sample(range(2**62, 2**63), 2 * n)
        wt = np.array([sorted(ids[:n]), sorted(ids[n:])], np.uint64)
        seeds = [[rng.getrandbits(64) for _ in range(B)] for _ in range(2)]
        rounds = [B - 1] if forced == "last" else [0, B - 1]
        forced_pairs = list(zip(ids[n - 1 :: -1], ids[n:], rounds))  # a different pair in each round
        for x, y, h in forced_pairs:
            seeds[1][h] = seeds[0][h] ^ ((x * GOLDEN) & MASK64) ^ ((y * GOLDEN) & MASK64)
        ks = np.array([first] * (B // 2) + [then] * (B - B // 2), np.uint64)
        start = 777
        pairs = []
        keep = assigner._tail_block(block_bins(seeds, ks, wt), wt, start, pairs)
        want, live = scalar_block(seeds, ks, wt, start)
        assert pairs == want
        assert [sorted(side) for side in live] == [wt[s, keep[s]].tolist() for s in (0, 1)]
        if then > n * n:  # collisions are rare, so each forced pair is matched in its round
            assert {(x, y, start + h) for x, y, h in forced_pairs} <= set(pairs)
        elif then < n:  # n ids in k < n bins: every round matches, and most match several pairs
            assert {r - start for *_, r in pairs} == set(range(B)) and len(pairs) > 2 * B
        else:  # the block's bin count changes: hashed under its first alone, it pairs otherwise
            assert pairs != scalar_block(seeds, np.full(B, first, np.uint64), wt, start)[0]

    def test_block_size(self):
        # A tail block plans for _TAIL_HITS expected collisions, or for n*n over n < 4 ids,
        # so for at most k rounds, but each side hashes at least _TAIL_WORK ids x rounds, or
        # 4k rounds if fewer; a round expected to hold more than _TAIL_HITS collisions runs
        # alone, as a head round. Both tail rules stay within _TAIL_BUDGET comparisons. Above
        # the tail a sorted block plans for _SORT_HITS expected collisions instead.
        grid_k = [1, 2, 3, 5, 16, 59, 931, 3724, 14895, bins_for_round(2**31 - 1, 1)]
        for n in range(1, 3 * assigner._TAIL_N):
            for k in grid_k:
                B = assigner._block_size(n, k)
                assert B >= 1, (n, k)
                if n > assigner._TAIL_N:
                    assert B == max(1, min(assigner._SORT_HITS * k // (n * n), assigner._TAIL_BUDGET // n)), (n, k)
                elif n * n > assigner._TAIL_HITS * k:
                    assert B == 1, (n, k)
                else:
                    budget = assigner._TAIL_BUDGET // (n * n)
                    planned = min(assigner._TAIL_HITS, n * n) * k // (n * n)
                    floor = min(assigner._TAIL_WORK // n, 4 * k)
                    assert planned <= k and B <= budget and B >= min(floor, budget), (n, k)
                    assert B == min(max(planned, floor), budget), (n, k)

    def test_dense_round_stays_a_head_round(self):
        # w=64, t=256 cut at its first 2-bin round, on a full input: 64 ids in 2 bins
        # expect 2048 collisions a round, each a step of the tail's Python loop if the
        # work floor made a tail block of it. The round runs alone, as a head round.
        s = build_schedule(64, 256, 4, 0)
        cut = RoundSchedule(64, 256, 4, 0, s.rounds[int(np.argmax(s.rounds.ks == 2)):])
        T = random_multiset(64, 256, Random(28))
        wt = assigner._lifted_rows(T, 64)
        assert assigner._run_block(cut.rounds, wt, 0, [], [])[1:] == (1, "head")
        assert_matches_scalar_assign(assign(cut, T), cut, T)

    @pytest.mark.parametrize(
        ("n", "case"),
        [
            (assigner._TAIL_N + 1, "no collision"),
            (assigner._TAIL_N + 1, "crowded bin"),
            # The largest residual whose round still has more than _DENSE_BINS bins per id.
            ((bins_for_round(16384, 1) - 1) // assigner._DENSE_BINS, "crowded bin"),
        ],
    )
    def test_sparse_head_round(self, n, case):
        # A head round in more than _DENSE_BINS bins per id finds each bin's smallest worker
        # in one table over the bins; its pairs must be BinHash.match's, in bin order. Ids are
        # past 2**62. A crowded bin holds a pair forced by the task seed, two more workers and
        # two more tasks, picked from random ids by their bins.
        k = bins_for_round(16384, 1)
        assert k > assigner._DENSE_BINS * n
        rng = Random(n)
        ids = rng.sample(range(2**62, 2**63), 2 * n)
        seeds = [rng.getrandbits(64), rng.getrandbits(64)]
        if case == "no collision":
            while BinHash(k, *seeds).match(ids[:n], ids[n:]):
                seeds[1] = rng.getrandbits(64)
        else:
            x, y = ids[0], ids[n]
            seeds[1] = seeds[0] ^ ((x * GOLDEN) & MASK64) ^ ((y * GOLDEN) & MASK64)
            crowd = _bin_of(seeds[0], x, k)
            pool = np.random.default_rng(n).integers(2**62, 2**63, 20 * k, dtype=np.uint64)
            for side in (0, 1):
                found = pool[bins_np(np.uint64(seeds[side]), pool, np.uint64(k)) == crowd].tolist()
                ids[side * n + 1 : side * n + 3] = [z for z in found if z not in ids][:2]
        wt = np.array([sorted(ids[:n]), sorted(ids[n:])], np.uint64)
        matched = []
        keep = assigner._head_round(block_bins([[seeds[0]], [seeds[1]]], [k], wt)[:, 0], wt, k, 41, matched)
        [(ws, ts, r)] = matched
        pairs = list(zip(ws.tolist(), ts.tolist()))
        want = BinHash(k, *seeds).match(wt[0].tolist(), wt[1].tolist())
        assert r == 41 and sorted(pairs) == sorted(want)
        bins = [_bin_of(seeds[0], x, k) for x, _ in pairs]
        assert bins == sorted(set(bins))
        if case == "no collision":
            assert pairs == []
        else:
            crowded = [[z for z in wt[s].tolist() if _bin_of(seeds[s], z, k) == crowd] for s in (0, 1)]
            assert min(map(len, crowded)) >= 3 and (min(crowded[0]), min(crowded[1])) in pairs
        matched_ids = [{x for x, _ in pairs}, {y for _, y in pairs}]
        assert [wt[s, keep[s]].tolist() for s in (0, 1)] == [[z for z in wt[s].tolist() if z not in matched_ids[s]] for s in (0, 1)]

    def test_engine_selection(self, monkeypatch):
        # Every seeded schedule runs on the array engine, however few its workers.
        runs = []
        run_arrays = assigner._run_arrays
        monkeypatch.setattr(assigner, "_run_arrays", lambda *args: runs.append(args) or run_arrays(*args))
        for w in (1, 2, 15):
            assign(build_schedule(w, 3), random_multiset(w, 3, Random(w)))
        assert len(runs) == 3
        # Table rounds run on it too: here workers and tasks land in disjoint bins.
        schedule = explicit_schedule(disjoint_bin_families(20, 4), 1, 20, 4)
        assert assign_set(schedule, [3, 1], [30, 24]).fallback_pairs == 2
        assert len(runs) == 4 and runs[-1][0] is schedule.rounds
        # So do universes past 2**63 ids (uint64) and past 2**64 (Python ints).
        for t in (2**61 + 3, 2**63):
            assign(build_schedule(4, t), random_multiset(4, t, Random(t)))
        assert len(runs) == 6
        # A round of 2**31 bins or more would not fit a sorted block's keys in a uint64,
        # so no schedule has that many workers.
        with pytest.raises(ValueError, match=r"w=2147483648 workers, past the engine's 2\*\*31 - 1"):
            build_schedule(2**31, 1)

    def test_seed_arrays_stay_out_of_repr(self):
        a = build_schedule(20, 3, master_seed=5)
        b = RoundSchedule(a.w, a.t, a.c, a.master_seed, a.rounds)
        assert a == b and hash(a) == hash(b)
        assert "seeds" not in repr(a)
        seeds, ks = a.rounds.seeds, a.rounds.ks
        assert seeds.dtype == ks.dtype == np.uint64
        assert [int(k) for k in ks] == [stage.k for stage in stages(a.rounds)]
        assert list(zip(seeds[0].tolist(), seeds[1].tolist())) == [stage.seeds for stage in stages(a.rounds)]


def per_round_schedule(w, t, c, master_seed):
    """The rounds as built one by one: each ``(i, j, k)`` and its stage, ``BinHash.from_seed(k, derive(master_seed, i, j))``."""
    reps = c * max(1, (w * t - 1).bit_length())
    return [
        (i, j, k, BinHash.from_seed(k, derive(master_seed, i, j)))
        for i in range(1, outer_round_count(w) + 1)
        for k in [bins_for_round(w, i)]
        for j in range(1, reps + 1)
    ]


class TestSeedArraySchedule:
    @settings(max_examples=60, deadline=None)
    @given(
        w=st.integers(1, 300),
        t=st.sampled_from([1, 2, 7, 2**33 + 7]) | st.integers(1, 5000),
        c=st.integers(1, 3),
        master_seed=st.integers(-(2**80), -1) | st.integers(0, 2**64 - 1) | st.integers(2**64, 2**80),
    )
    def test_matches_per_round_construction(self, w, t, c, master_seed):
        schedule = build_schedule(w, t, c, master_seed)
        want = per_round_schedule(w, t, c, master_seed)
        seeds, ks, ij = schedule.rounds.seeds, schedule.rounds.ks, schedule.rounds.ij
        assert ks.tolist() == [k for _, _, k, _ in want]
        assert list(zip(*seeds.tolist())) == [stage.seeds for *_, stage in want]
        assert list(zip(*ij.tolist(), ks.tolist())) == [(i, j, k) for i, j, k, _ in want]
        got = stages(schedule.rounds)
        assert len(got) == schedule.total_rounds == len(want)
        for a, (*_, k, b) in zip(got, want):
            assert a.k == k and a.seeds == b.seeds

    def test_build_and_assign_make_no_stage(self, monkeypatch):
        built = []
        init = BinHash.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BinHash, "__init__", counting_init)
        big = build_schedule(1024, 64)
        huge = build_schedule(4, 2**62)  # n = 2**64: the ids are Python ints in object arrays
        assert built == []
        rng = Random(3)
        for w, schedule in ((1024, big), (4, build_schedule(4, 10)), (4, huge)):
            for _ in range(5):
                assign(schedule, random_multiset(rng.randint(0, w), schedule.t, rng))
        assert built == []  # the engine reads the arrays only, at every size

    def test_rounds_view_slices_compares_and_hashes(self):
        a = build_schedule(40, 9, c=2, master_seed=-7)
        b = build_schedule(40, 9, c=2, master_seed=-7)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != build_schedule(40, 9, c=2, master_seed=7)
        assert repr(a) == "RoundSchedule(w=40, t=9, c=2, master_seed=-7)"
        cut = a.rounds[5:17]
        assert len(cut) == 12 and cut == b.rounds[5:17] and cut != a.rounds[5:18]
        assert [stage.seeds for stage in stages(cut)] == [stage.seeds for stage in stages(a.rounds)[5:17]]
        assert isinstance(cut, SeededRounds)
        seeds, ks = a.rounds.seeds, a.rounds.ks
        with pytest.raises(ValueError):
            seeds[0, 0] = 1  # the arrays are the schedule, so they are read-only
        table = explicit_schedule(trivial_families(4, 16), 1, 4, 4).rounds
        same = explicit_schedule(trivial_families(4, 16), 1, 4, 4).rounds
        assert len(table) == 8 and table[2:5] == same[2:5] and hash(table[2:5]) == hash(same[2:5])
        assert len(table[2:5]) == 3 and table[2:5] != table[2:6] and isinstance(table[2:5], TableRounds)
        # A slice is the only index: there is no round object to index or iterate.
        for rounds in (a.rounds, table):
            with pytest.raises(TypeError):
                rounds[0]
            with pytest.raises(TypeError):
                list(rounds)


def assert_matches_scalar_assign(got, schedule, T):
    """``got`` is ``assign`` by the plain route: the set lift, :func:`reference_run`
    and a per-pair ``decode`` of the lifted tasks."""
    w = schedule.w
    reference = reference_run(schedule, range(1, len(T) + 1), lift(T, w))
    assert_matches_reference(got, *reference, project=lambda task: decode(task, w)[0])


class TestArrayNativeAssign:
    @settings(max_examples=80, deadline=None)
    @given(
        w=st.sampled_from([1, 3, 8, 15, 16, 17, 40, 64, 65, 130, 300]),
        t=st.sampled_from([1, 3, 50, 2**33 + 7, 2**61 + 3, 2**70]),
        c=st.integers(1, 2),
        master_seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_bit_identical_to_scalar_reference(self, w, t, c, master_seed, data):
        schedule = build_schedule(w, t, c, master_seed)
        # Truncated schedules leave residuals, so the fallbacks are compared too.
        keep = data.draw(st.none() | st.integers(1, schedule.total_rounds), label="rounds kept")
        if keep is not None:
            schedule = RoundSchedule(w, t, c, master_seed, schedule.rounds[:keep])
        size = data.draw(st.just(w) | st.integers(0, w), label="size")
        # Few distinct tasks give multiplicities above 1.
        kinds = data.draw(st.integers(1, min(t, w + 2)), label="distinct tasks")
        rng = data.draw(st.randoms(use_true_random=False))
        top = data.draw(st.booleans(), label="tasks from the top")
        support = sample_ids(rng, t, kinds, top)
        T = TaskMultiset.from_elements((rng.choice(support) for _ in range(size)), t)
        assert_matches_scalar_assign(assign(schedule, T), schedule, T)

    def test_every_multiset_of_the_small_audit_matches_the_scalar_reference(self):
        # The inputs of the exhaustive audit at w=4, t=10 (c=4, seed 0): all 715
        # multisets, each with the reference's lifted tasks, match rounds,
        # fallback count and rounds executed.
        schedule = build_schedule(4, 10, 4, 0)
        for elements in combinations_with_replacement(range(1, 11), 4):
            T = TaskMultiset.from_elements(elements, 10)
            assert_matches_scalar_assign(assign(schedule, T), schedule, T)

    def test_head_rounds_repeats_and_fallback_are_exercised(self):
        # Cases the differential test reaches only by chance: a residual
        # above 64 with high multiplicities, on a cut and on a full schedule.
        s = build_schedule(300, 7, c=1, master_seed=12)
        rng = Random(2)
        T = TaskMultiset.from_elements((rng.randint(1, 7) for _ in range(300)), 7)
        assert max(count for _, count in T.entries) > 40
        full = assign(s, T)
        assert full.fallback_pairs == 0
        assert_matches_scalar_assign(full, s, T)
        assert max(full.per_round_matches) > assigner._TAIL_N  # a head round ran
        cut = RoundSchedule(300, 7, 1, 12, s.rounds[:2])
        short = assign(cut, T)
        assert short.fallback_pairs > assigner._TAIL_N
        assert_matches_scalar_assign(short, cut, T)

    def test_blocks_above_the_tail_skip_matched_members(self, monkeypatch):
        # Residuals of a little over 64 in about 900 bins run sorted blocks of
        # rounds. Pinned here, on each side: a bin whose smallest member was
        # matched by an earlier round of the same block, so the next member
        # pairs instead. Random draws reach that case only by chance.
        blocks = []
        sort_block = assigner._sort_block

        def spy(bins, wt, k, start, pairs):
            before = len(pairs)
            keep = sort_block(bins, wt, k, start, pairs)
            blocks.append((bins, wt.tolist(), start, pairs[before:]))
            return keep

        monkeypatch.setattr(assigner, "_sort_block", spy)
        for seed in (2, 6):
            s = build_schedule(1024, 3, c=1, master_seed=seed)
            rng = Random(seed)
            T = TaskMultiset.from_elements((rng.randint(1, 3) for _ in range(1024)), 3)
            assert_matches_scalar_assign(assign(s, T), s, T)
        assert blocks and all(len(wt[0]) > assigner._TAIL_N for _, wt, *_ in blocks)
        skipped = [0, 0]
        for bins, wt, start, pairs in blocks:
            for pair in pairs:
                h = pair[2] - start
                for side in (0, 1):
                    bin_of = dict(zip(wt[side], bins[side, h].tolist()))
                    smallest = min(x for x in wt[side] if bin_of[x] == bin_of[pair[side]])
                    skipped[side] += smallest != pair[side]
        assert all(skipped)

    def test_sparse_head_rounds(self):
        # Past 512 workers, a head-round residual of a little over 64 ids
        # has more than _DENSE_BINS bins per id, so the round sorts instead
        # of scattering; at 300 workers and below that never happens.
        s = build_schedule(1024, 3, c=1, master_seed=4)
        assert s.rounds.ks[0] > assigner._DENSE_BINS * 100
        rng = Random(6)
        for size in (100, 200):
            T = TaskMultiset.from_elements((rng.randint(1, 3) for _ in range(size)), 3)
            assert_matches_scalar_assign(assign(s, T), s, T)

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.sampled_from([1024, 4096]),
        t=st.sampled_from([3, 50, 2**33 + 7]),
        master_seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_sparse_head_rounds_bit_identical(self, w, t, master_seed, data):
        # Sizes above the tail and below k / _DENSE_BINS of the first outer round, so the
        # input starts in sparse head rounds; few distinct tasks give high multiplicities.
        schedule = build_schedule(w, t, 1, master_seed)
        size = data.draw(st.integers(assigner._TAIL_N + 1, bins_for_round(w, 1) // assigner._DENSE_BINS), label="size")
        kinds = data.draw(st.integers(1, min(t, 8)), label="distinct tasks")
        rng = data.draw(st.randoms(use_true_random=False))
        top = data.draw(st.booleans(), label="tasks from the top")
        support = sample_ids(rng, t, kinds, top)
        T = TaskMultiset.from_elements((rng.choice(support) for _ in range(size)), t)
        assert_matches_scalar_assign(assign(schedule, T), schedule, T)


class TestAssignMultiset:
    def test_single_task_multiset_collapses(self):
        s = build_schedule(3, 8, master_seed=5)
        res = assign(s, ms(5, 5, 5))
        assert res.assignment.mapping == {1: 5, 2: 5, 3: 5}

    def test_small_multiset_leaves_workers_unassigned(self):
        s = build_schedule(3, 8, master_seed=5)
        res = assign(s, ms(2, 7))
        assert set(res.assignment.mapping) == {1, 2}
        assert 3 not in res.assignment.mapping

    def test_realizes_multiset(self):
        s = build_schedule(5, 6, master_seed=8)
        rng = Random(10)
        for _ in range(100):
            T = random_multiset(rng.randint(0, 5), 6, rng)
            assert assign(s, T).assignment.realizes(T)

    def test_memoryless_across_call_orders(self):
        s = build_schedule(4, 5, master_seed=2)
        inputs = [ms(1, 1, 2, 5, t=5), ms(3, 3, 3, 3, t=5), ms(2, 4, t=5)]
        first = [assign(s, T).assignment for T in inputs]
        second = [assign(s, T).assignment for T in reversed(inputs)][::-1]
        assert first == second

    def test_universe_mismatch_rejected(self):
        s = build_schedule(3, 8)
        with pytest.raises(ValueError):
            assign(s, TaskMultiset.from_elements([1], 9))

    def test_oversized_multiset_rejected(self):
        s = build_schedule(2, 8)
        with pytest.raises(ValueError):
            assign(s, ms(1, 2, 3))

    def test_adjacent_pairs_respect_round_bound(self):
        w = t = 8
        s = build_schedule(w, t, c=4, master_seed=17)
        bound = 4 * s.total_rounds
        rng = Random(19)
        T = random_multiset(w, t, rng)
        prev = assign(s, T)
        for _ in range(300):
            T = adjacent_step(T, rng, w=w)
            cur = assign(s, T)
            assert cur.fallback_pairs == 0
            assert switching_cost(prev.assignment, cur.assignment) <= bound
            prev = cur


def disjoint_bin_families(w, t):
    """One family per level over ``[w*t]``, of one seed and two bins: bin 0 holds ``1..w``, bin 1 the rest."""
    table = [[0]] * w + [[1]] * (w * t - w)
    levels = max(1, (w - 1).bit_length())
    return [DisperserFamily(w * t, 1, 2, levels - i, 0.25, table) for i in range(1, levels + 1)]


class TestFallbackPolicy:
    def test_rank_order_completion(self):
        # Adversarial tables: workers and tasks land in disjoint bins, so the
        # schedule matches nothing and the fallback must do all the work.
        schedule = explicit_schedule(disjoint_bin_families(3, 4), 1, 3, 4)
        res = assign_set(schedule, [3, 1], [10, 4])
        assert res.fallback_pairs == 2
        assert res.used_fallback
        assert res.assignment.mapping == {1: 4, 3: 10}
        assert res.per_round_matches == (0, 0)  # one seed on each of two levels


class TestExplicitVariant:
    def test_trivial_ladder_fully_assigns_exhaustively(self):
        # Single-bin families are verified dispersers; with enough sweeps the
        # explicit pipeline must empty every input without fallback.
        families = trivial_families(4, N=8, D=4)
        assert [f.k_param for f in families] == [1, 0]
        schedule = explicit_schedule(families, reps=4, w=4, t=2)
        for j in range(0, 5):
            for W in combinations(range(1, 5), j):
                for T in combinations(range(1, 9), j):
                    res = assign_set(schedule, W, T)
                    assert res.fallback_pairs == 0
                    assert {w for w, _ in res.assignment.pairs} == set(W)
                    assert {t for _, t in res.assignment.pairs} == set(T)

    def test_multiset_entry_point(self):
        families = trivial_families(3, N=24, D=3)
        res = assign(explicit_schedule(families, reps=6, w=3, t=8), ms(5, 5, 7))
        assert res.assignment.realizes(ms(5, 5, 7))
        assert res.fallback_pairs == 0

    def test_random_tables_behave_like_randomized_variant(self):
        # Uniform random tables per level: same bin rule, so results are
        # always perfect matchings; with generous sweeps nothing is left over.
        rng = Random(33)
        w = 8
        levels = [2, 1, 0]
        for trial in range(20):
            families = [
                DisperserFamily.random_table(8, 4, max(1, 2**k // 2), k, 0.25, rng)
                for k in levels
            ]
            j = rng.randint(0, w)
            W = rng.sample(range(1, w + 1), j)
            T = rng.sample(range(1, 9), j)
            res = assign_set(explicit_schedule(families, reps=12, w=w, t=1), W, T)
            assert is_matching(res.assignment.pairs)
            assert {x for x, _ in res.assignment.pairs} == set(W)
            assert res.fallback_pairs == 0

    def test_family_validation(self):
        families = trivial_families(4, N=8)
        with pytest.raises(ValueError):
            explicit_schedule(families[:1], reps=2, w=4, t=2)
        with pytest.raises(ValueError):
            explicit_schedule(families, reps=0, w=4, t=2)
        with pytest.raises(ValueError):
            explicit_schedule(families, reps=2, w=4, t=3)  # N too small for the universe
        for w, t in ((0, 2), (4, 0)):
            with pytest.raises(ValueError):
                explicit_schedule(families, reps=2, w=w, t=t)
        with pytest.raises(ValueError):
            assign_set(explicit_schedule(families, reps=2, w=4, t=2), [1], [9])  # outside [1, w*t]
        wrong_k = (single_bin_family(8, 2, k_param=3), single_bin_family(8, 2, k_param=0))
        with pytest.raises(ValueError):
            explicit_schedule(wrong_k, reps=2, w=4, t=2)
        # Past 2**31 - 1 bins, a block's sort keys are no longer bounded: refused, not run.
        wide = DisperserFamily(8, 1, 2**31, 0, 0.25, [[2**31 - 1]] * 8)
        assert explicit_schedule((families[0], DisperserFamily(8, 1, 2**31 - 1, 0, 0.25, [[0]] * 8)), 1, 4, 2)
        with pytest.raises(ValueError, match="past the array engine"):
            explicit_schedule((families[0], wide), reps=1, w=4, t=2)

    def test_schedule_layout(self):
        # Each family's D stages, repeated reps times, level after level.
        families = (DisperserFamily.random_table(12, 3, 2, 1, 0.25, Random(1)), single_bin_family(12, 2))
        schedule = explicit_schedule(families, reps=2, w=4, t=3)
        assert (schedule.w, schedule.t, schedule.c, schedule.master_seed) == (4, 3, 2, 0)
        assert list(zip(*schedule.rounds.ij.tolist(), schedule.rounds.ks.tolist())) == [
            (1, 1, 2), (1, 2, 2), (1, 3, 2), (1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 1, 1), (2, 2, 1), (2, 1, 1), (2, 2, 1)
        ]
        assert isinstance(schedule.rounds, TableRounds)

    @settings(max_examples=150, deadline=None)
    @given(w=st.integers(1, 9), reps=st.integers(1, 2), data=st.data())
    def test_multiset_entry_point_matches_set_route(self, w, reps, data):
        # assign against the set route: assign_set on the set lift, then each
        # pair's task decoded to its base task.
        t = data.draw(st.integers(1, 6), label="t")
        T = TaskMultiset.from_elements(data.draw(st.lists(st.integers(1, t), max_size=w), label="T"), t)
        rng = Random(data.draw(st.integers(0, 2**32), label="table seed"))
        levels = max(1, (w - 1).bit_length())
        families = [
            DisperserFamily.random_table(w * t, rng.randint(1, 4), rng.randint(1, 4), levels - i, 0.25, rng)
            for i in range(1, levels + 1)
        ]
        schedule = explicit_schedule(families, reps, w, t)
        old = assign_set(schedule, range(1, len(T) + 1), lift(T, w))
        projected = Assignment(w, tuple((x, decode(y, w)[0]) for x, y in old.assignment.pairs))
        got = assign(schedule, T)
        assert (got.assignment, got.fallback_pairs, got.per_round_pairs) == (
            projected,
            old.fallback_pairs,
            old.per_round_pairs,
        )
        assert (got.lifted_tasks, got.match_rounds, got.rounds_executed) == (
            old.lifted_tasks,
            old.match_rounds,
            old.rounds_executed,
        )

    def test_single_bin_ladder_is_sorted_order(self):
        # Each single-bin round pairs the smallest worker left with the smallest
        # task left, as the rank-order fallback does, so the ladder's assignment
        # is sorted order's, whether the rounds or the fallback finish the input.
        rng = Random(2026)
        short = 0
        for _ in range(400):
            w, t = rng.randint(1, 40), rng.randint(1, 12)
            D, reps = rng.randint(1, 4), rng.randint(1, 3)
            T = random_multiset(rng.randint(0, w), t, rng)
            schedule = explicit_schedule(trivial_families(w, w * t, D), reps, w, t)
            short += schedule.total_rounds < len(T)
            assert assign(schedule, T).assignment == sorted_order(T, w), (w, t, D, reps, T)
        assert short > 50  # many draws end in the fallback

    def test_every_entry_point_runs_an_explicit_schedule(self):
        # A session keeps no cache for table rounds, so each call is a plain
        # assign; an embedding is assign on the vector's support.
        rng = Random(5)
        w, t = 12, 5
        families = [DisperserFamily.random_table(w * t, rng.randint(1, 4), 2**k, k, 0.25, rng) for k in range(3, -1, -1)]
        schedule = explicit_schedule(families, 2, w, t)
        session = AssignSession(schedule)
        T = random_multiset(w, t, rng)
        for step in range(30):
            want = assign(schedule, T)
            got = session(T)
            assert (got.assignment, got.lifted_tasks, got.match_rounds, got.fallback_pairs, got.rounds_executed) == (
                want.assignment, want.lifted_tasks, want.match_rounds, want.fallback_pairs, want.rounds_executed)
            x = SparseVector.from_values(t, dict(zip(T.tasks.tolist(), T.counts.tolist())))
            code, res = embed_with_result(schedule, x)
            assert code.coords == tuple(want.assignment.tasks.tolist())
            assert (res.assignment, res.match_rounds, res.fallback_pairs) == (
                want.assignment, want.match_rounds, want.fallback_pairs)
            T = adjacent_step(T, rng, w=w, size_varying=False)
        assert session.calls == 30 and session.replays == 0

    def test_seed_sweep_matches_stage_composition(self):
        fam = single_bin_family(16, D=3, k_param=0)
        inp = WorkerTaskInput(frozenset({1, 2, 5}), frozenset({4, 9, 11}))
        matched, residual, trace = seed_sweep(fam, inp)
        assert len(matched) == 3  # one forced match per single-bin seed stage
        assert not residual.workers

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DisperserFamily(2, 2, 2, 0, 0.25, ((0,), (0,)))  # row width != D
        with pytest.raises(ValueError):
            DisperserFamily(2, 1, 2, 0, 0.25, ((2,), (0,)))  # value out of range
        with pytest.raises(ValueError):
            DisperserFamily(2, 1, 2, 0, 0.25, ((-1,), (0,)))  # value out of range
        with pytest.raises(ValueError):
            DisperserFamily(2, 1, 2, 0, 1.5, ((0,), (1,)))  # epsilon out of range

    def test_tables_are_compact_read_only_arrays(self):
        # Each table is held in the smallest unsigned dtype that holds M - 1, read-only;
        # ``table`` is the same table as tuples, built when read.
        for M, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16), (2**16 + 1, np.uint32)):
            family = DisperserFamily(3, 2, M, 0, 0.25, [[0, M - 1], [M // 2, 0], [1 % M, M - 1]])
            assert family.array.dtype == dtype and not family.array.flags.writeable
            assert family.table == ((0, M - 1), (M // 2, 0), (1 % M, M - 1))
        # A single-bin table is one zero, broadcast: the w=256 ladder over 2**18 ids holds no table.
        for family in trivial_families(256, 2**18):
            assert family.array.shape == (2**18, 4) and family.array.strides == (0, 0)
        # random_table draws row by row, as it did when its table was built as tuples.
        rng, again = Random(8), Random(8)
        family = DisperserFamily.random_table(50, 3, 7, 1, 0.25, rng)
        assert family.table == tuple(tuple(again.randrange(7) for _ in range(3)) for _ in range(50))
        assert family.array.dtype == np.uint8

    def test_equal_families_give_equal_schedules(self):
        # Families compare, and hash, by their tables, and so do the schedules built from them.
        a = explicit_schedule([DisperserFamily.random_table(12, 2, 3, k, 0.25, Random(k)) for k in (1, 0)], 2, 4, 3)
        b = explicit_schedule([DisperserFamily.random_table(12, 2, 3, k, 0.25, Random(k)) for k in (1, 0)], 2, 4, 3)
        assert a == b and hash(a) == hash(b) and a.rounds[:5] == b.rounds[:5]
        c = explicit_schedule([DisperserFamily.random_table(12, 2, 3, k, 0.25, Random(k + 5)) for k in (1, 0)], 2, 4, 3)
        assert a != c and a.rounds[:5] != a.rounds[:6]
        assert explicit_schedule(trivial_families(4, 8), 2, 4, 2) == explicit_schedule(trivial_families(4, 8), 2, 4, 2)
        assert explicit_schedule(trivial_families(4, 8), 2, 4, 2) != explicit_schedule(trivial_families(4, 8), 3, 4, 2)
        assert repr(a) == "RoundSchedule(w=4, t=3, c=2, master_seed=0)" and repr(a.rounds) == "<8 table rounds>"

    @settings(max_examples=150, deadline=None)
    @given(t=st.integers(1, 3), reps=st.integers(1, 2), data=st.data())
    def test_bit_identical_to_table_reference(self, t, reps, data):
        # Explicit schedules on the array engine against the plain table reference.
        # Bin counts are drawn per level from single bins to more than w, so levels
        # rise and fall, single-bin runs sit between other levels, and residuals
        # above 64 run head rounds and sorted blocks across levels. Half the draws
        # run full workforces of 65 to 130 through levels that rise by 1000 bins a
        # level from 1000, so that sorted blocks span levels whose bin count rises.
        rising = data.draw(st.booleans(), label="rising")
        w = data.draw(st.sampled_from([65, 100, 130] if rising else [1, 2, 3, 8, 40, 64, 65, 100, 130, 300]), label="w")
        levels = max(1, (w - 1).bit_length())
        if rising:
            Ms = list(range(1000, 1000 * (levels + 1), 1000))
        else:
            Ms = data.draw(st.lists(st.sampled_from([1, 2, 17, 1000, 5000]), min_size=levels, max_size=levels),
                           label="bins per level")
        Ds = data.draw(st.lists(st.integers(1, 4), min_size=levels, max_size=levels), label="seeds per level")
        rng = data.draw(st.randoms(use_true_random=False))
        families = [DisperserFamily.random_table(w * t, D, M, levels - i, 0.25, rng)
                    for i, (M, D) in enumerate(zip(Ms, Ds), start=1)]
        schedule = explicit_schedule(families, reps, w, t)
        # A truncated schedule often ends with a residual left, so the fallback is compared too.
        keep = None if rising else data.draw(st.none() | st.integers(1, schedule.total_rounds), label="rounds kept")
        if keep is not None:
            schedule = RoundSchedule(w, t, reps, 0, schedule.rounds[:keep])
        size = w if rising else data.draw(st.just(w) | st.integers(0, w), label="size")
        workers = rng.sample(range(1, w + 1), size)
        tasks = rng.sample(range(1, schedule.n + 1), size)
        reference = table_reference_run(schedule, workers, tasks)
        assert_matches_reference(run_arrays(schedule, workers, tasks), *reference)
        assert_matches_reference(assign_set(schedule, workers, tasks), *reference)

    def test_bin_counts_that_rise_between_levels(self):
        # One round per level, each with more bins than the last: a residual of 128
        # runs sorted blocks across levels, keyed by their largest bin count.
        w, rng = 128, Random(3)
        families = [DisperserFamily.random_table(w, 1, M, 7 - i, 0.25, rng)
                    for i, M in enumerate((1000, 5000, 6000, 7000, 8000, 9000, 10000), start=1)]
        schedule = explicit_schedule(families, 1, w, 1)
        T = TaskMultiset.from_elements([1] * w, 1)
        reference = table_reference_run(schedule, range(1, w + 1), range(1, w + 1))
        assert_matches_reference(assign(schedule, T), *reference, project=lambda task: decode(task, w)[0])
        assert sum(map(len, reference[0])) > 0

    def test_single_bin_runs_read_no_table(self, monkeypatch):
        # A run of single-bin rounds pairs the residual's smallest ids, one pair per
        # round, with no bins asked for: the ladder gives sorted order in one step.
        calls = []
        bins = TableRounds.bins
        monkeypatch.setattr(TableRounds, "bins", lambda self, rows, wt: calls.append(rows) or bins(self, rows, wt))
        rng = Random(12)
        for w, t in ((64, 256), (256, 1024)):
            schedule = explicit_schedule(trivial_families(w, w * t), 2, w, t)
            T = random_multiset(w, t, rng)
            res = assign(schedule, T)
            assert res.assignment == sorted_order(T, w)
            assert res.match_rounds == tuple(r if r < schedule.total_rounds else -1 for r in range(w))
        assert calls == []


def test_lifted_round_pairs_stay_in_lifted_space():
    s = build_schedule(3, 4, master_seed=1)
    res = assign(s, ms(2, 2, t=4))
    lifted = lift(ms(2, 2, t=4), 3)
    seen = {t for pairs in res.per_round_pairs for _, t in pairs}
    assert seen <= lifted


def walk_inputs(rng, w, t, moves):
    """The inputs of a walk: each move is an adjacent step, a restart, a repeat or the empty multiset."""
    T = random_multiset(rng.randint(0, w), t, rng)
    yield T
    for move in moves:
        if move in ("step", "varying"):
            try:
                T = adjacent_step(T, rng, w=w, size_varying=move == "varying")
            except ValueError:  # no adjacent multiset of this size exists
                T = random_multiset(rng.randint(0, w), t, rng)
        elif move == "restart":
            T = random_multiset(rng.randint(0, w), t, rng)
        elif move == "empty":
            T = TaskMultiset((), t)
        yield T


def cache_cells(cache):
    """The ``(round * K + bin, element)`` cells of a built session cache, per side."""
    grid = cache.grid
    return [
        sorted((c >> grid.shift, cache.elems[s][c & grid.mask]) for c in cells.tolist())
        for s, cells in enumerate(cache.cells)
    ]


def scalar_cells(grid, result):
    """``cache_cells`` worked out one element and round at a time with ``_bin_of``, from the result's trace."""
    seeds, ks = grid.seeds.tolist(), grid.ks.tolist()
    cells = [[], []]
    for worker, task, end in zip(range(1, len(result.rounds) + 1), result.lifted.tolist(), result.rounds.tolist()):
        last = grid.total - 1 if end < 0 else end  # a fallback element is live in every round
        for s, x in enumerate((worker, task)):
            cells[s] += [(r * grid.K + _bin_of(seeds[s][r], x, ks[r]), x) for r in range(last + 1)]
    return [sorted(side) for side in cells]


def assert_cache_is_fresh(session, T):
    """The session's cache, if built, holds what a cache built from ``assign``'s result on ``T`` holds."""
    cache = session._cache
    if cache is None or cache.cells is None:
        return
    fresh = assigner._Cache(session._grid, T, assign(session.schedule, T))
    fresh._build()
    assert cache.end == fresh.end
    assert cache.result == fresh.result
    assert cache_cells(cache) == cache_cells(fresh)


class TestAssignSession:
    @settings(max_examples=80, deadline=None)
    @given(
        w=st.sampled_from([16, 40, 96, 159, 160, 161, 300, 1024]),
        t=st.sampled_from([1, 3, 50, 2**33 + 7]),
        c=st.integers(1, 2),
        master_seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_walk_matches_assign(self, w, t, c, master_seed, data):
        schedule = build_schedule(w, t, c, master_seed)
        # Truncated schedules leave residuals, so fallbacks come and go
        # between steps and the executed round count changes; with no rounds
        # kept every call is the fallback.
        keep = data.draw(st.none() | st.integers(0, schedule.total_rounds), label="rounds kept")
        if keep is not None:
            schedule = RoundSchedule(w, t, c, master_seed, schedule.rounds[:keep])
        adjacent = ["step"] * 3 + ["varying"] * 3
        moves = data.draw(
            st.lists(st.sampled_from(adjacent + ["restart", "same", "empty"]), max_size=16), label="moves"
        )
        if w > 1000:
            moves = moves[:4]  # each call costs milliseconds at w=1024
        rng = data.draw(st.randoms(use_true_random=False))
        # A hypothesis rng draws mostly small tasks; reflecting each x to t + 1 - x keeps
        # every step adjacent and puts the lifted ids at the top of the range.
        top = data.draw(st.booleans(), label="tasks from the top")
        session = assigner.AssignSession(schedule)
        for T in walk_inputs(rng, w, t, moves):
            if top:
                T = TaskMultiset.from_elements((t + 1 - x for x in T), t)
            got, want = session(T), assign(schedule, T)
            assert got.assignment == want.assignment
            assert got.fallback_pairs == want.fallback_pairs
            assert got.per_round_pairs == want.per_round_pairs
            assert got.lifted_tasks == want.lifted_tasks
            assert got.match_rounds == want.match_rounds
            assert got.rounds_executed == want.rounds_executed
            assert_cache_is_fresh(session, T)
        assert session.calls == len(moves) + 1

    def test_pinned_walk_at_w1024(self):
        schedule = build_schedule(1024, 65536, 4, 5)
        session = assigner.AssignSession(schedule)
        rng = Random(11)
        T = random_multiset(1024, 65536, rng)
        for _ in range(50):
            assert session(T) == assign(schedule, T)
            assert_cache_is_fresh(session, T)
            T = adjacent_step(T, rng, w=1024)
        assert session.calls == 50 and session.replays == 49
        assert 0 < session.changed_rounds / session.replays < 40

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("w", [assigner.SESSION_MIN_W, 333])
    def test_long_walk_matches_assign(self, w, cut):
        # The hypothesis walk test caps walks at 16 moves; this walk makes 300.
        # Half the runs at t = 2**33 + 7 end within about the first tenth of
        # the schedule, so the cut keeps a tenth of it: residuals are left on
        # some inputs but not on others, and fallbacks come and go.
        t = 2**33 + 7
        schedule = build_schedule(w, t, 1, w)
        if cut:
            schedule = RoundSchedule(w, t, 1, w, schedule.rounds[: schedule.total_rounds // 10])
        rng = Random(w + cut)
        moves = rng.choices(["step", "varying", "restart"], weights=[48, 48, 4], k=299)
        moves.insert(150, "empty")
        session = assigner.AssignSession(schedule)
        fallbacks = set()
        for i, T in enumerate(walk_inputs(rng, w, t, moves)):
            want = assign(schedule, T)
            assert session(T) == want
            if i % 10 == 0:
                assert_cache_is_fresh(session, T)
            fallbacks.add(want.fallback_pairs)
        assert session.calls == 301 and session.replays > 250
        assert (len(fallbacks) > 1 and 0 in fallbacks) if cut else fallbacks == {0}

    @pytest.mark.parametrize(("w", "t"), [(160, 2), (200, 5), (200, 800), (256, 3), (256, 2**33 + 7)])
    def test_jumps_of_several_ids_match_assign(self, w, t):
        # Inputs up to four edits apart, so a replay often starts from several
        # new-only elements of one side; two of them that share a bin queue it
        # twice, and the second event must not resolve it again.
        schedule = build_schedule(w, t, 2, w + t)
        session = assigner.AssignSession(schedule)
        rng = Random(w * t)
        elements = [rng.randint(1, t) for _ in range(rng.randint(1, w))]
        for _ in range(150):
            T = TaskMultiset.from_elements(elements, t)
            assert session(T) == assign(schedule, T)
            for _ in range(rng.randint(1, 4)):
                move = rng.random()
                if move < 0.2 and len(elements) < w:
                    elements.append(rng.randint(1, t))
                elif move < 0.4 and len(elements) > 1:
                    elements.pop(rng.randrange(len(elements)))
                else:
                    elements[rng.randrange(len(elements))] = rng.randint(1, t)
        assert session.replays > 100

    def test_every_resolved_bin_holds_a_delta_element(self, monkeypatch):
        # A replay resolves a bin only at an event whose element is still in
        # the delta: live in one run and not the other in that round, by the
        # two runs' traces. A bin without one has the same members in both
        # runs, so resolving it could change nothing (see _Replay), but it
        # costs a _resolve call; size-varying steps add and remove workers.
        schedule = build_schedule(1024, 65536, 4, 5)
        seeds, ks = schedule.rounds.seeds.tolist(), schedule.rounds.ks.tolist()
        total = schedule.total_rounds
        resolved = []
        resolve = assigner._Replay._resolve
        monkeypatch.setattr(assigner._Replay, "_resolve", lambda self, r, b: resolved.append((r, b)) or resolve(self, r, b))
        session = assigner.AssignSession(schedule)
        rng = Random(23)
        T = random_multiset(1000, 65536, rng)
        old, calls = session(T), 0
        for step in range(60):
            T = adjacent_step(T, rng, w=1024, size_varying=step % 2 == 1)
            resolved.clear()
            new = session(T)
            assert new == assign(schedule, T)
            ends = [
                [dict(zip(ids.tolist(), (total if r < 0 else r for r in result.rounds.tolist()))) for ids in
                 (result.assignment.workers, result.lifted)]
                for result in (old, new)
            ]
            moved = [  # (side, element, old end, new end), -1 where it is not in the input
                (s, x, a, z)
                for s in (0, 1)
                for x in ends[0][s].keys() | ends[1][s].keys()
                if (a := ends[0][s].get(x, -1)) != (z := ends[1][s].get(x, -1))
            ]
            for r, b in resolved:
                assert any((a < r <= z or z < r <= a) and _bin_of(seeds[s][r], x, ks[r]) == b for s, x, a, z in moved)
            calls += len(resolved)
            old = new
        assert session.replays == 60 and calls > 300

    def test_fallbacks_come_and_go(self):
        # A cut schedule at w=200 leaves residuals on some inputs of the walk
        # but not on others, so the incremental path moves pairs in and out
        # of the fallback and changes the executed round count.
        full = build_schedule(200, 50, 1, 3)
        schedule = RoundSchedule(200, 50, 1, 3, full.rounds[:120])
        session = assigner.AssignSession(schedule)
        rng = Random(4)
        T = random_multiset(200, 50, rng)
        fallbacks, lengths = set(), set()
        for _ in range(60):
            want = assign(schedule, T)
            assert session(T) == want
            assert_cache_is_fresh(session, T)
            fallbacks.add(want.fallback_pairs)
            lengths.add(len(want.per_round_pairs))
            T = adjacent_step(T, rng, w=200, size_varying=True)
        assert session.replays == 59
        assert len(fallbacks) > 1 and 0 in fallbacks and len(lengths) > 1

    def test_only_the_incremental_path_builds_tables(self):
        schedule = build_schedule(192, 40, 2, 8)
        session = assigner.AssignSession(schedule)
        rng = Random(9)
        T = random_multiset(192, 40, rng)
        # A first call, then inputs far from the one before: all full runs.
        for U in (T, random_multiset(192, 40, rng), T):
            assert session(U) == assign(schedule, U)
            assert session._cache.cells is None
        U = adjacent_step(T, rng, w=192)
        assert session(U) == assign(schedule, U)
        assert session._cache.cells is not None and session.replays == 1

    @pytest.mark.parametrize(("w", "t", "cut"), [(200, 800, False), (200, 800, True), (160, 2**33 + 7, False)])
    def test_build_matches_a_scalar_reference(self, w, t, cut):
        schedule = build_schedule(w, t, 1, w)
        if cut:  # most inputs leave a residual, so fallback elements end at the schedule's length
            schedule = RoundSchedule(w, t, 1, w, schedule.rounds[: schedule.total_rounds // 10])
        grid = assigner._Grid(w, schedule.rounds.seeds, schedule.rounds.ks)
        rng = Random(w + cut)
        fallbacks = 0
        for size in (1, 2, w // 3, w):
            T = random_multiset(size, t, rng)
            result = assign(schedule, T)
            fallbacks += result.fallback_pairs
            cache = assigner._Cache(grid, T, result)
            cache._build()
            ends = [grid.total if r < 0 else r for r in result.rounds.tolist()]
            assert cache.end == (dict(zip(range(1, size + 1), ends)), dict(zip(result.lifted.tolist(), ends)))
            assert cache_cells(cache) == scalar_cells(grid, result)
        assert (fallbacks > 0) == cut

    def test_small_schedules_keep_no_cache(self):
        # A schedule with no rounds is all fallback, whatever its w.
        empty = RoundSchedule(192, 9, 2, 1, build_schedule(192, 9, 2, 1).rounds[:0])
        small = [build_schedule(w, 9, 2, 1) for w in (4, assigner.SESSION_MIN_W - 1)]
        for schedule in (*small, empty):
            w = schedule.w
            session = assigner.AssignSession(schedule)
            rng = Random(w)
            T = random_multiset(w, 9, rng)
            for _ in range(5):
                assert session(T) == assign(schedule, T)
                T = adjacent_step(T, rng, w=w)
            assert session.calls == 5 and session.replays == 0 and session._cache is None

    def test_walk_with_lifted_ids_past_2_63_replays(self):
        # Ids past 2**63 that still fit a uint64 are kept in the tables.
        w, t = 256, (2**64 - 1) // 256
        schedule = build_schedule(w, t, 4, 7)
        session = assigner.AssignSession(schedule)
        rng = Random(12)
        T = random_multiset(w, t, rng)
        assert lift_np(T, w).max() >= 1 << 63
        for _ in range(40):
            assert session(T) == assign(schedule, T)
            T = adjacent_step(T, rng, w=w)
        assert session.calls == 40 and session.replays == 39

    def test_universes_past_2_64_keep_no_cache(self):
        # Ids from 2**64 on are Python ints, which the tables do not hold.
        schedule = build_schedule(256, 2**56 + 3)
        assert schedule.n >= 1 << 64
        session = assigner.AssignSession(schedule)
        rng = Random(13)
        T = random_multiset(256, schedule.t, rng)
        for _ in range(5):
            assert session(T) == assign(schedule, T)
            T = adjacent_step(T, rng, w=256)
        assert session.calls == 5 and session.replays == 0 and session._cache is None

    def test_replay_memory_follows_the_input(self):
        # A table with a slot for each of w = 2**22 workers would take tens
        # of MB; the session's tables grow with the 3-task inputs instead.
        schedule = build_schedule(2**22, 8, 1, 0)
        session = assigner.AssignSession(schedule)
        rng = Random(6)
        T = random_multiset(3, 8, rng)
        session(T)
        for _ in range(6):
            T = adjacent_step(T, rng, w=schedule.w)
            tracemalloc.start()
            try:
                got = session(T)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20
            assert got == assign(schedule, T)
        assert session.replays == 6

    @pytest.mark.parametrize(("w", "t"), [(300, 1200), (1024, 65536)])
    def test_a_replay_hashes_no_kept_round_twice(self, monkeypatch, w, t):
        # Every (side, element, round) that bins_np hashes in a replayed walk,
        # the build's included, is hashed once while its element stays in the
        # input: the rows keep it. Nothing is evicted under this cap.
        schedule = build_schedule(w, t, 4, 7)
        where = {seed: (s, r) for s, side in enumerate(schedule.rounds.seeds.tolist()) for r, seed in enumerate(side)}
        assert len(where) == 2 * schedule.total_rounds
        monkeypatch.setattr(assigner, "_ROW_BINS", 1 << 62)
        session = AssignSession(schedule)
        rng = Random(w)
        T = random_multiset(w, t, rng)
        session(T)  # a full run, on the engine
        hashed = []
        real = assigner.bins_np

        def counting(seed, x, k):
            seeds, ids = np.broadcast_arrays(seed, x)
            hashed.extend(zip(seeds.ravel().tolist(), ids.ravel().tolist()))
            return real(seed, x, k)

        monkeypatch.setattr(assigner, "bins_np", counting)
        seen = {}  # (side, element) -> the rounds hashed for it since it joined the input
        for step in range(200):
            T = adjacent_step(T, rng, w=w, size_varying=step % 4 == 3)
            hashed.clear()
            session(T)
            for seed, x in hashed:
                s, r = where[seed]
                rounds = seen.setdefault((s, x), set())
                assert r not in rounds
                rounds.add(r)
            inputs = (set(range(1, len(T) + 1)), set(lift(T, w)))
            for key in [key for key in seen if key[1] not in inputs[key[0]]]:
                del seen[key]
        assert session.replays == 200 and seen

    def test_rows_hold_each_elements_bins(self):
        # Every row the store reads, kept or the build's, is its element's
        # bins from round 0 on, in the narrowest dtype that holds K, and the
        # kept rows are all of elements in the input.
        schedule = build_schedule(300, 1200, 2, 4)
        seeds, ks = schedule.rounds.seeds.tolist(), schedule.rounds.ks.tolist()
        session = AssignSession(schedule)
        rng = Random(12)
        T = random_multiset(250, 1200, rng)
        for step in range(120):
            session(T)
            T = adjacent_step(T, rng, w=300, size_varying=step % 2 == 0)
        cache = session._cache
        inputs = (set(range(1, len(cache.T) + 1)), set(lift(cache.T, 300)))
        assert {x for s, x in cache.rows} and all(x in inputs[s] for s, x in cache.rows)
        assert cache.row_bins == sum(row.size for row in cache.rows.values())
        for s in (0, 1):
            for x in inputs[s]:
                row = cache.row(s, x)
                assert row.dtype == np.uint16 and row.size >= min(cache.end[s][x] + 1, cache.grid.total)
                assert row.tolist() == [_bin_of(seeds[s][r], x, ks[r]) for r in range(row.size)]

    def test_rows_past_the_cap_are_dropped_oldest_first(self, monkeypatch):
        # A small cap drops rows after most calls. The rows a call writes go
        # last, those dropped for the cap are the ones written longest ago,
        # and a dropped row is hashed again when it is read.
        monkeypatch.setattr(assigner, "_ROW_BINS", 3000)
        schedule = build_schedule(300, 1200, 2, 5)
        session = AssignSession(schedule)
        rng = Random(13)
        T = random_multiset(300, 1200, rng)
        before, evicted = {}, 0
        for step in range(150):
            assert session(T) == assign(schedule, T)
            assert_cache_is_fresh(session, T)
            cache = session._cache
            rows = cache.rows if cache.cells is not None else {}
            assert sum(row.size for row in rows.values()) == getattr(cache, "row_bins", 0) <= 3000
            inputs = (set(range(1, len(T) + 1)), set(lift(T, 300)))
            written = [key for key, row in rows.items() if before.get(key) is not row]
            assert list(rows)[len(rows) - len(written):] == written
            kept = [key in rows for key in before if key[1] in inputs[key[0]] and key not in written]
            assert kept == sorted(kept)  # the dropped ones first
            evicted += kept.count(False)
            before = dict(rows)
            T = adjacent_step(T, rng, w=300, size_varying=step % 3 == 0)
        assert session.replays == 149 and evicted

    def test_rows_stay_bounded_over_a_long_walk(self):
        # 1000 replayed steps at w=1024: the rows, two bytes a bin, hold about
        # half a million bins by then; int64 rows would take four times that.
        schedule = build_schedule(1024, 65536, 4, 3)
        rng = Random(3)
        T = random_multiset(1024, 65536, rng)
        session = AssignSession(schedule)
        tracemalloc.start()
        try:
            for _ in range(1000):
                T = adjacent_step(T, rng, w=1024)
                session(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert session.replays == 999
        assert peak < 3 << 20

    @pytest.mark.parametrize("w", [2**25 + 1, 2**26])
    def test_cells_past_63_bits_keep_no_cache(self, w):
        # With t = 2 and c = 1, a cell ``(round * K + bin) << shift | slot``
        # fits in an int64 up to w = 2**25 and no longer from 2**25 + 1 on,
        # so the session keeps no grid.
        assert assigner.AssignSession(build_schedule(2**25, 2, 1, 0))._grid is not None
        schedule = build_schedule(w, 2, 1, 0)
        grid = assigner._Grid(schedule.w, schedule.rounds.seeds, schedule.rounds.ks)
        assert (grid.total * grid.K) << grid.shift >= 1 << 63
        session = assigner.AssignSession(schedule)
        assert session._grid is None
        rng = Random(2)
        T = random_multiset(3, 2, rng)
        for _ in range(3):
            assert session(T) == assign(schedule, T)
            T = adjacent_step(T, rng, w=schedule.w)
        assert session.calls == 3 and session.replays == 0 and session._cache is None

    def test_no_call_builds_the_per_round_pairs(self):
        # The trace is the per-worker match rounds; the per-round pair sets
        # are built only when read, on assign, a session replay and a walk step.
        schedule = build_schedule(192, 40, 2, 8)
        rng = Random(5)
        T = random_multiset(192, 40, rng)
        U = adjacent_step(T, rng, w=192)
        session = assigner.AssignSession(schedule)
        session(T)
        step = harness.make_assigner("mrbb", 192, 40, 2, 8)
        step(T)
        results = [assign(schedule, U), session(U)]
        assert session.replays == 1
        for result in results:
            assert "per_round_pairs" not in vars(result)
        results.append(step(U).result)
        assert "per_round_pairs" not in vars(results[-1])
        assert all(result.per_round_pairs == results[0].per_round_pairs for result in results)
        assert "per_round_pairs" in vars(results[0])

    def test_a_call_that_raises_drops_the_cache(self):
        schedule = build_schedule(192, 40, 2, 8)
        session = assigner.AssignSession(schedule)
        rng = Random(8)
        T = random_multiset(192, 40, rng)
        session(T)
        for bad, message in (
            (TaskMultiset.from_elements([1], 41), "does not match"),
            (random_multiset(193, 40, rng), "larger than worker count"),
        ):
            with pytest.raises(ValueError, match=message):
                session(bad)
            with pytest.raises(ValueError, match=message):
                assign(schedule, bad)
            assert session._cache is None
            T = adjacent_step(T, rng, w=192)
            assert session(T) == assign(schedule, T)
        assert session.calls == 3 and session.replays == 0
        T = adjacent_step(T, rng, w=192)
        assert session(T) == assign(schedule, T) and session.replays == 1
