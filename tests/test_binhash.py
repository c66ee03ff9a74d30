from random import Random

import pytest

from lowchurn.assigner import DisperserFamily, _run_stages, seed_sweep, single_bin_family
from lowchurn.binhash import BinHash, difference_score, is_matching
from lowchurn.core import WorkerTaskInput


def wt(workers, tasks):
    return WorkerTaskInput(frozenset(workers), frozenset(tasks))


def table_hash(k, worker_bins, task_bins):
    return BinHash(k, worker_bins.__getitem__, task_bins.__getitem__)


def random_input(rng, w_max=16, n_max=64):
    w = rng.randint(1, w_max)
    n = rng.randint(1, n_max)
    W = frozenset(rng.sample(range(1, w + 1), rng.randint(0, w)))
    T = frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 20))))
    return wt(W, T), w, n


def perturb(rng, inp, w, n, edits):
    """Apply up to ``edits`` single-element changes; each changes d by one."""
    W, T = set(inp.workers), set(inp.tasks)
    for _ in range(edits):
        side = W if rng.random() < 0.5 else T
        cap = w if side is W else n
        if side and rng.random() < 0.5:
            side.discard(rng.choice(sorted(side)))
        else:
            side.add(rng.randint(1, cap))
    return wt(W, T)


class TestApply:
    def test_single_bin_forced(self):
        out = BinHash.from_seed(1, seed=5).apply(wt({1}, {5}))
        assert out.matched == {(1, 5)}
        assert out.residual == wt(set(), set())
        assert out.active_bins == 1

    def test_hand_trace_two_bins(self):
        # bin 1 holds workers {1,2} and tasks {7,9}; bin 2 holds worker 3 and task 4.
        b = table_hash(2, {1: 1, 2: 1, 3: 2}, {4: 2, 7: 1, 9: 1})
        out = b.apply(wt({1, 2, 3}, {4, 7, 9}))
        assert out.matched == {(1, 7), (3, 4)}
        assert out.residual == wt({2}, {9})

    def test_no_active_bin(self):
        b = table_hash(2, {1: 1, 2: 1}, {3: 2, 4: 2})
        out = b.apply(wt({1, 2}, {3, 4}))
        assert out.matched == frozenset()
        assert out.residual == wt({1, 2}, {3, 4})

    def test_deterministic(self):
        b = BinHash.from_seed(7, seed=99)
        inp = wt({1, 4, 9, 16}, {2, 3, 5, 7})
        assert b.apply(inp) == b.apply(inp)

    def test_unbalanced_inputs_allowed(self):
        out = BinHash.from_seed(3, seed=1).apply(wt({1, 2, 3}, {5}))
        assert len(out.matched) <= 1

    def test_seeded_matches_callable_path(self):
        # The inlined fast path must agree with calling h1/h2 one by one.
        b = BinHash.from_seed(5, seed=42)
        generic = BinHash(5, b.h1, b.h2)
        inp = wt(set(range(1, 12)), set(range(3, 17)))
        assert b.apply(inp) == generic.apply(inp)

    def test_matched_is_always_a_matching(self):
        rng = Random(0)
        for _ in range(200):
            inp, _, _ = random_input(rng)
            out = BinHash.from_seed(rng.randint(1, 8), seed=rng.randrange(2**32)).apply(inp)
            assert is_matching(out.matched)
            assert out.active_bins == len(out.matched)
            assert out.residual.workers == inp.workers - {w for w, _ in out.matched}
            assert out.residual.tasks == inp.tasks - {t for _, t in out.matched}

    def test_bin_count_validated(self):
        with pytest.raises(ValueError):
            BinHash.from_seed(0, seed=1)


class TestDifferenceScore:
    def test_identical(self):
        assert difference_score(wt({1, 2}, {5, 6}), wt({1, 2}, {5, 6})) == 0

    def test_one_worker_swapped(self):
        assert difference_score(wt({1, 2}, {5, 6}), wt({1, 3}, {5, 6})) == 2

    def test_all_four_terms(self):
        assert difference_score(wt({1}, {5}), wt({2}, {6})) == 4


class TestStructuralGuarantees:
    def test_composition_friendly_random_search(self):
        # d(out1, out2) <= d(in1, in2) over arbitrary input pairs.
        rng = Random(31)
        for _ in range(2500):
            i1, w, n = random_input(rng)
            if rng.random() < 0.5:
                i2 = perturb(rng, i1, w, n, rng.randint(0, 4))
            else:
                i2, _, _ = random_input(rng)
                i2 = wt({x for x in i2.workers if x <= w}, {x for x in i2.tasks if x <= n})
            b = BinHash.from_seed(rng.randint(1, 16), seed=rng.randrange(2**32))
            o1, o2 = b.apply(i1), b.apply(i2)
            assert difference_score(o1.residual, o2.residual) <= difference_score(i1, i2)

    def test_matching_shift_at_most_twice_the_drift(self):
        rng = Random(37)
        for _ in range(2500):
            i1, w, n = random_input(rng)
            edits = rng.randint(0, 3)
            i2 = perturb(rng, i1, w, n, edits)
            d = difference_score(i1, i2)
            b = BinHash.from_seed(rng.randint(1, 16), seed=rng.randrange(2**32))
            delta = len(b.apply(i1).matched ^ b.apply(i2).matched)
            assert delta <= 2 * d


class TestCompose:
    """Stages composed by the scalar loop, each run on the residual of the one before."""

    def test_single_stage_equals_apply(self):
        b = BinHash.from_seed(4, seed=8)
        inp = wt({1, 2, 5}, {3, 6, 9})
        workers, tasks = set(inp.workers), set(inp.tasks)
        trace = _run_stages([b], workers, tasks)
        direct = b.apply(inp)
        assert frozenset().union(*trace) == direct.matched
        assert wt(workers, tasks) == direct.residual
        assert trace == [direct.matched]

    def test_second_stage_sees_nothing_when_first_matches_all(self):
        b1 = BinHash.from_seed(1, seed=3)  # single bin matches the min pair
        b2 = BinHash.from_seed(1, seed=4)
        trace = _run_stages([b1, b2], {2}, {7})
        assert frozenset().union(*trace) == {(2, 7)}
        assert len(trace) == 1  # trailing stages are skipped once empty
        matched, residual, trace = seed_sweep(single_bin_family(8, D=3), wt({2}, {7}))
        assert matched == {(2, 7)}
        assert residual == wt(set(), set())
        assert trace == [{(2, 7)}]

    def test_accounting_identity(self):
        rng = Random(41)
        for _ in range(100):
            inp, w, n = random_input(rng)
            D, M = rng.randint(1, 6), rng.randint(1, 6)
            family = DisperserFamily.random_table(max(w, n), D, M, 0, 0.25, rng)
            matched, residual, trace = seed_sweep(family, inp)
            assert sum(len(pairs) for pairs in trace) == len(matched)
            assert len(matched) == len(inp.workers) - len(residual.workers)
            assert len(matched) == len(inp.tasks) - len(residual.tasks)
            assert residual.workers == inp.workers - {w for w, _ in matched}
            assert is_matching(matched)


class TestActiveBinsStatistics:
    def test_mean_active_bins_smoke(self):
        # Full-criterion numbers live in the acceptance suite; this is a quick guard.
        k, trials = 64, 300
        rng = Random(53)
        elements = list(range(1, k + 1))
        total = 0
        for trial in range(trials):
            b = BinHash.from_seed(k, seed=rng.randrange(2**62))
            total += b.apply(wt(elements, elements)).active_bins
        assert total / trials >= 0.24 * k

    def test_residual_overflow_decays_with_k(self):
        rng = Random(59)

        def overflow_rate(k, trials=400):
            m = (11 * k) // 10
            workers = list(range(1, m + 1))
            bad = 0
            for _ in range(trials):
                b = BinHash.from_seed(k, seed=rng.randrange(2**62))
                out = b.apply(wt(workers, workers))
                bad += len(out.residual.workers) > k
            return bad / trials

        small, large = overflow_rate(8), overflow_rate(32)
        assert large <= small
        assert large == 0.0
