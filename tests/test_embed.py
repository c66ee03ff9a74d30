import time
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowchurn.assigner import assign, build_schedule
from lowchurn.core import TaskMultiset, switching_cost
from lowchurn.embed import (
    DenseCode,
    SparseVector,
    distortion_audit,
    embed,
    embed_with_result,
    hamming,
)


def vec(n, *positions):
    return SparseVector.from_support(n, positions)


class TestSparseVector:
    def test_parse_binary(self):
        v = SparseVector.parse("6 3 2,4,5")
        assert v.n == 6 and v.weight == 3
        assert v.entries == ((2, 1), (4, 1), (5, 1))
        assert v.is_binary

    def test_parse_valued(self):
        v = SparseVector.parse("6 4 2:2,5:1,6:1")
        assert v.weight == 4
        assert not v.is_binary
        assert v.to_multiset().elements() == (2, 2, 5, 6)

    def test_parse_rejects_weight_mismatch(self):
        with pytest.raises(ValueError):
            SparseVector.parse("6 2 2,4,5")

    def test_parse_rejects_duplicate_position(self):
        with pytest.raises(ValueError):
            SparseVector.parse("6 2 2,2")

    def test_parse_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SparseVector.parse("6 2")

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector.parse("4 1 5")

    @pytest.mark.parametrize(
        "n, entries, message",
        [
            (0, (), "dimension must be >= 1"),
            (4, ((5, 1),), r"position 5 outside \[1, 4\]"),
            (4, ((2, 1), (2, 1)), "positions must be strictly increasing"),
            (4, ((1, 1), (2, 0)), "stored values must be >= 1"),
        ],
    )
    def test_invalid_entries_rejected_by_the_vector(self, n, entries, message):
        with pytest.raises(ValueError, match=message):
            SparseVector(n, entries)

    def test_to_multiset_is_the_checked_multiset(self):
        rng = Random(4)
        vectors = [
            SparseVector(5, ()),
            vec(9, 1, 4, 9),
            SparseVector.from_support(2000, rng.sample(range(1, 2001), 700)),
            SparseVector.from_values(30, {p: rng.randint(1, 5) for p in rng.sample(range(1, 31), 12)}),
        ]
        for x in vectors:
            m = x.to_multiset()
            assert m == TaskMultiset(x.entries, x.n) and hash(m) == hash(TaskMultiset(x.entries, x.n))
            assert len(m) == m.size == x.weight == sum(value for _, value in x.entries)
            assert len(m.elements()) == x.weight


class TestHamming:
    def test_identical_codes(self):
        u = DenseCode((4, 2, 5))
        assert hamming(u, u) == 0

    def test_one_coordinate(self):
        assert hamming(DenseCode((4, 2, 5)), DenseCode((4, 2, 6))) == 1

    def test_binary_vectors_symmetric_difference(self):
        assert hamming(vec(8, 2, 4, 5), vec(8, 2, 4, 6)) == 2

    def test_l1_mode(self):
        x = SparseVector.from_values(6, {2: 3, 5: 1})
        y = SparseVector.from_values(6, {2: 1, 4: 2, 5: 1})
        assert hamming(x, y) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hamming(vec(8, 1), vec(9, 1))
        with pytest.raises(ValueError):
            hamming(DenseCode((1, 2)), DenseCode((1, 2, 3)))

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            hamming(vec(8, 1), DenseCode((1,)))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        a=st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=12),
        b=st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=12),
    )
    def test_vector_distance_matches_per_position_formula(self, n, a, b):
        x = SparseVector.from_values(n, {p: v for p, v in a.items() if p <= n})
        y = SparseVector.from_values(n, {p: v for p, v in b.items() if p <= n})
        positions = {p for p, _ in x.entries} | {p for p, _ in y.entries}
        expected = sum(
            abs(dict(x.entries).get(p, 0) - dict(y.entries).get(p, 0)) for p in positions
        )
        assert hamming(x, y) == expected

    def test_vector_distance_is_linear_in_weight(self):
        # Rebuilding a dict per position made this quadratic in the weight:
        # 0.75 s at weight 2000, so about 50 s for this pair.
        rng = Random(3)
        x = vec(65536, *rng.sample(range(1, 65537), 16384))
        y = vec(65536, *rng.sample(range(1, 65537), 16384))
        start = time.perf_counter()
        d = hamming(x, y)
        assert time.perf_counter() - start < 0.5
        assert d == len({p for p, _ in x.entries} ^ {p for p, _ in y.entries})


class TestEmbed:
    def test_coords_follow_the_assignment(self):
        # x = (0,1,0,1,1,0): the code is exactly the workers' tasks on {2,4,5}.
        schedule = build_schedule(3, 6, c=4, master_seed=11)
        x = vec(6, 2, 4, 5)
        code = embed(schedule, x)
        expected = assign(schedule, x.to_multiset()).assignment
        assert code.coords == tuple(task for _, task in expected.pairs)
        assert sorted(code.coords) == [2, 4, 5]

    def test_full_support_gives_permutation(self):
        n = 6
        schedule = build_schedule(n, n, c=4, master_seed=2)
        code = embed(schedule, vec(n, *range(1, n + 1)))
        assert sorted(code.coords) == list(range(1, n + 1))

    def test_injective_over_random_sample(self):
        k, n = 8, 64
        schedule = build_schedule(k, n, c=4, master_seed=7)
        rng = Random(15)
        supports = {tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(1000)}
        codes = {embed(schedule, SparseVector.from_support(n, s)).coords for s in supports}
        assert len(codes) == len(supports)

    def test_weight_mismatch_rejected(self):
        schedule = build_schedule(3, 6)
        with pytest.raises(ValueError):
            embed(schedule, vec(6, 2, 4))

    def test_dimension_mismatch_rejected(self):
        schedule = build_schedule(3, 6)
        with pytest.raises(ValueError):
            embed(schedule, vec(7, 2, 4, 5))

    def test_valued_vectors_embed_through_multiset(self):
        schedule = build_schedule(3, 6, master_seed=4)
        x = SparseVector.from_values(6, {2: 2, 5: 1})
        code, result = embed_with_result(schedule, x)
        assert sorted(code.coords) == [2, 2, 5]
        assert result.assignment.realizes(x.to_multiset())


class TestDistortionAudit:
    def test_single_swap_pair_is_forced(self):
        schedule = build_schedule(4, 12, master_seed=3)
        x = vec(12, 1, 2, 3, 4)
        y = vec(12, 1, 2, 3, 5)
        report = distortion_audit(schedule, [(x, y)])
        row = report.pairs[0]
        assert row.input_distance == 2
        assert row.code_distance >= 1
        assert report.min_ratio >= 0.5

    def test_random_sample_bounds(self):
        k, n = 6, 32
        schedule = build_schedule(k, n, c=4, master_seed=21)
        rng = Random(22)
        vectors = [
            SparseVector.from_support(n, rng.sample(range(1, n + 1), k)) for _ in range(25)
        ]
        pairs = [(a, b) for a, b in combinations(vectors, 2)]
        report = distortion_audit(schedule, pairs)
        assert report.lower_bound_ok
        assert report.min_ratio >= 0.5
        assert report.fallback_pairs == 0
        assert report.max_ratio <= report.structural_ceiling
        assert report.structural_ceiling == 2 * schedule.total_rounds

    def test_identical_pairs_skipped(self):
        schedule = build_schedule(2, 6, master_seed=1)
        x = vec(6, 1, 2)
        report = distortion_audit(schedule, [(x, x)])
        assert report.pairs == ()
        assert report.skipped_identical == 1
        assert report.min_ratio is None
        assert report.lower_bound_ok

    def test_chain_inequality(self):
        # Ham(code_x, code_y) is at most the summed cost along any adjacent
        # support chain from T(x) to T(y).
        k, n = 5, 20
        schedule = build_schedule(k, n, c=4, master_seed=31)
        rng = Random(32)
        for _ in range(20):
            sx = set(rng.sample(range(1, n + 1), k))
            sy = set(rng.sample(range(1, n + 1), k))
            if sx == sy:
                continue
            x, y = SparseVector.from_support(n, sx), SparseVector.from_support(n, sy)
            code_x, res_x = embed_with_result(schedule, x)
            code_y, res_y = embed_with_result(schedule, y)
            chain = [set(sx)]
            cur = set(sx)
            outs, ins = sorted(sx - sy), sorted(sy - sx)
            for off, on in zip(outs, ins):
                cur = (cur - {off}) | {on}
                chain.append(set(cur))
            assert chain[-1] == sy
            assignments = [
                assign(schedule, SparseVector.from_support(n, s).to_multiset()).assignment
                for s in chain
            ]
            chain_cost = sum(
                switching_cost(a, b) for a, b in zip(assignments, assignments[1:])
            )
            assert hamming(code_x, code_y) <= chain_cost
            d = len(outs)
            assert chain_cost <= d * 4 * schedule.total_rounds

    def test_l1_lower_bound(self):
        k, n = 4, 10
        schedule = build_schedule(k, n, c=4, master_seed=41)
        rng = Random(42)
        vectors = []
        for _ in range(12):
            positions = rng.sample(range(1, n + 1), 2)
            vectors.append(SparseVector.from_values(n, {positions[0]: 3, positions[1]: 1}))
        report = distortion_audit(schedule, list(combinations(vectors, 2)))
        assert report.lower_bound_ok
