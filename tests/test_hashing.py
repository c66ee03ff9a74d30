import numpy as np

from lowchurn.binhash import _bin_of
from lowchurn.hashing import GOLDEN, MASK64, bins_np, derive, derive_np, mix64, mix64_np

EDGE_WORDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1] + [
    (m * GOLDEN) & MASK64 for m in (1, 2, 3, 2**32, 2**63 - 1)
]
BIN_COUNTS = [1, 2, 3, 10, 14895, 2**31 - 1, 2**63, 2**64 - 1]


def words(values):
    return np.array(values, dtype=np.uint64)


def test_mix64_np_matches_scalar_on_edge_words():
    got = mix64_np(words(EDGE_WORDS))
    assert got.dtype == np.uint64
    assert got.tolist() == [mix64(x) for x in EDGE_WORDS]


def test_mix64_np_leaves_its_input_alone():
    x = words(EDGE_WORDS)
    mix64_np(x)
    assert x.tolist() == EDGE_WORDS


def test_bins_np_matches_scalar_bin_on_edge_words():
    xs = words(EDGE_WORDS)
    for seed in EDGE_WORDS:
        for k in BIN_COUNTS:
            got = bins_np(np.uint64(seed), xs, np.uint64(k))
            assert got.dtype == np.uint64
            assert got.tolist() == [_bin_of(seed, x, k) for x in EDGE_WORDS], (seed, k)


def test_bins_np_broadcasts_a_column_of_rounds():
    seeds = words(EDGE_WORDS)[:, None]
    ks = words([BIN_COUNTS[i % len(BIN_COUNTS)] for i in range(len(EDGE_WORDS))])[:, None]
    xs = words(EDGE_WORDS)
    got = bins_np(seeds, xs, ks)
    assert got.shape == (len(EDGE_WORDS), len(EDGE_WORDS))
    for row, (seed, k) in enumerate(zip(seeds[:, 0].tolist(), ks[:, 0].tolist())):
        assert got[row].tolist() == [_bin_of(seed, x, k) for x in EDGE_WORDS]


def test_derive_np_steps_match_scalar_derive():
    parts = words(EDGE_WORDS)
    for first in (0, -1, 2**64 + 5, 2**63):
        got = derive_np(derive_np(np.uint64(derive(first)), parts)[:, None], parts)
        assert got.dtype == np.uint64
        assert got.tolist() == [[derive(first, i, j) for j in EDGE_WORDS] for i in EDGE_WORDS]
