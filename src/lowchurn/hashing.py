"""Seeded 64-bit mixing shared by every deterministic hash in the package.

All bin placements and priority keys are derived from ``mix64`` chains with
explicitly passed seeds, so any result is reproducible from its seed alone.
Bit-exactness is promised within one build of this library, not across
implementations.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed, well-scrambling bijection on 64-bit words."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * MUL1) & MASK64
    x = ((x ^ (x >> 27)) * MUL2) & MASK64
    return x ^ (x >> 31)


def derive(*parts: int) -> int:
    """Fold integers into a single 64-bit seed. Order-sensitive."""
    acc = GOLDEN
    for p in parts:
        acc = mix64(acc ^ ((p * GOLDEN) & MASK64))
    return acc


# The mixing constants as numpy scalars, made once: building them on every
# call cost about a third of a mix over a few hundred words.
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_GOLDEN, _MUL1, _MUL2 = np.uint64(GOLDEN), np.uint64(MUL1), np.uint64(MUL2)


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    x ^= x >> _S30
    x *= _MUL1
    x ^= x >> _S27
    x *= _MUL2
    x ^= x >> _S31
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array, bit-identical to the scalar."""
    return _mix64_inplace(x.astype(np.uint64, copy=True))


def derive_np(acc, part: np.ndarray) -> np.ndarray:
    """One step of :func:`derive`, ``mix64(acc ^ (part * GOLDEN mod 2**64))``, over uint64 arrays.

    ``acc`` broadcasts against ``part``, so ``derive_np(derive_np(np.uint64(
    derive(a)), i), j)`` gives ``derive(a, i, j)`` for a whole grid of ``i``
    and ``j`` at once.
    """
    return _mix64_inplace(np.bitwise_xor(part * _GOLDEN, acc))


def bins_np(seed, x: np.ndarray, k) -> np.ndarray:
    """Vectorized seeded bin ``mix64(seed ^ (x * GOLDEN mod 2**64)) % k`` over uint64 arrays.

    Bit-identical to the scalar bin of a seeded ``BinHash`` stage. ``seed``
    and ``k`` broadcast against ``x``, so a column of seeds and bin counts
    hashes one id vector under many stages at once.
    """
    h = derive_np(seed, x)
    if isinstance(k, np.ndarray):
        return h % k
    # numpy divides by one scalar much faster than it takes a remainder by one:
    # 150-160 us against 225-235 us over 2 x 16384 words. By an array of k, ``%``
    # is the faster.
    q = h // k
    q *= k
    return np.subtract(h, q, out=h)
