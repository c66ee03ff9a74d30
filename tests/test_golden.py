"""Golden digests of whole results, pinned so a change of storage or engine cannot move an output.

Each case hashes the ``repr`` of every output a result exposes: the pairs,
the lifted tasks, the match rounds, the executed round count, the fallback
count and, for embeddings, the code's coordinates. The digests were computed
before results kept their arrays, from results that held tuples.
"""
import hashlib
from random import Random

import pytest

from lowchurn.assigner import (
    AssignSession,
    DisperserFamily,
    assign,
    assign_set,
    build_schedule,
    explicit_schedule,
)
from lowchurn.core import adjacent_step, random_multiset
from lowchurn.embed import SparseVector, embed_with_result


def fields(res) -> tuple:
    return (res.assignment.pairs, res.lifted_tasks, res.match_rounds, res.rounds_executed, res.fallback_pairs)


def digest(*outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def assign_case(w, t, size):
    schedule = build_schedule(w, t, 4, w + t)
    return digest(fields(assign(schedule, random_multiset(size, t, Random(size)))))


def embed_case(w, t):
    rng = Random(w)
    code, res = embed_with_result(build_schedule(w, t, 4, 3), SparseVector.from_support(t, rng.sample(range(1, t + 1), w)))
    return digest(code.coords, fields(res))


def assign_set_case():
    # Workers spread over [1, w] rather than 1..n, and ids far apart in [1, w*t].
    schedule = build_schedule(300, 1000, 2, 9)
    rng = Random(9)
    workers = rng.sample(range(1, 301), 120)
    tasks = rng.sample(range(1, 300 * 1000 + 1), 120)
    return digest(fields(assign_set(schedule, workers, tasks)))


def object_dtype_case():
    # w * t >= 2**64: ids are Python ints and the scalar loop runs.
    w, t = 4, 2**63
    schedule = build_schedule(w, t, 1, 5)
    rng = Random(5)
    return digest(*(fields(assign(schedule, random_multiset(size, t, rng))) for size in (0, 2, 4)))


def session_case():
    schedule = build_schedule(1024, 4096, 4, 17)
    session, rng = AssignSession(schedule), Random(17)
    T, out = random_multiset(1024, 4096, rng), []
    for step in range(20):
        out.append(fields(session(T)))
        T = adjacent_step(T, rng, w=1024, size_varying=step % 2 == 1)
    assert session.replays == 19  # every call after the first takes the incremental path
    return digest(*out)


def explicit_families(w, t, rng, D=None):
    """One random-table family per level over N = w*t, declared for the level's min-entropy."""
    levels = max(1, (w - 1).bit_length())
    return [DisperserFamily.random_table(w * t, D or rng.randint(1, 4), 2**k, k, 0.25, rng)
            for k in range(levels - 1, -1, -1)]


def explicit_case():
    # The explicit variant on the array engine: multisets at a few sizes, then set inputs, the
    # last on one seed per level so that it ends in the fallback. Pinned when the explicit
    # variant had entry points of its own.
    rng, out = Random(21), []
    for w, t in ((1, 3), (4, 3), (9, 4), (32, 6)):
        families = explicit_families(w, t, rng)
        for size, reps in ((0, 2), (w // 2, 2), (w, 1)):
            out.append(fields(assign(explicit_schedule(families, reps, w, t), random_multiset(size, t, rng))))
    for D, reps, size in ((None, 3, 10), (1, 1, 16)):
        families = explicit_families(16, 20, rng, D)
        workers, tasks = rng.sample(range(1, 17), size), rng.sample(range(1, 16 * 20 + 1), size)
        out.append(fields(assign_set(explicit_schedule(families, reps, 16, 20), workers, tasks)))
    return digest(*out)


ASSIGN_PINS = {
    (64, 256, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (64, 256, 32): "f0d4a18076cc745bace0fa207102a8c52affe274456deacca9af5805c2783452",
    (64, 256, 64): "e181dd37286c549754be98f6fd70161e693d00524cdb3da00916e95c983e6c91",
    (64, 4096, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (64, 4096, 32): "6b20b9103edfb362317c365c5a3bddb13a94ee82e6e3958c6adfc0c2617b1d7e",
    (64, 4096, 64): "d14e54b45c6efb6f62002a039f9bf2d578acd7a6a66f2670662594aa42d0feb1",
    (1024, 4096, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (1024, 4096, 512): "1db7270dbbd5af444595e5f91e65e3ea635c19748d073fe6de02cccf4d8f8ada",
    (1024, 4096, 1024): "5498ea313658069e4efe45934413c5aeddef838355ab17df0e88d7f690fd2214",
    (1024, 65536, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (1024, 65536, 512): "3dceaef4a0f7376bf327d5d0c9f0add68e1b009f9dbd3017e6642578a1e064f4",
    (1024, 65536, 1024): "7cc4bd7736b6dcdcfbae5136f9755f30a8bc316da98a95cd59474e7bedc71a2e",
    (16384, 65536, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (16384, 65536, 8192): "c99477b3877e17ac848866a83575116c8360e02dea6263ce658069bcb0cc754f",
    (16384, 65536, 16384): "30d99b1c4fb5f2551a2fb565edc9ca1f4d63e0676dec5eebe21e39e1414f6c39",
    (16384, 1048576, 0): "23657bbee16a24367d8e5cac38b407b32d965a65d40ab53e7d9bb0c84ceaff39",
    (16384, 1048576, 8192): "35d2664a4589f482f1c3ea144462ed20c5453da2fc60551c78d05820268fa7a3",
    (16384, 1048576, 16384): "2890632e41ef8ed559b50759096b1d1c20c63f944322305b14a35ec451c0cfe6",
}

OTHER_PINS = {
    "embed-64": "15466cdcf71413c0d6b5ab3660a4ccfc9bd0008b1dd8c6f19995540979be2c0d",
    "embed-1024": "b393c8f7d6eab212bc360fed462e9d9ec8edb2a1739e123fb9149de08d6f20fc",
    "assign_set": "c0b6a5357be11519b8546044b50a37b73f5f787c9204b91f5dfa4cc7b99b880d",
    "object-dtype": "6e0916a5ab8d2c9b8c57808e908f65ad01be31022194fbaad066d671496fba7c",
    "session": "a5320f049181c216c105bc4e1ac461363c8b5d70560f582896166e0037dfb68e",
    "explicit": "00e95782c439ac98ac689be5552980069f012a687a7e3813b3e0600b17dc03ae",
}


@pytest.mark.parametrize("w, t, size", sorted(ASSIGN_PINS))
def test_assign_matches_its_pin(w, t, size):
    assert assign_case(w, t, size) == ASSIGN_PINS[w, t, size]


@pytest.mark.parametrize("name", sorted(OTHER_PINS))
def test_other_paths_match_their_pins(name):
    case = {"embed-64": lambda: embed_case(64, 256), "embed-1024": lambda: embed_case(1024, 4096),
            "assign_set": assign_set_case, "object-dtype": object_dtype_case, "session": session_case,
            "explicit": explicit_case}[name]
    assert case() == OTHER_PINS[name]
