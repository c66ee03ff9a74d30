from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowchurn.core import Assignment, TaskMultiset, adjacent_step, is_adjacent, random_multiset, switching_cost
from lowchurn.reduction import decode, encode, lift, lift_np, lifted_changes, project_np


def ms(*elements, t=8):
    return TaskMultiset.from_elements(elements, t)


def test_lift_construction_by_hand():
    # Copies (i,1)..(i,m_T(i)) per task, applied to T={2,2,5} with w=3.
    ids = lift_np(ms(2, 2, 5), w=3).tolist()
    assert [decode(x, 3) for x in ids] == [(2, 1), (2, 2), (5, 1)]


def test_lift_empty():
    assert lift(ms(), w=3) == frozenset()


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: encode(1, 0, 3), "copy index 0 outside [1, 3]"),
        (lambda: encode(1, 4, 3), "copy index 4 outside [1, 3]"),
        (lambda: encode(0, 1, 3), "task ids start at 1"),
        (lambda: decode(0, 3), "encoded ids start at 1"),
    ],
)
def test_encode_and_decode_reject_ids_outside_their_ranges(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_encode_formula():
    # (base-1)*w + copy for T={1,1,1}, w=3 gives encoded {1,2,3}.
    assert lift(TaskMultiset.from_elements([1, 1, 1], 4), w=3) == frozenset({1, 2, 3})


def test_lift_size_matches():
    T = ms(1, 2, 2, 5, 5, 5)
    assert len(lift(T, w=6)) == len(T)


def test_multiplicity_above_w_rejected():
    with pytest.raises(ValueError):
        lift(ms(2, 2, 2), w=2)


def test_lift_np_edge_cases():
    empty = lift_np(ms(), w=3)
    assert empty.dtype == np.uint64 and empty.tolist() == []
    # A task taking every worker, next to one the encoding puts just below it.
    T = ms(2, 3, 3, 3)
    assert lift_np(T, w=3).tolist() == [4, 7, 8, 9]
    with pytest.raises(ValueError) as got:
        lift_np(ms(1, 4, 4, 4, 6, 6, 6, 6), w=3)
    assert str(got.value) == "multiplicity 4 of task 6 exceeds worker count 3"
    # Past 2**64 the ids are Python ints.
    huge = TaskMultiset.from_elements([2**62, 2**62], 2**62)
    ids = lift_np(huge, w=8)
    assert ids.dtype == object and ids.tolist() == [encode(2**62, 1, 8), encode(2**62, 2, 8)]


@given(
    st.integers(1, 6),
    st.sampled_from([1, 4, 9, 2**40]),
    st.lists(st.integers(1, 9), max_size=14),
)
def test_lift_np_matches_lift(w, t, elements):
    # Against the definition: copies 1..m of each task, encoded one by one.
    T = TaskMultiset.from_elements((min(e, t) for e in elements), t)
    if any(count > w for _, count in T.entries):
        with pytest.raises(ValueError, match="exceeds worker count"):
            lift_np(T, w)
    else:
        want = sorted(encode(task, x, w) for task, count in T.entries for x in range(1, count + 1))
        assert lift_np(T, w).tolist() == want
        assert lift(T, w) == frozenset(want)


@pytest.mark.parametrize("w", [1, 3, 64, 1024])
def test_lifted_changes_is_the_lifted_set_difference(w):
    rng = Random(w)
    for _ in range(750):
        t = rng.choice([1, 5, 2**33 + 7])
        a = b = random_multiset(rng.randint(0, w), t, rng)
        move = rng.choice(["fixed", "varying", "restart", "empty"])
        if move == "restart":
            b = random_multiset(rng.randint(0, w), t, rng)
        elif move == "empty":
            b = TaskMultiset((), t)
            if rng.random() < 0.5:
                a, b = b, a
        else:
            for _ in range(rng.randint(1, 5)):
                try:
                    b = adjacent_step(b, rng, w=w, size_varying=move == "varying")
                except ValueError:  # no adjacent multiset of this kind
                    break
        limit = rng.choice([0, 1, 2, 8, 10**9])
        gone, new = sorted(lift(a, w) - lift(b, w)), sorted(lift(b, w) - lift(a, w))
        assert lifted_changes(a, b, w, limit) == ((gone, new) if len(gone) + len(new) <= limit else None)


def test_project_np_is_decode():
    w = 3
    ids = [1, 2, 3, 4, 9, 10, 2**40]
    assert project_np(ids, w).tolist() == [decode(e, w)[0] for e in ids]
    assert project_np(np.array(ids, dtype=np.uint64), w).tolist() == [decode(e, w)[0] for e in ids]


@given(st.integers(1, 9), st.integers(1, 7), st.integers(1, 7))
def test_encode_decode_roundtrip(base, copy, w):
    if copy > w:
        copy = w
    assert decode(encode(base, copy, w), w) == (base, copy)


@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), min_size=2, max_size=2))
def test_encoding_preserves_lex_order(pairs):
    w = 6
    (b1, c1), (b2, c2) = pairs
    assert (encode(b1, c1, w) < encode(b2, c2, w)) == ((b1, c1) < (b2, c2))


def test_adjacent_multisets_lift_to_adjacent_sets():
    rng = Random(11)
    w, t = 5, 6
    for _ in range(200):
        T1 = random_multiset(w, t, rng)
        T2 = adjacent_step(T1, rng, w=w)
        assert is_adjacent(T1, T2)
        s1, s2 = lift(T1, w), lift(T2, w)
        assert len(s1 - s2) == 1 and len(s2 - s1) == 1


def test_project_drops_copy_index():
    w = 3
    ids = [encode(2, 2, w), encode(5, 1, w), encode(2, 1, w)]
    assert project_np(ids, w).tolist() == [2, 5, 2]


def test_project_single_worker():
    assert project_np([encode(7, 1, 1)], 1).tolist() == [7]


def lifted_assignment(T, w, rng):
    """Workers ``1..|T|`` on the lifted ids of ``T`` in random order, and that assignment projected."""
    lifted = lift_np(T, w).tolist()
    rng.shuffle(lifted)
    pairs = tuple(enumerate(lifted, start=1))
    projected = tuple(zip(range(1, len(T) + 1), project_np(lifted, w).tolist()))
    return Assignment(w, pairs), Assignment(w, projected)


def test_project_roundtrip_realizes_multiset():
    rng = Random(23)
    w, t = 5, 6
    for _ in range(100):
        T = random_multiset(rng.randint(0, w), t, rng)
        _, projected = lifted_assignment(T, w, rng)
        assert projected.realizes(T)


def test_projection_never_increases_switching_cost():
    rng = Random(29)
    w, t = 4, 5
    for _ in range(200):
        T1 = random_multiset(w, t, rng)
        T2 = adjacent_step(T1, rng, w=w)
        a1, p1 = lifted_assignment(T1, w, rng)
        a2, p2 = lifted_assignment(T2, w, rng)
        assert switching_cost(p1, p2) <= switching_cost(a1, a2)
