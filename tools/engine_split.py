"""Time the array engine's three regimes on embed-style inputs, one regime call at a time.

Each input is a random binary vector of weight w over t = 4w positions,
assigned as ``embed`` assigns it: its support is lifted to workers ``1..w``
over sorted ids. The loop here is a copy of ``assigner._run_arrays`` with a
timer around each block: the ``schedule.rounds.bins`` call that gives the
block's bins and the call of ``_head_round``, ``_sort_block`` or
``_tail_block`` that runs it, so each regime's ms include its hashing, as
they did when the regimes hashed for themselves. A run of single-bin
rounds, which takes no bins, counts as tail. Nothing in the package is
patched. Every input's pairs, rounds and residual are checked against
``_run_arrays``' own, so the copy cannot drift from the engine unnoticed.

For each w, one JSON line gives each regime's calls, rounds, ids x rounds
hashed (workers plus tasks, times the rounds each call hashes them under),
pairs matched and ms, per ``assign`` call, so ms over pairs is a regime's
cost per matched pair: the mean over the inputs, each input's time
the least over its repeats. Usage:

    PYTHONPATH=src python tools/engine_split.py [--quick] [--seed N]

``--quick`` runs one input per w, once, in a few seconds.
"""
from __future__ import annotations

import argparse
import json
import sys
from random import Random
from time import perf_counter

import numpy as np

from lowchurn import assigner
from lowchurn.embed import SparseVector

WORKERS = (64, 1024, 16384)
REGIMES = ("head", "sorted", "tail")
FIELDS = ("calls", "rounds", "ids_x_rounds", "pairs", "ms")


def split_run(rounds: assigner.SeededRounds, wt: np.ndarray) -> tuple[assigner.Run, dict]:
    """``_run_arrays(rounds, wt)`` and, per regime, its calls, rounds, ids x rounds hashed, pairs matched and seconds."""
    ks = rounds.ks
    total = len(ks)
    matched: assigner.Matches = []
    blocks: list[tuple[int, int, int]] = []
    split = {regime: [0, 0, 0, 0, 0.0] for regime in REGIMES}
    r = 0
    while r < total and wt.shape[1]:
        n, k = wt.shape[1], int(ks[r])
        start = perf_counter()
        if k == 1:
            ones = ks[r : r + n] == 1
            block = ones.size if ones.all() else int(ones.argmin())
            matched.append((wt[0][:block], wt[1][:block], np.arange(r, r + block)))
            regime, wt, hashed = "tail", wt[:, block:], 0
        else:
            block = min(total - r, assigner._block_size(n, k))
            rows = slice(r, r + block)
            bins, hashed = rounds.bins(rows, wt), 2 * n * block
            if block == 1 and (n > assigner._TAIL_N or n * n > assigner._TAIL_HITS * k):
                regime, wt = "head", wt.take(np.flatnonzero(assigner._head_round(bins[:, 0], wt, k, r, matched)))
            elif n <= assigner._TAIL_N:
                regime, wt = "tail", wt[assigner._tail_block(bins, wt, r, blocks)]
            else:
                regime, wt = "sorted", wt[assigner._sort_block(bins, wt, rounds.kmax.item(r), r, blocks)]
        wt = wt.reshape(2, -1)
        elapsed = perf_counter() - start
        for i, value in enumerate((1, block, hashed, n - wt.shape[1], elapsed)):
            split[regime][i] += value
        r += block
    if blocks:
        matched.append(tuple(map(list, zip(*blocks))))
    return (matched, wt), split


def same_run(a: assigner.Run, b: assigner.Run, workers: np.ndarray) -> bool:
    """Whether two engine runs pair every worker alike, in the same rounds, and leave the same residual."""
    packed = [assigner._pack(workers, *run) for run in (a, b)]
    return np.array_equal(a[1], b[1]) and all(np.array_equal(x, y) for x, y in zip(*packed))


def measure(w: int, inputs: int, repeats: int, seed: int) -> dict:
    """Each regime's mean per ``assign`` call over ``inputs`` embed-style vectors of weight ``w``."""
    t = 4 * w
    schedule = assigner.build_schedule(w, t, 4, seed)
    rng = Random(f"engine_split/{w}/{seed}")
    totals = {regime: np.zeros(len(FIELDS)) for regime in REGIMES}
    for _ in range(inputs):
        x = SparseVector.from_support(t, rng.sample(range(1, t + 1), w))
        wt = assigner._lifted_rows(x.to_multiset(), w)
        want = assigner._run_arrays(schedule.rounds, wt)
        best = None
        for _ in range(repeats):
            run, split = split_run(schedule.rounds, wt)
            if not same_run(run, want, wt[0]):
                raise AssertionError(f"the split's run differs from _run_arrays at w={w}")
            if best is None or sum(s[-1] for s in split.values()) < sum(s[-1] for s in best.values()):
                best = split
        for regime in REGIMES:
            totals[regime] += best[regime]
    row: dict = {"w": w, "t": t, "inputs": inputs, "repeats": repeats}
    for regime in REGIMES:
        calls, rounds, hashed, pairs, seconds = totals[regime] / inputs
        row[regime] = {"calls": calls, "rounds": rounds, "ids_x_rounds": hashed, "pairs": pairs,
                       "ms": round(seconds * 1e3, 3)}
    row["engine_ms"] = round(sum(row[regime]["ms"] for regime in REGIMES), 3)
    return row


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="one input per w, run once")
    parser.add_argument("--seed", type=int, default=0, help="schedule and input seed")
    args = parser.parse_args(argv)
    inputs, repeats = (1, 1) if args.quick else (8, 3)
    for w in WORKERS:
        print(json.dumps(measure(w, inputs, repeats, args.seed), separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
