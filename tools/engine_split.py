"""Time the array engine's three regimes on embed-style inputs, one engine block at a time.

Each input is a random binary vector of weight w over t = 4w positions,
assigned as ``embed`` assigns it: its support is lifted to workers ``1..w``
over sorted ids. The engine is run one ``assigner._run_block`` call at a
time, as ``_run_arrays`` runs it, with a timer around each call, so each
regime's ms include the ``rounds.bins`` call that hashes its block. A run
of single-bin rounds, which takes no bins, counts as tail. Nothing in the
package is patched.

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


def split_run(rounds: assigner.SeededRounds, wt: np.ndarray) -> dict:
    """Per regime, the calls, rounds, ids x rounds hashed, pairs matched and seconds of ``_run_arrays(rounds, wt)``."""
    matched: assigner.Matches = []
    blocks: list[tuple[int, int, int]] = []
    split = {regime: [0, 0, 0, 0, 0.0] for regime in REGIMES}
    r = 0
    while r < len(rounds) and wt.shape[1]:
        n, start = wt.shape[1], perf_counter()
        wt, after, regime = assigner._run_block(rounds, wt, r, matched, blocks)
        elapsed = perf_counter() - start
        hashed = 0 if regime == "single" else 2 * n * (after - r)
        for i, value in enumerate((1, after - r, hashed, n - wt.shape[1], elapsed)):
            split["tail" if regime == "single" else regime][i] += value
        r = after
    return split


def measure(w: int, inputs: int, repeats: int, seed: int) -> dict:
    """Each regime's mean per ``assign`` call over ``inputs`` embed-style vectors of weight ``w``."""
    t = 4 * w
    schedule = assigner.build_schedule(w, t, 4, seed)
    rng = Random(f"engine_split/{w}/{seed}")
    totals = {regime: np.zeros(len(FIELDS)) for regime in REGIMES}
    for _ in range(inputs):
        x = SparseVector.from_support(t, rng.sample(range(1, t + 1), w))
        wt = assigner._lifted_rows(x.to_multiset(), w)
        best = None
        for _ in range(repeats):
            split = split_run(schedule.rounds, wt)
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
