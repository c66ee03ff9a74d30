"""Derandomizing the pipeline with brute-forced disperser families.

Instead of seeded hash functions, the explicit variant sweeps the seeds of a
strong disperser: a fixed table whose image of every large-enough subset
covers most (bin, seed) cells. At toy scale such tables can be found by
random restarts and verified exhaustively, after which the per-sweep progress
guarantee (at least M/4 matches on any qualifying input) holds as a theorem,
not a tendency.
"""
from itertools import combinations
from random import Random

from lowchurn import (
    SearchBudget,
    WorkerTaskInput,
    assign_set,
    disperser_search,
    explicit_schedule,
    seed_sweep,
    single_bin_family,
    verify_disperser,
)

print("== brute-force a (k=2, eps=1/4) disperser on [8] with 4 seeds, 2 bins ==")
family = disperser_search(8, 4, 2, k_param=2, epsilon=0.25, budget=SearchBudget(5000), seed=3)
print(f"  verified: {verify_disperser(family)}")
for row in family.table:
    print(f"  {row}")

print("\n== per-sweep progress on qualifying inputs (|W| = |T| >= 4) ==")
worst = None
for size in range(4, 9):
    for W in combinations(range(1, 9), size):
        for T in combinations(range(1, 9), size):
            matched, _, _ = seed_sweep(family, WorkerTaskInput(frozenset(W), frozenset(T)))
            worst = len(matched) if worst is None else min(worst, len(matched))
print(f"  minimum matches in any single sweep: {worst} (guarantee: >= M/4 = {family.M / 4})")

print("\n== full explicit assignment for w=8 over [8] ==")
families = (family, single_bin_family(8, 4, k_param=1), single_bin_family(8, 4, k_param=0))
schedule = explicit_schedule(families, reps=8, w=8, t=1)
rng = Random(9)
fallbacks = 0
for trial in range(200):
    size = rng.randint(0, 8)
    W = rng.sample(range(1, 9), size)
    T = rng.sample(range(1, 9), size)
    res = assign_set(schedule, W, T)
    fallbacks += res.fallback_pairs
print(f"  200 random inputs assigned, total fallback pairs: {fallbacks}")
