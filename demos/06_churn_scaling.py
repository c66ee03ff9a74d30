"""How does churn grow with the workforce?

Walks the pipeline (``mrbb``) through adjacent task multisets for w from 64
to 16384, at t = 4w and t = 64w, and prints each walk's churn (workers
reassigned per step) next to log2 w * log2 wt, the shape of the paper's
O(log w log wt) bound, and next to 4R, the bound proven for a schedule of R
rounds when no fallback fires. A second table measures how often the
fallback fires when each outer round repeats its hash fewer times (c); the
default c = 4 does not change.
"""
import math

from lowchurn import build_schedule
from lowchurn.harness import run_walk

C, SEED = 4, 11
STEPS = {64: 300, 256: 150, 1024: 60, 4096: 20, 16384: 6}

print("churn of one adjacent step (run_walk, mrbb, c=4)")
print(f"{'w':>6} {'t':>8} {'steps':>5}   {'mean':>5} {'p99':>4} {'max':>4}   {'log2 w*log2 wt':>14} {'4R':>6}   fallbacks")
for w, steps in STEPS.items():
    for t in (4 * w, 64 * w):
        *_, summary = run_walk(w, t, C, SEED, "mrbb", steps)
        shape = math.log2(w) * math.log2(w * t)
        bound = 4 * build_schedule(w, t, C, SEED).total_rounds
        print(
            f"{w:6d} {t:8d} {steps:5d}   {summary['mean_switching_cost']:5.1f} "
            f"{summary['p99_switching_cost']:4d} {summary['max_switching_cost']:4d}   "
            f"{shape:14.0f} {bound:6d}   {summary['fallbacks']}"
        )

W, STEPS_C = 256, 300
print(f"\nfallback rate against c (w={W}, t={4 * W}, {STEPS_C} steps; calls that used the fallback)")
for c in (1, 2, 3, 4):
    *_, summary = run_walk(W, 4 * W, c, SEED, "mrbb", STEPS_C)
    rounds = build_schedule(W, 4 * W, c, SEED).total_rounds
    rate = summary["fallbacks"] / (STEPS_C + 1)
    print(f"c={c}: R={rounds:5d}   fallback in {summary['fallbacks']:3d} of {STEPS_C + 1} calls ({rate:.1%})")
