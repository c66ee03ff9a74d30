"""Seeded walk experiments and their JSONL records.

The harness measures one adjacent transition per step and emits records that
round-trip through JSON; rerunning with the same seed reproduces everything
except wall times. Compares all three assignment functions on the same
parameters.
"""
from lowchurn import ExperimentRecord
from lowchurn.harness import run_walk

W, T, C, SEED, STEPS = 16, 64, 4, 11, 500

for algorithm in ("sorted", "randperm", "mrbb"):
    *records, summary = run_walk(W, T, C, SEED, algorithm, STEPS)
    print(
        f"{algorithm:9s} churn mean {summary['mean_switching_cost']:6.2f}   "
        f"p50 {summary['p50_switching_cost']:3d}   p99 {summary['p99_switching_cost']:3d}   "
        f"worst {summary['max_switching_cost']:3d}   fallbacks {summary['fallbacks']}   "
        f"step us p50 {summary['p50_wall_time_us']} p99 {summary['p99_wall_time_us']} "
        f"max {summary['max_wall_time_us']}"
    )

print("\nsample records (mrbb):")
*records, _ = run_walk(W, T, C, SEED, "mrbb", 3)
for rec in records:
    line = rec.to_json()
    assert ExperimentRecord.from_json(line) == rec  # records round-trip exactly
    print(line)

*again, _ = run_walk(W, T, C, SEED, "mrbb", 3)
same = all(
    a.switching_cost == b.switching_cost and a.t2 == b.t2 for a, b in zip(records, again)
)
print(f"\nrerun with the same seed reproduces every transition: {same}")
