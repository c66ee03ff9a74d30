"""The exact-oracle instances of the ``oracle-small`` workload.

Kept apart from ``workloads`` so that ``run`` can name the per-layer metrics
without importing the library.
"""

# (label, (w, t, target_k), multisets, node_limit, expected verdict)
EXACT = (
    ("w3t5k2", (3, 5, 2), False, None, "infeasible"),
    ("w3t5k3", (3, 5, 3), False, None, "feasible"),
    ("w3t5k2-multi", (3, 5, 2), True, None, "infeasible"),
    ("w4t8k3-budget", (4, 8, 3), False, 20_000, "budget_exhausted"),
)
# exact_feasible.search recurses once per state, so this 1770-state instance,
# inside the CLI's 20 000-state cap, dies with RecursionError until the search
# is made iterative. It runs once per run and is expected to be feasible (k >= w).
DEFECT = ("w2t60k2", (2, 60, 2), False, None, "feasible")

EXACT_LABELS = tuple(label for label, *_ in EXACT)
ALL_LABELS = EXACT_LABELS + (DEFECT[0],)
