"""Worker-task assignment with low reassignment churn.

The package builds memoryless assignment functions whose output barely moves
when their input multiset changes by one task, measures and exhaustively
audits that churn, and applies the machinery to embed sparse vectors into
low-dimensional Hamming space. ``__all__`` holds the names the demos, the
CLI and the README use; everything else is reached through its module.
"""
from .assigner import (
    AssignSession,
    assign,
    assign_set,
    build_schedule,
    explicit_schedule,
    seed_sweep,
    single_bin_family,
)
from .baselines import sorted_order
from .core import (
    TaskMultiset,
    WorkerTaskInput,
    adjacent_step,
    random_multiset,
    switching_cost,
)
from .embed import SparseVector, distortion_audit, embed, hamming
from .harness import ExperimentRecord, run_walk
from .oracle import (
    SearchBudget,
    disperser_search,
    exact_feasible,
    exhaustive_max_switching,
    ramsey_witness,
    verify_disperser,
)

__all__ = [
    "AssignSession",
    "ExperimentRecord",
    "SearchBudget",
    "SparseVector",
    "TaskMultiset",
    "WorkerTaskInput",
    "adjacent_step",
    "assign",
    "assign_set",
    "build_schedule",
    "disperser_search",
    "distortion_audit",
    "embed",
    "exact_feasible",
    "explicit_schedule",
    "exhaustive_max_switching",
    "hamming",
    "random_multiset",
    "ramsey_witness",
    "run_walk",
    "seed_sweep",
    "single_bin_family",
    "sorted_order",
    "switching_cost",
    "verify_disperser",
]

__version__ = "0.1.0"
