"""Worker-task assignment with low reassignment churn.

The package builds memoryless assignment functions whose output barely moves
when their input multiset changes by one task, measures and exhaustively
audits that churn, and applies the machinery to embed sparse vectors into
low-dimensional Hamming space.
"""
from .assigner import (
    AssignResult,
    AssignSession,
    DisperserFamily,
    RoundSchedule,
    assign,
    assign_explicit,
    assign_explicit_set,
    assign_set,
    build_schedule,
    seed_sweep,
    single_bin_family,
    trivial_families,
)
from .baselines import PriorityOracle, random_permutation_assign, sorted_order
from .binhash import BinHash, StageOutcome, compose, difference_score
from .core import (
    Assignment,
    TaskMultiset,
    WorkerTaskInput,
    adjacent_step,
    is_adjacent,
    multiset_algebra,
    random_multiset,
    switching_cost,
)
from .embed import DenseCode, SparseVector, distortion_audit, embed, hamming
from .harness import ExperimentRecord, run_walk
from .oracle import (
    FeasibilityResult,
    RamseyWitness,
    SearchBudget,
    disperser_search,
    exact_feasible,
    exhaustive_max_switching,
    ramsey_witness,
    verify_disperser,
)
from .reduction import lift, project

__all__ = [
    "Assignment",
    "AssignResult",
    "AssignSession",
    "BinHash",
    "DenseCode",
    "DisperserFamily",
    "ExperimentRecord",
    "FeasibilityResult",
    "PriorityOracle",
    "RamseyWitness",
    "RoundSchedule",
    "SearchBudget",
    "SparseVector",
    "StageOutcome",
    "TaskMultiset",
    "WorkerTaskInput",
    "adjacent_step",
    "assign",
    "assign_explicit",
    "assign_explicit_set",
    "assign_set",
    "build_schedule",
    "compose",
    "difference_score",
    "disperser_search",
    "distortion_audit",
    "embed",
    "exact_feasible",
    "exhaustive_max_switching",
    "hamming",
    "is_adjacent",
    "lift",
    "multiset_algebra",
    "project",
    "ramsey_witness",
    "random_multiset",
    "random_permutation_assign",
    "run_walk",
    "seed_sweep",
    "single_bin_family",
    "sorted_order",
    "switching_cost",
    "trivial_families",
    "verify_disperser",
]

__version__ = "0.1.0"
