"""Reproducible random-walk experiments emitting one JSONL record per step.

A walk starts from a seeded random multiset and repeatedly applies
:func:`lowchurn.core.adjacent_step`, measuring the switching cost of the
chosen assignment function across each move. All randomness derives from the
single master seed, so rerunning with identical parameters reproduces every
record except the wall-time field. Records are plain dict-backed JSON lines;
``parse(print(record)) == record`` is part of the contract.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from random import Random
from typing import Callable, Iterator

import numpy as np

from .assigner import AssignResult, AssignSession, build_schedule
from .assigner import assign as pipeline_assign  # noqa: F401  (perfbench's tracer wraps this name)
from .baselines import PriorityOracle, random_permutation_assign, sorted_order
from .core import (
    Assignment,
    TaskMultiset,
    adjacent_step,
    random_multiset,
    switching_cost,
)
from .hashing import derive

__all__ = ["ExperimentRecord", "StepOutcome", "make_assigner", "run_walk", "ALGORITHMS"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured transition between adjacent multisets."""

    experiment_id: str
    seed: int
    w: int
    t: int
    c: int
    algorithm: str
    t1: str
    t2: str
    switching_cost: int
    per_round_costs: tuple[int, ...]
    fallback_used: bool
    wall_time_us: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        obj = json.loads(line)
        obj["per_round_costs"] = tuple(obj["per_round_costs"])
        return cls(**obj)


@dataclass(frozen=True, init=False)
class StepOutcome:
    """One assigner call; ``result`` is the pipeline's :class:`AssignResult`, None for a baseline."""

    assignment: Assignment
    fallback_used: bool
    result: AssignResult | None = None

    def __init__(self, assignment: Assignment, fallback_used: bool, result: AssignResult | None = None) -> None:
        # Writes the frozen fields directly, as core's classes do: every assigner call builds one.
        self.__dict__.update(assignment=assignment, fallback_used=fallback_used, result=result)

    @property
    def round_pairs(self) -> tuple[frozenset, ...]:
        """Each executed round's matched pairs, built when read; empty for a baseline."""
        return () if self.result is None else self.result.per_round_pairs


Assigner = Callable[[TaskMultiset], StepOutcome]


def make_assigner(algorithm: str, w: int, t: int, c: int, seed: int) -> Assigner:
    """Build the named assignment function as a closure over its fixed randomness.

    ``mrbb`` is a closure over one :class:`~lowchurn.assigner.AssignSession`:
    every result equals ``assign(schedule, T)``, and a call whose input is
    within a few lifted ids of the previous call's (a walk step) is worked
    out from that call's run, on schedules of ``SESSION_MIN_W`` or more
    workers; any other call is a full run. Nothing is built before the first
    call but the schedule's seed arrays. Its outcomes carry the session's
    result; nothing builds the per-round pair sets unless ``round_pairs`` is read.
    """
    if algorithm == "sorted":
        return lambda T: StepOutcome(sorted_order(T, w), False)
    if algorithm == "randperm":
        oracle = PriorityOracle(derive(seed, 0x9E9))
        return lambda T: StepOutcome(random_permutation_assign(oracle, T, w), False)
    if algorithm == "mrbb":
        session = AssignSession(build_schedule(w, t, c, seed))

        def run(T: TaskMultiset) -> StepOutcome:
            res = session(T)
            return StepOutcome(res.assignment, res.used_fallback, res)

        return run
    raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {sorted(ALGORITHMS)})")


ALGORITHMS = ("sorted", "randperm", "mrbb")


def _round_costs(a: AssignResult | None, b: AssignResult | None) -> tuple[int, ...]:
    """Per round, the (worker, lifted task, round) triples in one result but not the other.

    Workers are ``1..|T|`` in both, so only indices where a worker's task or
    round differs, or past the smaller input, count. Trailing zeros are dropped.
    """
    if a is None or b is None:
        return ()
    n = min(a.rounds.size, b.rounds.size)
    changed = (a.rounds[:n] != b.rounds[:n]) | (a.lifted[:n] != b.lifted[:n])
    rounds = np.concatenate([a.rounds[:n][changed], b.rounds[:n][changed], a.rounds[n:], b.rounds[n:]])
    return tuple(np.bincount(rounds + 1)[1:].tolist())  # bin 0 counts the fallback's -1


def _percentile(values: list[int], p: int) -> int:
    """Nearest-rank ``p``-th percentile: the least value with ``p``% of values at or below it."""
    ranked = sorted(values)
    return ranked[max(0, -(-len(ranked) * p // 100) - 1)]


def run_walk(
    w: int,
    t: int,
    c: int,
    seed: int,
    algorithm: str,
    steps: int,
    size_varying: bool = False,
) -> Iterator[ExperimentRecord | dict]:
    """Random adjacent walk of ``steps`` moves: yields each record once measured, then a summary.

    The arguments are checked and the assigner built when this is called, so
    a bad argument raises there; the walk runs as the result is iterated and
    keeps only each step's cost and wall time. Collect a whole walk with
    ``*records, summary = run_walk(...)``.

    The summary reports the switching cost's mean, nearest-rank p50 and p99,
    and max over the steps, and the same percentiles and max of the steps'
    ``wall_time_us``. Like the records, it reproduces exactly except for the
    wall times.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    assigner = make_assigner(algorithm, w, t, c, seed)

    def walk() -> Iterator[ExperimentRecord | dict]:
        rng = Random(derive(seed, 0xA1C))
        current = random_multiset(w, t, rng)
        out_cur = assigner(current)
        text = current.format()  # each multiset is formatted once: as t2, then as the next t1

        fallbacks = int(out_cur.fallback_used)
        costs: list[int] = []
        walls: list[int] = []
        for step in range(steps):
            start = time.perf_counter_ns()
            nxt = adjacent_step(current, rng, w=w, size_varying=size_varying)
            out_nxt = assigner(nxt)
            cost = switching_cost(out_cur.assignment, out_nxt.assignment)
            elapsed_us = (time.perf_counter_ns() - start) // 1000
            nxt_text = nxt.format()
            yield ExperimentRecord(
                experiment_id=f"walk-{step:06d}",
                seed=seed,
                w=w,
                t=t,
                c=c,
                algorithm=algorithm,
                t1=text,
                t2=nxt_text,
                switching_cost=cost,
                per_round_costs=_round_costs(out_cur.result, out_nxt.result),
                fallback_used=out_cur.fallback_used or out_nxt.fallback_used,
                wall_time_us=elapsed_us,
            )
            fallbacks += int(out_nxt.fallback_used)
            costs.append(cost)
            walls.append(elapsed_us)
            current, out_cur, text = nxt, out_nxt, nxt_text

        yield {
            "summary": True,
            "algorithm": algorithm,
            "w": w,
            "t": t,
            "c": c,
            "seed": seed,
            "steps": steps,
            "max_switching_cost": max(costs),
            "mean_switching_cost": sum(costs) / steps,
            "p50_switching_cost": _percentile(costs, 50),
            "p99_switching_cost": _percentile(costs, 99),
            "p50_wall_time_us": _percentile(walls, 50),
            "p99_wall_time_us": _percentile(walls, 99),
            "max_wall_time_us": max(walls),
            "fallbacks": fallbacks,
        }

    return walk()
