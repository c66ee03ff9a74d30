import dataclasses
import hashlib
import json

import pytest

from lowchurn import harness
from lowchurn.assigner import SESSION_MIN_W, RoundSchedule
from lowchurn.core import TaskMultiset
from lowchurn.harness import ExperimentRecord, make_assigner, run_walk


def test_record_json_roundtrip():
    rec = ExperimentRecord(
        experiment_id="walk-000003",
        seed=9,
        w=4,
        t=6,
        c=4,
        algorithm="mrbb",
        t1="1,2,2,5",
        t2="1,2,5,5",
        switching_cost=3,
        per_round_costs=(2, 0, 1),
        fallback_used=False,
        wall_time_us=120,
    )
    assert ExperimentRecord.from_json(rec.to_json()) == rec


def test_walk_single_step():
    *records, summary = run_walk(w=4, t=6, c=4, seed=5, algorithm="mrbb", steps=1)
    assert len(records) == 1
    assert summary["steps"] == 1
    assert summary["max_switching_cost"] == records[0].switching_cost
    assert summary["mean_switching_cost"] == records[0].switching_cost
    assert summary["p50_switching_cost"] == records[0].switching_cost
    assert summary["p99_switching_cost"] == records[0].switching_cost


def test_walk_summary_reports_churn_distribution():
    *records, summary = run_walk(w=8, t=20, c=4, seed=3, algorithm="sorted", steps=150)
    costs = sorted(r.switching_cost for r in records)
    # Nearest rank: the 75th of 150 values is the median, the 149th the p99;
    # with this seed they differ from the minimum and from the maximum.
    assert summary["p50_switching_cost"] == costs[74]
    assert summary["p99_switching_cost"] == costs[148]
    assert summary["max_switching_cost"] == costs[-1]
    assert summary["mean_switching_cost"] == sum(costs) / 150
    assert costs[0] < summary["p50_switching_cost"] <= summary["p99_switching_cost"] < costs[-1]
    walls = sorted(r.wall_time_us for r in records)
    assert summary["p50_wall_time_us"] == walls[74]
    assert summary["p99_wall_time_us"] == walls[148]
    assert summary["max_wall_time_us"] == walls[-1]
    assert summary["p50_wall_time_us"] <= summary["p99_wall_time_us"] <= summary["max_wall_time_us"]


def test_walk_steps_are_adjacent_and_reproducible():
    *a, summary_a = run_walk(w=5, t=7, c=4, seed=11, algorithm="mrbb", steps=40)
    *b, summary_b = run_walk(w=5, t=7, c=4, seed=11, algorithm="mrbb", steps=40)
    strip = lambda r: dataclasses.replace(r, wall_time_us=0)  # noqa: E731
    assert [strip(r) for r in a] == [strip(r) for r in b]
    # The summary's wall-time percentiles are measured, like the records' wall_time_us.
    same = lambda summary: {k: v for k, v in summary.items() if not k.endswith("_wall_time_us")}  # noqa: E731
    assert same(summary_a) == same(summary_b)
    for rec in a:
        from lowchurn.core import is_adjacent

        t1 = TaskMultiset.parse(rec.t1, rec.t)
        t2 = TaskMultiset.parse(rec.t2, rec.t)
        assert is_adjacent(t1, t2)


def test_walk_chains_consecutive_multisets():
    *records, _ = run_walk(w=3, t=5, c=4, seed=2, algorithm="sorted", steps=20)
    for prev, nxt in zip(records, records[1:]):
        assert prev.t2 == nxt.t1


def test_round_costs_bound_total_cost():
    # In lifted space every differing worker shows up in some round's diff.
    *records, summary = run_walk(w=6, t=9, c=4, seed=3, algorithm="mrbb", steps=60)
    assert summary["fallbacks"] == 0
    for rec in records:
        assert rec.switching_cost <= sum(rec.per_round_costs)


def records_digest(records):
    """SHA-256 over the records' JSON with ``wall_time_us`` dropped, one line each."""
    digest = hashlib.sha256()
    for rec in records:
        fields = dataclasses.asdict(rec)
        del fields["wall_time_us"]
        digest.update(json.dumps(fields, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def test_pinned_mrbb_walks(monkeypatch):
    # Digests pinned from the per-round frozenset trace that the per-worker
    # match rounds replaced, so per_round_costs must stay byte for byte.
    w = 256
    assert w >= SESSION_MIN_W  # every step after the first is a session replay
    *records, summary = run_walk(w=w, t=4 * w, c=4, seed=21, algorithm="mrbb", steps=120)
    assert summary["fallbacks"] == 0
    assert records_digest(records) == "ef1e666da31708167998104f380b32f9b5079a877ab00952bdfa007f5fa09a1a"
    # A schedule cut to 120 rounds leaves residuals on some inputs of a
    # size-varying walk, so fallback pairs come and go between steps.
    build = harness.build_schedule
    monkeypatch.setattr(
        harness, "build_schedule", lambda *args: RoundSchedule(*args, build(*args).rounds[:120])
    )
    *records, summary = run_walk(w=200, t=50, c=1, seed=3, algorithm="mrbb", steps=120, size_varying=True)
    assert summary["fallbacks"] == 73
    assert records_digest(records) == "a2eee63baca7d4bdc2ec988150970a9f5232b3b7f2fc464a485dfd7175858cf1"


def test_baseline_records_have_no_round_costs():
    *records, _ = run_walk(w=3, t=5, c=4, seed=4, algorithm="randperm", steps=5)
    assert all(rec.per_round_costs == () for rec in records)


def test_size_varying_walk():
    *records, _ = run_walk(w=4, t=5, c=4, seed=6, algorithm="mrbb", steps=60, size_varying=True)
    sizes = {len(TaskMultiset.parse(r.t2, r.t)) for r in records}
    assert len(sizes) > 1


def test_unknown_algorithm_rejected():
    # run_walk checks its arguments when it is called, before the walk is iterated.
    with pytest.raises(ValueError):
        make_assigner("nope", 2, 2, 4, 0)
    with pytest.raises(ValueError):
        run_walk(w=2, t=2, c=4, seed=0, algorithm="mrbb", steps=0)
    with pytest.raises(ValueError):
        run_walk(w=2, t=2, c=4, seed=0, algorithm="nope", steps=1)


def test_walk_yields_each_record_once_measured(monkeypatch):
    steps = []
    adjacent_step = harness.adjacent_step
    monkeypatch.setattr(harness, "adjacent_step", lambda *a, **k: steps.append(a) or adjacent_step(*a, **k))
    walk = run_walk(w=64, t=256, c=4, seed=1, algorithm="sorted", steps=10**6)
    assert steps == []
    record = next(walk)
    assert isinstance(record, ExperimentRecord) and record.experiment_id == "walk-000000"
    assert len(steps) == 1


def test_step_outcome_behaves_as_a_plain_frozen_dataclass():
    # StepOutcome writes its fields straight into __dict__; equality, hashing,
    # repr and the refusal to change a field stay those of the dataclass.
    @dataclasses.dataclass(frozen=True)
    class StepOutcome:
        assignment: object
        fallback_used: bool
        result: object = None

    StepOutcome.__qualname__ = "StepOutcome"
    T = TaskMultiset.from_elements([1, 3, 3], 5)
    step = make_assigner("mrbb", 3, 5, 4, 1)(T)
    baseline = make_assigner("sorted", 3, 5, 4, 1)(T)
    for got in (step, baseline, harness.StepOutcome(step.assignment, fallback_used=True)):
        want = StepOutcome(got.assignment, got.fallback_used, got.result)
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        fields = (got.assignment, got.fallback_used, got.result)
        assert [getattr(got, f.name) for f in dataclasses.fields(got)] == list(fields)
        assert got == harness.StepOutcome(*fields) and got != want  # a dataclass equals only its own class
        for field in ("assignment", "fallback_used", "result"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(got, field)
    assert baseline.result is None and step.result is not None
    assert step != baseline
