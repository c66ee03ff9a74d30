import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowchurn
from lowchurn.cli import build_parser, main
from lowchurn.assigner import AssignSession, assign, build_schedule, explicit_schedule, trivial_families
from lowchurn.baselines import PriorityOracle, random_permutation_assign, sorted_order
from lowchurn.core import Assignment, TaskMultiset, adjacent_step
from lowchurn.embed import SparseVector, hamming
from lowchurn.harness import ALGORITHMS, ExperimentRecord, StepOutcome


def unmeasured(row):
    """A walk line without its measured times: a record's ``wall_time_us``, a summary's percentiles of it."""
    return {key: value for key, value in row.items() if not key.endswith("wall_time_us")}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAssign:
    def test_sorted_prints_numerical_order(self, capsys):
        rc, out, _ = run_cli(
            capsys, "assign", "--w", "3", "--t", "9", "--alg", "sorted", "--multiset", "2,5,9"
        )
        assert rc == 0
        assert out.splitlines() == [
            "worker 1 -> task 2",
            "worker 2 -> task 5",
            "worker 3 -> task 9",
            "fallback: no",
        ]

    def test_mrbb_is_byte_deterministic(self, capsys):
        args = ("assign", "--w", "3", "--t", "4", "--alg", "mrbb", "--seed", "7", "--multiset", "1,1,4")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_oversized_multiset_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "assign", "--w", "3", "--t", "9", "--alg", "sorted", "--multiset", "1,2,3,4"
        )
        assert rc == 2
        assert "multiset larger than w" in err

    def test_unparsable_multiset_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "assign", "--w", "3", "--t", "9", "--alg", "sorted", "--multiset", "2,banana"
        )
        assert rc == 2
        assert "error" in err

    def test_unassigned_tail_is_reported(self, capsys):
        rc, out, _ = run_cli(
            capsys, "assign", "--w", "3", "--t", "9", "--alg", "sorted", "--multiset", "4,6"
        )
        assert rc == 0
        assert "worker 3 -> unassigned" in out

    def test_explain_follows_the_plain_output_with_the_trace(self, capsys):
        T = TaskMultiset.from_elements([1] * 60 + [2] * 50 + [5] * 50, 5)
        args = ("assign", "--w", "200", "--t", "5", "--seed", "3", "--multiset", T.format())
        rc, plain, _ = run_cli(capsys, *args)
        assert rc == 0 and "round" not in plain
        rc, out, err = run_cli(capsys, *args, "--explain")
        assert rc == 0 and err == "" and out.startswith(plain)
        schedule = build_schedule(200, 5, 4, 3)
        result = assign(schedule, T)
        rounds = result.match_rounds
        assert result.fallback_pairs == 0 and len(set(rounds)) > 3
        want = [f"round of worker {x}: {r}" for x, r in zip(range(1, 161), rounds)]
        want += [f"residual after round {r}: {sum(s > r for s in rounds)}" for r in sorted(set(rounds))]
        want += [f"rounds executed: {result.rounds_executed} of {schedule.total_rounds} scheduled"]
        assert out[len(plain):].splitlines() == want
        assert want[-2] == f"residual after round {result.rounds_executed - 1}: 0"

    def test_explain_names_the_fallback(self, capsys, monkeypatch):
        # The schedule's own rounds leave no residual here, so a cut of it stands in for the session.
        import lowchurn.cli as cli
        from lowchurn.assigner import RoundSchedule

        schedule = build_schedule(40, 3, 4, 0)
        cut = RoundSchedule(40, 3, 4, 0, schedule.rounds[:2])
        T = TaskMultiset.from_elements([1] * 20 + [3] * 20, 3)
        result = assign(cut, T)
        assert 0 < result.fallback_pairs < 40
        monkeypatch.setattr(cli, "make_assigner", lambda *_: lambda _T: StepOutcome(result.assignment, True, result))
        rc, out, _ = run_cli(capsys, "assign", "--w", "40", "--t", "3", "--seed", "0", "--multiset", T.format(), "--explain")
        lines = out.splitlines()
        assert rc == 0 and lines[40] == "fallback: yes"
        assert sum(line.endswith(": fallback") for line in lines) == result.fallback_pairs
        residual = [line for line in lines if line.startswith("residual after")]
        assert residual[-1].endswith(f": {result.fallback_pairs}")
        assert lines[-1] == f"rounds executed: 2 of {schedule.total_rounds} scheduled"

    @pytest.mark.parametrize("alg", ["sorted", "randperm"])
    def test_explain_without_rounds_exits_2(self, capsys, alg):
        rc, out, err = run_cli(capsys, "assign", "--w", "3", "--t", "9", "--alg", alg, "--multiset", "2,5", "--explain")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: --explain needs --alg mrbb: {alg} runs no rounds"]


class TestWalk:
    def test_single_step_record_plus_summary(self, capsys):
        rc, out, _ = run_cli(
            capsys, "walk", "--w", "4", "--t", "6", "--alg", "mrbb", "--seed", "3", "--steps", "1"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        record = ExperimentRecord.from_json(lines[0])
        assert record.algorithm == "mrbb"
        summary = json.loads(lines[1])
        assert summary["summary"] is True
        assert summary["steps"] == 1

    def test_deterministic_modulo_wall_time(self, capsys):
        args = ("walk", "--w", "4", "--t", "6", "--alg", "mrbb", "--seed", "3", "--steps", "10")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)

        def strip(text):
            return [unmeasured(json.loads(line)) for line in text.strip().splitlines()]

        assert strip(out1) == strip(out2)

    def test_env_seed_is_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ASSIGN_SEED", "88")
        _, out_env, _ = run_cli(capsys, "walk", "--w", "3", "--t", "5", "--alg", "sorted", "--steps", "5")
        monkeypatch.delenv("ASSIGN_SEED")
        _, out_flag, _ = run_cli(
            capsys, "walk", "--w", "3", "--t", "5", "--alg", "sorted", "--seed", "88", "--steps", "5"
        )

        def strip(text):
            return [unmeasured(json.loads(line)) for line in text.strip().splitlines()]

        assert strip(out_env) == strip(out_flag)


class TestOracle:
    def test_exact_infeasible_single_worker(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "exact", "--w", "1", "--t", "3", "--k", "0")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "infeasible"
        assert json.loads(lines[1])["verdict"] == "infeasible"

    def test_exact_multiset_toggle(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "exact", "--w", "2", "--t", "2", "--k", "1", "--multisets"
        )
        assert rc == 0
        assert out.strip().splitlines()[0] == "feasible"

    def test_exact_over_limit_refused(self, capsys):
        rc, _, err = run_cli(capsys, "oracle", "exact", "--w", "6", "--t", "8", "--k", "2")
        assert rc == 2
        assert "limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--w", "3", "--t", "6", "--k", "2", "--multisets"],
            ["disperser", "--domain", "8", "--seeds", "6", "--bins", "2", "--k-param", "1", "--epsilon", "0.05"],
        ],
        ids=["exact", "disperser"],
    )
    def test_nan_time_limit_exits_2(self, capsys, argv):
        # A NaN deadline compares false with every clock reading, so it would never end the search.
        rc, out, err = run_cli(capsys, "oracle", *argv, "--time-limit", "nan")
        assert (rc, out, err) == (2, "", "error: --time-limit must not be NaN\n")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_expired_time_limit_ends_the_search_at_its_first_check(self, capsys, limit):
        rc, out, _ = run_cli(capsys, "oracle", "exact", "--w", "3", "--t", "5", "--k", "2", "--multisets",
                             "--time-limit", limit)
        record = json.loads(out.splitlines()[-1])
        assert rc == 0 and (record["verdict"], record["nodes"]) == ("budget_exhausted", 4096)

    def test_audit_sorted(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "audit", "--alg", "sorted", "--w", "2", "--t", "3"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("max_switching_cost:")
        payload = json.loads(lines[1])
        assert payload["max_switching_cost"] <= 2
        assert payload["witness"] is not None

    def test_ramsey_sorted_witness(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "ramsey", "--alg", "sorted", "--w", "2", "--t", "4"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "witness: 1,2,3"
        assert json.loads(lines[1])["pattern"] == [1, 2]

    def test_disperser_search_found(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "oracle",
            "disperser",
            "--domain", "4", "--seeds", "2", "--bins", "2", "--k-param", "1",
            "--seed", "5",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "found"
        payload = json.loads(lines[1])
        assert payload["verdict"] == "found"
        assert len(payload["table"]) == 4


class TestEmbed:
    def vectors_file(self, tmp_path, lines):
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_all_pairs_audit(self, capsys, tmp_path):
        path = self.vectors_file(
            tmp_path, ["8 3 1,2,3", "8 3 1,2,4", "8 3 2,5,6", "8 3 4,7,8"]
        )
        rc, out, _ = run_cli(
            capsys, "embed", "--k", "3", "--n", "8", "--seed", "5", "--input", path, "--all-pairs"
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["pairs_audited"] == 6
        assert summary["min_ratio"] >= 0.5
        for row in lines[:-1]:
            assert row["ratio"] >= 0.5

    def test_sampled_pairs(self, capsys, tmp_path):
        path = self.vectors_file(tmp_path, ["8 2 1,2", "8 2 3,4", "8 2 5,6"])
        rc, out, _ = run_cli(
            capsys, "embed", "--k", "2", "--n", "8", "--input", path, "--pairs", "4"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["pairs_audited"] == 4

    def test_identical_vectors_only(self, capsys, tmp_path):
        path = self.vectors_file(tmp_path, ["8 2 1,2", "8 2 1,2"])
        rc, out, _ = run_cli(
            capsys, "embed", "--k", "2", "--n", "8", "--input", path, "--all-pairs"
        )
        assert rc == 0
        assert "no distinct pairs" in out

    def test_malformed_line_names_line_number(self, capsys, tmp_path):
        path = self.vectors_file(tmp_path, ["8 2 1,2", "8 2 1"])
        rc, _, err = run_cli(
            capsys, "embed", "--k", "2", "--n", "8", "--input", path, "--all-pairs"
        )
        assert rc == 2
        assert "line 2" in err

    def test_embed_matches_cmd_assign(self, capsys, tmp_path):
        # The worked shape: code coordinates echo the printed assignment on
        # the same multiset, same seed.
        rc, out, _ = run_cli(
            capsys,
            "assign", "--w", "3", "--t", "6", "--alg", "mrbb", "--seed", "13",
            "--multiset", "2,4,5",
        )
        assert rc == 0
        tasks = [
            int(line.rsplit(" ", 1)[1])
            for line in out.splitlines()
            if line.startswith("worker") and "task" in line
        ]
        from lowchurn.assigner import build_schedule
        from lowchurn.embed import SparseVector, embed

        code = embed(build_schedule(3, 6, 4, 13), SparseVector.parse("6 3 2,4,5"))
        assert list(code.coords) == tasks

    @pytest.mark.parametrize("pairs", [("--all-pairs",), ("--pairs", "12")])
    def test_rows_name_the_pair_they_audited(self, capsys, tmp_path, pairs):
        # Identical pairs are skipped, so a row's pair is its own, never the next audited pair's.
        # Comment and blank lines are not vectors and take no index.
        lines = ["# five vectors", "8 2 1,2", "", "8 2 1,2", "8 2 5,7", "   ", "8 2 1,3", "8 2 5,7"]
        path = self.vectors_file(tmp_path, lines)
        rc, out, _ = run_cli(capsys, "embed", "--k", "2", "--n", "8", "--seed", "0", "--input", path, *pairs)
        *rows, summary = [json.loads(line) for line in out.strip().splitlines()]
        assert rc == 0 and summary["skipped_identical"] > 0
        assert summary["pairs_audited"] == len(rows)
        vectors = [SparseVector.parse(line) for line in lines if line.strip() and not line.startswith("#")]
        for row in rows:
            i, j = row["pair"]
            assert i < j and row["input_distance"] == hamming(vectors[i], vectors[j]) > 0
        if pairs == ("--all-pairs",):
            assert [row["pair"] for row in rows] == [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]
        else:
            assert summary["pairs_audited"] + summary["skipped_identical"] == 12

    def test_l1_vectors_accepted(self, capsys, tmp_path):
        path = self.vectors_file(tmp_path, ["8 3 1:2,5:1", "8 3 2:1,5:2"])
        rc, out, _ = run_cli(
            capsys, "embed", "--k", "3", "--n", "8", "--input", path, "--all-pairs"
        )
        assert rc == 0
        assert json.loads(out.strip().splitlines()[-1])["min_ratio"] >= 0.5


def test_exit_code_1_on_lower_bound_violation(monkeypatch, capsys, tmp_path):
    # The floor is structural, so force a fake report through the audit to
    # check the exit-code contract.
    import lowchurn.cli as cli
    from lowchurn.embed import DistortionReport

    fake = DistortionReport(
        pairs=(), min_ratio=0.25, max_ratio=0.25, structural_ceiling=1.0,
        fallback_pairs=0, skipped_identical=0,
    )
    monkeypatch.setattr(cli, "distortion_audit", lambda *_a, **_k: fake)
    path = tmp_path / "v.txt"
    path.write_text("8 2 1,2\n8 2 3,4\n", encoding="utf-8")
    rc = cli.main(["embed", "--k", "2", "--n", "8", "--input", str(path), "--all-pairs"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "min_ratio" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--w", "3"])  # missing required flags
    assert exc.value.code == 2


def test_bad_assign_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ASSIGN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["assign", "--w", "3", "--t", "9", "--multiset", "1,2,3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["lowchurn assign: error: argument --seed: invalid seed 'abc' (from --seed or ASSIGN_SEED)"]


def test_assign_seed_env_is_the_seed_default(monkeypatch, capsys):
    args = ["walk", "--w", "4", "--t", "6", "--steps", "3"]
    monkeypatch.setenv("ASSIGN_SEED", "abc")
    rc, out_flag, _ = run_cli(capsys, *args, "--seed", "5")  # an explicit --seed wins
    assert rc == 0
    monkeypatch.setenv("ASSIGN_SEED", "5")
    rc, out_env, _ = run_cli(capsys, *args)
    assert rc == 0
    assert unmeasured(json.loads(out_env.splitlines()[-1])) == unmeasured(json.loads(out_flag.splitlines()[-1]))


_GARBAGE = st.sampled_from(["", "x", "-", "1e3", "0x10", "nan", "2.5", "--", " 3"])
_HUGE = str(10**30)  # past every C size; only where a documented cap or nothing at all bounds the run


def _ints(lo, hi, huge=False):
    values = st.integers(lo, hi).map(str) | _GARBAGE
    return values | st.just(_HUGE) if huge else values


_SUBCOMMANDS = {
    "assign": {"--w": _ints(-1, 5, huge=True), "--t": _ints(-1, 6, huge=True), "--c": _ints(-1, 4, huge=True),
               "--seed": _ints(-9, 9, huge=True), "--alg": st.sampled_from(["mrbb", "sorted", "randperm", "nope"]),
               "--multiset": st.sampled_from(["", "1", "1,2,2", "3,1", "0", "a,b", "1,,2", "7,7,7,7,7,7"])},
    "walk": {"--w": _ints(-1, 5, huge=True), "--t": _ints(-1, 6, huge=True), "--c": _ints(-1, 4, huge=True),
             "--seed": _ints(-9, 9, huge=True), "--alg": st.sampled_from(["mrbb", "sorted", "randperm", "nope"]),
             "--steps": _ints(-1, 4, huge=True)},
    "oracle exact": {"--w": _ints(-1, 3, huge=True), "--t": _ints(-1, 5, huge=True), "--k": _ints(-1, 4, huge=True),
                     "--node-limit": _ints(-1, 500), "--time-limit": st.sampled_from(["-1", "0", "0.5", "nan", "x"])},
    "oracle audit": {"--w": _ints(-1, 3, huge=True), "--t": _ints(-1, 4, huge=True), "--c": _ints(-1, 3, huge=True),
                     "--seed": _ints(-9, 9, huge=True), "--alg": st.sampled_from(["mrbb", "sorted", "randperm", "nope"])},
    "oracle ramsey": {"--w": _ints(-1, 3, huge=True), "--t": _ints(-1, 5, huge=True), "--c": _ints(-1, 3, huge=True),
                      "--seed": _ints(-9, 9, huge=True), "--alg": st.sampled_from(["mrbb", "sorted", "randperm"])},
    "oracle disperser": {"--domain": _ints(-1, 6), "--seeds": _ints(-1, 3), "--bins": _ints(-1, 3),
                         "--k-param": _ints(-1, 3), "--epsilon": st.sampled_from(["-1", "0", "0.25", "1", "2", "nan", "x"]),
                         "--restarts": _ints(-1, 50), "--seed": _ints(-9, 9, huge=True)},
    "embed": {"--k": _ints(-1, 3, huge=True), "--n": _ints(-1, 8, huge=True), "--c": _ints(-1, 3, huge=True),
              "--seed": _ints(-9, 9, huge=True), "--pairs": _ints(-1, 4, huge=True)},
}
_FLAGS = {"assign": ["--explain"], "oracle exact": ["--multisets"], "oracle audit": ["--multisets"], "walk": ["--size-varying"],
          "embed": ["--all-pairs"]}
_VECTOR_FILES = ["8 2 1,2\n8 2 2,3\n8 2 1,5\n", "8 2 1,2\n", "garbage\n", "8 3 1,2,3\n", "9 2 1,2\n8 2 1,2\n", ""]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_never_ends_in_a_traceback(tmp_path_factory, data):
    """Any argument values, documented limits kept small, exit 0, 1 or 2 and never raise out of ``main``."""
    command = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)), label="command")
    argv = command.split()
    for flag, values in _SUBCOMMANDS[command].items():
        if data.draw(st.integers(0, 9), label=f"keep {flag}"):  # sometimes a required flag is missing
            argv += [flag, data.draw(values, label=flag)]
    argv += [flag for flag in _FLAGS.get(command, []) if data.draw(st.booleans(), label=flag)]
    if command == "embed" and data.draw(st.integers(0, 9), label="keep --input"):
        path = tmp_path_factory.mktemp("cli") / "vectors.txt"
        path.write_text(data.draw(st.sampled_from(_VECTOR_FILES), label="file"))
        argv += ["--input", str(path if data.draw(st.integers(0, 4), label="file exists") else path.with_suffix(".no"))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["oracle", "exact", "--w", "1", "--t", "0", "--k", "0", "--multisets"], "no size-1 task multisets exist over [0]"),
        (["oracle", "audit", "--w", _HUGE, "--t", "1", "--multisets"], "error: "),
    ],
)
def test_tracebacks_found_by_the_property_test_exit_2(capsys, argv, message):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["assign", "--w", "16385", "--t", "9", "--multiset", "1"], "--w 16385 over the documented cap 16384"),
        (["assign", "--w", "3", "--t", str(2**40 + 1), "--multiset", "1"], f"--t {2**40 + 1} over the documented cap {2**40}"),
        (["assign", "--w", "3", "--t", "9", "--c", "1000000000", "--multiset", "1"], "--c 1000000000 over the documented cap 64"),
        (["assign", "--w", "16385", "--t", "9", "--alg", "randperm", "--multiset", "1"], "--w 16385 over the documented cap 16384"),
        (["walk", "--w", "3", "--t", "9", "--steps", str(2**20 + 1)], f"--steps {2**20 + 1} over the documented cap {2**20}"),
        (["walk", "--w", "16384", "--t", "9", "--steps", str(2**20 + 1)], f"--steps {2**20 + 1} over the documented cap {2**20}"),
        (["oracle", "audit", "--w", "2", "--t", "3", "--c", "65"], "--c 65 over the documented cap 64"),
        (["oracle", "ramsey", "--w", "16385", "--t", "3"], "--w 16385 over the documented cap 16384"),
        (["embed", "--k", "16385", "--n", "8", "--input", "v.txt", "--all-pairs"], "--k 16385 over the documented cap 16384"),
        (["embed", "--k", "2", "--n", str(2**40 + 1), "--input", "v.txt", "--all-pairs"],
         f"--n {2**40 + 1} over the documented cap {2**40}"),
        (["embed", "--k", "2", "--n", "8", "--c", "65", "--input", "v.txt", "--all-pairs"], "--c 65 over the documented cap 64"),
        (["embed", "--k", "2", "--n", "8", "--input", "v.txt", "--pairs", str(2**20 + 1)],
         f"--pairs {2**20 + 1} over the documented cap {2**20}"),
        (["oracle", "disperser", "--domain", "4", "--seeds", "100000000", "--bins", "2", "--k-param", "1"],
         "--seeds 100000000 over the documented cap 4096"),
    ],
)
def test_size_past_its_cap_exits_2_before_running(capsys, monkeypatch, argv, message):
    import lowchurn.cli as cli

    def never(*_a, **_k):
        raise AssertionError("an over-cap command started")

    for name in ("make_assigner", "run_walk", "build_schedule", "_load_vectors", "disperser_search"):
        monkeypatch.setattr(cli, name, never)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_sizes_past_the_deleted_caps_reach_their_work(capsys, monkeypatch):
    # Only the caps of every algorithm bound randperm's --w, and only --w and --steps a walk.
    import lowchurn.cli as cli

    calls = []
    unassigned = lambda w: lambda T: StepOutcome(Assignment(w, ()), False)  # noqa: E731
    monkeypatch.setattr(cli, "make_assigner", lambda *args: calls.append(args) or unassigned(args[1]))
    monkeypatch.setattr(cli, "run_walk", lambda *args: calls.append(args) or iter([{"summary": True}]))
    rc, out, _ = run_cli(capsys, "assign", "--w", "4097", "--t", "9", "--alg", "randperm", "--seed", "0", "--multiset", "1")
    assert rc == 0 and len(out.splitlines()) == 4098
    rc, out, _ = run_cli(capsys, "walk", "--w", "16384", "--t", "65536", "--alg", "sorted", "--seed", "0", "--steps", "1025")
    assert rc == 0 and out == '{"summary":true}\n'
    assert calls == [("randperm", 4097, 9, 4, 0), (16384, 65536, 4, 0, "sorted", 1025, False)]


def test_sizes_at_their_caps_run(capsys):
    rc, out, _ = run_cli(capsys, "assign", "--w", "16384", "--t", str(2**40), "--c", "64", "--multiset", "1,5,5")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 16384 + 1
    assert sorted(line.rsplit(" ", 1)[1] for line in lines[:3]) == ["1", "5", "5"]
    assert lines[3] == "worker 4 -> unassigned" and lines[-1] == "fallback: no"


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--w", "64", "--t", "256", "--alg", "mrbb", "--steps", "5000"),
        ("assign", "--w", "16384", "--t", "9", "--alg", "sorted", "--multiset", ""),  # 16385 lines, past a pipe's buffer
    ],
)
def test_reader_closing_early_exits_141_quietly(argv):
    # Like ``lowchurn walk ... | head -1``: the reader takes one line and closes the pipe.
    src = str(Path(lowchurn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "lowchurn.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert first.startswith(b'{"experiment_id":"walk-000000"' if argv[0] == "walk" else b"worker 1 -> unassigned")


_TOO_MANY = TaskMultiset.parse("1,2,3,4", 9)  # four tasks for three workers


@pytest.mark.parametrize(
    "call",
    [
        lambda: assign(build_schedule(3, 9), _TOO_MANY),
        lambda: AssignSession(build_schedule(3, 9))(_TOO_MANY),
        lambda: assign(explicit_schedule(trivial_families(3, 27), 1, 3, 9), _TOO_MANY),
        lambda: sorted_order(_TOO_MANY, 3),
        lambda: random_permutation_assign(PriorityOracle(0), _TOO_MANY, 3),
        lambda: adjacent_step(_TOO_MANY, Random(0), w=3),
        *(lambda alg=alg: main(["assign", "--w", "3", "--t", "9", "--alg", alg, "--multiset", "1,2,3,4"])
          for alg in ALGORITHMS),
    ],
    ids=["assign", "session", "explicit_schedule", "sorted_order", "random_permutation_assign", "adjacent_step",
         *(f"cli-{alg}" for alg in ALGORITHMS)],
)
def test_every_entry_point_rejects_more_tasks_than_workers(capsys, call):
    try:
        rc = call()
    except ValueError as exc:
        assert str(exc) == "multiset larger than worker count"
        return
    assert rc == 2 and capsys.readouterr().err == "error: multiset larger than worker count\n"


@pytest.mark.parametrize(
    ("argv", "lines", "message"),
    [
        (["oracle", "exact", "--w", "6", "--t", "6", "--k", "2"], None, "instance over documented limit: w=6 > 5"),
        (["oracle", "audit", "--w", "3", "--t", "100"], None, "instance over documented limit: 161700 states > 100000"),
        (["oracle", "ramsey", "--w", "3", "--t", "100"], None, "instance over documented limit for ramsey search"),
        (["embed", "--k", "2", "--n", "9", "--all-pairs"], ["9 2 1,2", "8 2 1,2"], "line 2: dimension 8 != --n 9"),
        (["embed", "--k", "2", "--n", "8", "--all-pairs"], ["8 2 1,2", "", "8 3 1,2,3"], "line 3: weight 3 != --k 2"),
        (["oracle", "disperser", "--domain", "4", "--seeds", "1", "--bins", "0", "--k-param", "0"], None,
         "N, D, M must be >= 1"),
        (["oracle", "exact", "--w", "-1", "--t", "3", "--k", "1"], None, "w must be >= 0"),
        (["oracle", "ramsey", "--w", "-2", "--t", "3"], None, "w must be >= 0"),
        (["oracle", "disperser", "--domain", "4", "--seeds", "2", "--bins", "2", "--k-param", "1", "--restarts", "0"],
         None, "--restarts must be >= 1"),
        (["oracle", "exact", "--w", "3", "--t", "5", "--k", "2", "--node-limit", "0"], None, "--node-limit must be >= 1"),
        (["oracle", "ramsey", "--w", "2", "--t", "-2"], None, "t must be >= 0"),
    ],
)
def test_inputs_past_a_check_exit_2_with_its_message(capsys, tmp_path, argv, lines, message):
    if lines is not None:
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_oracle_pair_caps_refuse_before_building(capsys, monkeypatch):
    # At w=1 every state is adjacent to every other, so inside the state caps
    # the audit would ask for a 9.3 GiB count array and the search for 4e8
    # neighbor entries: both are refused from the rest groups' shape alone.
    import lowchurn.cli as cli

    def never(*_a, **_k):
        raise AssertionError("an over-cap oracle started")

    monkeypatch.setattr(cli, "exhaustive_max_switching", never)
    monkeypatch.setattr(cli, "exact_feasible", never)
    start = time.perf_counter()
    for argv, message in (
        (["audit", "--w", "1", "--t", "100000", "--alg", "sorted"], "10000000000 count entries > 100000000"),
        (["exact", "--w", "1", "--t", "20000", "--k", "0"], "399980000 neighbor entries > 10000000"),
    ):
        rc, out, err = run_cli(capsys, "oracle", *argv)
        assert (rc, out, err) == (2, "", f"error: instance over documented limit: {message}\n")
    assert time.perf_counter() - start < 1


def test_readme_cli_examples_parse():
    # Every ``lowchurn`` line of the README's CLI block, its comment and any
    # output redirection cut off, is accepted by the parser as it stands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("lowchurn ")]
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        argv = argv[: next((i for i, arg in enumerate(argv) if arg.startswith(">")), len(argv))]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
