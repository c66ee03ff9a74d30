import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
engine_split = _load("engine_split")

SAMPLE = '''"""Module docstring,
over two lines."""
# a comment

import os  # code with a comment


def f(x):
    """One-line docstring."""
    text = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_tokens_outside_comments_and_docstrings():
    # import, def, two lines of ``text``, two of ``return``, class, ``y``.
    assert code_lines.code_lines(SAMPLE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["8", "a.py", "1", "b.py", "9", "total"]


FAILING_PROPERTY = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Under the repository's warning filters, a failing @given test reports its example. Where
    # libcst is installed, hypothesis imports it on failure, and an unfiltered deprecation
    # warning from that import would end the run in an INTERNALERROR instead.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output


# Seed 0's --quick counts per w and regime: calls, rounds, ids x rounds hashed and pairs matched. The tool
# runs the engine's own blocks, so a change to the block rules or the regime split shows here.
QUICK_COUNTS = {
    64: {"head": (2, 2, 196, 38), "sorted": (0, 0, 0, 0), "tail": (2, 71, 748, 26)},
    1024: {"head": (7, 7, 5774, 887), "sorted": (3, 11, 2174, 84), "tail": (6, 983, 11216, 53)},
    16384: {"head": (25, 25, 130834, 15789), "sorted": (15, 305, 88148, 552), "tail": (8, 3824, 67838, 43)},
}


def test_engine_split_quick_prints_every_regime(capsys):
    assert engine_split.main(["--quick"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["w"] for row in rows] == [64, 1024, 16384]
    for row in rows:
        assert {"t", "inputs", "repeats", "engine_ms", "head", "sorted", "tail"} <= row.keys()
        for regime in ("head", "sorted", "tail"):
            assert row[regime].keys() == {"calls", "rounds", "ids_x_rounds", "pairs", "ms"}
            counts = tuple(row[regime][field] for field in ("calls", "rounds", "ids_x_rounds", "pairs"))
            assert counts == QUICK_COUNTS[row["w"]][regime], (row["w"], regime)
        # Seed 0's inputs leave no residual for the fallback: the regimes match all w pairs.
        assert sum(row[regime]["pairs"] for regime in ("head", "sorted", "tail")) == row["w"]
        # Every run ends in the tail, and starts in head rounds: a full workforce's first
        # round of at most w bins expects more collisions than a block of two may plan.
        assert row["tail"]["calls"] > 0 and row["head"]["calls"] > 0
