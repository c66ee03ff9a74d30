import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
