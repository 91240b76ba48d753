"""Tests for tools/code_lines.py, the one rule by which code lines are counted."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 9 code lines: the import, both defs, the class and its field, and the two
# physical lines each of the multi-line string and of the return
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    s = """a string that is
code, not a docstring"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 1


def g():
    """Only a docstring."""
'''


def test_a_fixed_source():
    assert code_lines.code_lines(SOURCE) == 9


def test_blank_lines_comments_and_docstrings_do_not_count():
    bare = "import os\ndef f(x):\n    return x\n"
    documented = ('"""doc"""\n\n# c\nimport os  # c\n\n'
                  'def f(x):\n    """doc\n    over lines"""\n    # c\n\n    return x\n')
    assert code_lines.code_lines(bare) == code_lines.code_lines(documented) == 3


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].split()[1] == "total"
