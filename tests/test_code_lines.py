"""Tests for tools/code_lines.py, the one rule by which code lines are
counted, and for the line format of tools/public_values.py."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, _PATH.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")

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


def test_public_values_prints_one_line_per_value_error_or_warning(capsys):
    values = _tool("public_values")
    p = values.ek.make_distribution([0.25, 0.75])
    values.emit("entropy", values.ek.entropy, p, values.ek.DeformParams(0.25, 1.0))
    values.emit("ln_kr", values.ek.ln_kr, np.array([0.5, 2.0]), values.ek.DeformParams(0.25, 1.0))
    values.emit("ln_q", values.ek.ln_q, 0.0, 0.5)
    values.emit("legacy_Ln", values.ek.legacy_Ln, 0.5, values.ek.DeformParams(0.25, 1.0))
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"entropy {values.ek.entropy(p, values.ek.DeformParams(0.25, 1.0)).value.hex()}"
    assert out[1].split()[1] == "2" and len(out[1].split()[2]) == 32
    assert out[2] == "ln_q raise DomainError: x must be finite and > 0"
    assert out[3].endswith("| warn LegacyRegionWarning: (k=0.25, r=1.0) is outside the legacy "
                           "validity region")
