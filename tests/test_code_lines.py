import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment alone does not
def f(x):
    """Function docstring."""
    y = """a string assigned
    is code on both lines"""
    return (x +
            math.pi)


class C:
    "Class docstring."
    z = 1
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_with_a_token_other_than_a_comment_or_a_docstring(code_lines):
    # import, def, the two lines of y, the two of the return, class, z = 1
    assert code_lines.code_lines(FIXTURE) == 8


def test_empty_and_docstring_only_sources_have_no_code(code_lines):
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[0].endswith("a.py") and lines[1].endswith("b.py") and lines[2].endswith("total")
