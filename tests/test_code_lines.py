"""Tests for the code line counter in ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)


async def waiting():
    """Coroutine docstring."""
    "a second string is code"
'''


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, class, def, text (2 lines), return (2 lines), async def, string
    assert code_lines.code_lines(SNIPPET) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('def f(): """doc"""\n') == 1


def test_prints_one_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines"], ["a.py", "9"], ["b.py", "1"], ["total", "10"]]
