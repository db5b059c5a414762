"""Count the code lines of each module, for size comparisons between commits.

    python3 tools/code_lines.py [DIR_OR_FILE ...]

With no argument it reports every module of ``src/votedist``.  A code line
is a line holding a token of code: blank lines, comment lines and the
docstrings of modules, classes and functions are left out, while any other
string, however many lines it spans, counts in full.  Prints one row per
module and a total.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "votedist"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """Where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="count code lines per module")
    parser.add_argument("paths", nargs="*", type=Path, default=[PACKAGE])
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in modules(args.paths)}
    width = max(map(len, [*counts, "module"])) + 2
    print(f"{'module':<{width}}lines")
    for name, count in counts.items():
        print(f"{name:<{width}}{count:>5}")
    print(f"{'total':<{width}}{sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
