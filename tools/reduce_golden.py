"""Record what ``votedist reduce`` prints, as a golden file for the tests.

    PYTHONPATH=src python3 tools/reduce_golden.py tests/reduce_golden.json

Runs ``reduce`` in-process, with and without ``--verify``, on a triangle
(K3), a 5-cycle (C5), a 4-vertex path (P4) and a path with two isolated
vertices, each at budgets 0 to 3, and on malformed graphs, a negative
budget and a non-integer one.  Each case stores its name, the graph text,
the arguments (``{graph}`` stands for the graph file's path), the exit
code, stdout and stderr.
``tests/test_cli.py`` replays every case and asserts byte equality, so
regenerate the file only when a change to the output is intended.
Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from votedist import cli

GRAPHS = {
    "K3": "c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "C5": "c 5-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n",
    "P4": "c path on 4 vertices\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
    "P3+2": "c path on 3 vertices and two isolated ones\np edge 5 2\ne 2 3\ne 3 5\n",
}
BAD_GRAPHS = {
    "out-of-range": "p edge 2 1\ne 1 5\n",
    "self-loop": "p edge 3 1\ne 2 2\n",
    "edge-count": "p edge 3 2\ne 1 2\n",
    "no-problem-line": "e 1 2\n",
}


def cases() -> list[dict]:
    """Every case's name, graph text and arguments, in a fixed order."""
    runs = [(name, text, str(budget)) for name, text in GRAPHS.items() for budget in range(4)]
    runs += [(name, text, "1") for name, text in BAD_GRAPHS.items()]
    out = [
        {
            "name": f"{name}-{budget}{'-verify' if verify else ''}",
            "graph": text,
            "argv": ["reduce", "{graph}", budget, *verify],
        }
        for name, text, budget in runs
        for verify in ((), ("--verify",))
    ]
    for budget in ("-1", "two"):
        argv = ["reduce", "{graph}", budget]
        out.append({"name": f"K3-{budget}", "graph": GRAPHS["K3"], "argv": argv})
    return out


def run(case: dict, workdir: Path) -> dict:
    """Exit code, stdout and stderr of one case, run in-process."""
    path = workdir / "graph.col"
    path.write_text(case["graph"], encoding="utf-8")
    argv = [arg.replace("{graph}", str(path)) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: reduce_golden.py OUT.json")
    with tempfile.TemporaryDirectory() as tmp:
        records = [{**case, **run(case, Path(tmp))} for case in cases()]
    Path(args[0]).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
