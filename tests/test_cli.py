"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import collections
import importlib
import importlib.metadata
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import votedist
from votedist import (
    Election,
    ScoreKind,
    cli,
    parse_profile,
    reduction,
    rules,
    separating_example,
    serialize_profile,
)
from votedist.cli import main

EXAMPLE = serialize_profile(separating_example())
SMALL = "3\na b c\n2: a > b > c\n1: b > c > a\n"
CYCLE = "3\na b c\n1: a > b > c\n1: b > c > a\n1: c > a > b\n"
TRIANGLE = "c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
REPO = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reduce_golden", REPO / "tools" / "reduce_golden.py"
)
reduce_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reduce_golden)
GOLDEN = json.loads((REPO / "tests" / "reduce_golden.json").read_text(encoding="utf-8"))


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture
def profile(tmp_path):
    def write(text: str, name: str = "in.profile") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestWinners:
    def test_plurality(self, profile, capsys):
        assert main(["winners", "plurality", profile(SMALL)]) == 0
        assert capsys.readouterr().out == "a\n"

    def test_condorcet_empty_output(self, profile, capsys):
        assert main(["winners", "condorcet", profile(CYCLE)]) == 0
        assert capsys.readouterr().out == ""

    def test_example_winner_split(self, profile, capsys):
        path = profile(EXAMPLE)
        assert main(["winners", "young", path]) == 0
        assert capsys.readouterr().out == "b\n"
        assert main(["winners", "replacement", path]) == 0
        assert capsys.readouterr().out == "a\n"

    def test_rule_choices_are_the_rule_table(self, capsys):
        assert main(["winners", "-h"]) == 0
        assert "{" + ",".join(sorted(rules.RULES)) + "}" in capsys.readouterr().out
        assert sorted(rules.RULES) == [
            "condorcet", "dodgson", "maximin", "plurality", "replacement", "young",
        ]

    def test_unknown_rule_is_input_error(self, profile, capsys):
        assert main(["winners", "borda", profile(SMALL)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["winners", "plurality", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_profile_is_input_error(self, profile, capsys):
        assert main(["winners", "plurality", profile("2\na b\n1: a > a\n")]) == 1
        assert "error" in capsys.readouterr().err


class TestScore:
    def test_full_table(self, profile, capsys):
        assert main(["score", "maximin", profile(EXAMPLE)]) == 0
        assert capsys.readouterr().out == "a\t13\nb\t11\nc\t10\nd\t9\n"

    def test_single_candidate(self, profile, capsys):
        assert main(["score", "dodgson", profile(EXAMPLE), "c"]) == 0
        assert capsys.readouterr().out == "c\t5\n"

    def test_deletion_prints_inf(self, profile, capsys):
        assert main(["score", "deletion", profile("2\na b\n2: b > a\n")]) == 0
        assert capsys.readouterr().out == "a\tinf\nb\t0\n"

    def test_kind_choices_are_the_score_kinds(self, capsys):
        assert main(["score", "-h"]) == 0
        kinds = ",".join(sorted(kind.value for kind in ScoreKind))
        assert "{" + kinds + "}" in capsys.readouterr().out

    def test_unknown_candidate_is_input_error(self, profile, capsys):
        assert main(["score", "maximin", profile(SMALL), "zz"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["replacement", "dodgson"])
    def test_zero_voters_rejected_for_one_candidate_as_for_the_table(
        self, profile, capsys, kind
    ):
        path = profile("2\na b\n")
        message = f"error: {kind} scores need at least one voter\n"
        for argv in (["score", kind, path], ["score", kind, path, "a"]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "argv, out",
        [
            pytest.param(["score", "replacement"], "a\t1501\nb\t0\nc\t1501\n", id="replacement"),
            pytest.param(["score", "deletion"], "a\tinf\nb\t0\nc\t3001\n", id="deletion"),
            pytest.param(["winners", "young"], "b\n", id="young"),
        ],
    )
    def test_covers_of_thousands_of_copies(self, profile, capsys, argv, out):
        # Each cover takes over a thousand copies of one class; the search
        # holds one level per class, not per chosen copy.
        path = profile("3\na b c\n9000: b > a > c\n9000: c > a > b\n3000: b > c > a\n")
        assert main([*argv, path]) == 0
        assert capsys.readouterr() == (out, "")

    def test_dodgson_of_heavy_cyclic_profile(self, profile, capsys):
        # Each score lifts over a thousand ballots, one search level per
        # chain slot rather than per lifted ballot.
        path = profile("3\na b c\n2400: a > b > c\n2400: b > c > a\n2399: c > a > b\n")
        assert main(["score", "dodgson", path]) == 0
        assert capsys.readouterr() == ("a\t1200\nb\t1200\nc\t1201\n", "")


class TestDistance:
    def test_hamming(self, profile, capsys):
        a = profile("2\na b\n2: a > b\n", "a.profile")
        b = profile("2\na b\n1: a > b\n1: b > a\n", "b.profile")
        assert main(["distance", "hamming", a, b]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_deletion_fraction(self, profile, capsys):
        a = profile("2\na b\n2: a > b\n", "a.profile")
        b = profile("2\na b\n1: a > b\n", "b.profile")
        assert main(["distance", "deletion", a, b]) == 0
        assert capsys.readouterr().out == "11/6\n"

    def test_infinite_distance(self, profile, capsys):
        a = profile("2\na b\n1: a > b\n", "a.profile")
        b = profile("2\na b\n1: b > a\n", "b.profile")
        assert main(["distance", "insertion", a, b]) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_unknown_metric_is_input_error(self, profile, capsys):
        a = profile(SMALL)
        assert main(["distance", "euclid", a, a]) == 1
        assert capsys.readouterr().err


class TestRationalize:
    def test_swap_matches_dodgson(self, profile, capsys):
        assert main(["rationalize", "swap", profile(SMALL)]) == 0
        assert capsys.readouterr().out == "a\n"

    def test_budget_too_small_is_inconclusive(self, profile, capsys):
        assert main(["rationalize", "insertion", profile("2\na b\n2: b > a\n"),
                     "--budget", "0"]) == 2
        assert capsys.readouterr().out == "inconclusive\n"

    def test_negative_budget_is_input_error(self, profile, capsys):
        assert main(["rationalize", "deletion", profile(SMALL), "--budget", "-1"]) == 1
        assert "addition budget" in capsys.readouterr().err

    def test_profile_space_too_big_is_inconclusive(self, profile, capsys):
        big = "3\na b c\n10: a > b > c\n"
        assert main(["rationalize", "swap", profile(big)]) == 2
        assert capsys.readouterr().out == "inconclusive\n"


class TestReduce:
    def test_reduce_prints_parseable_profile(self, profile, capsys, tmp_path):
        graph = tmp_path / "g.col"
        graph.write_text(TRIANGLE, encoding="utf-8")
        assert main(["reduce", str(graph), "2"]) == 0
        out = capsys.readouterr().out
        assert "# vertex cover instance: 3 vertices, 3 edges, budget 2" in out
        assert "# minimum cover of the padded instance: 3 (within budget)" in out
        from votedist import parse_profile

        e = parse_profile(out)
        assert e.candidate_names[-5:] == ("a", "b", "c", "p", "z")

    def test_reduce_verify_flag(self, profile, capsys, tmp_path):
        graph = tmp_path / "g.col"
        graph.write_text(TRIANGLE, encoding="utf-8")
        assert main(["reduce", str(graph), "1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "# all checks passed" in out
        assert "# expected answer: no" in out

    def test_reduce_bad_graph_is_input_error(self, capsys, tmp_path):
        graph = tmp_path / "g.col"
        graph.write_text("p edge 2 1\ne 1 5\n", encoding="utf-8")
        assert main(["reduce", str(graph), "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestReduceBuildsOnce:
    @pytest.fixture
    def calls(self, monkeypatch) -> collections.Counter:
        """Calls of each reduction step, wherever the CLI or the check makes them."""
        counts = collections.Counter()
        for name in ("restrict", "build_election", "vc_exact"):

            def spy(*args, _step=getattr(reduction, name), _name=name):
                counts[_name] += 1
                return _step(*args)

            monkeypatch.setattr(reduction, name, spy)
            monkeypatch.setattr(cli, name, spy)
        return counts

    def test_verify_builds_once_and_solves_each_cover_once(self, calls, profile, capsys):
        assert main(["reduce", profile(TRIANGLE, "g.col"), "2", "--verify"]) == 0
        # vc_exact runs on the source graph and on the padded one.
        assert calls == {"restrict": 1, "build_election": 1, "vc_exact": 2}

    def test_plain_reduce_runs_each_step_once(self, calls, profile, capsys):
        assert main(["reduce", profile(TRIANGLE, "g.col"), "2"]) == 0
        assert calls == {"restrict": 1, "build_election": 1, "vc_exact": 1}

    def test_prints_the_checked_election(self, profile, capsys, monkeypatch):
        reports = []
        verify = cli.verify_reduction

        def keep(g):
            reports.append(verify(g))
            return reports[-1]

        monkeypatch.setattr(cli, "verify_reduction", keep)
        assert main(["reduce", profile(TRIANGLE, "g.col"), "2", "--verify"]) == 0
        printed = parse_profile(capsys.readouterr().out)
        (report,) = reports
        checked = report.reduction.election
        # The text format keeps no voter names, so parsed voters are v1, v2, ...
        assert printed == Election(checked.candidates, printed.voters, checked.profile)


class TestReduceGolden:
    """``reduce`` output pinned byte for byte, as ``tools/reduce_golden.py`` recorded it."""

    def test_cases_are_the_tools_cases(self):
        keys = ("name", "graph", "argv")
        assert [{k: c[k] for k in keys} for c in GOLDEN] == reduce_golden.cases()

    @pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
    def test_output_is_byte_identical(self, case, tmp_path):
        expected = {k: case[k] for k in ("code", "stdout", "stderr")}
        assert reduce_golden.run(case, tmp_path) == expected


class TestFixture:
    def test_fixture_output_round_trips(self, capsys):
        assert main(["fixture", "thm35"]) == 0
        assert capsys.readouterr().out == EXAMPLE

    def test_fixture_matches_shipped_file(self, capsys):
        text = (REPO / "fixtures" / "thm35.profile").read_text(encoding="utf-8")
        assert main(["fixture", "thm35"]) == 0
        assert capsys.readouterr().out == text

    def test_unknown_fixture_is_input_error(self, capsys):
        assert main(["fixture", "nope"]) == 1
        assert "unknown fixture" in capsys.readouterr().err


class TestParserReuse:
    def test_reused_parser_matches_fresh_parser(self, profile, capsys, monkeypatch):
        path, graph = profile(SMALL), profile(TRIANGLE, "g.dimacs")
        sequence = [
            ["score", "maximin"],  # usage error
            ["score", "maximin", path, "a"],
            ["score", "maximin", path],  # the candidate must not carry over
            ["rationalize", "insertion", path],
            ["reduce", graph, "2"],
            ["fixture", "nope"],
        ]

        def run(fresh: bool) -> list[tuple[int, str, str]]:
            results = []
            for argv in sequence:
                if fresh:
                    monkeypatch.setattr(cli, "_parser", None)
                code = main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        expected = run(fresh=True)
        assert [code for code, _, _ in expected] == [1, 0, 0, 0, 0, 1]
        assert len(expected[1][1].splitlines()) == 1
        assert len(expected[2][1].splitlines()) == 3

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        assert run(fresh=False) == expected
        assert len(builds) <= 1


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "votedist" in capsys.readouterr().out

    def test_no_command_is_input_error(self, capsys):
        assert main([]) == 1

    def test_entry_point_installed(self, tmp_path):
        """The declared console script is what an install would put on PATH.

        Runs the ``[project.scripts]`` target the way the wrapper generated
        at install time does, so the declaration, ``main(argv=None)`` and the
        exit-code plumbing are checked without installing the package.
        """
        tomllib = pytest.importorskip("tomllib")
        with (REPO / "pyproject.toml").open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "votedist" in scripts
        module_name, _, func_name = scripts["votedist"].partition(":")
        assert callable(getattr(importlib.import_module(module_name), func_name))

        package_root = pathlib.Path(votedist.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(package_root))
        wrapper = (
            f"import sys; from {module_name} import {func_name}; sys.exit({func_name}())"
        )

        def run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )

        text = (REPO / "fixtures" / "thm35.profile").read_text(encoding="utf-8")
        printed = run("fixture", "thm35")
        assert printed.returncode == 0, printed.stderr
        assert printed.stdout == text
        helped = run("-h")
        assert helped.returncode == 0, helped.stderr
        assert "votedist" in helped.stdout
        assert run().returncode == 1

    def test_python_dash_m(self, tmp_path):
        """``python -m votedist`` runs the CLI without an install."""
        package_root = pathlib.Path(votedist.__file__).parent.parent
        printed = subprocess.run(
            [sys.executable, "-m", "votedist", "fixture", "thm35"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(package_root)),
            capture_output=True, text=True, timeout=60,
        )
        assert printed.returncode == 0, printed.stderr
        assert printed.stdout == (REPO / "fixtures" / "thm35.profile").read_text(encoding="utf-8")

    @pytest.mark.skipif(
        not _distribution_installed("votedist"),
        reason="votedist distribution not installed "
        "(pip install -e . --no-build-isolation)",
    )
    def test_console_script_on_path(self):
        dist = importlib.metadata.distribution("votedist")
        (entry,) = dist.entry_points.select(group="console_scripts", name="votedist")
        assert entry.load() is main
        assert shutil.which("votedist") is not None
