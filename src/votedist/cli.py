"""Command-line interface.

Exit codes: 0 on success, 1 for bad input, 2 when a search ends without a
certified answer.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .core import Election
from .distances import INFINITY, ElectionMetric, Value, election_distance
from .fixtures import FIXTURES
from .oracle import InconclusiveSearch, dr_winners_oracle
from .profiles import parse_profile, serialize_profile
from .reduction import build_election, parse_dimacs, restrict, vc_exact, verify_reduction
from .rules import RULES
from .scores import SCORE_FUNCTIONS, ScoreKind, require_voters, score_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_profile(path: str) -> Election:
    with open(path, encoding="utf-8") as handle:
        return parse_profile(handle.read())


def _format_value(value: Value) -> str:
    if value == INFINITY:
        return "inf"
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def _cmd_winners(args: argparse.Namespace) -> int:
    result = RULES[args.rule](_load_profile(args.file))
    for cand in result.winners:
        print(cand.name)
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    e = _load_profile(args.file)
    kind = ScoreKind(args.kind)
    if args.candidate is not None:
        idx = e.candidate_index(args.candidate)
        require_voters(e, kind)
        value = SCORE_FUNCTIONS[kind](e, idx)
        print(f"{e.candidate_names[idx]}\t{_format_value(value)}")
        return EXIT_OK
    table = score_table(e, kind)
    for name, value in zip(e.candidate_names, table.values):
        print(f"{name}\t{_format_value(value)}")
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    value = election_distance(
        ElectionMetric(args.metric),
        _load_profile(args.file_a),
        _load_profile(args.file_b),
    )
    print(_format_value(value))
    return EXIT_OK


def _cmd_rationalize(args: argparse.Namespace) -> int:
    result = dr_winners_oracle(
        _load_profile(args.file),
        ElectionMetric(args.metric),
        addition_budget=args.budget,
    )
    for cand in result.winners:
        print(cand.name)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.graph, encoding="utf-8") as handle:
        g = parse_dimacs(handle.read(), args.budget)
    if args.verify:
        report = verify_reduction(g)
        if not report.ok:
            for line in report.lines():
                print(line, file=sys.stderr)
            return EXIT_INPUT
        red, cover, checked = report.reduction, report.restricted_cover, report.lines()
    else:
        red = build_election(restrict(g))
        cover, checked = vc_exact(red.instance.instance), []
    r = red.instance
    padded = r.instance
    n, k = padded.vertex_count, padded.budget
    removed = ", ".join(str(v + 1) for v in r.removed_isolated) or "none"
    comments = [
        f"vertex cover instance: {g.vertex_count} vertices, "
        f"{len(g.edges)} edges, budget {g.budget}",
        f"padded: {n} vertices, {len(padded.edges)} edges, budget {k}; "
        f"star leaf counts {list(r.star_leaf_counts)}; removed isolated vertices: {removed}",
        f"minimum cover of the padded instance: {cover} "
        f"({'within' if cover <= k else 'above'} budget)",
        f"expected: z scores exactly {k}; p scores within {k} iff a cover fits; "
        "replacement winners contain p iff a cover fits",
        f"candidates: y1..y{len(padded.edges)} edges; a b c blockers; p target; z calibration",
        "edges: "
        + " ".join(f"y{j + 1}=({u + 1},{v + 1})" for j, (u, v) in enumerate(padded.edges)),
        f"voters: x1..x{n} for the padded vertices; t1..t{n - 3} tail "
        f"(pattern:a/b/c {k - 2} each, top:target {n - 3 * k + 3})",
        *checked,
    ]
    print(serialize_profile(red.election, tuple(comments)), end="")
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    maker = FIXTURES.get(args.name)
    if maker is None:
        known = ", ".join(sorted(FIXTURES))
        print(f"error: unknown fixture {args.name!r} (known: {known})", file=sys.stderr)
        return EXIT_INPUT
    print(serialize_profile(maker()), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="votedist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    winners = sub.add_parser("winners", help="run a voting rule on a profile")
    winners.add_argument("rule", choices=sorted(RULES))
    winners.add_argument("file")
    winners.set_defaults(handler=_cmd_winners)

    score = sub.add_parser("score", help="score candidates against Condorcet victory")
    score.add_argument("kind", choices=sorted(k.value for k in ScoreKind))
    score.add_argument("file")
    score.add_argument("candidate", nargs="?")
    score.set_defaults(handler=_cmd_score)

    distance = sub.add_parser("distance", help="distance between two profiles")
    distance.add_argument("metric", choices=[m.value for m in ElectionMetric])
    distance.add_argument("file_a")
    distance.add_argument("file_b")
    distance.set_defaults(handler=_cmd_distance)

    rationalize = sub.add_parser(
        "rationalize", help="closest-consensus winners by brute force"
    )
    rationalize.add_argument("metric", choices=[m.value for m in ElectionMetric])
    rationalize.add_argument("file")
    rationalize.add_argument("--budget", type=int, default=None)
    rationalize.set_defaults(handler=_cmd_rationalize)

    reduce_cmd = sub.add_parser(
        "reduce", help="turn a vertex-cover instance into an election"
    )
    reduce_cmd.add_argument("graph", help="DIMACS-style graph file")
    reduce_cmd.add_argument("budget", type=int)
    reduce_cmd.add_argument(
        "--verify", action="store_true", help="re-check every reduction promise first"
    )
    reduce_cmd.set_defaults(handler=_cmd_reduce)

    fixture = sub.add_parser("fixture", help="print a built-in example profile")
    fixture.add_argument("name")
    fixture.set_defaults(handler=_cmd_fixture)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # reused: building it costs more than a small command's work
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.handler(args)
    except InconclusiveSearch:
        print("inconclusive")
        return EXIT_INCONCLUSIVE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
