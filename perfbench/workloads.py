"""Seeded, stdlib-only input generators and output checks for each workload.

A workload is a sequence of rounds.  Round ``r`` of a run with seed ``s`` is
built from its own ``random.Random`` stream, so the same seed always yields
the same inputs, and every round has the same mix of operation kinds: a run
that completes more rounds measures more of the same mix, never a different
one.  The CLI under test only ever sees the files written here; the
expected answers come from computations that share no code with it
(brute-force vertex covers, the generator's own pairwise tallies) or, for
the oracle, from the independent exact rules, evaluated outside the timed
region.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("reduction", "search", "oracle", "bulk")

SCORE_KINDS = ("maximin", "insertion", "dodgson", "replacement", "deletion")
# Quartiles of ``_total_deficit`` over 2,000 impartial-culture elections with
# m = 8 and n = 400 (mean 252, range 118-436).
SEARCH_DEFICIT_QUARTILES = (218, 250, 281)
ORACLE_METRICS = (
    "hamming",
    "swap",
    "insertion",
    "deletion",
    "insertion-quasi",
    "deletion-quasi",
)
# The exact rule whose winners each brute-force metric must reproduce.
ORACLE_RULES = {
    "hamming": "replacement",
    "swap": "dodgson",
    "insertion": "maximin",
    "deletion": "young",
    "insertion-quasi": "maximin",
    "deletion-quasi": "young",
}
ORACLE_SHAPES = ((3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (4, 3))
BULK_OPS = (
    ("winners", "plurality"),
    ("winners", "condorcet"),
    ("winners", "maximin"),
    ("score", "insertion"),
)
BULK_CANDIDATES = 10
BULK_LINES = 10_000
BULK_MULTIPLICITY = 100


@dataclass
class Op:
    """One CLI invocation plus the check its output must pass.

    ``check`` gets the exit code and captured stdout and returns an error
    message, or None when the output is right.
    """

    argv: list[str]
    check: Callable[[int, str], str | None]


@dataclass
class Round:
    """The operations of one round, plus checks that relate several outputs.

    ``cross_check`` runs after every op of the round has finished, outside
    the timed region.  It gets the captured stdouts in op order and returns
    ``(op position, message)`` pairs for the ops it finds wrong.
    """

    ops: list[Op]
    cross_check: Callable[[list[str]], list[tuple[int, str]]] = field(
        default=lambda outputs: []
    )


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _names(m: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(m)]


def _profile_text(names: list[str], lines: list[tuple[int, tuple[str, ...]]]) -> str:
    out = [str(len(names)), " ".join(names)]
    out += [f"{count}: {' > '.join(ranking)}" for count, ranking in lines]
    return "\n".join(out) + "\n"


def _tally(names: list[str], lines: list[tuple[int, tuple[str, ...]]]) -> dict:
    """support[a][b]: voters ranking a above b, from the generator's lines."""
    support = {a: {b: 0 for b in names} for a in names}
    for count, ranking in lines:
        for i, a in enumerate(ranking):
            for b in ranking[i + 1 :]:
                support[a][b] += count
    return support


def _maximin(names: list[str], support: dict) -> dict[str, int]:
    return {a: min(support[a][b] for b in names if b != a) for a in names}


def _score_lines(stdout: str) -> dict[str, str]:
    rows = [line.split("\t") for line in stdout.splitlines()]
    if not all(len(row) == 2 for row in rows):
        raise ValueError("score lines must be 'candidate<TAB>value'")
    return dict(rows)


def _exit_ok(code: int, stdout: str) -> str | None:
    return None if code == 0 else f"exit code {code}"


def _expect_lines(expected: list[str]) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = stdout.splitlines()
        return None if got == expected else f"printed {got}, expected {expected}"

    return check


# reduction -----------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, edge_count: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus random extra edges, edge_count in all."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    spare = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(spare)
    edges.update(spare[: edge_count - len(edges)])
    return sorted(edges)


def brute_force_cover(n: int, edges: list[tuple[int, int]]) -> int:
    """Minimum vertex cover size by scanning all 2^n vertex subsets."""
    edge_masks = [(1 << u) | (1 << v) for u, v in edges]
    return min(
        bin(subset).count("1")
        for subset in range(1 << n)
        if all(subset & mask for mask in edge_masks)
    )


def _reduction_check(expected_yes: bool) -> Callable[[int, str], str | None]:
    word = "yes" if expected_yes else "no"

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = set(stdout.splitlines())
        for label in ("expected answer", "target wins"):
            if f"# {label}: {word}" not in lines:
                return f"'{label}' is not '{word}' (brute-force cover)"
        return None

    return check


def reduction_round(seed: int, index: int, workdir: Path) -> Round:
    """Every (N, k) with N in 6..10 and k in 0..N, each on a fresh random graph.

    Op time grows steeply with the budget k, which sets the padding, and
    with the edge count, which sets the candidate count.  So every round
    covers each budget once, and round r gives budget k the edge count
    N - 1 + (k + r) mod (N + 2), cycling through every count from a
    spanning tree's N - 1 to 2N.  Over N + 2 rounds each budget meets each
    count once, and the seed only draws the graphs, so runs of equal length
    measure the same mix of sizes.
    """
    rng = _rng(seed, "reduction", index)
    cases = [
        (n, k, n - 1 + (k + index) % (n + 2)) for n in range(6, 11) for k in range(n + 1)
    ]
    rng.shuffle(cases)
    ops = []
    for pos, (n, k, count) in enumerate(cases):
        edges = _random_graph(rng, n, count)
        path = workdir / f"r{index}-{pos}.col"
        path.write_text(
            f"c seeded random graph\np edge {n} {len(edges)}\n"
            + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
        )
        expected_yes = brute_force_cover(n, edges) <= k
        ops.append(Op(["reduce", str(path), str(k), "--verify"], _reduction_check(expected_yes)))
    return Round(ops)


# search --------------------------------------------------------------------


def _search_cross_check(n: int, maximin: dict[str, int]) -> Callable:
    def cross_check(outputs: list[str]) -> list[tuple[int, str]]:
        tables = {}
        for pos, (kind, out) in enumerate(zip(SCORE_KINDS, outputs)):
            try:
                tables[kind] = _score_lines(out)
            except ValueError as exc:
                return [(pos, str(exc))]
        bad = []
        for pos, kind in enumerate(SCORE_KINDS):
            if set(tables[kind]) != set(maximin):
                bad.append((pos, f"{kind} scores name the wrong candidates"))
        if bad:
            return bad
        at = SCORE_KINDS.index
        for c, support in maximin.items():
            if tables["maximin"][c] != str(support):
                bad.append((at("maximin"), f"maximin({c}) differs from the tally's {support}"))
            if tables["insertion"][c] != str(max(0, n - 2 * support + 1)):
                bad.append((at("insertion"), f"insertion({c}) breaks n - 2*maximin + 1"))
            rep = int(tables["replacement"][c])
            dodgson = int(tables["dodgson"][c])
            deletion = tables["deletion"][c]
            if not rep <= dodgson:
                bad.append((at("replacement"), f"replacement({c}) {rep} > dodgson {dodgson}"))
            if deletion != "inf" and not rep <= int(deletion):
                bad.append((at("replacement"), f"replacement({c}) {rep} > deletion {deletion}"))
            if not rep <= n // 2 + 1:
                bad.append((at("replacement"), f"replacement({c}) {rep} > floor(n/2)+1"))
        return bad

    return cross_check


def _total_deficit(names: list[str], support: dict) -> int:
    """Sum over candidates c and rivals x of the votes c must flip to beat x."""
    return sum(
        max(0, (support[x][c] - support[c][x] + 2) // 2)
        for c in names
        for x in names
        if x != c
    )


def search_round(seed: int, index: int, workdir: Path) -> Round:
    """All five score kinds on one impartial-culture election, m = 8, n = 400.

    The searches' cost varies a lot from one election to the next, and
    tracks the total replacement deficit (correlation 0.73 with the round's
    op time over 94 elections).  So rounds cycle through the deficit's
    quartiles under impartial culture, each drawing elections until one
    lands in its quartile: every four rounds sample the distribution evenly
    instead of at random.
    """
    rng = _rng(seed, "search", index)
    names = _names(8)
    while True:
        lines = []
        for _ in range(400):
            ranking = names[:]
            rng.shuffle(ranking)
            lines.append((1, tuple(ranking)))
        support = _tally(names, lines)
        if bisect.bisect(SEARCH_DEFICIT_QUARTILES, _total_deficit(names, support)) == index % 4:
            break
    path = workdir / f"s{index}.profile"
    path.write_text(_profile_text(names, lines))
    ops = [Op(["score", kind, str(path)], _exit_ok) for kind in SCORE_KINDS]
    return Round(ops, _search_cross_check(400, _maximin(names, support)))


# oracle --------------------------------------------------------------------


def oracle_round(
    seed: int, index: int, workdir: Path, rule_winners: Callable[[str, str], list[str]]
) -> Round:
    """All six metrics on eight tiny elections: m = 3, n = 1..5 and m = 4, n = 1..3.

    Ballots come from a pool of two or three rankings (alternating by
    shape), so ballot types are heavily shared.  Each brute-force winner set
    must equal the winners of the matching exact rule.  ``rule_winners(rule,
    path)`` evaluates that rule on a profile file; the worker supplies it, so
    this module never imports the library, and it only runs in the cross
    check, outside the timed region.
    """
    rng = _rng(seed, "oracle", index)
    ops = []
    for shape, (m, n) in enumerate(ORACLE_SHAPES):
        names = _names(m)
        pool = rng.sample(list(itertools.permutations(names)), 2 + shape % 2)
        lines = [(1, rng.choice(pool)) for _ in range(n)]
        path = workdir / f"o{index}-{shape}.profile"
        path.write_text(_profile_text(names, lines))
        for metric in ORACLE_METRICS:
            ops.append(Op(["rationalize", metric, str(path)], _exit_ok))

    def cross_check(outputs: list[str]) -> list[tuple[int, str]]:
        bad = []
        for pos, (op, out) in enumerate(zip(ops, outputs)):
            _, metric, path = op.argv
            rule = ORACLE_RULES[metric]
            expected = rule_winners(rule, path)
            if out.splitlines() != expected:
                bad.append((pos, f"{metric} winners {out.split()} differ from {rule} {expected}"))
        return bad

    return Round(ops, cross_check)


# bulk ----------------------------------------------------------------------


def bulk_profile(seed: int, workdir: Path) -> tuple[Path, list[str], dict]:
    """One 1,000,000-voter profile: 10,000 random lines of multiplicity 100."""
    rng = _rng(seed, "bulk", 0)
    names = _names(BULK_CANDIDATES)
    lines = []
    for _ in range(BULK_LINES):
        ranking = names[:]
        rng.shuffle(ranking)
        lines.append((BULK_MULTIPLICITY, tuple(ranking)))
    path = workdir / "bulk.profile"
    path.write_text(_profile_text(names, lines))
    return path, names, {"lines": lines, "support": _tally(names, lines)}


def bulk_round(path: Path, names: list[str], data: dict) -> Round:
    """Plurality, Condorcet and maximin winners plus insertion scores."""
    lines, support = data["lines"], data["support"]
    n = sum(count for count, _ in lines)
    firsts = {c: 0 for c in names}
    for count, ranking in lines:
        firsts[ranking[0]] += count
    top = max(firsts.values())
    maximin = _maximin(names, support)
    best = max(maximin.values())
    condorcet = [c for c in names if all(2 * support[c][b] > n for b in names if b != c)]
    expected = {
        "plurality": [c for c in names if firsts[c] == top],
        "condorcet": condorcet,
        "maximin": [c for c in names if maximin[c] == best],
        "insertion": [f"{c}\t{max(0, n - 2 * maximin[c] + 1)}" for c in names],
    }
    return Round(
        [Op([command, what, str(path)], _expect_lines(expected[what])) for command, what in BULK_OPS]
    )
