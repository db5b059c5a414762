"""Cross-check the exact solvers against independent integer programs.

The programs follow Bartholdi, Tovey & Trick (1989) for Dodgson and Young
(deletion), plus the plain covering program for replacement.  They are
built from ``Election.ballot_types`` and ``Election.tally`` alone and solved
with ``scipy.optimize.milp``, so they share no search code with the solvers
and reach sizes the brute-force oracle cannot enumerate.
"""

from __future__ import annotations

import pathlib
import random

import pytest

pytest.importorskip("scipy")

import numpy as np  # noqa: E402  (scipy brings numpy)
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

from votedist import scores  # noqa: E402
from votedist import (  # noqa: E402
    INFINITY,
    Election,
    build_election,
    deletion_score,
    dodgson_score,
    parse_dimacs,
    parse_profile,
    replacement_score,
    restrict,
)

NAMES = "abcdefgh"
DODGSON_POOL = pathlib.Path(__file__).with_name("dodgson_pool.profile")
DODGSON_74 = pathlib.Path(__file__).with_name("dodgson_74.profile")
GRAPHS = {
    "K3": "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "C5": "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n",
    "P4": "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
}


def _solve(cost, entries, lower, upper, var_upper):
    """Minimise ``cost @ z`` over integer ``0 <= z <= var_upper`` with
    ``lower <= A @ z <= upper``; None when infeasible.

    ``A`` is sparse, given by its ``(row, column, value)`` entries, so
    programs with thousands of ballot types fit in memory.
    """
    cost = np.asarray(cost, dtype=float)
    constraints = []
    if lower:
        rows, cols, values = zip(*entries) if entries else ((), (), ())
        a = coo_array((values, (rows, cols)), shape=(len(lower), len(cost)), dtype=float)
        constraints.append(LinearConstraint(a.tocsr(), lower, upper))
    res = milp(
        cost,
        constraints=constraints,
        integrality=np.ones_like(cost),
        bounds=Bounds(np.zeros_like(cost), np.asarray(var_upper, dtype=float)),
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return round(res.fun)


def _above(ranking: tuple[int, ...], cand: int) -> tuple[int, ...]:
    """The candidates a ballot ranks above ``cand``, nearest first."""
    return ranking[: ranking.index(cand)][::-1]


def ilp_replacement(e: Election, cand: int) -> int:
    """x_t ballots of type t are rewritten to rank ``cand`` first."""
    types = e.ballot_types
    entries, lower = [], []
    for x in range(e.m):
        against, backing = e.tally.counts[x][cand], e.tally.counts[cand][x]
        if x == cand or backing > against:
            continue
        # Each rewrite of a ballot preferring x moves one vote across.
        row = len(lower)
        entries += [(row, t, 1) for t, (r, _) in enumerate(types) if x in _above(r, cand)]
        lower.append((against - backing) // 2 + 1)
    return _solve(
        [1] * len(types), entries, lower, [np.inf] * len(lower), [w for _, w in types]
    )


def ilp_deletion(e: Election, cand: int):
    """x_t ballots of type t are deleted, K = sum(x) in all."""
    types, n = e.ballot_types, e.n
    entries, lower, upper = [], [], []
    for x in range(e.m):
        if x == cand:
            continue
        # 2 * hit_x - K >= 2 * against_x - n + 1: strict majority among the
        # n - K voters kept.
        row = len(lower)
        entries += [(row, t, 2 * int(x in _above(r, cand)) - 1) for t, (r, _) in enumerate(types)]
        lower.append(2 * e.tally.counts[x][cand] - n + 1)
        upper.append(np.inf)
    row = len(lower)
    entries += [(row, t, 1) for t in range(len(types))]  # K <= n - 1
    lower.append(0)
    upper.append(n - 1)
    value = _solve([1] * len(types), entries, lower, upper, [w for _, w in types])
    return INFINITY if value is None else value


def ilp_dodgson(e: Election, cand: int) -> int:
    """y_{t,j} ballots of type t lift ``cand`` by exactly j places."""
    types = e.ballot_types
    threshold = e.n // 2 + 1
    above = [_above(ranking, cand) for ranking, _ in types]
    columns = [(t, j) for t, chain in enumerate(above) for j in range(1, len(chain) + 1)]
    if not columns:
        return 0
    entries, lower, upper = [], [], []
    for x in range(e.m):
        gain = threshold - e.tally.counts[cand][x]
        if x == cand or gain <= 0:
            continue
        # A lift by j passes the j candidates right above cand.
        row = len(lower)
        entries += [(row, col, 1) for col, (t, j) in enumerate(columns) if x in above[t][:j]]
        lower.append(gain)
        upper.append(np.inf)
    # At most weight_t ballots of type t lift at all.
    first = len(lower)
    entries += [(first + t, col, 1) for col, (t, _) in enumerate(columns)]
    lower += [0] * len(types)
    upper += [w for _, w in types]
    return _solve([j for _, j in columns], entries, lower, upper, [np.inf] * len(columns))


def pooled_election(rng: random.Random, m: int, n: int) -> Election:
    """Ballots mostly drawn from a pool of at most 12 rankings, so that many
    share a cover mask or a lift chain."""
    names = NAMES[:m]
    pool = [rng.sample(names, m) for _ in range(rng.randint(1, 12))]
    ballots = [
        rng.choice(pool) if rng.random() < 0.6 else rng.sample(names, m) for _ in range(n)
    ]
    return Election.from_names(names, ballots)


def impartial_election(rng: random.Random, m: int, n: int) -> Election:
    names = NAMES[:m]
    return Election.from_names(names, [rng.sample(names, m) for _ in range(n)])


def test_replacement_and_deletion_match_ilp():
    rng = random.Random(41)
    for _ in range(70):  # 308 candidates in all
        e = pooled_election(rng, rng.randint(2, 7), rng.randint(1, 200))
        for c in range(e.m):
            assert replacement_score(e, c) == ilp_replacement(e, c), (e.ballot_types, c)
            assert deletion_score(e, c) == ilp_deletion(e, c), (e.ballot_types, c)


@pytest.mark.parametrize("budget", range(4))
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_reduction_elections_match_ilp(graph, budget):
    # m = 17..25 candidates and n = 27..39 voters, beyond brute force.
    e = build_election(restrict(parse_dimacs(GRAPHS[graph], budget))).election
    for c in range(e.m):
        assert replacement_score(e, c) == ilp_replacement(e, c), (graph, budget, c)
        assert deletion_score(e, c) == ilp_deletion(e, c), (graph, budget, c)
        assert dodgson_score(e, c) == ilp_dodgson(e, c), (graph, budget, c)


def test_search_shaped_elections_match_ilp():
    # Impartial culture with m = 8 and n = 400: nearly every ballot type is
    # distinct, and the cover classes number up to 2^7 - 1.
    rng = random.Random(45)
    for _ in range(3):
        e = impartial_election(rng, 8, 400)
        for c in range(e.m):
            assert replacement_score(e, c) == ilp_replacement(e, c), (e.ballot_types, c)
            assert deletion_score(e, c) == ilp_deletion(e, c), (e.ballot_types, c)
            assert dodgson_score(e, c) == ilp_dodgson(e, c), (e.ballot_types, c)


def test_cover_search_alone_matches_ilp(monkeypatch):
    # The greedy cover and the root's Lagrangian bound settle most searches
    # before any branching; without them the class-count branch and bound
    # must find every optimum at its own leaves, so a pruning or branching
    # fault shows.
    relax = scores._cover_relax

    def open_root(weights, cols, t, needs, lam, limit, *, root):
        if root:
            return lam, True
        return relax(weights, cols, t, needs, lam, limit, root=root)

    monkeypatch.setattr(scores, "_greedy_cover", lambda weights, masks, needs: sum(weights) + 1)
    monkeypatch.setattr(scores, "_cover_relax", open_root)
    rng = random.Random(46)
    for draw in (impartial_election, pooled_election):
        for _ in range(40):
            e = draw(rng, rng.randint(2, 7), rng.randint(1, 200))
            for c in range(e.m):
                assert replacement_score(e, c) == ilp_replacement(e, c), (e.ballot_types, c)
                assert deletion_score(e, c) == ilp_deletion(e, c), (e.ballot_types, c)


def test_dodgson_matches_ilp():
    rng = random.Random(43)
    for draw in (impartial_election, pooled_election):
        for _ in range(50):
            e = draw(rng, rng.randint(2, 7), rng.randint(1, 200))
            for c in range(e.m):
                assert dodgson_score(e, c) == ilp_dodgson(e, c), (e.ballot_types, c)


def test_dodgson_search_alone_matches_ilp(monkeypatch):
    # The completion heuristic supplies most incumbents; without it the
    # greedy incumbent is vacuous and the branch and bound must find every
    # optimum at its own leaves, so a pruning or branching fault shows.
    def no_completion(needs, chains, levels, p):
        return 0 if all(nd <= 0 for nd in needs[:-1]) else 10**9

    monkeypatch.setattr(scores, "_complete_lifts", no_completion)
    rng = random.Random(44)
    for draw in (impartial_election, pooled_election):
        for _ in range(60):
            e = draw(rng, rng.randint(2, 6), rng.randint(1, 40))
            for c in range(e.m):
                assert dodgson_score(e, c) == ilp_dodgson(e, c), (e.ballot_types, c)


def test_ilp_matches_hand_checked_example(example_election):
    e = example_election
    assert [ilp_replacement(e, c) for c in range(4)] == [3, 4, 5, 6]
    assert [ilp_deletion(e, c) for c in range(4)] == [12, 8, 10, 12]
    assert [ilp_dodgson(e, c) for c in range(4)] == [6, 4, 5, 6]


def test_ilp_deletion_reports_infeasible():
    e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])
    assert ilp_deletion(e, 0) == INFINITY
    assert ilp_deletion(e, 1) == 0


def test_pool_heavy_dodgson_profile():
    e = parse_profile(DODGSON_POOL.read_text(encoding="utf-8"))
    assert dodgson_score(e, "a") == 30
    for c in range(e.m):
        assert dodgson_score(e, c) == ilp_dodgson(e, c)


def test_74_voter_dodgson_profile():
    e = parse_profile(DODGSON_74.read_text(encoding="utf-8"))
    assert dodgson_score(e, "e") == 84
    for c in range(e.m):
        assert dodgson_score(e, c) == ilp_dodgson(e, c)
