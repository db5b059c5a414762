"""Tests for candidate scores against brute-force enumeration."""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from conftest import NAME_POOL, all_elections, random_election
from votedist import (
    Election,
    INFINITY,
    PreferenceOrder,
    ScoreKind,
    ScoreTable,
    build_election,
    deletion_score,
    dodgson_score,
    insertion_score,
    maximin_score,
    pairwise_tally,
    parse_dimacs,
    parse_profile,
    replacement_deficits,
    replacement_score,
    restrict,
    score_table,
    scores,
    separating_example,
    verify_reduction,
)
from votedist.scores import (
    SCORE_FUNCTIONS,
    _cover_types,
    _depth_first,
    _greedy_cover,
    _greedy_lifts,
    _lift_classes,
    _min_cover,
)

TESTS = pathlib.Path(__file__).parent
GRAPHS = {
    "K3": "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "C5": "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n",
    "P4": "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
}


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDepthFirst:
    TREE = {"r": ["a", "b"], "a": ["a1", "a2"], "b": ["b1"]}

    def test_visits_in_pre_order_and_undoes_before_the_next_sibling(self):
        log = []

        def expand(node, is_root):
            log.append((node, is_root))
            for child in self.TREE.get(node, ()):
                yield child
            log.append(f"undo {node}")

        _depth_first(expand, "r")
        assert log == [
            ("r", True),
            ("a", False),
            ("a1", False),
            "undo a1",
            ("a2", False),
            "undo a2",
            "undo a",
            ("b", False),
            ("b1", False),
            "undo b1",
            "undo b",
            "undo r",
        ]

    def test_deep_chain_holds_no_frame_per_level(self):
        def expand(node, is_root):
            if node:
                yield node - 1

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            _depth_first(expand, 100_000)
        finally:
            sys.setrecursionlimit(limit)


class TestMaximin:
    def test_example_table(self, example_election):
        values = [maximin_score(example_election, c) for c in "abcd"]
        assert values == [13, 11, 10, 9]

    def test_matches_minimum_support(self, rng):
        for _ in range(60):
            e = random_election(rng, rng.randint(2, 5), rng.randint(1, 9))
            t = pairwise_tally(e)
            for c in range(e.m):
                expected = min(t.counts[c][x] for x in range(e.m) if x != c)
                assert maximin_score(e, c) == expected

    def test_single_candidate_scores_voter_count(self):
        e = Election.from_names(["a"], [["a"]] * 4)
        assert maximin_score(e, "a") == 4


class TestInsertionScore:
    def test_example_table(self, example_election):
        values = [insertion_score(example_election, c) for c in "abcd"]
        assert values == [4, 8, 10, 12]

    def test_matches_top_addition_search(self, rng):
        for _ in range(120):
            e = random_election(rng, rng.randint(1, 4), rng.randint(0, 7))
            for c in range(e.m):
                assert insertion_score(e, c) == brute.min_additions_top(e, c)

    def test_matches_arbitrary_addition_search_exhaustively(self):
        for n in range(3):
            for e in all_elections(3, n):
                for c in range(3):
                    assert insertion_score(e, c) == brute.min_additions_any(e, c)

    def test_empty_election_needs_one_voter(self):
        e = Election.from_names(["a", "b"], [])
        assert insertion_score(e, "a") == 1
        assert insertion_score(e, "b") == 1


class TestReplacementScore:
    def test_example_table(self, example_election):
        values = [replacement_score(example_election, c) for c in "abcd"]
        assert values == [3, 4, 5, 6]

    def test_matches_full_rewrite_search(self, rng):
        for n in range(1, 4):
            for e in all_elections(3, n):
                for c in range(3):
                    assert replacement_score(e, c) == brute.min_replacements(e, c)
        for _ in range(25):
            e = random_election(rng, 2, rng.randint(1, 4))
            for c in range(2):
                assert replacement_score(e, c) == brute.min_replacements(e, c)

    def test_winner_scores_zero(self):
        e = Election.from_names(["a", "b"], [["a", "b"]] * 3)
        assert replacement_score(e, "a") == 0
        assert replacement_score(e, "b") == 2

    def test_majority_bound(self, rng):
        for _ in range(40):
            e = random_election(rng, rng.randint(1, 4), rng.randint(1, 8))
            for c in range(e.m):
                assert 0 <= replacement_score(e, c) <= e.n // 2 + 1

    def test_cutoff_semantics(self, example_election):
        assert replacement_score(example_election, "b", cutoff=3) is None
        assert replacement_score(example_election, "b", cutoff=4) == 4
        assert replacement_score(example_election, "b", cutoff=29) == 4

    def test_empty_election(self):
        e = Election.from_names(["a", "b"], [])
        assert replacement_score(e, "a") == INFINITY
        assert replacement_score(e, "a", cutoff=5) is None

    def test_cutoff_gives_the_score_or_none(self):
        rng = random.Random(16)
        cases = [random_election(rng, rng.randint(1, 5), rng.randint(1, 12)) for _ in range(40)]
        cases += [
            build_election(restrict(parse_dimacs(text, budget))).election
            for text in GRAPHS.values()
            for budget in (1, 2, 3)
        ]
        for e in cases:
            for x in range(e.m):
                score = replacement_score(e, x)
                for c in range(score + 2):
                    expected = score if score <= c else None
                    assert replacement_score(e, x, cutoff=c) == expected, (e, x, c)

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_verify_builds_classes_only_where_the_largest_deficit_fits(
        self, graph, budget, monkeypatch
    ):
        built = []
        cover_types = scores._cover_types

        def spy(e, cand, opponents):
            built.append(cand)
            return cover_types(e, cand, opponents)

        monkeypatch.setattr(scores, "_cover_types", spy)
        report = verify_reduction(parse_dimacs(GRAPHS[graph], budget))
        assert report.ok
        e = report.reduction.election
        fits = [x for x in range(e.m) if max(replacement_deficits(e.tally, x)) <= report.budget]
        assert sorted(built) == fits
        assert {e.candidate_names[x] for x in built} == {"p", "z"}

    def test_deficits(self, example_election):
        t = pairwise_tally(example_election)
        a = example_election.candidate_index("a")
        assert replacement_deficits(t, a) == (0, 2, 2, 2)
        for c in range(4):
            deficits = replacement_deficits(t, c)
            assert deficits[c] == 0
            for x in range(4):
                if x != c:
                    assert (deficits[x] == 0) == (2 * t.counts[c][x] > t.n)

    def test_deficits_match_the_margin_formula(self):
        # The deficit read as a count above (n - 1) // 2 equals the one read
        # from the margin, since the two cells of a pair sum to n, n = 0 too.
        rng = random.Random(11)
        shapes = [(1, 0), (1, 3), (3, 0)] + [
            (rng.randint(1, 5), rng.randint(0, 9)) for _ in range(40)
        ]
        for m, n in shapes:
            t = pairwise_tally(random_election(rng, m, n))
            for c in range(m):
                assert replacement_deficits(t, c) == tuple(
                    0 if x == c else max(0, (t.counts[x][c] - t.counts[c][x] + 2) // 2)
                    for x in range(m)
                )


class TestCoverTypes:
    def test_one_class_per_mask_widest_first(self):
        # m = 7 and n = 400 give hundreds of distinct rankings, but with
        # three opponents there are at most 2^3 masks.
        e = random_election(random.Random(5), 7, 400)
        cand, opponents = 0, [2, 4, 5]
        weights, masks = _cover_types(e, cand, opponents)
        assert len(e.ballot_types) > 300
        assert len(masks) == len(set(masks)) <= 2 ** len(opponents) - 1
        assert 0 not in masks
        behind = sum(
            1
            for ballot in e.profile
            if any(ballot.prefers(x, cand) for x in opponents)
        )
        assert sum(weights) == behind
        popcounts = [mask.bit_count() for mask in masks]
        assert popcounts == sorted(popcounts, reverse=True)


class TestMinCover:
    def test_search_holds_no_frame_per_copy(self):
        # Each cover takes over a thousand copies of one class, and the
        # search may hold no frame per chosen copy.
        e = parse_profile("3\na b c\n9000: b > a > c\n9000: c > a > b\n3000: b > c > a\n")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            values = [(replacement_score(e, c), deletion_score(e, c)) for c in range(e.m)]
        finally:
            sys.setrecursionlimit(limit)
        assert values == [(1501, INFINITY), (0, 0), (1501, 3001)]

    def test_feasibility_looks_past_a_greedy_above_the_budget(self):
        # Candidate y10 of the C5 reduction election (budget 2): 28 removals
        # admit a cover of 28, while the greedy cover for that budget takes
        # 29, so the search must not stop at its incumbent.
        c5 = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
        e = build_election(restrict(parse_dimacs(c5, 2))).election
        cand = e.candidate_index("y10")
        opponents = [x for x in range(e.m) if x != cand]
        weights, masks = _cover_types(e, cand, opponents)
        kept = e.n - 28
        needs = [e.tally.counts[x][cand] - (kept - 1) // 2 for x in opponents]
        assert _greedy_cover(weights, masks, needs) == 29
        assert _min_cover(weights, masks, needs, budget=28, feasible=True) == 28
        assert deletion_score(e, cand) == 28


class TestDeletionScore:
    def test_example_table(self, example_election):
        values = [deletion_score(example_election, c) for c in "abcd"]
        assert values == [12, 8, 10, 12]

    def test_matches_subset_search(self, rng):
        for n in range(1, 4):
            for e in all_elections(3, n):
                for c in range(3):
                    assert deletion_score(e, c) == brute.min_deletions(e, c)
        for _ in range(40):
            e = random_election(rng, rng.randint(1, 4), rng.randint(1, 7))
            for c in range(e.m):
                assert deletion_score(e, c) == brute.min_deletions(e, c)

    def test_unsalvageable_candidate_is_infinite(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])
        assert deletion_score(e, "a") == INFINITY
        assert deletion_score(e, "b") == 0

    def test_empty_election(self):
        e = Election.from_names(["a", "b"], [])
        assert deletion_score(e, "a") == INFINITY

    @staticmethod
    def budget_scan(e: Election, idx: int) -> tuple[list, object]:
        """Reference scan: try every budget from 0, skip those whose largest
        need exceeds the budget, and stop at the first feasible one.  Returns
        the (needs, budget) pairs passed to the cover search, and the score."""
        opponents = [x for x in range(e.m) if x != idx]
        against = [e.tally.counts[x][idx] for x in opponents]
        weights, masks = _cover_types(e, idx, opponents)
        calls = []
        for removed in range(e.n):
            needs = [a - (e.n - removed - 1) // 2 for a in against]
            if max(needs, default=0) > removed:
                continue
            calls.append((needs, removed))
            if _min_cover(weights, masks, needs, budget=removed, feasible=True) is not None:
                return calls, removed
        return calls, INFINITY

    def test_scan_starts_at_the_first_admissible_budget(self, monkeypatch):
        rng = random.Random(17)
        elections = [random_election(rng, m, rng.randint(0, 25)) for m in range(1, 8)]
        elections += [
            random_election(rng, rng.randint(1, 7), rng.randint(1, 25)) for _ in range(12)
        ]
        # The unsalvageable a: every budget from the first admissible one is refuted.
        elections.append(parse_profile("3\na b c\n90: b > a > c\n90: c > a > b\n30: b > c > a\n"))
        expected = [self.budget_scan(e, c) for e in elections for c in range(e.m)]
        calls = []

        def spy(weights, masks, needs, **kwargs):
            calls.append((list(needs), kwargs["budget"]))
            return _min_cover(weights, masks, needs, **kwargs)

        monkeypatch.setattr(scores, "_min_cover", spy)
        observed = []
        for e in elections:
            for c in range(e.m):
                calls.clear()
                score = deletion_score(e, c)
                observed.append((list(calls), score))
        assert observed == expected
        assert expected[-3][1] == INFINITY and len(expected[-3][0]) > 100


class TestDodgsonScore:
    def test_example_table(self, example_election):
        # Hand check: b closes its 3-vote gap against d with 4 single swaps
        # in d-first ballots; c closes 5 against b inside b-first ballots;
        # d closes 6 against c inside c-first ballots; a needs 2 swaps in
        # each of three distinct ballots to pass b, c, and d.
        values = [dodgson_score(example_election, c) for c in "abcd"]
        assert values == [6, 4, 5, 6]

    def test_matches_lift_enumeration(self, rng):
        for n in range(1, 4):
            for e in all_elections(3, n):
                for c in range(3):
                    assert dodgson_score(e, c) == brute.min_swaps(e, c)
        for _ in range(12):
            e = random_election(rng, 4, rng.randint(1, 4))
            for c in range(e.m):
                assert dodgson_score(e, c) == brute.min_swaps(e, c)

    def test_winner_scores_zero(self):
        e = Election.from_names(["a", "b"], [["a", "b"]] * 3)
        assert dodgson_score(e, "a") == 0

    def test_empty_election_rejected(self):
        e = Election.from_names(["a", "b"], [])
        with pytest.raises(ValueError):
            dodgson_score(e, "a")

    @pytest.mark.parametrize(
        "name, cand, score", [("dodgson_pool.profile", "a", 30), ("dodgson_74.profile", "e", 84)]
    )
    def test_search_holds_no_frame_per_slot(self, name, cand, score):
        # The search runs many levels deep here and may hold no frame per level.
        e = parse_profile((TESTS / name).read_text(encoding="utf-8"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            value = dodgson_score(e, cand)
        finally:
            sys.setrecursionlimit(limit)
        assert value == score


class TestScoreTable:
    def test_example_tables(self, example_election):
        expected = {
            ScoreKind.MAXIMIN: (13, 11, 10, 9),
            ScoreKind.INSERTION: (4, 8, 10, 12),
            ScoreKind.REPLACEMENT: (3, 4, 5, 6),
            ScoreKind.DELETION: (12, 8, 10, 12),
            ScoreKind.DODGSON: (6, 4, 5, 6),
        }
        for kind, values in expected.items():
            table = score_table(example_election, kind)
            assert table.kind is kind
            assert table.values == values

    def test_registry_covers_every_kind(self):
        assert set(SCORE_FUNCTIONS) == set(ScoreKind)

    def test_all_kinds_share_one_tally(self, tally_calls):
        e = separating_example()
        for kind in ScoreKind:
            score_table(e, kind)
        assert tally_calls == [e]

    def test_argmin_argmax(self):
        table = ScoreTable(ScoreKind.MAXIMIN, (3, 1, 1, 2))
        assert table.argmin() == (1, 2)
        assert table.argmax() == (0,)

    def test_only_deletion_may_be_infinite(self):
        ScoreTable(ScoreKind.DELETION, (0, INFINITY))
        with pytest.raises(ValueError):
            ScoreTable(ScoreKind.DODGSON, (0, INFINITY))
        with pytest.raises(ValueError):
            ScoreTable(ScoreKind.MAXIMIN, (-1, 0))

    def test_empty_election_rejected_where_undefined(self):
        e = Election.from_names(["a", "b"], [])
        for kind in (ScoreKind.REPLACEMENT, ScoreKind.DODGSON):
            with pytest.raises(ValueError):
                score_table(e, kind)

    def test_single_candidate_tables(self):
        e = Election.from_names(["a"], [["a"]] * 2)
        assert score_table(e, ScoreKind.MAXIMIN).values == (2,)
        for kind in (
            ScoreKind.INSERTION,
            ScoreKind.DELETION,
            ScoreKind.REPLACEMENT,
            ScoreKind.DODGSON,
        ):
            assert score_table(e, kind).values == (0,)


@st.composite
def elections(draw, max_m: int = 5, max_n: int = 12) -> Election:
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    names = NAME_POOL[:m]
    return Election.from_names(names, [[names[i] for i in r] for r in rankings])


class TestProperties:
    @settings(max_examples=150)
    @given(elections())
    def test_replacement_is_the_cheapest_repair(self, e):
        # A deleted voter or a voter with lifts can be rewritten instead,
        # and rewriting any floor(n/2) + 1 voters to rank c first works.
        for c in range(e.m):
            replaced = replacement_score(e, c)
            assert replaced <= e.n // 2 + 1
            assert replaced <= dodgson_score(e, c)
            deleted = deletion_score(e, c)
            if deleted != INFINITY:
                assert replaced <= deleted

    @settings(max_examples=150)
    @given(elections(max_m=6, max_n=30))
    def test_dodgson_between_open_needs_and_greedy(self, e):
        # Each swap gains at most one vote; the greedy lifts are feasible.
        for c in range(e.m):
            needs, chains, weights = _lift_classes(e, c)
            assert sum(needs) <= dodgson_score(e, c) <= _greedy_lifts(needs, chains, weights)

    @settings(max_examples=150)
    @given(elections(max_m=6, max_n=30))
    def test_replacement_between_largest_need_and_greedy(self, e):
        # Each rewrite meets each need at most once; the greedy cover is
        # feasible.
        for c in range(e.m):
            deficits = replacement_deficits(e.tally, c)
            opponents = [x for x in range(e.m) if deficits[x] > 0]
            needs = [deficits[x] for x in opponents]
            weights, masks = _cover_types(e, c, opponents)
            greedy = _greedy_cover(weights, masks, needs)
            assert max(needs, default=0) <= replacement_score(e, c) <= greedy

    @settings(max_examples=100)
    @given(st.data())
    def test_relabelling_permutes_every_table(self, data):
        e = data.draw(elections(max_m=4, max_n=10))
        perm = data.draw(st.permutations(range(e.m)))
        relabelled = Election.from_names(
            e.candidate_names,
            [[e.candidate_names[perm[i]] for i in ballot.ranking] for ballot in e.profile],
        )
        for kind in ScoreKind:
            before = score_table(e, kind).values
            after = score_table(relabelled, kind).values
            assert all(after[perm[c]] == before[c] for c in range(e.m))
