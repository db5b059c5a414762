"""Tests for the brute-force closest-consensus oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import all_elections, random_election
from votedist import (
    Election,
    ElectionMetric,
    INFINITY,
    InconclusiveSearch,
    PreferenceOrder,
    condorcet_winner,
    deletion_score,
    dodgson_winners,
    dr_score_oracle,
    dr_winners_oracle,
    election_distance,
    insertion_score,
    maximin_winners,
    replacement_score,
    replacement_winners,
    young_winners,
)
from votedist import oracle

EDIT_METRICS = (
    ElectionMetric.INSERTION,
    ElectionMetric.INSERTION_QUASI,
    ElectionMetric.DELETION,
    ElectionMetric.DELETION_QUASI,
)


def reference_edit_score(e, metric, cand, budget, additions):
    """The edit oracle by election building: every deletion subset plus every
    appended multiset becomes an ``Election``, ``condorcet_winner`` decides
    whether ``cand`` wins it, and the certification rule is the oracle's."""
    if additions == "top":
        top = PreferenceOrder((cand,) + tuple(x for x in range(e.m) if x != cand))

        def choices(extra):
            return ([top] * extra,)
    else:
        orders = [PreferenceOrder(r) for r in itertools.permutations(range(e.m))]

        def choices(extra):
            return itertools.combinations_with_replacement(orders, extra)

    best = INFINITY
    for r in range(e.n + 1):
        for drop in itertools.combinations(e.voters, r):
            trimmed = e.delete_voters(drop)
            for extra in range(budget + 1):
                for ballots in choices(extra):
                    modified = trimmed.add_voters(ballots)
                    winner = condorcet_winner(modified)
                    if winner is not None and winner.index == cand:
                        best = min(best, election_distance(metric, e, modified))
    if not best <= oracle._certified_floor(metric, e.n, budget):
        return "inconclusive"
    return best


def oracle_edit_score(e, metric, cand, budget, additions):
    try:
        return dr_score_oracle(e, metric, cand, addition_budget=budget, additions=additions)
    except InconclusiveSearch:
        return "inconclusive"


class TestProfileMetricOracle:
    def test_winner_needs_no_change(self):
        e = Election.from_names(["a", "b"], [["a", "b"]] * 3)
        assert dr_score_oracle(e, ElectionMetric.HAMMING, "a") == 0
        assert dr_score_oracle(e, ElectionMetric.SWAP, "a") == 0

    def test_one_rewrite_one_swap(self):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"], ["b", "a"]])
        assert dr_score_oracle(e, ElectionMetric.HAMMING, "a") == 1
        assert dr_score_oracle(e, ElectionMetric.SWAP, "a") == 1
        assert dr_score_oracle(e, ElectionMetric.SWAP, "b") == 0

    def test_swap_costs_accumulate(self):
        e = Election.from_names(
            ["a", "b", "c"], [["c", "b", "a"], ["c", "b", "a"], ["a", "b", "c"]]
        )
        # Promoting a from the bottom to the top of one mirrored ballot takes
        # two swaps and wins both of a's pairwise duels 2-1.
        assert dr_score_oracle(e, ElectionMetric.SWAP, "a") == 2

    def test_matches_direct_scan_with_public_distance(self, rng):
        for _ in range(4):
            e = random_election(rng, 3, 2)
            for metric in (ElectionMetric.HAMMING, ElectionMetric.SWAP):
                fast = [dr_score_oracle(e, metric, c) for c in range(3)]
                slow: list = [INFINITY] * 3
                for other in all_elections(3, 2):
                    w = condorcet_winner(other)
                    if w is None:
                        continue
                    d = election_distance(metric, e, other)
                    slow[w.index] = min(slow[w.index], d)
                assert fast == slow

    def test_limit_guard(self):
        e = Election.from_names(["a", "b", "c"], [["a", "b", "c"]] * 10)
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, ElectionMetric.SWAP, "a", limit=10)

    def test_oversized_spaces_are_refused_before_listing_rankings(self, monkeypatch):
        def spy(m):
            raise AssertionError(f"listed all {m}! rankings")

        monkeypatch.setattr(oracle, "_rankings", spy)
        names = list("abcdefghijkl")
        e = Election.from_names(names, [names])
        for metric in (ElectionMetric.HAMMING, ElectionMetric.SWAP):
            with pytest.raises(InconclusiveSearch, match="479001600\\*\\*1 "):
                dr_score_oracle(e, metric, "a")
        with pytest.raises(InconclusiveSearch, match="edit space"):
            dr_score_oracle(e, ElectionMetric.INSERTION, "a", additions="all")


class TestEditMetricOracle:
    def test_insertion_matches_score_on_smalls(self, rng):
        for _ in range(20):
            e = random_election(rng, rng.randint(1, 3), rng.randint(1, 5))
            for c in range(e.m):
                got = dr_score_oracle(e, ElectionMetric.INSERTION, c)
                assert got == insertion_score(e, c)

    def test_additions_all_matches_top(self):
        metrics = (
            ElectionMetric.INSERTION,
            ElectionMetric.INSERTION_QUASI,
            ElectionMetric.DELETION,
        )
        for n in range(3):
            for e in all_elections(3, n):
                for metric in metrics:
                    for c in range(3):
                        assert dr_score_oracle(
                            e, metric, c, additions="all"
                        ) == dr_score_oracle(e, metric, c, additions="top")

    def test_rejects_unknown_additions_mode(self):
        # limit=0 makes any enumeration inconclusive, so the ValueError shows
        # that the check runs before the scan.
        e = Election.from_names(["a", "b"], [["a", "b"]])
        for metric in ElectionMetric:
            with pytest.raises(ValueError, match="additions"):
                dr_score_oracle(e, metric, "a", additions="sideways", limit=0)
            with pytest.raises(ValueError, match="additions"):
                dr_winners_oracle(e, metric, additions="sideways", limit=0)

    def test_deletion_quasi_matches_deletion_score(self, rng):
        for _ in range(30):
            e = random_election(rng, rng.randint(1, 3), rng.randint(1, 5))
            for c in range(e.m):
                expected = deletion_score(e, c)
                got = dr_score_oracle(e, ElectionMetric.DELETION_QUASI, c)
                if expected == INFINITY:
                    assert got == INFINITY
                else:
                    assert got == expected

    def test_deletion_distance_value_shape(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"], ["a", "b"]])
        # b already wins; a needs edits, and the cheapest is one deletion away
        assert dr_score_oracle(e, ElectionMetric.DELETION, "b") == 0
        value = dr_score_oracle(e, ElectionMetric.DELETION, "a")
        assert value == 2 - Fraction(1, 2 + 9 + 1)

    def test_small_budget_is_inconclusive_when_additions_needed(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, ElectionMetric.INSERTION, "a", addition_budget=0)
        assert (
            dr_score_oracle(e, ElectionMetric.DELETION_QUASI, "a", addition_budget=0)
            == INFINITY
        )

    def test_rejects_negative_budget(self):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"], ["b", "a"]])
        for metric in ElectionMetric:
            for additions in ("top", "all"):
                with pytest.raises(ValueError, match="addition budget"):
                    dr_score_oracle(
                        e, metric, "a", addition_budget=-1, additions=additions, limit=0
                    )
                with pytest.raises(ValueError, match="addition budget"):
                    dr_winners_oracle(e, metric, addition_budget=-1, additions=additions, limit=0)

    def test_budget_large_enough_certifies(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])
        assert dr_score_oracle(e, ElectionMetric.INSERTION, "a", addition_budget=3) == 3


class TestWinnersOracle:
    def test_rule_names(self):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"], ["a", "b"]])
        ws = dr_winners_oracle(e, ElectionMetric.INSERTION)
        assert ws.rule == "closest-insertion"

    def test_matches_score_rules_on_smalls(self, rng):
        pairs = {
            ElectionMetric.HAMMING: replacement_winners,
            ElectionMetric.SWAP: dodgson_winners,
            ElectionMetric.INSERTION: maximin_winners,
            ElectionMetric.DELETION: young_winners,
        }
        for _ in range(15):
            e = random_election(rng, 3, rng.randint(1, 4))
            for metric, rule in pairs.items():
                assert dr_winners_oracle(e, metric).winners == rule(e).winners

    def test_rejects_empty_election(self):
        e = Election.from_names(["a", "b"], [])
        with pytest.raises(ValueError):
            dr_winners_oracle(e, ElectionMetric.HAMMING)

    def test_winners_go_through_the_score_oracle(self, monkeypatch):
        called = []
        score = oracle.dr_score_oracle

        def spy(e, metric, cand, **options):
            called.append(cand)
            return score(e, metric, cand, **options)

        monkeypatch.setattr(oracle, "dr_score_oracle", spy)
        e = random_election(random.Random(24), 4, 3)
        for metric in ElectionMetric:
            called.clear()
            dr_winners_oracle(e, metric)
            assert called == list(range(e.m))

    def test_one_tally_per_drop_set(self, monkeypatch):
        # One scan answers every candidate, so each trimmed election is
        # tallied once, not once per candidate.
        tallied = []
        tally = oracle.pairwise_tally

        def spy(election):
            tallied.append(election.voters)
            return tally(election)

        monkeypatch.setattr(oracle, "pairwise_tally", spy)
        e = random_election(random.Random(25), 4, 3)
        for metric in EDIT_METRICS:
            tallied.clear()
            dr_winners_oracle(e, metric)
            assert len(tallied) == 2**e.n, metric
            assert len(set(tallied)) == 2**e.n, metric

    def test_winners_are_the_argmin_of_the_scores(self):
        rng = random.Random(2024)
        for _ in range(30):
            m = rng.randint(1, 4)
            # n <= 3 at m = 4 keeps each profile scan under 24**3 profiles
            e = random_election(rng, m, rng.randint(1, 3 if m == 4 else 4))
            for additions in ("top", "all"):
                pool = 1 if additions == "top" else factorial(m)
                # keep each scan small; small budgets leave some inconclusive
                budget = rng.choice(
                    [b for b in range(e.n + 2) if 2**e.n * comb(pool + b, b) <= 1000]
                )
                if budget == e.n + 1:
                    budget = None  # the default is n + 1
                options = dict(addition_budget=budget, additions=additions)
                for metric in ElectionMetric:
                    scores = []
                    for c in range(m):
                        try:
                            scores.append(dr_score_oracle(e, metric, c, **options))
                        except InconclusiveSearch:
                            scores = None
                            break
                    if scores is None:
                        with pytest.raises(InconclusiveSearch):
                            dr_winners_oracle(e, metric, **options)
                        continue
                    low = min(scores)
                    expected = tuple(e.candidates[c] for c in range(m) if scores[c] == low)
                    assert dr_winners_oracle(e, metric, **options).winners == expected

    def test_consensus_winner_is_sole_winner_everywhere(self):
        e = Election.from_names(
            ["a", "b", "c"],
            [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]],
        )
        for metric in ElectionMetric:
            ws = dr_winners_oracle(e, metric)
            assert {c.name for c in ws.winners} == {"a"}


class TestEditArithmetic:
    """The edit oracle decides winners from tally arithmetic; these pin it to
    the election-building reference above and to ``condorcet_winner``."""

    def test_matches_election_building_reference(self):
        rng = random.Random(20261019)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(0, 4)
            e = random_election(rng, m, n)
            for additions in ("top", "all"):
                pool = 1 if additions == "top" else factorial(m)
                # keep each reference scan to a few hundred elections
                cap = max(
                    b for b in range(n + 2) if b == 0 or 2**n * comb(pool + b, b) <= 400
                )
                budget = rng.randint(0, cap)
                asked = None if budget == n + 1 else budget  # the default is n + 1
                for metric in EDIT_METRICS:
                    for c in range(m):
                        assert oracle_edit_score(
                            e, metric, c, asked, additions
                        ) == reference_edit_score(e, metric, c, budget, additions), (
                            e, metric, c, budget, additions,
                        )

    def test_single_candidate_wins_any_nonempty_election(self):
        for n in range(1, 4):
            e = Election.from_names(["a"], [["a"]] * n)
            for metric in EDIT_METRICS:
                for additions in ("top", "all"):
                    assert dr_score_oracle(e, metric, "a", additions=additions) == 0

    def test_empty_election_has_no_winner(self):
        # An election without voters has no Condorcet winner, even with one
        # candidate, whose win condition is vacuous.  So the profile metrics,
        # which keep the voter set, find no won election at all, and the
        # edit metrics must add a voter.
        expected = {
            ElectionMetric.HAMMING: INFINITY,
            ElectionMetric.SWAP: INFINITY,
            ElectionMetric.INSERTION: 1,
            ElectionMetric.INSERTION_QUASI: 1,
            ElectionMetric.DELETION: Fraction(5, 3),
            ElectionMetric.DELETION_QUASI: INFINITY,
        }
        for m in (1, 2, 3):
            e = Election.from_names(list("abc"[:m]), [])
            assert condorcet_winner(e) is None
            for c in range(m):
                for metric, value in expected.items():
                    assert dr_score_oracle(e, metric, c) == value, (m, metric, c)
                # the score functions agree wherever they are defined
                assert insertion_score(e, c) == 1
                assert deletion_score(e, c) == INFINITY
                assert replacement_score(e, c) == INFINITY
        e = Election.from_names(["a"], [])
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, ElectionMetric.INSERTION, "a", addition_budget=0)
        assert (
            dr_score_oracle(e, ElectionMetric.DELETION_QUASI, "a", addition_budget=0)
            == INFINITY
        )

    def test_zero_budget_without_winning_deletion(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])
        for metric in EDIT_METRICS[:3]:
            with pytest.raises(InconclusiveSearch):
                dr_score_oracle(e, metric, "a", addition_budget=0)
        assert (
            dr_score_oracle(e, ElectionMetric.DELETION_QUASI, "a", addition_budget=0)
            == INFINITY
        )

    def test_minimum_is_confirmed_by_condorcet_winner(self, monkeypatch):
        seen = []

        def spy(election):
            seen.append(election)
            return condorcet_winner(election)

        monkeypatch.setattr(oracle, "condorcet_winner", spy)
        e = Election.from_names(
            ["a", "b", "c"], [["b", "a", "c"], ["c", "b", "a"], ["b", "c", "a"]]
        )
        for metric in EDIT_METRICS:
            seen.clear()
            scores = [dr_score_oracle(e, metric, c) for c in range(e.m)]
            # one scan, one confirmation per candidate with a won election
            finite = [c for c in range(e.m) if scores[c] != INFINITY]
            assert [condorcet_winner(w).index for w in seen] == finite, metric
            for c, witness in zip(finite, seen):
                assert election_distance(metric, e, witness) == scores[c]
        assert finite == [1, 2]  # deletion-quasi: a never wins by deletions

    def test_each_call_gets_its_own_answer(self, monkeypatch):
        # The scan's answers are kept on the election per metric, budget,
        # addition mode and limit; no call may read another's answer.
        def fresh():
            return Election.from_names(["a", "b"], [["b", "a"], ["b", "a"]])

        metric = ElectionMetric.INSERTION
        value = dr_score_oracle(fresh(), metric, "a")
        e = fresh()
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", addition_budget=0)
        assert dr_score_oracle(e, metric, "a") == value
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", addition_budget=0)
        e = fresh()
        assert dr_score_oracle(e, metric, "a") == value
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", addition_budget=0)
        # 2**2 drop sets times comb(pool + 3, 3) multisets: 16 under "top",
        # 40 under "all" (pool 2! = 2)
        e = fresh()
        assert dr_score_oracle(e, metric, "a", limit=20) == value
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", additions="all", limit=20)
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", limit=0)
        e = fresh()
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", limit=0)
        with pytest.raises(InconclusiveSearch):
            dr_score_oracle(e, metric, "a", additions="all", limit=20)
        assert dr_score_oracle(e, metric, "a", limit=20) == value
        assert dr_score_oracle(e, metric, "a", additions="all") == value
        # A scan that raises leaves nothing behind: the same call scans again.
        scan = oracle._edit_minima
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 1:
                raise InconclusiveSearch("first scan refused")
            return scan(*args)

        monkeypatch.setattr(oracle, "_edit_minima", flaky)
        e = fresh()
        with pytest.raises(InconclusiveSearch, match="first scan refused"):
            dr_score_oracle(e, metric, "a")
        assert dr_score_oracle(e, metric, "a") == value
        assert dr_score_oracle(e, metric, "b") == 0
        assert len(calls) == 2

    def test_appended_voters_never_reuse_a_name(self, monkeypatch):
        # A voter named in both elections casts the same ballot in both: a
        # dropped voter's name never comes back with an appended ballot.
        evaluated = []

        def spy(metric, e1, e2):
            evaluated.append((e1, e2))
            return election_distance(metric, e1, e2)

        monkeypatch.setattr(oracle, "election_distance", spy)
        rng = random.Random(3)
        for _ in range(8):
            e = random_election(rng, 3, rng.randint(1, 4))
            for metric in (ElectionMetric.INSERTION, ElectionMetric.DELETION):
                dr_winners_oracle(e, metric)
        assert evaluated
        for e1, e2 in evaluated:
            shared = e1.ballot_of.keys() & e2.ballot_of.keys()
            assert all(e1.ballot_of[v] == e2.ballot_of[v] for v in shared)
            assert Election(e2.candidates, e2.voters, e2.profile) == e2

    def test_disagreeing_confirmation_is_an_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "condorcet_winner", lambda election: None)
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"]])
        with pytest.raises(AssertionError, match="condorcet_winner"):
            dr_score_oracle(e, ElectionMetric.INSERTION, "a")
