"""Tests for elections, ballots, and pairwise tallies."""

from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from conftest import all_elections, random_election, random_ranking
from votedist import (
    Candidate,
    Election,
    PairwiseTally,
    PreferenceOrder,
    build_election,
    condorcet_winner,
    is_consensus,
    pairwise_tally,
    parse_dimacs,
    parse_profile,
    restrict,
    serialize_profile,
)
from votedist.core import _CountedRuns, _PositionalNames


class TestCandidate:
    def test_fields(self):
        c = Candidate(0, "alice")
        assert (c.index, c.name) == (0, "alice")

    @pytest.mark.parametrize("bad", ["", "a b", "a>b", "#a", "a\tb", " a"])
    def test_rejects_unusable_names(self, bad):
        with pytest.raises(ValueError):
            Candidate(0, bad)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Candidate(-1, "a")


class TestPreferenceOrder:
    def test_positions_and_prefers(self):
        order = PreferenceOrder((2, 0, 1))
        assert order.top() == 2
        assert order.position(2) == 0
        assert order.position(1) == 2
        assert order.prefers(2, 0)
        assert order.prefers(0, 1)
        assert not order.prefers(1, 0)

    @pytest.mark.parametrize("bad", [(), (0, 0), (0, 2), (1, 2)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            PreferenceOrder(bad)


class TestElection:
    def test_from_names_round_trip(self):
        e = Election.from_names(["a", "b"], [["b", "a"], ["a", "b"]])
        assert e.m == 2
        assert e.n == 2
        assert e.candidate_names == ("a", "b")
        assert e.voters == ("v1", "v2")
        assert e.profile[0] == PreferenceOrder((1, 0))
        assert e.ballot_of["v1"].top() == 1

    def test_candidate_index_accepts_name_int_candidate(self):
        e = Election.from_names(["a", "b"], [["a", "b"]])
        assert e.candidate_index("b") == 1
        assert e.candidate_index(0) == 0
        assert e.candidate_index(e.candidates[1]) == 1
        with pytest.raises(KeyError):
            e.candidate_index("zz")
        with pytest.raises(KeyError):
            e.candidate_index(2)

    def test_rejects_duplicate_names_and_voters(self):
        with pytest.raises(ValueError):
            Election.from_names(["a", "a"], [])
        with pytest.raises(ValueError):
            Election.from_names(["a", "b"], [["a", "b"]] * 2, ["v", "v"])

    @pytest.mark.parametrize("bad", ["", 7, None, ["x"]])
    def test_rejects_unusable_voter_names(self, bad):
        e = Election.from_names(["a", "b"], [])
        with pytest.raises(ValueError, match="non-empty strings"):
            Election(e.candidates, ("v1", bad), (PreferenceOrder((0, 1)),) * 2)

    def test_rejects_misindexed_candidates(self):
        cands = (Candidate(1, "a"), Candidate(0, "b"))
        with pytest.raises(ValueError):
            Election(cands, (), ())

    def test_rejects_profile_roster_mismatch(self):
        e = Election.from_names(["a", "b", "c"], [])
        with pytest.raises(ValueError):
            Election(e.candidates, ("v1",), (PreferenceOrder((1, 0)),))
        with pytest.raises(ValueError):
            Election(e.candidates, ("v1", "v2"), (PreferenceOrder((0, 1, 2)),))
        voters = tuple(f"v{i + 1}" for i in range(1000))
        with pytest.raises(ValueError, match="ballot does not cover the candidate roster"):
            Election(e.candidates, voters, (PreferenceOrder((1, 0)),) * 1000)

    def test_shared_ballot_summarizes_like_distinct_ballots(self):
        rankings = [(2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 0, 1)]
        shared = PreferenceOrder((2, 0, 1))
        profile = tuple(shared if r == shared.ranking else PreferenceOrder(r) for r in rankings)
        assert len({id(b) for b in profile}) == 3
        distinct = Election.from_names(["a", "b", "c"], [["abc"[i] for i in r] for r in rankings])
        assert len({id(b) for b in distinct.profile}) == 5
        e = Election(distinct.candidates, distinct.voters, profile)
        assert e == distinct
        assert e.ballot_types == distinct.ballot_types == (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 3)
        )
        assert e.tally == distinct.tally == pairwise_tally(distinct)

    def test_delete_voters(self):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"]])
        smaller = e.delete_voters(["v1"])
        assert smaller.voters == ("v2",)
        assert smaller.profile[0].top() == 1
        assert e.delete_voters(["v1", "v1"]).voters == ("v2",)
        with pytest.raises(KeyError):
            e.delete_voters(["nope"])

    def test_add_voters_names_skip_taken(self):
        e = Election.from_names(["a", "b"], [["a", "b"]], ["v3"])
        grown = e.add_voters([PreferenceOrder((1, 0))] * 2)
        assert grown.voters == ("v3", "v2", "v4")
        assert grown.ballot_of["v4"].top() == 1

    def test_add_voters_explicit_names(self):
        e = Election.from_names(["a", "b"], [])
        grown = e.add_voters([PreferenceOrder((0, 1))], ["judge"])
        assert grown.voters == ("judge",)
        with pytest.raises(ValueError):
            grown.add_voters([PreferenceOrder((0, 1))], ["judge"])

    @pytest.mark.parametrize(
        "ballots, names, message",
        [
            ([PreferenceOrder((0, 1, 2))], None, "cover the candidate roster"),
            ([(1, 0), (0,)], None, "cover the candidate roster"),
            ([(0, 1)], ["v1"], "already taken"),
            ([(0, 1)] * 2, ["w", "w"], "unique"),
            ([(0, 1)], [""], "non-empty strings"),
            ([(0, 1)], [["x"]], "non-empty strings"),
            ([(0, 1)] * 2, ["w"], "one ballot per voter"),
        ],
    )
    def test_add_voters_checks_what_the_caller_supplies(self, ballots, names, message):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"]])
        with pytest.raises(ValueError, match=message):
            e.add_voters(ballots, names)

    def test_derived_elections_equal_publicly_built_ones(self, rng):
        for _ in range(30):
            e = random_election(rng, rng.randint(1, 4), rng.randint(0, 6))
            drop = rng.sample(e.voters, rng.randint(0, e.n))
            extra = [PreferenceOrder(random_ranking(rng, e.m)) for _ in range(rng.randint(0, 3))]
            named = [f"w{i}" for i in range(len(extra))]
            derived_elections = (
                e.delete_voters(drop), e.add_voters(extra), e.add_voters(extra, named)
            )
            for derived in derived_elections:
                assert derived == Election(derived.candidates, derived.voters, derived.profile)
                t = pairwise_tally(derived)
                assert t == PairwiseTally(t.counts, t.n)

    def test_add_and_delete_on_positional_voters(self):
        e = parse_profile("2\na b\n2: a > b\n1: b > a\n")
        grown = e.add_voters([(1, 0)] * 2)
        assert grown.voters == ("v1", "v2", "v3", "v4", "v5")
        assert grown == e.delete_voters([]).add_voters([(1, 0)] * 2)
        assert e.add_voters([(0, 1)], ["w"]).voters == ("v1", "v2", "v3", "w")
        assert e.delete_voters(["v2"]).voters == ("v1", "v3")
        with pytest.raises(KeyError, match=r"unknown voters \['v0', 'v4'\]"):
            e.delete_voters(["v1", "v4", "v0"])

    def test_positional_voters_match_str_subclass_names(self):
        class Name(str):
            pass

        e = parse_profile("2\na b\n2: a > b\n1: b > a\n")
        assert Name("v2") in e.voters
        assert e.delete_voters([Name("v2")]).voters == ("v1", "v3")
        with pytest.raises(ValueError, match="already taken"):
            e.add_voters([(0, 1)], [Name("v1")])


class TestPositionalNames:
    def test_equals_and_hashes_like_its_tuple(self):
        names = _PositionalNames(4)
        as_tuple = ("v1", "v2", "v3", "v4")
        assert names == as_tuple and as_tuple == names
        assert not (names != as_tuple or as_tuple != names)
        assert hash(names) == hash(as_tuple)
        assert names == _PositionalNames(4) != _PositionalNames(3)
        assert names != as_tuple[:3] and as_tuple[:3] != names
        assert names != ("v1", "v2", "v3", "w") and ("v1", "v2", "v3", "w") != names
        assert names != ["v1", "v2", "v3", "v4"]
        assert _PositionalNames(0) == () and hash(_PositionalNames(0)) == hash(())

    @pytest.mark.parametrize("name", ["v0", "v01", "v", "V1", "v١", "v4", 1, None])
    def test_membership_rejects_non_canonical_names(self, name):
        assert name not in _PositionalNames(3)

    def test_membership_accepts_every_canonical_name(self):
        names = _PositionalNames(120)
        assert all(f"v{k}" in names for k in range(1, 121))
        assert "v121" not in names and "v" + "1" * 5000 not in names

    def test_indexing_slices_and_iteration(self):
        names = _PositionalNames(5)
        as_tuple = tuple(f"v{k}" for k in range(1, 6))
        assert len(names) == 5 and tuple(names) == as_tuple
        assert names[0] == "v1" and names[-1] == "v5" and names[-5] == "v1"
        for i in (5, -6, 100):
            with pytest.raises(IndexError):
                names[i]
        for s in (slice(1, 3), slice(None, None, -2), slice(-2, None), slice(7, 9)):
            assert names[s] == as_tuple[s]
            assert isinstance(names[s], tuple)
        assert names + ("w",) == as_tuple + ("w",)

    def test_sample_and_pickle(self):
        names = _PositionalNames(50)
        drawn = random.Random(3).sample(names, 7)
        assert drawn == random.Random(3).sample(tuple(names), 7)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(names, protocol))
            assert isinstance(again, _PositionalNames) and again == names

    def test_parsed_election_equals_public_construction(self):
        e = parse_profile("3\na b c\n2: a > b > c\n1: c > b > a\n2: a > b > c\n")
        assert isinstance(e.voters, _PositionalNames)
        public = Election(e.candidates, e.voters, e.profile)
        assert isinstance(public.voters, tuple)
        assert e == public and public == e
        assert hash(e) == hash(public)
        assert {e: 1}[public] == 1


AB, BA = PreferenceOrder((0, 1)), PreferenceOrder((1, 0))


class TestCountedRuns:
    def test_equals_and_hashes_like_its_tuple(self):
        runs = _CountedRuns([(AB, 2), (BA, 1), (AB, 1)])
        as_tuple = (AB, AB, BA, AB)
        assert runs == as_tuple and as_tuple == runs
        assert not (runs != as_tuple or as_tuple != runs)
        assert hash(runs) == hash(as_tuple)
        assert runs != as_tuple[:3] and as_tuple[:3] != runs
        assert runs != (AB, AB, BA, BA) and (AB, AB, BA, BA) != runs
        assert runs != list(as_tuple)
        assert runs != _PositionalNames(4) and _PositionalNames(4) != runs
        assert _CountedRuns([]) == () and hash(_CountedRuns([])) == hash(())

    def test_split_runs_equal_merged_runs(self):
        merged = _CountedRuns([(AB, 3), (BA, 2)])
        split = _CountedRuns([(AB, 1), (PreferenceOrder((0, 1)), 2), (BA, 1), (BA, 1)])
        assert split == merged and merged == split
        assert hash(split) == hash(merged)
        assert len(split) == len(merged) == 5
        assert tuple(split) == tuple(merged) == (AB, AB, AB, BA, BA)
        assert merged != _CountedRuns([(AB, 2), (BA, 3)])
        assert merged != _CountedRuns([(BA, 2), (AB, 3)])

    def test_indexing_slices_and_iteration(self):
        runs = _CountedRuns([(AB, 2), (BA, 3), (AB, 1)])
        as_tuple = (AB, AB, BA, BA, BA, AB)
        assert len(runs) == 6 and tuple(runs) == as_tuple
        for i in range(-6, 6):
            assert runs[i] is as_tuple[i]
        for i in (6, -7, 100):
            with pytest.raises(IndexError):
                runs[i]
        for s in (slice(1, 4), slice(None, None, -2), slice(-2, None), slice(7, 9)):
            assert runs[s] == as_tuple[s]
            assert isinstance(runs[s], tuple)
        assert runs + (BA,) == as_tuple + (BA,)
        assert isinstance(runs + (BA,), tuple)
        assert BA in runs and PreferenceOrder((0, 1, 2)) not in runs
        with pytest.raises(IndexError):
            _CountedRuns([])[0]

    def test_pickle_keeps_runs(self):
        runs = _CountedRuns([(AB, 50), (BA, 7)])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(runs, protocol))
            assert isinstance(again, _CountedRuns)
            assert again._runs == ((AB, 50), (BA, 7)) and again._flat is None
            assert again == runs

    def test_len_builds_nothing(self):
        e = parse_profile("2\na b\n4: a > b\n3: b > a\n")
        assert len(e.profile) == len(e.voters) == e.n == 7
        assert e.profile._flat is None and e.voters._flat is None
        assert len(_CountedRuns([])) == len(_PositionalNames(0)) == 0

    def test_voters_of_one_line_share_one_ballot(self):
        e = parse_profile("2\na b\n4: a > b\n3: b > a\n")
        assert isinstance(e.profile, _CountedRuns)
        assert len({id(b) for b in e.profile[:4]}) == 1
        assert len({id(b) for b in e.profile}) == 2
        assert e.profile[0] is e.profile[3] is not e.profile[4]

    def test_parsed_election_equals_public_construction(self):
        e = parse_profile("3\na b c\n2: a > b > c\n1: c > b > a\n2: a > b > c\n")
        public = Election(e.candidates, e.voters, e.profile)
        assert isinstance(public.profile, tuple)
        assert e == public and public == e
        assert hash(e) == hash(public)
        assert e == parse_profile("3\na b c\n1: a > b > c\n1: a > b > c\n1: c > b > a\n2: a > b > c\n")
        assert pickle.loads(pickle.dumps(e)) == e


class TestPairwiseTally:
    def test_example_counts(self, example_election):
        t = pairwise_tally(example_election)
        expect = {
            ("a", "b"): 13, ("a", "c"): 13, ("a", "d"): 13,
            ("b", "a"): 16, ("b", "c"): 19, ("b", "d"): 11,
            ("c", "a"): 16, ("c", "b"): 10, ("c", "d"): 20,
            ("d", "a"): 16, ("d", "b"): 18, ("d", "c"): 9,
        }
        names = example_election.candidate_names
        for (x, y), count in expect.items():
            assert t.counts[names.index(x)][names.index(y)] == count

    @staticmethod
    def assert_counts_every_voter(e: Election) -> None:
        t = pairwise_tally(e)
        assert t.n == e.n
        for x, y in itertools.product(range(e.m), repeat=2):
            direct = sum(1 for ballot in e.profile if ballot.prefers(x, y))
            assert t.counts[x][y] == direct

    def test_matches_direct_recount(self, rng):
        shapes = [(1, 0), (1, 3), (4, 0)] + [
            (rng.randint(1, 5), rng.randint(0, 8)) for _ in range(50)
        ]
        for m, n in shapes:
            public = random_election(rng, m, n)
            parsed = parse_profile(serialize_profile(public))
            pairwise_tally(parsed)
            # The tally read the counted runs: it neither flattened the
            # profile nor built the ballot types.
            assert parsed.profile._flat is None and "ballot_types" not in vars(parsed)
            self.assert_counts_every_voter(public)  # one step per voter
            self.assert_counts_every_voter(parsed)  # one step per counted line

    def test_matches_direct_recount_on_a_reduction_election(self):
        c5 = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
        e = build_election(restrict(parse_dimacs(c5, 3))).election
        assert e.m >= 20
        self.assert_counts_every_voter(e)
        self.assert_counts_every_voter(parse_profile(serialize_profile(e)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PairwiseTally(((1,),), 1)
        with pytest.raises(ValueError):
            PairwiseTally(((0, 1),), 1)
        with pytest.raises(ValueError):
            PairwiseTally(((0, 1), (1, 0)), 3)


def winner_index(e: Election) -> int | None:
    winner = condorcet_winner(e)
    return None if winner is None else winner.index


class TestCondorcetWinner:
    def test_strict_majority_required(self):
        tied = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"]])
        assert condorcet_winner(tied) is None
        clear = Election.from_names(["a", "b"], [["a", "b"], ["a", "b"], ["b", "a"]])
        assert condorcet_winner(clear) == clear.candidates[0]

    def test_empty_election_has_no_winner(self):
        e = Election.from_names(["a", "b"], [])
        assert condorcet_winner(e) is None
        assert not is_consensus(e)

    def test_single_candidate(self):
        e = Election.from_names(["a"], [["a"]])
        assert winner_index(e) == 0
        assert is_consensus(e)

    def test_example_has_no_winner(self, example_election):
        assert condorcet_winner(example_election) is None

    def test_matches_naive_recount(self, rng):
        for _ in range(200):
            e = random_election(rng, rng.randint(1, 4), rng.randint(0, 7))
            assert winner_index(e) == brute.condorcet_naive(e)

    def test_exhaustive_small(self):
        for e in all_elections(3, 2):
            assert winner_index(e) == brute.condorcet_naive(e)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_winner_beats_everyone(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 6))
        perms = list(itertools.permutations(range(m)))
        ids = data.draw(st.lists(st.sampled_from(range(len(perms))), min_size=n, max_size=n))
        e = brute.election_from_ids(list("abcd"[:m]), tuple(ids))
        w = winner_index(e)
        t = pairwise_tally(e)
        if w is None:
            assert all(
                any(2 * t.counts[c][x] <= e.n for x in range(e.m) if x != c)
                for c in range(e.m)
            )
        else:
            assert all(2 * t.counts[w][x] > e.n for x in range(e.m) if x != w)
