"""Tests for the text profile format."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_election
from votedist import (
    Election,
    ElectionMetric,
    ProfileParseError,
    election_distance,
    pairwise_tally,
    parse_profile,
    plurality_winners,
    serialize_profile,
    separating_example,
)


@st.composite
def profile_texts(draw):
    """Profile text whose lines draw from a small pool of rankings, so the
    same ranking often recurs on lines that are not next to each other."""
    m = draw(st.integers(1, 4))
    names = "abcd"[:m]
    pool = draw(st.lists(st.permutations(names), min_size=1, max_size=3))
    lines = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(pool)), max_size=8))
    rows = [f"{count}: {' > '.join(ranking)}" for count, ranking in lines]
    return "\n".join([str(m), " ".join(names), *rows]) + "\n"


class TestParseProfile:
    def test_basic(self):
        e = parse_profile("2\na b\n1: a > b\n2: b > a\n")
        assert e.candidate_names == ("a", "b")
        assert e.voters == ("v1", "v2", "v3")
        assert [b.top() for b in e.profile] == [0, 1, 1]

    def test_comments_blank_lines_whitespace(self):
        text = "# header\n\n  3  \n a b c \n\n # mid\n 2 :  c>b>a \n"
        e = parse_profile(text)
        assert e.n == 2
        assert e.profile[0].ranking == (2, 1, 0)

    def test_zero_voters(self):
        e = parse_profile("2\na b\n")
        assert e.n == 0

    def test_single_candidate(self):
        e = parse_profile("1\nonly\n3: only\n")
        assert e.m == 1
        assert e.n == 3

    def test_voters_of_one_line_share_one_ballot(self):
        text = "2\na b\n3: a > b\n2: b > a\n1: a > b\n"
        e = parse_profile(text)
        assert [b.ranking for b in e.profile] == [(0, 1)] * 3 + [(1, 0)] * 2 + [(0, 1)]
        assert len({id(b) for b in e.profile}) == 3
        assert parse_profile(serialize_profile(e)) == e

    @settings(max_examples=200, deadline=None)
    @given(profile_texts())
    def test_parsed_election_matches_public_constructor(self, text):
        e = parse_profile(text)
        public = Election(e.candidates, e.voters, e.profile)
        assert e == public
        assert hash(e) == hash(public)
        assert tuple(e.voters) == public.voters == tuple(f"v{k}" for k in range(1, e.n + 1))
        # public's profile is a plain tuple, so this tally takes one step per voter
        assert e.tally == pairwise_tally(public)
        assert e.ballot_types == tuple(sorted(Counter(b.ranking for b in e.profile).items()))
        assert e.profile == public.profile and hash(e.profile) == hash(tuple(e.profile))
        assert serialize_profile(e) == serialize_profile(public)
        assert plurality_winners(e) == plurality_winners(public)
        # A fresh parse serves every weighted reader from its counted runs.
        fresh = parse_profile(text)
        pairwise_tally(fresh)
        assert fresh.ballot_types == e.ballot_types
        assert plurality_winners(fresh) == plurality_winners(public)
        assert serialize_profile(fresh) == serialize_profile(public)
        assert fresh.profile._flat is None

    @settings(max_examples=100, deadline=None)
    @given(profile_texts())
    def test_parsed_election_derives_like_public_constructor(self, text):
        e = parse_profile(text)
        public = Election(e.candidates, e.voters, e.profile)
        drop = public.voters[::2]
        extra = [tuple(range(e.m))[::-1]] * 2
        assert parse_profile(text).ballot_of == public.ballot_of
        assert parse_profile(text).delete_voters(drop) == public.delete_voters(drop)
        assert parse_profile(text).add_voters(extra) == public.add_voters(extra)
        others = (public, public.delete_voters(drop), public.add_voters(extra))
        for metric in ElectionMetric:
            for other in others:
                assert election_distance(metric, parse_profile(text), other) == (
                    election_distance(metric, public, other)
                )
                assert election_distance(metric, other, parse_profile(text)) == (
                    election_distance(metric, other, public)
                )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n",
            "two\na b\n",
            "0\n\n",
            "2\na\n",
            "2\na a\n",
            "2\na b\n1 a > b\n",
            "2\na b\nx: a > b\n",
            "2\na b\n0: a > b\n",
            "2\na b\n1: a\n",
            "2\na b\n1: a > a\n",
            "2\na b\n1: a > c\n",
            "2\na #b\n1: a > #b\n",
            "1_0\na b c d e f g h i j\n",
            "2\na b\n1_0: a > b\n",
            "2\na b\n+3: a > b\n",
        ],
    )
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ProfileParseError):
            parse_profile(text)

    @pytest.mark.parametrize(
        "ballot", ["a", "a > b > a", "a > a", "a > c", "b > a > c"]
    )
    def test_ballot_error_names_its_line(self, ballot):
        # Short, long, duplicate and unknown entries share one message.
        with pytest.raises(
            ProfileParseError, match="line 3: ballot must rank every candidate exactly once"
        ):
            parse_profile(f"2\na b\n1: {ballot}\n")

    def test_million_voter_line_builds_no_per_voter_names(self):
        # The line is one counted run: a million name strings would take over
        # 55 MB, and a million pointers to the one shared ballot 8 MB.
        tracemalloc.start()
        try:
            e = parse_profile("2\na b\n1000000: a > b\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e.n == 1_000_000
        assert peak < 2**20

    def test_error_mentions_line_number(self):
        with pytest.raises(ProfileParseError, match="line 4"):
            parse_profile("# c\n2\na b\n1: b > b\n")


class TestSerializeProfile:
    def test_groups_consecutive_ballots(self):
        e = Election.from_names(
            ["a", "b"], [["a", "b"], ["a", "b"], ["b", "a"], ["a", "b"]]
        )
        assert serialize_profile(e) == "2\na b\n2: a > b\n1: b > a\n1: a > b\n"

    def test_parsed_profile_is_written_from_its_runs(self):
        rng = random.Random(14)
        rankings = list(itertools.permutations("abcd"))
        rows = [f"100: {' > '.join(rng.choice(rankings))}" for _ in range(10_000)]
        text = "4\na b c d\n" + "\n".join(rows) + "\n"
        e = parse_profile(text)
        # The per-voter grouping of the flat profile, as it was written before
        # profiles were stored as runs; adjacent lines with one ranking merge.
        flat = tuple(parse_profile(text).profile)
        expected = ["4", "a b c d"] + [
            f"{sum(1 for _ in group)}: {' > '.join('abcd'[i] for i in ranking)}"
            for ranking, group in itertools.groupby(ballot.ranking for ballot in flat)
        ]
        assert len(expected) - 2 < len(rows)
        assert serialize_profile(e) == "\n".join(expected) + "\n"
        assert e.profile._flat is None

    def test_comments_rendered(self):
        e = Election.from_names(["a"], [])
        assert serialize_profile(e, comments=("one", "two")) == (
            "# one\n# two\n1\na\n"
        )

    def test_round_trip_identity(self, rng):
        for _ in range(30):
            e = random_election(rng, rng.randint(1, 5), rng.randint(0, 12))
            again = parse_profile(serialize_profile(e))
            assert again == e

    def test_round_trip_fixed_point_text(self, rng):
        for _ in range(10):
            e = random_election(rng, 3, 8)
            text = serialize_profile(e)
            assert serialize_profile(parse_profile(text)) == text

    def test_example_round_trip(self, example_election):
        text = serialize_profile(example_election)
        assert parse_profile(text) == example_election
        assert text.endswith("\n")
