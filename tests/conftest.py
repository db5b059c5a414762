"""Shared fixtures and election generators."""

from __future__ import annotations

import itertools
import random
import string

import pytest

from votedist import Election, PreferenceOrder, core, separating_example

NAME_POOL = list(string.ascii_lowercase)


def random_ranking(rng: random.Random, m: int) -> tuple[int, ...]:
    ranking = list(range(m))
    rng.shuffle(ranking)
    return tuple(ranking)


def random_election(rng: random.Random, m: int, n: int, prefix: str = "v") -> Election:
    names = NAME_POOL[:m]
    ballots = [[names[i] for i in random_ranking(rng, m)] for _ in range(n)]
    voters = [f"{prefix}{k + 1}" for k in range(n)]
    return Election.from_names(names, ballots, voters)


def all_elections(m: int, n: int):
    """Every election on m candidates and voters v1..vn, in a fixed order."""
    names = NAME_POOL[:m]
    rankings = list(itertools.permutations(range(m)))
    base = Election.from_names(names, [])
    voters = tuple(f"v{k + 1}" for k in range(n))
    for ids in itertools.product(range(len(rankings)), repeat=n):
        profile = tuple(PreferenceOrder(rankings[x]) for x in ids)
        yield Election(base.candidates, voters, profile)


@pytest.fixture(scope="session")
def example_election() -> Election:
    return separating_example()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260815)


@pytest.fixture
def tally_calls(monkeypatch) -> list[Election]:
    """The elections passed to ``core.pairwise_tally`` during the test."""
    calls = []
    tally = core.pairwise_tally

    def counting(e: Election):
        calls.append(e)
        return tally(e)

    monkeypatch.setattr(core, "pairwise_tally", counting)
    return calls
