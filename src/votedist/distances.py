"""Distances between ballots and between elections.

Two kinds of object get compared.  Ballot distances (``discrete_distance``,
``swap_distance``) compare two rankings over the same roster.  Election
distances compare whole elections and come in three families:

* votewise lifts, which sum a ballot distance over a shared voter set
  (``hamming_distance``, ``lifted_swap_distance``);
* voter-set edits, which count voters added or removed while every shared
  voter keeps an identical ballot (``insertion_distance`` and the one-sided
  ``insertion_quasidistance`` / ``deletion_quasidistance``);
* ``deletion_distance``, the shortest-path closure of a single-step cost
  (``deletion_step_cost``) that charges strictly more for steps that touch
  more voters, so that removing voters is always cheaper than adding them.

All finite values are exact: ints or Fractions, never floats.  ``math.inf``
marks incomparable pairs, e.g. different rosters.  Comparisons between
Fraction and ``math.inf`` are exact, so callers can mix them freely.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Union

from .core import Election, PreferenceOrder

INFINITY = math.inf

#: Extended distance value: exact when finite, ``math.inf`` otherwise.
Value = Union[int, Fraction, float]


def is_finite(value: Value) -> bool:
    return value != INFINITY


def discrete_distance(a: PreferenceOrder, b: PreferenceOrder) -> Value:
    """0 for identical ballots, 1 for different ones over the same roster."""
    if a.m != b.m:
        return INFINITY
    return 0 if a.ranking == b.ranking else 1

def swap_distance(a: PreferenceOrder, b: PreferenceOrder) -> Value:
    """Number of candidate pairs the two ballots order oppositely.

    Equals the minimum number of adjacent transpositions turning one ballot
    into the other.
    """
    if a.m != b.m:
        return INFINITY
    pa, pb = a.positions, b.positions
    m = a.m
    count = 0
    for x in range(m):
        for y in range(x + 1, m):
            if (pa[x] < pa[y]) != (pb[x] < pb[y]):
                count += 1
    return count


class VoterDistanceKind(Enum):
    """Ballot distance selector for votewise lifts."""

    DISCRETE = "discrete"
    SWAP = "swap"


_VOTER_DISTANCE: dict[VoterDistanceKind, Callable[[PreferenceOrder, PreferenceOrder], Value]] = {
    VoterDistanceKind.DISCRETE: discrete_distance,
    VoterDistanceKind.SWAP: swap_distance,
}


def _same_roster(e1: Election, e2: Election) -> bool:
    return e1.candidates == e2.candidates


def votewise_distance(kind: VoterDistanceKind, e1: Election, e2: Election) -> Value:
    """Sum a ballot distance over a common voter set.

    Infinite when the rosters differ or the voter sets differ: the lift
    compares how the same voters vote, not how many there are.
    """
    if not _same_roster(e1, e2) or set(e1.voters) != set(e2.voters):
        return INFINITY
    fn = _VOTER_DISTANCE[kind]
    b2 = e2.ballot_of
    return sum(fn(ballot, b2[voter]) for voter, ballot in e1.ballot_of.items())


def hamming_distance(e1: Election, e2: Election) -> Value:
    """Number of voters whose ballots differ between the two elections."""
    return votewise_distance(VoterDistanceKind.DISCRETE, e1, e2)


def lifted_swap_distance(e1: Election, e2: Election) -> Value:
    """Total swap distance between corresponding ballots."""
    return votewise_distance(VoterDistanceKind.SWAP, e1, e2)


def _shared_voters_agree(e1: Election, e2: Election) -> bool:
    b1, b2 = e1.ballot_of, e2.ballot_of
    return all(b1[v] == b2[v] for v in b1.keys() & b2.keys())


def insertion_distance(e1: Election, e2: Election) -> Value:
    """Voters present in exactly one election, when shared voters agree.

    The two elections must be over the same roster and every voter appearing
    in both must cast the same ballot in both; otherwise the distance is
    infinite.  On a universe where each voter identity is bound to one fixed
    ballot this is the symmetric-difference metric on voter sets.
    """
    if not _same_roster(e1, e2) or not _shared_voters_agree(e1, e2):
        return INFINITY
    v1, v2 = set(e1.voters), set(e2.voters)
    return len(v1 - v2) + len(v2 - v1)


def insertion_quasidistance(e1: Election, e2: Election) -> Value:
    """Voters added going from ``e1`` to a superset election ``e2``."""
    if not _same_roster(e1, e2):
        return INFINITY
    v1, v2 = set(e1.voters), set(e2.voters)
    if not v1 <= v2 or not _shared_voters_agree(e1, e2):
        return INFINITY
    return len(v2) - len(v1)


def deletion_quasidistance(e1: Election, e2: Election) -> Value:
    """Voters removed going from ``e1`` to a subset election ``e2``."""
    return insertion_quasidistance(e2, e1)


def _step_cost(touched: int, larger: int) -> Fraction:
    """``2 - 1/(touched + larger**2 + 1)``: one edit touching ``touched``
    voters, where the larger of its two elections has ``larger`` voters."""
    return 2 - Fraction(1, touched + larger * larger + 1)


def deletion_step_cost(e1: Election, e2: Election) -> Value:
    """Cost of one voter-set edit, tuned to favour small deletions.

    Identical elections cost 0.  If one voter set strictly contains the other
    and shared voters agree, the step costs ``2 - 1/(k + M**2 + 1)`` where
    ``k`` is the number of voters touched and ``M`` the larger voter count.
    Everything else, including a shared voter changing ballots, is infinite.

    The cost grows with both ``k`` and ``M``, so a step is cheaper when it
    touches fewer voters and when the elections involved are smaller.  Every
    non-trivial step still costs at least 5/3 and less than 2, which pins
    down the shape of optimal multi-step paths (see ``deletion_distance``).
    """
    if not _same_roster(e1, e2):
        return INFINITY
    b1, b2 = e1.ballot_of, e2.ballot_of
    if b1 == b2:
        return Fraction(0)
    if not (b1.keys() < b2.keys() or b2.keys() < b1.keys()):
        return INFINITY
    if not _shared_voters_agree(e1, e2):
        return INFINITY
    return _step_cost(abs(len(b1) - len(b2)), max(len(b1), len(b2)))


def deletion_distance(e1: Election, e2: Election) -> Value:
    """Shortest-path distance under ``deletion_step_cost``, in closed form.

    Optimal paths need at most two steps: one edit costs less than 2, two
    cost less than 4, and since every non-trivial step costs at least 5/3,
    three or more cost at least 5.  When the voter sets are comparable and
    shared voters agree, the single direct step is optimal (any two-step
    detour costs more than 10/3 > 2).  Otherwise the only finite two-step
    routes go through a common sub-election or a common extension, and the
    sub-election route is strictly cheaper: both of its steps involve
    elections no larger than the endpoints, while an extension inflates the
    ``M**2`` penalty of both steps.  The best intermediate is the largest
    common agreeing sub-election, the shared voters casting the same ballot
    in both elections, because both step costs shrink as it grows.
    """
    if not _same_roster(e1, e2):
        return INFINITY
    b1, b2 = e1.ballot_of, e2.ballot_of
    if b1 == b2:
        return Fraction(0)
    n1, n2 = len(b1), len(b2)
    if (b1.keys() < b2.keys() or b2.keys() < b1.keys()) and _shared_voters_agree(e1, e2):
        return _step_cost(abs(n1 - n2), max(n1, n2))
    agreeing = sum(1 for v in b1.keys() & b2.keys() if b1[v] == b2[v])
    return _step_cost(n1 - agreeing, n1) + _step_cost(n2 - agreeing, n2)


class ElectionMetric(Enum):
    """Election distance selector, keyed by the CLI token."""

    HAMMING = "hamming"
    SWAP = "swap"
    INSERTION = "insertion"
    DELETION = "deletion"
    INSERTION_QUASI = "insertion-quasi"
    DELETION_QUASI = "deletion-quasi"

    @property
    def is_symmetric(self) -> bool:
        return self not in (ElectionMetric.INSERTION_QUASI, ElectionMetric.DELETION_QUASI)


_ELECTION_DISTANCE: dict[ElectionMetric, Callable[[Election, Election], Value]] = {
    ElectionMetric.HAMMING: hamming_distance,
    ElectionMetric.SWAP: lifted_swap_distance,
    ElectionMetric.INSERTION: insertion_distance,
    ElectionMetric.DELETION: deletion_distance,
    ElectionMetric.INSERTION_QUASI: insertion_quasidistance,
    ElectionMetric.DELETION_QUASI: deletion_quasidistance,
}


def election_distance(metric: ElectionMetric, e1: Election, e2: Election) -> Value:
    """Evaluate one of the election distances by name."""
    return _ELECTION_DISTANCE[metric](e1, e2)
