"""Brute-force closest-consensus search.

``dr_score_oracle`` computes, for one candidate, the least distance from the
given election to any election that candidate wins outright, by enumerating
candidate elections and evaluating the distance functions directly.  It
never touches the solvers in ``scores``, so the two sides can check each
other: each score function is supposed to agree with the oracle under the
matching distance (replacement with hamming, dodgson with swap, maximin
with insertion, young with deletion, and the two one-sided variants with
insertion and deletion scores respectively).  ``dr_winners_oracle`` returns
the candidates whose least distance is smallest: under hamming and swap from
one profile scan, which yields every candidate's minimum at once, and under
the voter-set metrics from ``dr_score_oracle`` for each candidate in turn.
Both entry points check ``additions`` and ``addition_budget`` through one
helper, before any enumeration.

Enumeration spaces, with the pruning that keeps each one exact:

* hamming / swap keep the voter set fixed, so all rankings-to-the-power-n
  profiles are scanned outright.
* the voter-set metrics enumerate every deletion subset combined with up to
  ``addition_budget`` appended voters.  Appended voters always rank the
  target candidate first with the rest in roster order: if any addition
  producing a win exists, the same addition with those ballots also wins,
  and the distances charge additions by count only.  Pass
  ``additions="all"`` to forgo that pruning and enumerate every added
  ballot multiset (feasible only for tiny elections).

  Whether the target wins a candidate election is decided by arithmetic:
  each deletion subset's election is tallied once, and the target wins
  with appended ballots when, against every rival, twice its tally support
  plus the appended ballots ranking it above that rival exceeds the voter
  count.  Only winning elections are built; their distances are evaluated
  by definition, and the election at the minimum is confirmed by
  ``condorcet_winner``.

An election with no voters has no winner, as ``condorcet_winner`` says, so
no scan counts it as won.

When the budget cannot certify that the found minimum is global, the oracle
raises ``InconclusiveSearch`` rather than guessing.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .core import Candidate, Election, PreferenceOrder, condorcet_winner, pairwise_tally
from .distances import (
    INFINITY,
    ElectionMetric,
    Value,
    _step_cost,
    discrete_distance,
    election_distance,
    swap_distance,
)
from .rules import WinnerSet

_PROFILE_METRICS = (ElectionMetric.HAMMING, ElectionMetric.SWAP)


class InconclusiveSearch(Exception):
    """The enumeration budget ran out before the minimum was certified."""


@lru_cache(maxsize=None)
def _rankings(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def _ballot_table(m: int, metric: ElectionMetric) -> tuple[tuple[Value, ...], ...]:
    """Ballot distances between rankings, by index into ``_rankings(m)``."""
    dist = swap_distance if metric is ElectionMetric.SWAP else discrete_distance
    orders = [PreferenceOrder(r) for r in _rankings(m)]
    return tuple(tuple(dist(a, b) for b in orders) for a in orders)


@lru_cache(maxsize=None)
def _profile_winner(m: int, ids: tuple[int, ...]) -> int | None:
    """Condorcet winner of the profile given by ranking indices, if any."""
    rankings = _rankings(m)
    beats = [[0] * m for _ in range(m)]
    for i in ids:
        ranking = rankings[i]
        for a in range(m):
            for b in range(a + 1, m):
                beats[ranking[a]][ranking[b]] += 1
    n = len(ids)
    for c in range(m):
        # With no voter there is no strict majority, even for a lone candidate.
        if n and all(2 * beats[c][b] > n for b in range(m) if b != c):
            return c
    return None


def _profile_minima(e: Election, metric: ElectionMetric, limit: int) -> list[Value]:
    """Least distance to a profile won by each candidate, voter set fixed."""
    m, n = e.m, e.n
    rankings = _rankings(m)
    if len(rankings) ** n > limit:
        raise InconclusiveSearch(
            f"profile space {len(rankings)}**{n} exceeds the enumeration limit"
        )
    index = {r: i for i, r in enumerate(rankings)}
    original = [index[ballot.ranking] for ballot in e.profile]
    table = _ballot_table(m, metric)
    minima: list[Value] = [INFINITY] * m
    for ids in itertools.product(range(len(rankings)), repeat=n):
        winner = _profile_winner(m, ids)
        if winner is None:
            continue
        dist = 0
        for orig, new in zip(original, ids):
            dist += table[orig][new]
        if dist < minima[winner]:
            minima[winner] = dist
    assert n == 0 or INFINITY not in minima, "a unanimous profile wins for anyone"
    return minima


def _edit_minimum(
    e: Election,
    metric: ElectionMetric,
    cand: int,
    budget: int,
    additions: str,
    limit: int,
) -> Value:
    n, m = e.n, e.m
    # Appended ballots are multisets of up to ``budget`` entries of ``pool``:
    # the canonical cand-first ballot, or every ranking.
    if additions == "top":
        pool = [PreferenceOrder((cand,) + tuple(x for x in range(m) if x != cand))]
    else:
        pool = [PreferenceOrder(r) for r in _rankings(m)]
    # sum over k = 0..budget of comb(len(pool) + k - 1, k) multisets per drop set
    if 2**n * comb(len(pool) + budget, budget) > limit:
        raise InconclusiveSearch("edit space exceeds the enumeration limit")
    rivals = [x for x in range(m) if x != cand]
    beaten = [[x for x in rivals if b.prefers(cand, x)] for b in pool]
    slots = range(len(pool))
    # Appended voters take names no voter of ``e`` has, so a dropped voter's
    # name never comes back with another ballot.
    taken = set(e.voters)
    fresh = tuple(v for v in (f"v{k}" for k in range(1, n + budget + 1)) if v not in taken)[:budget]
    best: Value = INFINITY
    witness: Election | None = None
    for r in range(n + 1):
        for drop in itertools.combinations(e.voters, r):
            trimmed = e.delete_voters(drop)
            support = pairwise_tally(trimmed).counts[cand]
            for extra in range(budget + 1):
                size = trimmed.n + extra
                if size < 1:
                    continue  # no voter, no strict majority
                for chosen in itertools.combinations_with_replacement(slots, extra):
                    # gain[x]: appended ballots ranking cand above x
                    gain = [0] * m
                    for i in chosen:
                        for x in beaten[i]:
                            gain[x] += 1
                    if not all(2 * (support[x] + gain[x]) > size for x in rivals):
                        continue
                    # The names are fresh and the pool ballots whole
                    # rankings, so the public constructor's checks would pass.
                    modified = Election._trusted(
                        e.candidates,
                        trimmed.voters + fresh[:extra],
                        trimmed.profile + tuple(pool[i] for i in chosen),
                    )
                    dist = election_distance(metric, e, modified)
                    if dist < best:
                        best, witness = dist, modified
    if witness is not None:
        winner = condorcet_winner(witness)
        if winner is None or winner.index != cand:
            raise AssertionError(
                f"tally arithmetic says {e.candidates[cand].name} wins an election "
                "that condorcet_winner rejects"
            )
    return best


def _certified_floor(metric: ElectionMetric, n: int, budget: int) -> Value:
    """Largest found value the enumeration can still certify as minimal.

    Anything the edit enumeration skipped involves more than ``budget``
    additions.  Under the counting metrics such an election is farther than
    ``budget``; under the deletion metric its distance exceeds the cost of a
    budget+1 pure addition, which the bound below undercuts.  The one-sided
    deletion distance needs no additions at all, so its scan is always
    complete.
    """
    if metric is ElectionMetric.DELETION_QUASI:
        return INFINITY
    if metric is ElectionMetric.DELETION:
        return _step_cost(budget + 1, n + budget + 1)
    return budget


def _check_options(addition_budget: int | None, additions: str) -> None:
    if additions not in ("top", "all"):
        raise ValueError("additions must be 'top' or 'all'")
    # A negative budget would turn the enumeration guard's size estimate
    # negative and let any search through.
    if addition_budget is not None and addition_budget < 0:
        raise ValueError(f"addition budget must be non-negative, got {addition_budget}")


def dr_score_oracle(
    e: Election,
    metric: ElectionMetric,
    cand: Candidate | int | str,
    *,
    addition_budget: int | None = None,
    additions: str = "top",
    limit: int = 5_000_000,
) -> Value:
    """Least distance from ``e`` to an election that ``cand`` wins outright.

    ``addition_budget`` caps how many voters the edit enumeration may append
    (default n + 1, which always certifies).  ``additions`` selects the
    appended ballots: "top" for the canonical cand-first ballot, "all" for
    every multiset.  Raises InconclusiveSearch when the scan cannot certify
    its minimum within the limits.
    """
    _check_options(addition_budget, additions)
    idx = e.candidate_index(cand)
    if metric in _PROFILE_METRICS:
        return _profile_minima(e, metric, limit)[idx]
    budget = e.n + 1 if addition_budget is None else addition_budget
    best = _edit_minimum(e, metric, idx, budget, additions, limit)
    if not best <= _certified_floor(metric, e.n, budget):
        raise InconclusiveSearch(
            f"found {best} for {metric.value}, but elections beyond "
            f"{budget} additions could do better"
        )
    return best


def dr_winners_oracle(
    e: Election,
    metric: ElectionMetric,
    *,
    addition_budget: int | None = None,
    additions: str = "top",
    limit: int = 5_000_000,
) -> WinnerSet:
    """Candidates whose closest won election is nearest, by brute force."""
    if e.n == 0:
        raise ValueError("closest-consensus winners need at least one voter")
    _check_options(addition_budget, additions)
    if metric in _PROFILE_METRICS:
        scores = _profile_minima(e, metric, limit)
    else:
        # One scan could serve every candidate, but the benchmark's traced
        # `oracle` run requires this path to reach dr_score_oracle
        # (perfbench/run.py, REQUIRED_LAYERS); see ROADMAP item 3.
        scores = [
            dr_score_oracle(
                e,
                metric,
                c,
                addition_budget=addition_budget,
                additions=additions,
                limit=limit,
            )
            for c in range(e.m)
        ]
    low = min(scores)
    assert low != INFINITY
    winners = tuple(e.candidates[i] for i in range(e.m) if scores[i] == low)
    return WinnerSet(f"closest-{metric.value}", winners)
