"""Winner functions: plurality, Condorcet, and the four score minimizers.

``RULES`` maps each rule name to its winner function; the CLI's ``winners``
command offers exactly its keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Candidate, Election, _weighted, condorcet_winner
from .distances import is_finite
from .scores import ScoreKind, ScoreTable, score_table


@dataclass(frozen=True)
class WinnerSet:
    """Outcome of one rule: the tied winners plus the table that chose them.

    ``winners`` is in roster order.  ``table`` is None for rules that do not
    rank candidates by a score (plurality, Condorcet).
    """

    rule: str
    winners: tuple[Candidate, ...]
    table: ScoreTable | None = None


def _require_voters(e: Election, rule: str) -> None:
    if e.n == 0:
        raise ValueError(f"{rule} needs at least one voter")


def plurality_winners(e: Election) -> WinnerSet:
    """Candidates with the most first places.

    Without voters every count is zero and all candidates tie; that case is
    an extension of convenience, not part of the classical rule.
    """
    counts = [0] * e.m
    for ballot, weight in _weighted(e.profile):
        counts[ballot.ranking[0]] += weight
    high = max(counts)
    winners = tuple(e.candidates[i] for i in range(e.m) if counts[i] == high)
    return WinnerSet("plurality", winners)


def condorcet_rule(e: Election) -> WinnerSet:
    """The Condorcet winner alone, or nobody when none exists."""
    _require_voters(e, "condorcet")
    winner = condorcet_winner(e)
    return WinnerSet("condorcet", () if winner is None else (winner,))


def _score_rule(e: Election, rule: str, kind: ScoreKind, best=ScoreTable.argmin) -> WinnerSet:
    _require_voters(e, rule)
    table = score_table(e, kind)
    winners = tuple(e.candidates[i] for i in best(table))
    assert winners, "a non-empty election always has a best candidate"
    return WinnerSet(rule, winners, table)


def maximin_winners(e: Election) -> WinnerSet:
    """Candidates whose weakest pairwise support is largest."""
    return _score_rule(e, "maximin", ScoreKind.MAXIMIN, ScoreTable.argmax)


def young_winners(e: Election) -> WinnerSet:
    """Candidates needing the fewest voter removals to win outright.

    Candidates with infinite deletion score never tie for the win: deleting
    all voters but one always leaves that voter's favourite a Condorcet
    winner, so some candidate has a finite score.
    """
    result = _score_rule(e, "young", ScoreKind.DELETION)
    assert is_finite(min(result.table.values))
    return result


def replacement_winners(e: Election) -> WinnerSet:
    """Candidates needing the fewest ballot rewrites to win outright."""
    return _score_rule(e, "replacement", ScoreKind.REPLACEMENT)


def dodgson_winners(e: Election) -> WinnerSet:
    """Candidates needing the fewest adjacent swaps to win outright."""
    return _score_rule(e, "dodgson", ScoreKind.DODGSON)


RULES: dict[str, Callable[[Election], WinnerSet]] = {
    "plurality": plurality_winners,
    "condorcet": condorcet_rule,
    "dodgson": dodgson_winners,
    "young": young_winners,
    "maximin": maximin_winners,
    "replacement": replacement_winners,
}
