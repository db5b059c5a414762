"""Core election model: candidates, strict rankings, elections, pairwise tallies.

An election couples three things that most voting libraries conflate: a fixed
candidate roster, a set of voter identities, and one strict total order per
voter.  Voter identities matter here because several distances treat "the same
voter with the same ballot" differently from "a fresh voter who happens to
vote identically", so profiles are never reduced to anonymous multisets.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

CandidateRef = Union["Candidate", int, str]


def _check_candidate_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError("candidate name must be a non-empty string")
    if any(ch.isspace() for ch in name) or ">" in name or name.startswith("#"):
        raise ValueError(f"candidate name {name!r} clashes with the profile syntax")


def _check_voter_names(voters: tuple[str, ...]) -> None:
    # Types first: the uniqueness test hashes every name.
    for voter in voters:
        if not isinstance(voter, str) or not voter:
            raise ValueError("voter names must be non-empty strings")
    if len(set(voters)) != len(voters):
        raise ValueError("voter names must be unique")


@dataclass(frozen=True, order=True)
class Candidate:
    """A candidate: a stable index into the roster plus a display name."""

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("candidate index must be non-negative")
        _check_candidate_name(self.name)


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict total order over the roster, most preferred first.

    ``ranking`` holds candidate indices, so the order is roster-relative and
    only meaningful next to the election it belongs to.
    """

    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        ranking = tuple(self.ranking)
        object.__setattr__(self, "ranking", ranking)
        if not ranking:
            raise ValueError("a ballot must rank at least one candidate")
        if sorted(ranking) != list(range(len(ranking))):
            raise ValueError(f"ranking {ranking!r} is not a permutation of 0..m-1")

    @property
    def m(self) -> int:
        return len(self.ranking)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """positions[c] is the rank of candidate c, 0 for the top choice."""
        pos = [0] * len(self.ranking)
        for place, cand in enumerate(self.ranking):
            pos[cand] = place
        return tuple(pos)

    def position(self, cand: int) -> int:
        return self.positions[cand]

    def prefers(self, a: int, b: int) -> bool:
        return self.positions[a] < self.positions[b]

    def top(self) -> int:
        return self.ranking[0]


class _LazyTuple(Sequence):
    """A read-only sequence that stands for a tuple it builds on first read.

    A subclass stores something smaller than the tuple, sets ``_n`` to its
    length and ``_flat`` to None, and supplies ``_build()`` for the whole
    tuple and ``__reduce__``.  ``len`` reads ``_n``; every other read
    (iteration, indexing and slicing, membership, equality, hash, ``+``)
    builds the tuple once, keeps it, and is served from it.  A parsed
    profile that is only tallied is therefore never flattened, while the
    oracle, which iterates the voters and ballots of one small parsed
    election hundreds of thousands of times, pays for the tuple once: set()
    over five names formatted anew takes 2.1 us against 0.3 us over a tuple
    (Python 3.11).
    """

    __slots__ = ("_flat", "_n")

    def __len__(self) -> int:
        return self._n

    def _tuple(self) -> tuple:
        if self._flat is None:
            self._flat = self._build()
        return self._flat

    def __getitem__(self, i):
        return self._tuple()[i]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyTuple):
            other = other._tuple()
        return self._tuple() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __add__(self, other):
        if isinstance(other, tuple):
            return self._tuple() + other
        return NotImplemented


class _PositionalNames(_LazyTuple):
    """The voter names ``v1..vn``, formatted on first read.

    Stores only ``n`` until then, so a parsed million-voter profile that is
    only tallied holds no million name strings.
    """

    __slots__ = ()

    def __init__(self, n: int) -> None:
        self._n = n
        self._flat = None

    def _build(self) -> tuple[str, ...]:
        return tuple([f"v{k}" for k in range(1, self._n + 1)])

    def __reduce__(self):
        return (_PositionalNames, (self._n,))

    def __repr__(self) -> str:
        return f"_PositionalNames({self._n})"


class _CountedRuns(_LazyTuple):
    """A profile stored as ``(ballot, count)`` runs, one per counted line.

    Stands for the tuple in which each run's ballot object appears ``count``
    times in a row, while storing only the runs and their total, so a
    parsed million-voter profile costs O(lines) until it is read as a
    sequence.  Runs may split or repeat a ranking; only the flat sequence
    counts, so split runs equal merged ones.
    """

    __slots__ = ("_runs",)

    def __init__(self, runs: Iterable[tuple[PreferenceOrder, int]]) -> None:
        self._runs = tuple(runs)
        self._n = sum(map(operator.itemgetter(1), self._runs))
        self._flat = None

    def _build(self) -> tuple[PreferenceOrder, ...]:
        copies = itertools.starmap(itertools.repeat, self._runs)
        return tuple(itertools.chain.from_iterable(copies))

    def __reduce__(self):
        return (_CountedRuns, (self._runs,))

    def __repr__(self) -> str:
        return f"_CountedRuns({self._runs!r})"


def _weighted(profile: Sequence[PreferenceOrder]) -> Iterable[tuple[PreferenceOrder, int]]:
    """The profile as ``(ballot, count)`` pairs in voter order.

    A parsed profile gives its counted runs, one pair per line; any other
    sequence gives ``(ballot, 1)`` per voter.  Every reader that may treat
    equal ballots alike (the tally, the ballot types, plurality,
    serialization) goes through here instead of iterating the voters.
    """
    if isinstance(profile, _CountedRuns):
        return profile._runs
    return zip(profile, itertools.repeat(1))


@dataclass(frozen=True)
class Election:
    """A roster, a sequence of distinct voter names, and one ballot per voter.

    Validation happens where data enters.  The public constructor checks
    everything it is given: roster order, unique candidate names, one ballot
    per voter, unique non-empty voter names, and ballots that cover the
    roster.  Elections the library builds itself (``parse_profile``,
    ``delete_voters``, ``add_voters``) go through ``_trusted`` instead, after
    checking only what their own caller supplied; the per-voter passes would
    re-prove facts that hold by construction.

    The public constructor turns ``voters`` and ``profile`` into tuples.  A
    parsed profile keeps both smaller: its voters are the positional names
    ``v1..vn``, formatted when read, and its ballots are stored as counted
    runs, one ``(ballot, count)`` per profile line.  Each is a read-only
    sequence that otherwise behaves like its tuple: it compares and hashes
    equal to it, so elections built either way are equal and hash alike.
    """

    candidates: tuple[Candidate, ...]
    voters: Sequence[str]
    profile: Sequence[PreferenceOrder]

    def __post_init__(self) -> None:
        if vars(self).pop("_derived", False):  # set by _trusted
            return
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "voters", tuple(self.voters))
        object.__setattr__(self, "profile", tuple(self.profile))
        for i, cand in enumerate(self.candidates):
            if cand.index != i:
                raise ValueError("candidates must be listed in index order 0..m-1")
        names = [c.name for c in self.candidates]
        if len(set(names)) != len(names):
            raise ValueError("candidate names must be unique")
        if len(self.voters) != len(self.profile):
            raise ValueError("need exactly one ballot per voter")
        _check_voter_names(self.voters)
        m = len(self.candidates)
        for ballot in self.profile:
            if len(ballot.ranking) != m:
                raise ValueError("ballot does not cover the candidate roster")

    @classmethod
    def from_names(
        cls,
        candidate_names: Sequence[str],
        ballots: Iterable[Sequence[str]],
        voters: Sequence[str] | None = None,
    ) -> "Election":
        """Build an election from candidate names and name-based ballots.

        Voters default to ``v1..vn`` in ballot order.
        """
        candidates = tuple(Candidate(i, name) for i, name in enumerate(candidate_names))
        index = {name: i for i, name in enumerate(candidate_names)}
        profile = tuple(
            PreferenceOrder(tuple(index[name] for name in ballot)) for ballot in ballots
        )
        if voters is None:
            voters = [f"v{i}" for i in range(1, len(profile) + 1)]
        return cls(candidates, tuple(voters), profile)

    @classmethod
    def _trusted(
        cls,
        candidates: tuple[Candidate, ...],
        voters: tuple[str, ...] | _PositionalNames,
        profile: tuple[PreferenceOrder, ...] | _CountedRuns,
    ) -> "Election":
        """Build an election whose invariants the caller has established.

        The arguments must be tuples that the public constructor would
        accept (``voters`` may also be positional names and ``profile``
        counted runs); none of its checks run.  The object still goes
        through ``__init__``, so anything wrapping it sees every election
        built.
        """
        e = cls.__new__(cls)
        vars(e)["_derived"] = True
        e.__init__(candidates, voters, profile)
        return e

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.voters)

    @cached_property
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates)

    @cached_property
    def ballot_of(self) -> dict[str, PreferenceOrder]:
        return dict(zip(self.voters, self.profile))

    @cached_property
    def ballot_types(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Distinct rankings with multiplicities, in sorted order.

        Counted once, on first read, from the profile's weighted ballots, so
        a parsed profile costs one step per line however large its counts.
        """
        counts: dict[tuple[int, ...], int] = {}
        for ballot, w in _weighted(self.profile):
            counts[ballot.ranking] = counts.get(ballot.ranking, 0) + w
        return tuple(sorted(counts.items()))

    @cached_property
    def tally(self) -> "PairwiseTally":
        """The pairwise tally, computed on first read and shared by every score.

        One-shot callers use ``pairwise_tally`` instead: a cached property's
        first read takes a lock (about 2 µs on CPython 3.11), a large share
        of tallying the tiny throwaway elections the oracle builds by the
        tens of thousands.
        """
        return pairwise_tally(self)

    def candidate_index(self, ref: CandidateRef) -> int:
        """Resolve a Candidate, index, or name to a roster index."""
        if isinstance(ref, Candidate):
            if ref.index >= self.m or self.candidates[ref.index] != ref:
                raise KeyError(f"{ref} is not on this roster")
            return ref.index
        if isinstance(ref, int):
            if not 0 <= ref < self.m:
                raise KeyError(f"candidate index {ref} out of range")
            return ref
        try:
            return self.candidate_names.index(ref)
        except ValueError:
            raise KeyError(f"no candidate named {ref!r}") from None

    def delete_voters(self, names: Iterable[str]) -> "Election":
        """Return the election restricted to voters outside ``names``."""
        drop = set(names)
        # The oracle deletes from one small election once per voter subset;
        # its cached ballot_of spares rebuilding a voter set and zipping two
        # lazy sequences on every call.
        ballots = self.ballot_of
        unknown = drop - ballots.keys()
        if unknown:
            raise KeyError(f"cannot delete unknown voters {sorted(unknown)}")
        kept = [(v, b) for v, b in ballots.items() if v not in drop]
        return Election._trusted(
            self.candidates,
            tuple(v for v, _ in kept),
            tuple(b for _, b in kept),
        )

    def add_voters(
        self,
        ballots: Iterable[PreferenceOrder | Sequence[int]],
        names: Sequence[str] | None = None,
    ) -> "Election":
        """Return the election extended by fresh voters casting ``ballots``."""
        new_ballots = [
            b if isinstance(b, PreferenceOrder) else PreferenceOrder(tuple(b))
            for b in ballots
        ]
        for ballot in new_ballots:
            if len(ballot.ranking) != self.m:
                raise ValueError("ballot does not cover the candidate roster")
        if names is None:
            taken = set(self.voters)
            names = []
            counter = itertools.count(self.n + 1)
            while len(names) < len(new_ballots):
                candidate_name = f"v{next(counter)}"
                if candidate_name not in taken:
                    names.append(candidate_name)
        else:
            names = tuple(names)
            if len(names) != len(new_ballots):
                raise ValueError("need exactly one ballot per voter")
            _check_voter_names(names)
            clash = set(names).intersection(self.voters)
            if clash:
                raise ValueError(f"voter names already taken: {sorted(clash)}")
        return Election._trusted(
            self.candidates,
            self.voters + tuple(names),
            self.profile + tuple(new_ballots),
        )


@dataclass(frozen=True)
class PairwiseTally:
    """counts[a][b] is the number of voters preferring candidate a to b."""

    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        m = len(self.counts)
        for a in range(m):
            if len(self.counts[a]) != m:
                raise ValueError("tally must be square")
            if self.counts[a][a] != 0:
                raise ValueError("tally diagonal must be zero")
            for b in range(m):
                if a != b and self.counts[a][b] + self.counts[b][a] != self.n:
                    raise ValueError("opposed cells must sum to the voter count")
                if self.counts[a][b] < 0:
                    raise ValueError("tally cells must be non-negative")

    @classmethod
    def _trusted(cls, counts: tuple[tuple[int, ...], ...], n: int) -> "PairwiseTally":
        """A tally counted from ballots, whose invariants hold by construction."""
        t = cls.__new__(cls)
        object.__setattr__(t, "counts", counts)
        object.__setattr__(t, "n", n)
        return t

    @property
    def m(self) -> int:
        return len(self.counts)

    def support(self, a: int, b: int) -> int:
        return self.counts[a][b]


def pairwise_tally(e: Election) -> PairwiseTally:
    """Count, for every ordered candidate pair, the voters preferring the first.

    The count runs over the profile's weighted ballots: one step per counted
    line of a parsed profile, one per voter otherwise.  Each ranking adds
    its weight to the winner's row at every candidate below it.
    """
    m = e.m
    counts = [[0] * m for _ in range(m)]
    for ballot, w in _weighted(e.profile):
        ranking = ballot.ranking
        for i, winner in enumerate(ranking):
            row = counts[winner]
            for loser in ranking[i + 1:]:
                row[loser] += w
    return PairwiseTally._trusted(tuple(tuple(row) for row in counts), e.n)


def tally_condorcet_winner(tally: PairwiseTally) -> int | None:
    """Index of the candidate beating every rival by strict majority, if any."""
    winner = None
    threshold = tally.n  # support(a, b) > n/2 iff 2 * support > n
    for a in range(tally.m):
        if all(2 * tally.counts[a][b] > threshold for b in range(tally.m) if b != a):
            # Two winners would have to beat each other, so at most one exists.
            assert winner is None
            winner = a
    return winner


def condorcet_winner(e: Election) -> Candidate | None:
    """The candidate preferred to every rival by a strict majority, if one exists.

    With no voters there is no strict majority over anything, so the answer
    is None; with a single candidate the condition is vacuous and that
    candidate wins as soon as one voter exists.
    """
    if e.n == 0:
        return None
    idx = tally_condorcet_winner(pairwise_tally(e))
    return None if idx is None else e.candidates[idx]


def is_consensus(e: Election) -> bool:
    """True when the election has at least one voter and a Condorcet winner."""
    return e.n >= 1 and condorcet_winner(e) is not None
