"""Plain-text election profiles.

The format is line-oriented::

    # optional comments anywhere
    4
    a b c d
    2: a > b > c > d
    1: d > c > b > a

First significant line: the number of candidates.  Second: that many
whitespace-separated candidate names.  Every further line is a ballot with a
positive multiplier.  Voter identities are positional: parsing assigns
``v1..vn`` in line order, expanding multiplicities, so serializing and
re-parsing reproduces an election exactly when its voters already carry the
positional names.  Those names are formatted on demand: the parsed election's
``voters`` stores only ``n`` and behaves like the tuple ``("v1", ..., "vn")``,
which it builds on the first read other than ``len`` and serves every later
read from, so a million-voter profile that is only tallied builds no million
name strings.

Each counted line becomes one validated ``PreferenceOrder`` that all of its
voters share; the order is frozen, so sharing is safe.  The profile is stored
as those counted runs, one ``(ballot, count)`` per line: the parsed
election's ``profile`` is a read-only sequence over the runs that behaves
like the flat tuple of ballots and builds that tuple, in the same way, only
when read other than by ``len``, so a line costs the same however large its
count.  The runs are the one table the parser keeps: the pairwise tally,
the ballot types (lines with the same ranking merged, counted on first read),
plurality and serialization all read them through ``core._weighted``, one
step per line, never voter by voter.

All checking happens here, line by line; the election is then built through
the trusted constructor, since every fact its per-voter passes would check
already holds by construction.
"""

from __future__ import annotations

import itertools
import operator

from .core import Candidate, Election, PreferenceOrder, _CountedRuns, _PositionalNames, _weighted


class ProfileParseError(ValueError):
    """Raised for malformed profile files, with a line number."""


def _parse_count(text: str, lineno: int, what: str) -> int:
    # int() would also take "+3", "1_0" and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise ProfileParseError(f"line {lineno}: {what} must be an integer")
    return int(text)


def parse_profile(text: str) -> Election:
    lines = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(lines) < 2:
        raise ProfileParseError("profile needs a candidate count and a name line")
    lineno, head = lines[0]
    m = _parse_count(head, lineno, "candidate count")
    if m < 1:
        raise ProfileParseError(f"line {lineno}: need at least one candidate")
    lineno, name_line = lines[1]
    names = name_line.split()
    if len(names) != m:
        raise ProfileParseError(f"line {lineno}: expected {m} candidate names, got {len(names)}")
    if len(set(names)) != m:
        raise ProfileParseError(f"line {lineno}: duplicate candidate name")
    try:
        candidates = tuple(Candidate(i, name) for i, name in enumerate(names))
    except ValueError as exc:
        raise ProfileParseError(str(exc)) from None
    index = {name: i for i, name in enumerate(names)}

    runs: list[tuple[PreferenceOrder, int]] = []
    for lineno, line in lines[2:]:
        head, sep, tail = line.partition(":")
        if not sep:
            raise ProfileParseError(f"line {lineno}: ballot lines look like 'count: a > b'")
        count = _parse_count(head.strip(), lineno, "ballot count")
        if count < 1:
            raise ProfileParseError(f"line {lineno}: ballot count must be positive")
        entries = [token.strip() for token in tail.split(">")]
        # A full-length ranking of known names is a permutation exactly when
        # PreferenceOrder accepts it.
        try:
            if len(entries) != m:
                raise ValueError("wrong ballot length")
            order = PreferenceOrder(tuple(index[token] for token in entries))
        except (KeyError, ValueError):
            raise ProfileParseError(
                f"line {lineno}: ballot must rank every candidate exactly once"
            ) from None
        runs.append((order, count))

    profile = _CountedRuns(runs)
    return Election._trusted(candidates, _PositionalNames(len(profile)), profile)


def serialize_profile(e: Election, comments: tuple[str, ...] = ()) -> str:
    """Render an election in the profile format, byte-stable.

    Consecutive identical ballots collapse into one counted line, which
    keeps ballot order (and so the positional voter identities) intact.  A
    parsed profile is written from its counted runs, never voter by voter.
    """
    out = [f"# {comment}" for comment in comments]
    out.append(str(e.m))
    out.append(" ".join(e.candidate_names))
    for ballot, group in itertools.groupby(_weighted(e.profile), key=operator.itemgetter(0)):
        row = " > ".join(e.candidate_names[i] for i in ballot.ranking)
        out.append(f"{sum(map(operator.itemgetter(1), group))}: {row}")
    return "\n".join(out) + "\n"
