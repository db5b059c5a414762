"""Candidate scores measuring how far a candidate is from Condorcet victory.

Every score counts a smallest modification of the election after which the
candidate beats each rival by strict majority:

* ``maximin_score``: no modification, just the weakest pairwise support.
* ``insertion_score``: fewest voters to add.
* ``deletion_score``: fewest voters to remove (may be impossible, hence the
  one score allowed to be infinite).
* ``replacement_score``: fewest voters whose ballots get rewritten.
* ``dodgson_score``: fewest adjacent swaps inside ballots.

The insertion score has a closed form.  Deletion and replacement both reduce
to a minimum multiset-cover, solved exactly by a shared branch-and-bound
(``_min_cover``).  The Dodgson score gets its own search over per-ballot
lift amounts.  Both searches run over equivalence classes rather than ballot
types: ballots that behave alike in the search (the same cover mask, or the
same lift chain up to its last useful entry) are merged into one weighted
item, so the work grows with the number of distinct behaviours, not with the
number of distinct rankings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import CandidateRef, Election, PairwiseTally
from .distances import INFINITY, Value


class ScoreKind(Enum):
    MAXIMIN = "maximin"
    INSERTION = "insertion"
    DELETION = "deletion"
    REPLACEMENT = "replacement"
    DODGSON = "dodgson"


@dataclass(frozen=True)
class ScoreTable:
    """One score value per roster position.

    Only deletion scores may be infinite: a candidate ranked too low by too
    many voters can be unsalvageable by removals alone, while additions,
    rewrites, and swaps can always manufacture a majority.
    """

    kind: ScoreKind
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        for value in self.values:
            if value == INFINITY:
                if self.kind is not ScoreKind.DELETION:
                    raise ValueError(f"{self.kind.value} scores must be finite")
            elif not isinstance(value, int) or value < 0:
                raise ValueError("scores are non-negative integers")

    def argmin(self) -> tuple[int, ...]:
        low = min(self.values)
        return tuple(i for i, v in enumerate(self.values) if v == low)

    def argmax(self) -> tuple[int, ...]:
        high = max(self.values)
        return tuple(i for i, v in enumerate(self.values) if v == high)


def maximin_score(e: Election, cand: CandidateRef) -> int:
    """Pairwise support for ``cand`` against its strongest opponent.

    With a single candidate there are no opponents and the score is the
    voter count, which keeps the insertion-score identity exact.
    """
    idx = e.candidate_index(cand)
    if e.m == 1:
        return e.n
    return min(e.tally.counts[idx][b] for b in range(e.m) if b != idx)


def insertion_score(e: Election, cand: CandidateRef) -> int:
    """Fewest added voters that make ``cand`` the Condorcet winner.

    Each added voter does best ranking ``cand`` first, which raises every
    pairwise support by one while the majority threshold rises by only half
    a vote.  Starting from maximin support s, j additions give s + j > (n + j)/2
    exactly when j >= n - 2s + 1, and never fewer suffice.
    """
    return max(0, e.n - 2 * maximin_score(e, cand) + 1)


def replacement_deficits(tally: PairwiseTally, cand: int) -> tuple[int, ...]:
    """Votes ``cand`` must flip per opponent to reach strict majority.

    Entry x is the least number of voters currently preferring x who must
    switch sides for ``cand`` to beat x outright; it is zero exactly when
    ``cand`` already beats x strictly, and a tie leaves a deficit of one.
    """
    out = []
    for x in range(tally.m):
        if x == cand:
            out.append(0)
        else:
            against = tally.counts[x][cand]
            backing = tally.counts[cand][x]
            out.append(max(0, (against - backing + 2) // 2))
    return tuple(out)


def _cover_types(e: Election, cand: int, opponents: list[int]) -> tuple[list[int], list[int]]:
    """``_min_cover`` items: one class per distinct nonzero cover mask.

    The mask of a ballot has bit j set when it ranks ``opponents[j]`` above
    ``cand``; the cover only sees masks, so ballot types sharing one are
    merged and their counts summed.  Classes come widest-first (most bits,
    then lowest mask): ``_min_cover`` branches on the lowest-index coverer,
    so the widest classes are tried first and the later branches, which
    exclude them, are pruned early.
    """
    bits = {x: 1 << j for j, x in enumerate(opponents)}
    classes: dict[int, int] = {}
    for ranking, weight in e.ballot_types:
        mask = 0
        for x in ranking[: ranking.index(cand)]:
            mask |= bits.get(x, 0)
        if mask:
            classes[mask] = classes.get(mask, 0) + weight
    masks = sorted(classes, key=lambda mask: (-mask.bit_count(), mask))
    return [classes[mask] for mask in masks], masks


def _min_cover(
    weights: list[int],
    masks: list[int],
    needs: list[int],
    *,
    budget: int | None = None,
    known_upper: int | None = None,
) -> int | None:
    """Exact minimum multiset cover over typed items.

    Type i has ``weights[i]`` identical copies and covers the constraints in
    bitmask ``masks[i]``; constraint j must be covered by at least
    ``needs[j]`` chosen copies.  Returns the smallest multiset size, or None
    if no solution fits within ``budget``.  ``known_upper`` may supply a
    size that is known to be feasible without listing a witness; it seeds
    the incumbent, and is returned when nothing smaller exists.

    The search branches on the constraint covered by the fewest types and
    partitions solutions by the lowest-index type covering it, excluding
    earlier coverers in later branches so no multiset is visited twice.
    """
    k = len(needs)
    needs = [max(0, nd) for nd in needs]
    if all(nd == 0 for nd in needs):
        return 0
    total = sum(weights)
    best = known_upper

    def dfs(chosen: int, avail: list[int], needs: list[int]) -> None:
        nonlocal best
        unmet = [j for j in range(k) if needs[j] > 0]
        if not unmet:
            if best is None or chosen < best:
                best = chosen
            return
        lim = budget if budget is not None else total
        if best is not None:
            lim = min(lim, best - 1)
        allowance = lim - chosen
        maxneed = max(needs[j] for j in unmet)
        if maxneed > allowance:
            return
        # A constraint consuming the whole allowance forces every further
        # pick to cover it, so the pool shrinks to its coverers.
        tight = [j for j in unmet if needs[j] == allowance]
        if tight:
            avail = [
                w if all(masks[i] >> j & 1 for j in tight) else 0
                for i, w in enumerate(avail)
            ]
        unmet_mask = 0
        for j in unmet:
            unmet_mask |= 1 << j
        pool = [i for i, w in enumerate(avail) if w > 0 and masks[i] & unmet_mask]
        for j in unmet:
            if sum(avail[i] for i in pool if masks[i] >> j & 1) < needs[j]:
                return
        best_cover = max((masks[i] & unmet_mask).bit_count() for i in pool)
        totalneed = sum(needs[j] for j in unmet)
        if chosen + -(-totalneed // best_cover) > lim:
            return
        if all(masks[i] & unmet_mask == unmet_mask for i in pool):
            # Every usable copy covers every open constraint.
            if best is None or chosen + maxneed < best:
                best = chosen + maxneed
            return
        branch = min(
            unmet,
            key=lambda j: (sum(1 for i in pool if masks[i] >> j & 1), -needs[j], j),
        )
        coverers = [i for i in pool if masks[i] >> branch & 1]
        for pos, i in enumerate(coverers):
            navail = list(avail)
            for skip in coverers[:pos]:
                navail[skip] = 0
            navail[i] -= 1
            nneeds = [needs[j] - (masks[i] >> j & 1) for j in range(k)]
            dfs(chosen + 1, navail, nneeds)

    dfs(0, list(weights), needs)
    if best is not None and (budget is None or best <= budget):
        return best
    return None


def replacement_score(e: Election, cand: CandidateRef, *, cutoff: int | None = None) -> Value:
    """Fewest voters whose ballots must be rewritten to make ``cand`` win.

    Rewritten ballots do best ranking ``cand`` first, after which ``cand``
    beats opponent x exactly when the rewritten set hits at least
    ``replacement_deficits`` many of the voters preferring x.  That turns
    the score into a minimum multiset cover over cover-mask classes.
    Rewriting any floor(n/2) + 1 ballots always works, which bounds the
    search.

    With ``cutoff`` set, returns None instead of any value above it; the
    search then stops exploring past the cutoff, which is what makes
    certifying "score exceeds k" cheap.  An election without voters has no
    rewriting to do and no way to win, so the score is infinite.
    """
    idx = e.candidate_index(cand)
    if e.n == 0:
        return None if cutoff is not None else INFINITY
    deficits = replacement_deficits(e.tally, idx)
    opponents = [x for x in range(e.m) if deficits[x] > 0]
    if not opponents:
        return 0
    needs = [deficits[x] for x in opponents]
    weights, masks = _cover_types(e, idx, opponents)
    guaranteed = e.n // 2 + 1
    return _min_cover(weights, masks, needs, budget=cutoff, known_upper=guaranteed)


def deletion_score(e: Election, cand: CandidateRef) -> Value:
    """Fewest removed voters that leave ``cand`` the Condorcet winner.

    Removing a set S of size k leaves ``cand`` beating x exactly when S hits
    enough of the voters preferring x, where "enough" depends on k through
    the shrunken majority threshold.  Feasibility of each k is a multiset
    cover (a smaller cover pads to size k with arbitrary voters), so the
    score is the first feasible k.  If even keeping a single voter fails for
    every choice, no removal works and the score is infinite.
    """
    idx = e.candidate_index(cand)
    n = e.n
    if n == 0:
        return INFINITY
    opponents = [x for x in range(e.m) if x != idx]
    against = [e.tally.counts[x][idx] for x in opponents]
    weights, masks = _cover_types(e, idx, opponents)
    for removed in range(n):
        kept = n - removed
        needs = [a - (kept - 1) // 2 for a in against]
        if max(needs, default=0) > removed:
            continue
        if _min_cover(weights, masks, needs, budget=removed) is not None:
            return removed
    return INFINITY


def dodgson_score(e: Election, cand: CandidateRef) -> int:
    """Fewest adjacent swaps across ballots making ``cand`` the winner.

    Only swaps moving ``cand`` upward help: lifting ``cand`` over the
    neighbour above gains exactly one vote against that neighbour and
    nothing else.  A lift by j in one ballot therefore gains one vote
    against each of the j candidates sitting right above ``cand``.  The
    search assigns lift amounts per ballot, sorted non-increasingly inside
    each class to skip permuted duplicates, and only ever lifts so that the
    last candidate crossed still lacks votes.

    A class is the set of ballots sharing one lift chain (the candidates
    above ``cand``, nearest first, each marked by whether it still lacks
    votes) cut after its last candidate that does: no lift ever ends on a
    candidate that needs no votes, so what lies past that point never
    matters.
    """
    idx = e.candidate_index(cand)
    if e.n == 0:
        raise ValueError("dodgson score needs at least one voter")
    tally = e.tally
    threshold = e.n // 2 + 1
    gains = {
        x: threshold - tally.counts[idx][x]
        for x in range(e.m)
        if x != idx and tally.counts[idx][x] < threshold
    }
    if not gains:
        return 0
    opponents = sorted(gains)
    opp_pos = {x: j for j, x in enumerate(opponents)}
    classes: dict[tuple[int | None, ...], int] = {}
    for ranking, weight in e.ballot_types:
        pos = ranking.index(idx)
        chain = [opp_pos.get(x) for x in ranking[pos - 1 :: -1]] if pos else []
        while chain and chain[-1] is None:
            chain.pop()
        key = tuple(chain)
        classes[key] = classes.get(key, 0) + weight
    types = list(classes.items())
    # Ballots whose chain helps more open deficits come first.
    types.sort(
        key=lambda tw: (
            -sum(1 for c in tw[0] if c is not None),
            tuple(-1 if c is None else c for c in tw[0]),
        )
    )
    suffix = [[0] * len(opponents)]
    for chain, weight in reversed(types):
        row = list(suffix[-1])
        for c in set(chain):
            if c is not None:
                row[c] += weight
        suffix.append(row)
    suffix.reverse()
    needs0 = [gains[x] for x in opponents]
    # Lifting cand past every opponent in every chain is always feasible.
    best = sum(weight * len(chain) for chain, weight in types)
    if best == 0:
        return 0

    def dfs(t: int, copies: int, max_lift: int, needs: list[int], cost: int) -> None:
        nonlocal best
        open_needs = sum(nd for nd in needs if nd > 0)
        if open_needs == 0:
            best = min(best, cost)
            return
        if cost + open_needs >= best:
            return
        if t == len(types):
            return
        chain, weight = types[t]
        for j, nd in enumerate(needs):
            if nd > 0:
                reach = suffix[t + 1][j] + (copies if j in chain else 0)
                if reach < nd:
                    return
        # Lift the next ballot of this class by j; j = 0 finishes the class
        # since lifts are non-increasing within a class.
        for j in range(min(max_lift, len(chain)), 0, -1):
            target = chain[j - 1]
            if target is None or needs[target] <= 0:
                continue
            nneeds = list(needs)
            for c in chain[:j]:
                if c is not None:
                    nneeds[c] -= 1
            if copies > 1:
                dfs(t, copies - 1, j, nneeds, cost + j)
            else:
                dfs(t + 1, types[t + 1][1] if t + 1 < len(types) else 0, e.m, nneeds, cost + j)
        dfs(t + 1, types[t + 1][1] if t + 1 < len(types) else 0, e.m, needs, cost)

    dfs(0, types[0][1], e.m, needs0, 0)
    return best


SCORE_FUNCTIONS = {
    ScoreKind.MAXIMIN: maximin_score,
    ScoreKind.INSERTION: insertion_score,
    ScoreKind.DELETION: deletion_score,
    ScoreKind.REPLACEMENT: replacement_score,
    ScoreKind.DODGSON: dodgson_score,
}


def require_voters(e: Election, kind: ScoreKind) -> None:
    """Reject an empty election for the kinds it leaves undefined.

    Replacement and Dodgson scores are only defined once a voter exists (an
    empty election cannot be repaired in place), so those kinds reject n = 0.
    """
    if e.n == 0 and kind in (ScoreKind.REPLACEMENT, ScoreKind.DODGSON):
        raise ValueError(f"{kind.value} scores need at least one voter")


def score_table(e: Election, kind: ScoreKind) -> ScoreTable:
    """Score every candidate under one kind (see ``require_voters``)."""
    require_voters(e, kind)
    fn = SCORE_FUNCTIONS[kind]
    return ScoreTable(kind, tuple(fn(e, c) for c in range(e.m)))
