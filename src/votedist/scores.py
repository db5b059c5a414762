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
to a minimum multiset cover over cover-mask classes, solved exactly by one
branch and bound (``_min_cover``); deletion only asks whether a cover fits
each budget.  The Dodgson score gets its own search over class-level lift
counts (how many copies of a class lift ``cand`` to each slot of its chain).
Both searches follow one template: they branch on how many copies of a class
to take (or to lift to each slot), on one depth-first driver
(``_depth_first``, which ``reduction.vc_exact`` shares) whose stack holds a
generator per level, so their depth does not depend on the weights or on
Python's recursion limit; they start from a greedy incumbent; and they prune
by cheap counting bounds first and only then by the Lagrangian (LP) bound of
the per-opponent needs, evaluated in integers on multipliers that one
subgradient loop (``_subgradient``) chooses.  Both run over equivalence
classes rather than ballot types:
ballots that behave alike in the search (the same cover mask, or the same
lift chain up to its last useful entry) are merged into one weighted item,
so the work grows with the number of distinct behaviours, not with the
number of distinct rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

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
    Flipping f of the ``a`` voters against ``cand`` wins when a - f is at
    most ``(n - 1) // 2``, so the entry is ``a - (n - 1) // 2`` when positive.
    """
    half = (tally.n - 1) // 2
    return tuple(
        0 if x == cand else max(0, row[cand] - half) for x, row in enumerate(tally.counts)
    )


def _cover_types(e: Election, cand: int, opponents: list[int]) -> tuple[list[int], list[int]]:
    """``_min_cover`` items: one class per distinct nonzero cover mask.

    The mask of a ballot has bit j set when it ranks ``opponents[j]`` above
    ``cand``; the cover only sees masks, so ballot types sharing one are
    merged and their counts summed.  Classes come widest-first (most bits,
    then lowest mask): ``_min_cover`` decides the classes in this order, so
    the copies meeting the most needs are counted first.
    """
    bits = [0] * e.m
    for j, x in enumerate(opponents):
        bits[x] = 1 << j
    classes: dict[int, int] = {}
    for ranking, weight in e.ballot_types:
        mask = 0
        for x in ranking:
            if x == cand:
                break
            mask |= bits[x]
        if mask:
            classes[mask] = classes.get(mask, 0) + weight
    masks = sorted(classes, key=lambda mask: (-mask.bit_count(), mask))
    return [classes[mask] for mask in masks], masks


# Each multiplier λ_j of a Lagrangian bound is chosen in floats, then applied
# as the integer numerator p_j of p_j / _DENOM, so every bound a search
# prunes with is evaluated exactly.
_DENOM = 1 << 16
# Subgradient steps at the root (deflected, see _subgradient) and at every
# other node (warm-started from its parent).
_ROOT_STEPS = 40
_NODE_STEPS = 8


def _greedy_cover(weights: list[int], masks: list[int], needs: list[int]) -> int | None:
    """Size of one cover, an upper bound on ``_min_cover``; None if none exists.

    Each pick takes the class covering the most open constraints, as many
    copies as the smallest open need it covers allows (or as it has left).
    Then copies whose every constraint is covered with room to spare are
    dropped, narrowest class first.  The greedy fails only when even every
    copy falls short.
    """
    k = len(needs)
    needs = [max(0, nd) for nd in needs]
    left = list(weights)
    open_mask = sum(1 << j for j, nd in enumerate(needs) if nd > 0)
    while open_mask:
        width = open_mask.bit_count()
        t = most = 0
        for s, mask in enumerate(masks):
            if left[s]:
                covers = (mask & open_mask).bit_count()
                if covers > most:
                    t, most = s, covers
                    if covers == width:
                        break
        if not most:
            return None
        cover = [j for j in range(k) if masks[t] >> j & 1]
        h = min(left[t], min(needs[j] for j in cover if needs[j] > 0))
        left[t] -= h
        for j in cover:
            needs[j] -= h
            if needs[j] <= 0:
                open_mask &= ~(1 << j)
    size = 0
    for t in range(len(masks) - 1, -1, -1):
        taken = weights[t] - left[t]
        if taken:
            cover = [j for j in range(k) if masks[t] >> j & 1]
            h = min(taken, min(-needs[j] for j in cover))
            for j in cover:
                needs[j] += h
            size += taken - h
    return size


def _depth_first(expand: Callable[[Any, bool], Iterator[Any]], root: Any) -> None:
    """Search the tree below ``root`` depth first, children in yield order.

    ``expand(node, is_root)`` is a generator: it settles ``node``, prunes,
    and yields the node's children one by one; whatever it runs after its
    last yield (an undo step) runs once the node's subtree is done.  The
    stack holds one suspended generator per level, so the depth of a search
    does not depend on Python's recursion limit.
    """
    stack = [expand(root, True)]
    while stack:
        for child in stack[-1]:
            stack.append(expand(child, False))
            break
        else:
            stack.pop()


def _suffix_reach(rows: list, weights: list[int], size: int) -> list[list[int]]:
    """``reach[t][j]``: the copies in classes t, t + 1, ... whose row lists j."""
    reach = [[0] * size for _ in range(len(rows) + 1)]
    for t in range(len(rows) - 1, -1, -1):
        reach[t] = list(reach[t + 1])
        for j in rows[t]:
            reach[t][j] += weights[t]
    return reach


def _subgradient(
    needs: list[int],
    lam: list[float],
    root: bool,
    solve: Callable[[list[int]], tuple[int, list[int], int] | None],
) -> list[float] | None:
    """Choose Lagrangian multipliers for per-constraint ``needs``; None prunes.

    ``solve(p)`` evaluates the relaxation at the integer numerators ``p`` of
    ``λ`` over ``_DENOM`` and returns None to prune, or ``(value, gains,
    target)``: the bound times ``_DENOM``, how much each constraint gets in
    the relaxed solution, and the value the bound must reach to prune.
    Since every bound is evaluated in integers on ``λ`` rounded to
    numerators, rounding never over-prunes.  A constraint whose need is
    already met keeps ``λ = 0``: it holds anyway.  Subgradient steps choose
    ``λ`` in floats; the step length follows Polyak's rule toward
    ``target`` and halves after three steps without a better bound.  The
    root takes more steps and deflects each one (Camerini, Fratta &
    Maffioli, 1975).  Returns the last multipliers.
    """
    lam = [x if nd > 0 else 0.0 for x, nd in zip(lam, needs)]
    theta = 2.0
    top = stall = 0
    direction = [0.0] * len(needs)
    for step in range(_ROOT_STEPS if root else _NODE_STEPS):
        solved = solve([round(x * _DENOM) for x in lam])
        if solved is None:
            return None
        value, gains, target = solved
        bound = -(-value // _DENOM)
        if bound >= target:
            return None
        if step == 0 or bound > top:
            top, stall = bound, 0
        else:
            stall += 1
            if stall == 3:
                theta, stall = theta / 2, 0
        sub = [nd - g if nd > 0 else 0 for nd, g in zip(needs, gains)]
        if root:
            dot = sum(a * b for a, b in zip(sub, direction))
            if dot < 0:
                beta = -1.5 * dot / sum(b * b for b in direction)
                sub = [a + beta * b for a, b in zip(sub, direction)]
            direction = sub
        norm = sum(s * s for s in sub)
        if not norm:
            break
        alpha = theta * (target - value / _DENOM) / norm
        lam = [max(0.0, x + alpha * s) for x, s in zip(lam, sub)]
    return lam


def _min_cover(
    weights: list[int],
    masks: list[int],
    needs: list[int],
    *,
    budget: int | None = None,
    feasible: bool = False,
) -> int | None:
    """Exact minimum multiset cover over typed items.

    Class t has ``weights[t]`` identical copies and covers the constraints
    in bitmask ``masks[t]``; constraint j must be covered by at least
    ``needs[j]`` chosen copies.  Returns the smallest multiset size, or None
    if no solution fits within ``budget``.  With ``feasible`` set, the
    search only asks whether some cover fits within ``budget``: it returns
    the size of the first one it meets, which need not be the minimum.

    The search (``_depth_first``) decides, class by class, how many copies
    of each class to take, so its depth is at most the number of classes
    whatever the weights; a feasibility search unwinds as soon as a cover
    fits.  The incumbent starts at ``_greedy_cover``, returned at once when
    it meets the largest open need (a lower bound) or, with ``feasible``,
    when it fits the budget.  Each node is pruned by its largest open need,
    by each constraint's reach (the copies left that cover it), by
    ``⌈open needs / widest class⌉``, and only then, in searches without a
    budget and in feasibility searches, by the Lagrangian bound of the
    covering LP (``_cover_relax``).  A cutoff search (exact, with a budget)
    keeps to the cheap bounds.  Its callers have already settled every
    budget below the largest need (the root bound would return None for it
    too), so the cutoff searches left are the ones ``verify_reduction``
    runs on vertex-cover encodings whose largest deficit fits the budget,
    such as the target's.  Their covering LP is as weak as vertex cover's,
    and there the LP cost more than it pruned (about 1.7 times the time on
    seeded reduction elections).
    """
    k = len(needs)
    needs = [max(0, nd) for nd in needs]
    if max(needs, default=0) == 0:
        return 0
    cap = sum(weights) if budget is None else budget
    classes = len(weights)
    cols = [[j for j in range(k) if mask >> j & 1] for mask in masks]
    # reach[t][j]: copies in classes t, t + 1, ... covering constraint j.
    reach = _suffix_reach(cols, weights, k)
    use_relax = budget is None or feasible
    # A feasibility search stops at the first cover that fits the budget.
    stop = cap if feasible else -1

    def lower(t: int, needs: list[int]) -> int | None:
        """Largest open need and ``⌈open needs / widest class⌉`` from class
        t on; None when some constraint is out of reach."""
        open_mask = total = top = 0
        for j, nd in enumerate(needs):
            if nd > 0:
                if reach[t][j] < nd:
                    return None
                open_mask |= 1 << j
                total += nd
                top = max(top, nd)
        widest = max((masks[s] & open_mask).bit_count() for s in range(t, classes))
        return max(top, -(-total // widest))

    root = lower(0, needs)
    if root is None or root > cap:
        return None
    best = _greedy_cover(weights, masks, needs)
    if best <= (cap if feasible else root):
        return best

    def expand(node: tuple, is_root: bool) -> Iterator[tuple]:
        nonlocal best
        t, cost, needs, lam = node
        open_mask = sum(1 << j for j, nd in enumerate(needs) if nd > 0)
        if not open_mask:
            best = min(best, cost)
            return
        # A class covering no open constraint takes no copy.
        while t < classes and not masks[t] & open_mask:
            t += 1
        limit = min(cap, best - 1) - cost
        bound = lower(t, needs)
        if bound is None or bound > limit:
            return
        take_all = True
        if use_relax:
            relaxed = _cover_relax(weights, cols, t, needs, lam, limit, root=is_root)
            if relaxed is None:
                return
            lam, take_all = relaxed
        # Copies the later classes cannot supply come from class t; copies
        # beyond its largest open need are wasted, and the rest of the budget
        # must still meet every open need class t leaves alone.
        lo = max(0, *(needs[j] - reach[t + 1][j] for j in cols[t]))
        rest = max((nd for j, nd in enumerate(needs) if not masks[t] >> j & 1), default=0)
        hi = min(weights[t], max(needs[j] for j in cols[t]), limit - rest)
        for h in range(hi, lo - 1, -1) if take_all else range(lo, hi + 1):
            if best <= stop:
                return
            child = needs
            if h:
                child = list(needs)
                for j in cols[t]:
                    child[j] -= h
            yield t + 1, cost + h, child, lam

    _depth_first(expand, (0, 0, needs, [1.0] * k))
    return best if best <= cap else None


def _cover_relax(
    weights: list[int],
    cols: list[list[int]],
    t: int,
    needs: list[int],
    lam: list[float],
    limit: int,
    *,
    root: bool,
) -> tuple[list[float], bool] | None:
    """Prune by the covering LP's Lagrangian bound; else return the last
    multipliers and whether the relaxation takes every copy of class t.

    For multipliers ``λ >= 0`` the bound over classes t, t + 1, ... is
    ``Σ_j λ_j·need_j + Σ_s w_s·min(0, 1 - Σ_{j∈s} λ_j)``: a class takes
    all its copies exactly when they cost less than the needs they meet.
    ``_subgradient`` chooses ``λ``, from ``λ = 1`` at the root, and prunes
    once the bound exceeds ``limit``.
    """
    items = []
    for s in range(t, len(weights)):
        cover = [j for j in cols[s] if needs[j] > 0]
        if cover:
            items.append((weights[s], cover))
    take_all = False

    def solve(p: list[int]) -> tuple[int, list[int], int]:
        nonlocal take_all
        price = p.__getitem__
        value = sum(pj * nd for pj, nd in zip(p, needs))
        covered = [0] * len(needs)
        for w, cover in items:
            rc = _DENOM - sum(map(price, cover))
            if rc < 0:
                value += w * rc
                for j in cover:
                    covered[j] += w
        # Class t covers an open constraint, so it heads the items.
        take_all = _DENOM - sum(map(price, items[0][1])) < 0
        return value, covered, limit + 1

    lam = _subgradient(needs, lam, root, solve)
    return None if lam is None else (lam, take_all)


def replacement_score(e: Election, cand: CandidateRef, *, cutoff: int | None = None) -> Value:
    """Fewest voters whose ballots must be rewritten to make ``cand`` win.

    Rewritten ballots do best ranking ``cand`` first, after which ``cand``
    beats opponent x exactly when the rewritten set hits at least
    ``replacement_deficits`` many of the voters preferring x.  That turns
    the score into a minimum multiset cover over cover-mask classes.
    Rewriting any floor(n/2) + 1 ballots always works, so the score never
    exceeds that.

    With ``cutoff`` set, returns None instead of any value above it, which
    is what makes certifying "score exceeds k" cheap.  The score is at least
    the largest deficit, so a cutoff below it is settled before any cover
    classes are built; otherwise the search stops exploring past the
    cutoff.  An election without voters has no rewriting to do and no way
    to win, so the score is infinite.
    """
    idx = e.candidate_index(cand)
    if e.n == 0:
        return None if cutoff is not None else INFINITY
    counts, half = e.tally.counts, (e.n - 1) // 2
    opponents = [x for x in range(e.m) if counts[x][idx] > half]
    if not opponents:
        return 0
    needs = [counts[x][idx] - half for x in opponents]
    if cutoff is not None and max(needs) > cutoff:
        return None
    weights, masks = _cover_types(e, idx, opponents)
    return _min_cover(weights, masks, needs, budget=cutoff)


def deletion_score(e: Election, cand: CandidateRef) -> Value:
    """Fewest removed voters that leave ``cand`` the Condorcet winner.

    Removing a set S of size k leaves ``cand`` beating x exactly when S hits
    enough of the voters preferring x, where "enough" depends on k through
    the shrunken majority threshold.  Feasibility of each k is a multiset
    cover (a smaller cover pads to size k with arbitrary voters), so the
    score is the first feasible k.  If even keeping a single voter fails for
    every choice, no removal works and the score is infinite.

    No cover of size k meets a need above k, so the scan starts at the
    least k with ``top - (n - k - 1) // 2 <= k``, where ``top`` is the
    largest count against ``cand``; for k < n that is k >= 2 * top - n + 1.
    Every later k passes the same test, as the threshold term drops by at
    most one per step, so each k scanned goes to the cover search.
    """
    idx = e.candidate_index(cand)
    n = e.n
    if n == 0:
        return INFINITY
    opponents = [x for x in range(e.m) if x != idx]
    against = [e.tally.counts[x][idx] for x in opponents]
    weights, masks = _cover_types(e, idx, opponents)
    top = max(against, default=0)
    for removed in range(max(0, 2 * top - n + 1), n):
        kept = n - removed
        needs = [a - (kept - 1) // 2 for a in against]
        if _min_cover(weights, masks, needs, budget=removed, feasible=True) is not None:
            return removed
    return INFINITY


def _lift_classes(
    e: Election, idx: int
) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
    """The Dodgson lift program of ``idx``: needs, cut chains and weights.

    ``needs[c]`` is the number of votes ``idx`` must gain against the c-th
    opponent it does not yet beat by strict majority.  A chain lists the
    candidates right above ``idx`` in a ballot, nearest first, as opponent
    numbers, with ``len(needs)`` standing for every candidate that needs no
    votes.  It is cut after its last opponent that does, since no lift ever
    ends on any other candidate.  Ballot types with equal cut chains merge
    into one class weighted by their total count; empty chains are dropped.
    Chains reaching more opponents come first.
    """
    tally = e.tally
    threshold = e.n // 2 + 1
    opponents = [x for x in range(e.m) if x != idx and tally.counts[idx][x] < threshold]
    needs = [threshold - tally.counts[idx][x] for x in opponents]
    closed = len(opponents)
    opp_pos = {x: c for c, x in enumerate(opponents)}
    classes: dict[tuple[int, ...], int] = {}
    for ranking, weight in e.ballot_types:
        pos = ranking.index(idx)
        chain = [opp_pos.get(x, closed) for x in ranking[pos - 1 :: -1]] if pos else []
        while chain and chain[-1] == closed:
            chain.pop()
        if chain:
            key = tuple(chain)
            classes[key] = classes.get(key, 0) + weight
    chains = sorted(classes, key=lambda chain: (-sum(c < closed for c in chain), chain))
    return needs, chains, [classes[chain] for chain in chains]


def _greedy_lifts(needs: list[int], chains: list[tuple[int, ...]], weights: list[int]) -> int:
    """Cost of one feasible set of lifts, an upper bound on the Dodgson score.

    Pass j = 1, 2, ... extends the copies lifted j - 1 places by one more
    place wherever ``chain[j - 1]`` still lacks votes, so each such swap
    gains an open vote.  A pass visits only the classes the previous pass
    extended, so all passes together take time linear in the total chain
    length.  ``_complete_lifts`` then closes what is left.
    """
    closed = len(needs)
    needs = [*needs, 0]
    levels = [[w] + [0] * len(chain) for chain, w in zip(chains, weights)]
    cost = 0
    active = range(len(chains))
    j = 0
    while active:
        moved = []
        for t in active:
            chain, level = chains[t], levels[t]
            if j < len(chain):
                h = min(level[j], needs[chain[j]])
                if h > 0:
                    level[j] -= h
                    level[j + 1] += h
                    needs[chain[j]] -= h
                    cost += h
                    moved.append(t)
        active = moved
        j += 1
    return cost + _complete_lifts(needs, chains, levels, [_DENOM] * closed + [0])


def _complete_lifts(
    needs: list[int], chains: list[tuple[int, ...]], levels: list[list[int]], p: list[int]
) -> int:
    """Extend and trim lifts until no need is open; return the added cost.

    ``levels[t][l]`` counts the copies of class t lifted exactly l places,
    and ``needs`` (closed-slot entry last) what each opponent still lacks;
    both are updated in place.  While a need is open, the extension passing
    an open opponent with the lowest Lagrangian cost runs: passing slot c
    costs ``_DENOM - p[c]`` while c lacks votes and ``_DENOM`` after, so with
    every ``p[c] = _DENOM`` this counts the swaps gaining nothing.  A
    per-opponent index of chain slots lists the candidate extensions.  Then
    lifts ending on an opponent with votes to spare are shortened.
    """
    closed = len(needs) - 1
    index: list[list[tuple[int, int]]] = [[] for _ in range(closed)]
    for t, chain in enumerate(chains):
        for i, c in enumerate(chain):
            if c < closed:
                index[c].append((t, i))
    cost = 0
    while any(needs[c] > 0 for c in range(closed)):
        pick = None
        for c in range(closed):
            if needs[c] > 0:
                for t, i in index[c]:
                    # The cheapest copy to lift past slot i sits at the
                    # highest occupied level not above i.
                    level = levels[t]
                    low = i
                    while low >= 0 and not level[low]:
                        low -= 1
                    if low >= 0:
                        price = sum(
                            _DENOM - p[x] if needs[x] > 0 else _DENOM
                            for x in chains[t][low : i + 1]
                        )
                        key = (price, i + 1 - low, t, low, i)
                        if pick is None or key < pick:
                            pick = key
        _, step, t, low, i = pick
        passed = chains[t][low : i + 1]
        h = min(levels[t][low], min(needs[x] for x in passed if needs[x] > 0))
        levels[t][low] -= h
        levels[t][i + 1] += h
        for x in passed:
            needs[x] -= h
        cost += h * step
    for chain, level in zip(chains, levels):
        for l in range(len(chain), 0, -1):
            h = min(level[l], -needs[chain[l - 1]])
            if h > 0:
                level[l] -= h
                level[l - 1] += h
                needs[chain[l - 1]] += h
                cost -= h
    return cost


def dodgson_score(e: Election, cand: CandidateRef) -> int:
    """Fewest adjacent swaps across ballots making ``cand`` the winner.

    Only swaps moving ``cand`` upward help: lifting ``cand`` over the
    neighbour above gains exactly one vote against that neighbour and
    nothing else.  A lift by l in one ballot therefore gains one vote
    against each of the l candidates sitting right above ``cand``.  Ballots
    sharing one cut lift chain form a class (``_lift_classes``), and the
    search decides, class by class and from the longest lift down, how many
    copies of the class lift ``cand`` to end exactly at each chain slot:
    the lift program of Bartholdi, Tovey & Trick (1989), aggregated over
    classes.  A lift only ends on an opponent that still lacks votes, and
    never gives it more than it lacks.

    The incumbent starts at ``_greedy_lifts``, which is returned at once
    when it equals the open needs, a lower bound (each swap gains at most
    one vote).  Otherwise each node is pruned by its open needs, by each
    opponent's reach, and only then by the Lagrangian relaxation of the
    per-opponent needs: for multipliers ``λ``, each class is solved alone
    by the minimum prefix sum of ``1 - λ_c`` along its chain, and the best
    ``λ`` (chosen by ``_subgradient``) gives the LP bound.  The search runs
    on ``_depth_first``, so its depth does not depend on Python's recursion
    limit.
    """
    idx = e.candidate_index(cand)
    if e.n == 0:
        raise ValueError("dodgson score needs at least one voter")
    needs, chains, weights = _lift_classes(e, idx)
    best = _greedy_lifts(needs, chains, weights)
    if best == sum(needs):
        return best
    return _lift_search(needs, chains, weights, best)


def _lift_search(
    needs: list[int], chains: list[tuple[int, ...]], weights: list[int], best: int
) -> int:
    """Branch and bound over class-level lift counts below incumbent ``best``.

    A node is (class t, slot e, copies r of class t still unassigned, cost
    so far, residual needs); its children give h = 0..min(r, need of
    ``chains[t][e - 1]``) copies a lift ending at slot e.
    """
    closed = len(needs)
    classes = len(chains)
    # reach[t][c]: copies in classes t, t + 1, ... whose chain passes c.
    reach = _suffix_reach(chains, weights, closed + 1)
    # slot[t][c]: position of c in chain t, past its end if absent.
    slot = []
    for chain in chains:
        row = [len(chain)] * (closed + 1)
        for i, c in enumerate(chain):
            row[c] = i
        slot.append(row)

    def expand(node: tuple, is_root: bool) -> Iterator[tuple]:
        nonlocal best
        t, e, r, cost, needs, lam = node
        # Skip slots where no lift may end.
        while t < classes and not (r and e and needs[chains[t][e - 1]] > 0):
            if r and e > 1:
                e -= 1
            else:
                t += 1
                if t < classes:
                    r, e = weights[t], len(chains[t])
        open_needs = sum(nd for nd in needs[:closed] if nd > 0)
        if open_needs == 0:
            best = min(best, cost)
            return
        if not (
            cost + open_needs < best
            and t < classes
            and all(
                reach[t + 1][c] + (r if slot[t][c] < e else 0) >= needs[c]
                for c in range(closed)
                if needs[c] > 0
            )
        ):
            return
        sub_chains = [chains[t][:e], *chains[t + 1 :]]
        sub_weights = [r, *weights[t + 1 :]]
        lift_all = False

        def solve(p: list[int]) -> tuple[int, list[int], int] | None:
            """The Lagrangian bound, with the relaxed lifts completed into
            feasible ones (``_complete_lifts``) for a new incumbent."""
            nonlocal best, lift_all
            value = sum(pc * nd for pc, nd in zip(p, needs))
            gains = [0] * (closed + 1)
            levels = []
            relaxed = 0
            for chain, w in zip(sub_chains, sub_weights):
                run = low = cut = 0
                for i, c in enumerate(chain, 1):
                    run += _DENOM - p[c]
                    if run <= low:
                        low, cut = run, i
                value += w * low
                relaxed += w * cut
                for c in chain[:cut]:
                    gains[c] += w
                levels.append([0] * cut + [w] + [0] * (len(chain) - cut))
            if cost + -(-value // _DENOM) >= best:
                return None
            lift_all = levels[0][e] > 0
            residual = [nd - g for nd, g in zip(needs, gains)]
            relaxed += _complete_lifts(residual, sub_chains, levels, p)
            best = min(best, cost + relaxed)
            return value, gains, best - cost

        # The closed-slot entry of needs is never positive, so its λ stays 0.
        lam = _subgradient(needs, lam, is_root, solve)
        if lam is None:
            return
        most = min(r, needs[chains[t][e - 1]])
        # Try first what the relaxation does with the class.
        for h in range(most, -1, -1) if lift_all else range(most + 1):
            child = needs
            if h:
                child = list(needs)
                for c in chains[t][:e]:
                    child[c] -= h
            yield t, e - 1, r - h, cost + h * e, child, lam

    _depth_first(expand, (0, len(chains[0]), weights[0], 0, [*needs, 0], [1.0] * closed + [0.0]))
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
