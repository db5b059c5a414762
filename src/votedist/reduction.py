"""Vertex cover encoded as a replacement-score question.

Deciding whether the replacement score of a designated candidate stays
within a budget is NP-hard, and this module makes that reduction concrete
and executable.  ``restrict`` pads an arbitrary vertex-cover instance into a
normal form (no isolated vertices, vertex count divisible by 3 and larger
than 3k + 6) without changing the answer.  ``build_election`` turns the
padded instance into an election with one candidate per edge plus five
named candidates:

* ``p``, the target: rewriting at most k ballots makes ``p`` the Condorcet
  winner exactly when the graph has a vertex cover of size k.
* ``z``, the calibration candidate: its replacement score is exactly k, so
  the replacement rule picks ``p`` only on yes-instances.
* ``a``, ``b``, ``c``, the blockers: a cyclic near-tie keeping everyone
  else's score above k.

The election has one voter per vertex (ranking the candidates of incident
edges high) and tail voters that balance the blocker cycle and pin the
pairwise margins.  ``verify_reduction`` replays the whole argument on a
given instance: it checks the constructed tallies, compares the scores
against an independent exact vertex-cover solver (``vc_exact``), and checks
that ``p`` wins under the replacement rule exactly on yes-instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .core import Candidate, Election, PreferenceOrder
from .scores import _depth_first, replacement_score


class GraphParseError(ValueError):
    """Raised for malformed graph files."""


@dataclass(frozen=True)
class VcInstance:
    """An undirected graph with a cover budget.

    Vertices are 0..vertex_count-1; edges are normalized to sorted unique
    (u, v) pairs with u < v.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    budget: int

    def __post_init__(self) -> None:
        if self.vertex_count < 0 or self.budget < 0:
            raise ValueError("vertex count and budget must be non-negative")
        edges = tuple(sorted(set(tuple(sorted(e)) for e in self.edges)))
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= u < self.vertex_count or not 0 <= v < self.vertex_count:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range")

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def parse_dimacs(text: str, budget: int) -> VcInstance:
    """Parse a DIMACS-style graph: 'p edge N M' then M lines 'e u v' (1-based)."""
    vertex_count: int | None = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if vertex_count is not None:
                raise GraphParseError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"line {lineno}: expected 'p edge N M'")
            try:
                vertex_count, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: N and M must be integers") from None
        elif parts[0] == "e":
            if vertex_count is None:
                raise GraphParseError(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: endpoints must be integers") from None
            if u == v:
                raise GraphParseError(f"line {lineno}: self-loops are not allowed")
            if not 1 <= u <= vertex_count or not 1 <= v <= vertex_count:
                raise GraphParseError(f"line {lineno}: vertex out of range")
            edges.append((min(u, v) - 1, max(u, v) - 1))
        else:
            raise GraphParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    if vertex_count is None:
        raise GraphParseError("missing 'p edge N M' line")
    if len(edges) != declared:
        raise GraphParseError(f"declared {declared} edges but found {len(edges)}")
    return VcInstance(vertex_count, tuple(edges), budget)


def vc_exact(g: VcInstance) -> int:
    """Size of a minimum vertex cover, by branch and bound.

    The graph is one int of neighbours per vertex, and a search node is
    ``(acc, alive)``: the cover size so far and the int of vertices not yet
    removed.  A node first makes one pass over the vertices in index order;
    a live vertex with exactly one live neighbour has that neighbour join
    the cover, with no branch, because some minimum cover contains it.
    Then it branches on the lowest-index vertex of largest live degree:
    either that vertex joins the cover, or all of its neighbours do.  Each
    child is a new int, so nothing is undone on the way back.  Intended
    for the small instances the reduction tests use; the search is
    exponential in general.
    """
    n = g.vertex_count
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = sum(1 for ns in adj if ns)

    def expand(node: tuple[int, int], is_root: bool) -> Iterator[tuple[int, int]]:
        """Settle the leaves of a node, then branch on a maximum-degree
        vertex: it joins the cover, or its neighbours do."""
        nonlocal best
        acc, alive = node
        for v in range(n):
            ns = adj[v] & alive
            if alive >> v & 1 and ns and not ns & (ns - 1):
                alive &= ~ns
                acc += 1
        degree = [(adj[v] & alive).bit_count() if alive >> v & 1 else 0 for v in range(n)]
        top = max(degree, default=0)
        if not top:
            best = min(best, acc)
            return
        if acc + -(-sum(degree) // (2 * top)) >= best:
            return
        pick = degree.index(top)
        yield acc + 1, alive & ~(1 << pick)
        ns = adj[pick] & alive
        yield acc + top, alive & ~ns

    _depth_first(expand, (0, (1 << n) - 1))
    return best


@dataclass(frozen=True)
class RestrictedVcInstance:
    """A padded instance in the normal form the election builder needs.

    The padding appends stars: each star forces exactly one extra cover
    vertex (its centre), so the budget grows by the number of stars and the
    answer is preserved.  Isolated vertices of the source graph are dropped
    first; they never belong to a minimum cover.
    """

    instance: VcInstance
    source_budget: int
    removed_isolated: tuple[int, ...]
    star_leaf_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        n, k = self.instance.vertex_count, self.instance.budget
        if k != self.source_budget + len(self.star_leaf_counts):
            raise ValueError("budget must grow by one per padding star")
        if k < 2:
            raise ValueError("the construction needs a budget of at least 2")
        if n % 3 != 0:
            raise ValueError("vertex count must be divisible by 3")
        if n <= 3 * k + 6:
            raise ValueError("vertex count must exceed 3k + 6")
        if any(d == 0 for d in self.instance.degrees()):
            raise ValueError("isolated vertices are not allowed")
        if any(s < 1 for s in self.star_leaf_counts):
            raise ValueError("stars need at least one leaf")


def restrict(g: VcInstance) -> RestrictedVcInstance:
    """Pad an arbitrary instance into the builder's normal form.

    Keeps only non-isolated vertices, then appends one-leaf stars until the
    budget reaches 2, and finally one larger star sized so that the vertex
    count becomes the least multiple of 3 above 3k + 6.
    """
    keep = [v for v, d in enumerate(g.degrees()) if d > 0]
    removed = tuple(v for v, d in enumerate(g.degrees()) if d == 0)
    relabel = {v: i for i, v in enumerate(keep)}
    base_edges = [(relabel[u], relabel[v]) for u, v in g.edges]
    base_n = len(keep)

    stars = max(1, 2 - g.budget)
    budget = g.budget + stars
    pre = stars - 1
    grown = base_n + 2 * pre
    floor = max(3 * budget + 7, grown + 2)
    total = floor + (-floor) % 3
    leaves = total - grown - 1

    edges = list(base_edges)
    for i in range(pre):
        centre = base_n + 2 * i
        edges.append((centre, centre + 1))
    centre = grown
    for leaf in range(grown + 1, total):
        edges.append((centre, leaf))
    padded = VcInstance(total, tuple(edges), budget)
    return RestrictedVcInstance(padded, g.budget, removed, (1,) * pre + (leaves,))


@dataclass(frozen=True)
class ReductionElection:
    """The constructed election together with what every name stands for."""

    election: Election
    instance: RestrictedVcInstance
    candidate_roles: tuple[str, ...]
    voter_roles: tuple[str, ...]

    TARGET = "p"
    CALIBRATION = "z"
    BLOCKERS = ("a", "b", "c")


def build_election(r: RestrictedVcInstance) -> ReductionElection:
    """Build the election encoding the padded instance.

    One candidate per edge plus the five named ones, m = M + 5 total, and
    t = 2N - 3 voters: one per vertex and N - 3 tail voters.  Edge
    candidates appear in every ballot in a rotating order, shifted by one
    per voter, which spreads the edge-versus-edge margins so evenly that no
    edge candidate can be salvaged within the budget.  Vertex voters rank
    their incident edges just above ``p`` (so each edge candidate beats
    ``p`` by exactly one vote, fixable by rewriting one endpoint voter) and
    the blocker trio on top, cycling through the three rotations so each
    blocker stays one third of the electorate ahead of the next.  Tail
    voters complete the blocker balance and set ``z`` apart: z tops the
    ballot of N - k - 1 voters and comes last for the rest, making its
    replacement score exactly k.
    """
    g = r.instance
    n_vertices = g.vertex_count
    m_edges = len(g.edges)
    k = g.budget
    t = 2 * n_vertices - 3

    names = [f"y{j + 1}" for j in range(m_edges)] + ["a", "b", "c", "p", "z"]
    candidates = tuple(Candidate(i, name) for i, name in enumerate(names))
    a, b, c, p, z = range(m_edges, m_edges + 5)
    trio_orders = ((a, b, c), (b, c, a), (c, a, b))

    incident: list[set[int]] = [set() for _ in range(n_vertices)]
    for j, (u, v) in enumerate(g.edges):
        incident[u].add(j)
        incident[v].add(j)

    def edge_cycle(voter_index: int) -> list[int]:
        # Voter r in each block of M voters starts the rotation one edge
        # earlier than voter r - 1, wrapping around.
        r_in_block = (voter_index - 1) % m_edges
        start = (m_edges - r_in_block) % m_edges
        return [(start + off) % m_edges for off in range(m_edges)]

    voters: list[str] = []
    roles: list[str] = []
    profile: list[PreferenceOrder] = []

    for i in range(1, n_vertices + 1):
        cycle = edge_cycle(i)
        own = incident[i - 1]
        trio = trio_orders[(i - 1) % 3]
        ballot = (
            list(trio)
            + [j for j in cycle if j in own]
            + [p]
            + [j for j in cycle if j not in own]
            + [z]
        )
        voters.append(f"x{i}")
        roles.append(f"vertex:{i - 1}")
        profile.append(PreferenceOrder(tuple(ballot)))

    patterns = (
        ((a, p, b, c), True, "pattern:a"),
        ((b, p, c, a), True, "pattern:b"),
        ((c, p, a, b), False, "pattern:c"),
    )
    for j in range(1, n_vertices - 3 + 1):
        cycle = edge_cycle(n_vertices + j)
        group, offset = divmod(j - 1, k - 2) if k > 2 else (3, j - 1)
        if group < 3:
            four, z_first, role = patterns[group]
        else:
            top_index = j - 3 * (k - 2)
            four = (p,) + trio_orders[(top_index - 1) % 3]
            z_first, role = True, "top:target"
        ballot = ([z] if z_first else []) + cycle + list(four) + ([] if z_first else [z])
        voters.append(f"t{j}")
        roles.append(role)
        profile.append(PreferenceOrder(tuple(ballot)))

    election = Election(candidates, tuple(voters), tuple(profile))
    candidate_roles = ("edge",) * m_edges + (
        "blocker",
        "blocker",
        "blocker",
        "target",
        "calibration",
    )
    assert election.n == t
    return ReductionElection(election, r, candidate_roles, tuple(roles))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of replaying the reduction argument on one instance.

    ``reduction`` is the election that was built and checked, so a caller
    can print exactly that election without building it again.
    """

    source: VcInstance
    reduction: ReductionElection = field(repr=False)
    budget: int
    original_cover: int
    restricted_cover: int
    calibration_score: int
    target_score: int | None
    expected_yes: bool
    target_wins: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [
            f"original instance: cover {self.original_cover}, budget {self.source.budget}",
            f"padded instance: cover {self.restricted_cover}, budget {self.budget}",
            f"calibration score: {self.calibration_score}",
            "target score: "
            + (f"{self.target_score}" if self.target_score is not None else f"above {self.budget}"),
            f"expected answer: {'yes' if self.expected_yes else 'no'}",
            f"target wins: {'yes' if self.target_wins else 'no'}",
        ]
        if self.failures:
            out.append("FAILED: " + "; ".join(self.failures))
        else:
            out.append("all checks passed")
        return out


def verify_reduction(g: VcInstance) -> ReductionReport:
    """Replay the reduction on ``g`` and check every promise it makes.

    Checks, against the independent exact cover solver: the padding
    preserves the answer and adds exactly one cover vertex per star; the
    constructed pairwise tallies are the advertised ones; the calibration
    candidate's replacement score equals the padded budget; the target's
    score stays within the budget exactly on yes-instances; every other
    candidate's score exceeds the budget; and the target is a replacement
    winner exactly on yes-instances.

    Exact scores for candidates other than the calibration one are never
    needed: budget-cutoff runs certify "above budget", and the calibration
    score pins the winning value.  Most cutoff runs are settled by the
    candidate's largest deficit alone, before any cover classes are built.

    The report carries the padded instance's election and its minimum cover
    (``reduction`` and ``restricted_cover``), so ``reduce --verify`` prints
    the checked election and builds nothing twice.
    """
    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        if not ok:
            failures.append(label)

    r = restrict(g)
    red = build_election(r)
    e = red.election
    k = r.instance.budget
    n_vertices = r.instance.vertex_count
    m_edges = len(r.instance.edges)
    t = e.n

    original_cover = vc_exact(g)
    restricted_cover = vc_exact(r.instance)
    expected_yes = original_cover <= g.budget
    check(
        restricted_cover == original_cover + len(r.star_leaf_counts),
        "padding must add exactly one cover vertex per star",
    )
    check(
        (restricted_cover <= k) == expected_yes,
        "padding must preserve the answer",
    )

    tally = e.tally
    a, b, c, p, z = range(m_edges, m_edges + 5)
    check(
        all(tally.counts[z][x] == n_vertices - k - 1 for x in range(e.m) if x != z),
        "calibration candidate must be ranked first by exactly N - k - 1 voters",
    )
    for j in range(m_edges):
        check(tally.counts[p][j] == n_vertices - 2, f"target must trail edge y{j + 1} by one")
        check(tally.counts[j][p] == n_vertices - 1, f"edge y{j + 1} must lead the target by one")
    for j in range(1, m_edges):
        check(
            tally.counts[j][j - 1] <= 6,
            f"rotation must keep y{j + 1} weak against y{j}",
        )
    third = t // 3
    check(
        tally.counts[a][b] == 2 * third
        and tally.counts[b][c] == 2 * third
        and tally.counts[c][a] == 2 * third,
        "blocker cycle must split the electorate in exact thirds",
    )

    calibration = replacement_score(e, z)
    check(calibration == k, "calibration score must equal the padded budget")
    target_cut = replacement_score(e, p, cutoff=k)
    check(
        (target_cut is not None) == (restricted_cover <= k),
        "target score must fit the budget exactly on yes-instances",
    )
    for x in range(e.m):
        if x in (p, z):
            continue
        cut = replacement_score(e, x, cutoff=k)
        check(cut is None, f"{e.candidate_names[x]} must score above the budget")

    # The replacement winners follow from the cutoff runs: the calibration
    # candidate realizes the budget, everyone else except possibly the
    # target exceeds it, so the winner set is determined by the target's
    # cutoff score alone.
    target_wins = target_cut is not None and target_cut <= calibration
    check(target_wins == expected_yes, "target must win exactly on yes-instances")

    return ReductionReport(
        source=g,
        reduction=red,
        budget=k,
        original_cover=original_cover,
        restricted_cover=restricted_cover,
        calibration_score=calibration,
        target_score=target_cut,
        expected_yes=expected_yes,
        target_wins=target_wins,
        failures=tuple(failures),
    )
