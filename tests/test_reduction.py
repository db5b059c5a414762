"""Tests for the vertex-cover machinery and the election construction."""

from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest

import brute
from votedist import (
    Election,
    GraphParseError,
    ReductionElection,
    ReductionReport,
    RestrictedVcInstance,
    VcInstance,
    build_election,
    pairwise_tally,
    parse_dimacs,
    replacement_score,
    restrict,
    vc_exact,
    verify_reduction,
)

K3 = VcInstance(3, ((0, 1), (1, 2), (0, 2)), 2)
P4 = VcInstance(4, ((0, 1), (1, 2), (2, 3)), 2)


def random_graph(rng, n: int, p: float, budget: int = 0) -> VcInstance:
    edges = tuple(
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    )
    return VcInstance(n, edges, budget)


class TestVcInstance:
    def test_normalizes_edges(self):
        g = VcInstance(3, ((2, 1), (1, 2), (0, 2)), 1)
        assert g.edges == ((0, 2), (1, 2))
        assert g.degrees() == [1, 1, 2]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            VcInstance(3, ((1, 1),), 0)
        with pytest.raises(ValueError):
            VcInstance(3, ((0, 3),), 0)
        with pytest.raises(ValueError):
            VcInstance(-1, (), 0)


class TestParseDimacs:
    def test_happy_path(self):
        text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"
        g = parse_dimacs(text, 2)
        assert g == K3

    def test_blank_lines_and_comments_skipped(self):
        g = parse_dimacs("\nc x\n\np edge 2 1\n\ne 1 2\n", 0)
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2\n",
            "p edge 2 1\np edge 2 1\ne 1 2\n",
            "p edge 2\ne 1 2\n",
            "p graph 2 1\ne 1 2\n",
            "p edge two 1\n",
            "p edge 2 1\ne 1 two\n",
            "p edge 2 1\ne 1\n",
            "p edge 2 1\ne 1 1\n",
            "p edge 2 1\ne 1 3\n",
            "p edge 2 1\nq 1 2\n",
            "p edge 2 2\ne 1 2\n",
            "",
        ],
    )
    def test_rejects_malformed_input(self, text):
        with pytest.raises(GraphParseError):
            parse_dimacs(text, 0)

    def test_error_mentions_line_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_dimacs("c ok\np edge 2 1\ne 1 9\n", 0)


class TestVcExact:
    def test_all_four_vertex_graphs(self):
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(2 ** len(pairs)):
            edges = tuple(e for i, e in enumerate(pairs) if bits >> i & 1)
            g = VcInstance(4, edges, 0)
            assert vc_exact(g) == brute.vc_brute(4, edges)

    def test_random_larger_graphs(self, rng):
        for _ in range(25):
            g = random_graph(rng, 8, 0.4)
            assert vc_exact(g) == brute.vc_brute(8, g.edges)
        # Sparse graphs and forests are where degree-1 vertices settle
        # their neighbours without a branch.
        for _ in range(30):
            n = rng.randint(9, 16)
            g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.3, 0.4, 0.5)))
            assert vc_exact(g) == brute.vc_brute(n, g.edges)
        for _ in range(10):
            n = rng.randint(9, 16)
            forest = tuple((rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8)
            assert vc_exact(VcInstance(n, forest, 0)) == brute.vc_brute(n, forest)

    def test_known_values(self):
        assert vc_exact(K3) == 2
        assert vc_exact(P4) == 2
        assert vc_exact(VcInstance(5, (), 0)) == 0
        star = VcInstance(5, tuple((0, v) for v in range(1, 5)), 0)
        assert vc_exact(star) == 1

    def test_seeded_sparse_graphs_up_to_100_vertices(self):
        # n vertices and 2n distinct uniform edges; sparse enough that the
        # degree-1 pass keeps each search to milliseconds.
        for n, cover in ((40, 22), (60, 32), (80, 42), (100, 53)):
            rng = random.Random(1)
            edges: set[tuple[int, int]] = set()
            while len(edges) < 2 * n:
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            assert vc_exact(VcInstance(n, tuple(edges), 0)) == cover

    def test_deep_search_holds_no_frame_per_step(self):
        # 1,500 disjoint edges, more than Python's default recursion limit;
        # the degree-1 pass settles them all at the root.
        matching = VcInstance(3000, tuple((2 * i, 2 * i + 1) for i in range(1500)), 1500)
        assert vc_exact(matching) == 1500

    def test_deep_branching_holds_no_frame_per_level(self):
        # Each of 100 disjoint 4-cycles takes one branching level, then the
        # degree-1 pass settles the rest of that cycle.
        cycles = tuple(
            (4 * i + a, 4 * i + b) for i in range(100) for a, b in ((0, 1), (1, 2), (2, 3), (0, 3))
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            assert vc_exact(VcInstance(400, cycles, 0)) == 200
        finally:
            sys.setrecursionlimit(limit)


class TestRestrict:
    def test_triangle_normal_form(self):
        r = restrict(VcInstance(3, K3.edges, 1))
        assert r.source_budget == 1
        assert r.star_leaf_counts == (11,)
        assert r.removed_isolated == ()
        assert r.instance.budget == 2
        assert r.instance.vertex_count == 15
        assert vc_exact(r.instance) == 3

    def test_isolated_vertices_dropped_and_recorded(self):
        g = VcInstance(5, ((1, 3),), 1)
        r = restrict(g)
        assert r.removed_isolated == (0, 2, 4)
        assert r.instance.degrees()[0] >= 1

    def test_answer_preserved_on_random_instances(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7), 0.5, budget=rng.randint(0, 4))
            r = restrict(g)
            stars = len(r.star_leaf_counts)
            assert vc_exact(r.instance) == vc_exact(g) + stars
            assert r.instance.budget == g.budget + stars
            assert (vc_exact(g) <= g.budget) == (
                vc_exact(r.instance) <= r.instance.budget
            )

    def test_empty_graph(self):
        r = restrict(VcInstance(0, (), 0))
        assert r.instance.budget == 2
        assert vc_exact(r.instance) == 2

    def test_normal_form_is_validated(self):
        with pytest.raises(ValueError):
            RestrictedVcInstance(VcInstance(3, K3.edges, 2), 2, (), ())
        with pytest.raises(ValueError):
            RestrictedVcInstance(K3, 1, (), (1,))


class TestBuildElection:
    def setup_method(self):
        self.reduced = build_election(restrict(VcInstance(3, K3.edges, 1)))
        self.e = self.reduced.election

    def test_shape(self):
        g = self.reduced.instance.instance
        assert self.e.m == len(g.edges) + 5
        assert self.e.n == 2 * g.vertex_count - 3
        assert self.e.candidate_names[-5:] == ("a", "b", "c", "p", "z")
        assert ReductionElection.TARGET == "p"
        assert ReductionElection.CALIBRATION == "z"

    def test_roles_cover_everyone(self):
        assert len(self.reduced.candidate_roles) == self.e.m
        assert len(self.reduced.voter_roles) == self.e.n
        assert self.reduced.candidate_roles.count("edge") == self.e.m - 5
        assert self.reduced.voter_roles.count("top:target") > 0
        vertex_roles = [r for r in self.reduced.voter_roles if r.startswith("vertex:")]
        assert len(vertex_roles) == self.reduced.instance.instance.vertex_count

    def test_calibration_candidate_first_or_last(self):
        z = self.e.candidate_index("z")
        n_vertices = self.reduced.instance.instance.vertex_count
        k = self.reduced.instance.instance.budget
        first = sum(1 for ballot in self.e.profile if ballot.top() == z)
        last = sum(1 for ballot in self.e.profile if ballot.ranking[-1] == z)
        assert first == n_vertices - k - 1
        assert first + last == self.e.n

    def test_each_edge_beats_target_via_its_endpoints(self):
        g = self.reduced.instance.instance
        p = self.e.candidate_index("p")
        for j, (u, v) in enumerate(g.edges):
            above = [
                i
                for i in range(g.vertex_count)
                if self.e.ballot_of[f"x{i + 1}"].prefers(j, p)
            ]
            assert above == sorted((u, v))

    def test_tally_margins(self):
        g = self.reduced.instance.instance
        n_vertices = g.vertex_count
        tally = pairwise_tally(self.e)
        p = self.e.candidate_index("p")
        z = self.e.candidate_index("z")
        for j in range(len(g.edges)):
            assert tally.counts[j][p] == n_vertices - 1
            assert tally.counts[p][j] == n_vertices - 2
        for x in range(self.e.m):
            if x != z:
                assert tally.counts[z][x] == n_vertices - g.budget - 1

    def test_blocker_thirds(self):
        tally = pairwise_tally(self.e)
        a = self.e.candidate_index("a")
        b = self.e.candidate_index("b")
        c = self.e.candidate_index("c")
        third = self.e.n // 3
        assert tally.counts[a][b] == 2 * third
        assert tally.counts[b][c] == 2 * third
        assert tally.counts[c][a] == 2 * third

    def test_deterministic(self):
        again = build_election(restrict(VcInstance(3, K3.edges, 1)))
        assert again.election == self.e


class TestVerifyReduction:
    def test_triangle_no_instance(self):
        report = verify_reduction(VcInstance(3, K3.edges, 1))
        assert report.ok
        assert not report.expected_yes
        assert not report.target_wins
        assert report.original_cover == 2
        assert report.calibration_score == report.budget
        assert report.target_score is None

    def test_triangle_yes_instance(self):
        report = verify_reduction(K3)
        assert report.ok
        assert report.expected_yes
        assert report.target_wins
        assert report.target_score == report.budget

    def test_path_and_star(self):
        assert verify_reduction(VcInstance(4, P4.edges, 1)).ok
        assert verify_reduction(P4).ok
        star = VcInstance(5, tuple((0, v) for v in range(1, 5)), 1)
        report = verify_reduction(star)
        assert report.ok and report.expected_yes and report.target_wins

    def test_trivial_instances(self):
        assert verify_reduction(VcInstance(0, (), 0)).ok
        assert verify_reduction(VcInstance(2, (), 0)).ok
        lone_edge = VcInstance(2, ((0, 1),), 0)
        report = verify_reduction(lone_edge)
        assert report.ok and not report.expected_yes

    def test_report_lines(self):
        report = verify_reduction(K3)
        text = "\n".join(report.lines())
        assert "all checks passed" in text
        assert "calibration score" in text

    def test_report_failure_rendering(self):
        report = verify_reduction(K3)
        broken = ReductionReport(
            source=report.source,
            reduction=report.reduction,
            budget=report.budget,
            original_cover=report.original_cover,
            restricted_cover=report.restricted_cover,
            calibration_score=report.calibration_score,
            target_score=None,
            expected_yes=report.expected_yes,
            target_wins=report.target_wins,
            failures=("example failure",),
        )
        assert not broken.ok
        assert any("FAILED" in line for line in broken.lines())
        assert any("above" in line for line in broken.lines())

    def test_tallies_once(self, tally_calls):
        verify_reduction(K3)
        assert len(tally_calls) == 1

    def test_calibration_score_matches_direct_solver(self):
        reduced = build_election(restrict(K3))
        k = reduced.instance.instance.budget
        assert replacement_score(reduced.election, "z") == k
