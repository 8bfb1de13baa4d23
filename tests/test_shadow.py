import json
import random
from itertools import combinations
from math import comb

import pytest

from bergeham import (
    Coloring,
    Graph,
    HyperParams,
    avoids,
    bad_edge_graph,
    color_degree,
    find_avoiding_set,
    find_hamiltonian_cycle,
    minimal_breaking_subgraph,
    partition_trq,
    u_sets,
)
from bergeham.hypercore import iter_colex_edges, rank_edge
from bergeham.shadow import ColorProfile, default_degree_bound


def uniform(n, r, k=2, color=1):
    p = HyperParams(n, r, k)
    return Coloring(p, [color] * p.edge_count)


def striped(n, r, k):
    p = HyperParams(n, r, k)
    return Coloring(p, [1 + t % k for t in range(p.edge_count)])


class TestGoodColors:
    def test_uniform_threshold_two(self):
        prof = ColorProfile(uniform(6, 3), good_threshold=2)
        assert prof.good_colors(0, 1) == {1}

    def test_single_off_color_superset(self):
        # exactly one superset of {0,1} is color 2, the rest color 1
        p = HyperParams(6, 3, 2)
        colors = [1] * p.edge_count
        colors[rank_edge((0, 1, 2), p)] = 2
        c = Coloring(p, colors)
        assert ColorProfile(c, good_threshold=2).good_colors(0, 1) == {1}
        assert ColorProfile(c, good_threshold=1).good_colors(0, 1) == {1, 2}

    def test_rejects_equal_endpoints(self):
        prof = ColorProfile(uniform(6, 3))
        with pytest.raises(ValueError):
            prof.good_colors(1, 1)

    def test_monotone_under_recoloring(self):
        # turning one more hyperedge to color i never shrinks the good set for i
        rng = random.Random(11)
        p = HyperParams(7, 3, 2)
        for _ in range(25):
            colors = [rng.randint(1, 2) for _ in range(p.edge_count)]
            base = ColorProfile(Coloring(p, colors), good_threshold=2)
            t = rng.randrange(p.edge_count)
            bumped = list(colors)
            bumped[t] = 2
            after = ColorProfile(Coloring(p, bumped), good_threshold=2)
            for u, v in combinations(range(7), 2):
                before_good = 2 in base.good_colors(u, v)
                if before_good:
                    assert 2 in after.good_colors(u, v)


class TestColorDegree:
    def test_uniform_degrees(self):
        c = uniform(6, 3)
        assert color_degree(0, 1, c) == comb(5, 2) == 10
        assert color_degree(0, 2, c) == 0

    def test_degrees_partition_incident_edges(self):
        c = striped(5, 3, 2)
        assert color_degree(0, 1, c) + color_degree(0, 2, c) == comb(4, 2) == 6

    def test_profile_agrees_with_direct_count(self):
        c = striped(6, 3, 3)
        prof = ColorProfile(c)
        for x in range(6):
            for i in (1, 2, 3):
                assert prof.color_degree(x, i) == color_degree(x, i, c)

    def test_out_of_range(self):
        c = uniform(5, 3)
        with pytest.raises(ValueError):
            color_degree(5, 1, c)
        with pytest.raises(ValueError):
            color_degree(0, 3, c)


class TestUSets:
    def test_uniform_single_color(self):
        prof = ColorProfile(uniform(6, 3), good_threshold=2)
        U, Ub = u_sets(0, [1], prof)
        assert U == frozenset(range(1, 6))
        assert Ub == frozenset()
        U, Ub = u_sets(0, [2], prof)
        assert U == frozenset()
        assert Ub == frozenset(range(1, 6))

    def test_intersection_semantics(self):
        prof = ColorProfile(uniform(6, 3), good_threshold=2)
        U, Ub = u_sets(0, [1, 2], prof)
        assert U == frozenset()  # color 2 is never good
        assert Ub == frozenset()  # color 1 is always good

    def test_singleton_partitions(self):
        rng = random.Random(3)
        p = HyperParams(7, 3, 2)
        for _ in range(10):
            c = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
            prof = ColorProfile(c)
            for x in range(7):
                for i in (1, 2):
                    U, Ub = u_sets(x, [i], prof)
                    assert U | Ub == frozenset(set(range(7)) - {x})
                    assert not U & Ub

    def test_empty_color_set_rejected(self):
        prof = ColorProfile(uniform(5, 3))
        with pytest.raises(ValueError):
            u_sets(0, [], prof)


class TestAvoidance:
    def test_empty_color_set_vacuous(self):
        prof = ColorProfile(uniform(6, 3))
        assert avoids([], [], prof)
        assert avoids([0, 1], [], prof)

    def test_zero_degree_blocks(self):
        prof = ColorProfile(uniform(6, 3))
        assert avoids([0], [2], prof)  # d_2(0) = 0 <= C(12,2)

    def test_high_degree_no_pair(self):
        prof = ColorProfile(uniform(6, 3))
        assert not avoids([0], [1], prof, d_bound=3)  # d_1(0)=10 > 3, no pair

    def test_find_empty(self):
        prof = ColorProfile(uniform(6, 3, k=3))
        assert find_avoiding_set([], prof) == frozenset()

    def test_find_single_vertex_suffices(self):
        prof = ColorProfile(uniform(6, 3, k=3))
        got = find_avoiding_set([2, 3], prof)
        assert got is not None
        assert len(got) <= 3
        assert avoids(got, [2, 3], prof)

    def test_greedy_failure_cross_checked(self):
        # uniform coloring, d_bound 0: color 1 saturates every vertex and is
        # good on every pair, so nothing can avoid it -- greedy reports absent
        # and exhaustive search over small subsets agrees
        prof = ColorProfile(uniform(6, 3))
        assert find_avoiding_set([1], prof, d_bound=0) is None
        n = prof.params.n
        for size in range(0, 3):  # |P|+1 = 2
            for S in combinations(range(n), size):
                assert not avoids(S, [1], prof, d_bound=0)

    def test_greedy_result_always_valid(self):
        rng = random.Random(5)
        p = HyperParams(7, 3, 3)
        for _ in range(20):
            c = Coloring(p, [rng.randint(1, 3) for _ in range(p.edge_count)])
            prof = ColorProfile(c, good_threshold=1)
            P = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
            bound = rng.choice([0, 1, default_degree_bound(3)])
            got = find_avoiding_set(P, prof, d_bound=bound)
            if got is not None:
                assert len(got) <= len(P) + 1
                assert avoids(got, P, prof, d_bound=bound)


class TestPartitionTRQ:
    def test_empty_graph(self):
        part = partition_trq(Graph(5))
        assert part.T == frozenset(range(5))
        assert part.R == frozenset()
        assert part.Q == frozenset()

    def test_complete_graph(self):
        part = partition_trq(Graph.complete(5))
        assert part.R == frozenset(range(5))

    def test_star(self):
        part = partition_trq(Graph(5, [(0, i) for i in range(1, 5)]))
        assert part.R == frozenset({0})
        assert part.Q == frozenset({1, 2, 3, 4})
        assert part.T == frozenset()

    def test_threshold_is_exact_integer(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(3, 9)
            g = Graph(
                n,
                [
                    (u, v)
                    for u, v in combinations(range(n), 2)
                    if rng.random() < 0.4
                ],
            )
            part = partition_trq(g)
            assert part.T | part.R | part.Q == frozenset(range(n))
            for v in part.T:
                assert g.degree(v) == 0
            for v in part.R:
                assert 2 * g.degree(v) >= n - 1
            for v in part.Q:
                assert 0 < g.degree(v) and 2 * g.degree(v) < n - 1

    def test_json_dump(self):
        part = partition_trq(Graph(3, [(0, 1)]))
        assert json.loads(json.dumps(part.to_json())) == part.to_json()


class TestBadEdgeGraph:
    def test_uniform_extremes(self):
        prof = ColorProfile(uniform(6, 3), good_threshold=2)
        assert bad_edge_graph(1, prof).edge_count() == 0
        assert bad_edge_graph(2, prof).edge_count() == comb(6, 2)

    def test_single_bad_pair_fixture(self):
        # color 2 appears on every pair except {0,1}
        p = HyperParams(6, 3, 2)
        colors = [
            1 if (0 in e and 1 in e) else 2 for e in iter_colex_edges(6, 3)
        ]
        prof = ColorProfile(Coloring(p, colors), good_threshold=1)
        w2 = bad_edge_graph(2, prof)
        assert sorted(w2.edges()) == [(0, 1)]

    def test_matches_good_colors_pointwise(self):
        c = striped(6, 3, 3)
        prof = ColorProfile(c)
        for i in (1, 2, 3):
            w = bad_edge_graph(i, prof)
            for u, v in combinations(range(6), 2):
                assert w.has_edge(u, v) == (i not in prof.good_colors(u, v))


class TestMinimalBreakingSubgraph:
    def brute_minimum(self, n, bad_edges):
        complete = Graph.complete(n)
        for size in range(len(bad_edges) + 1):
            for S in combinations(bad_edges, size):
                if find_hamiltonian_cycle(complete.without_edges(S)) is None:
                    return frozenset(S)
        return None

    def test_k5_all_bad(self):
        prof = ColorProfile(uniform(5, 3), good_threshold=2)
        got = minimal_breaking_subgraph(2, prof)
        assert got is not None
        S, gi, gic = got
        assert S == self.brute_minimum(5, sorted(bad_edge_graph(2, prof).edges()))
        assert len(S) == 3
        assert S == frozenset({(0, 1), (0, 2), (0, 3)})
        assert find_hamiltonian_cycle(gic) is None
        for u, v in S:
            assert gi.degree(u) + gi.degree(v) >= 4

    def test_k4_all_bad(self):
        prof = ColorProfile(uniform(4, 3), good_threshold=2)
        got = minimal_breaking_subgraph(2, prof)
        assert got is not None
        S, _, _ = got
        assert S == self.brute_minimum(4, sorted(bad_edge_graph(2, prof).edges()))
        assert len(S) == 2

    def test_precondition_failure(self):
        prof = ColorProfile(uniform(5, 3), good_threshold=2)
        with pytest.raises(ValueError):
            minimal_breaking_subgraph(1, prof)  # W_1 empty, K_5 Hamiltonian

    def test_budget_exhaustion_returns_none(self):
        prof = ColorProfile(uniform(5, 3), good_threshold=2)
        assert minimal_breaking_subgraph(2, prof, budget=2) is None


class TestProfileStats:
    def test_lstar_stats_json(self):
        prof = ColorProfile(striped(6, 3, 2))
        stats = prof.lstar_stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["pairs"] == comb(6, 2)
