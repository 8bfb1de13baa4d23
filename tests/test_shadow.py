import random
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from bergeham import (
    Coloring,
    HyperParams,
    avoids,
    bad_edge_graph,
    gen_coloring,
)
from bergeham.hypercore import iter_colex_edges, rank_edge
from bergeham.shadow import (
    _PROFILE_BLOCK,
    ColorProfile,
    _greedy_avoiding,
    default_degree_bound,
)
from conftest import NON_INTEGER_IDS, NON_INTEGERS, color_degree


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

    # None is absent: it asks for the default threshold r-1
    @pytest.mark.parametrize("bad", NON_INTEGERS[:-1] + [1.5, 0],
                             ids=NON_INTEGER_IDS[:-1] + ["1.5", "0"])
    def test_threshold_must_be_a_positive_integer(self, bad):
        # 1.5 used to act as a threshold of 2
        with pytest.raises(ValueError):
            ColorProfile(uniform(6, 3), good_threshold=bad)
        prof = ColorProfile(uniform(6, 3), good_threshold=np.int64(2))
        assert prof.good_colors(0, 1) == {1}

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
        # brute-force pair and vertex counts from the colex edge list, at
        # r = 2, r = n and paper-sized shapes, against every profile query;
        # (17,5) fills less than one counting block and (18,5) spills past it
        assert comb(17, 5) < _PROFILE_BLOCK < comb(18, 5)
        colorings = [striped(6, 3, 3)] + [
            gen_coloring(HyperParams(*shape), "random", seed=7)
            for shape in [(6, 2, 3), (5, 5, 2), (12, 5, 4), (17, 5, 4), (18, 5, 4),
                          (24, 5, 4)]
        ]
        for c in colorings:
            n, r, k = c.params.n, c.params.r, c.params.k
            pairs = Counter()
            degrees = Counter()
            for e, color in zip(iter_colex_edges(n, r), c.colors.tolist()):
                pairs.update((u, v, color) for u, v in combinations(e, 2))
                degrees.update((x, color) for x in e)
            for x in range(n):
                for i in range(1, k + 1):
                    assert color_degree(x, i, c) == degrees[x, i]
            for threshold in (1, 2, 3):
                prof = ColorProfile(c, good_threshold=threshold)
                assert prof._ubar.shape == (n, k)
                good = {(u, v, i) for (u, v, i), m in pairs.items() if m >= threshold}
                for u, v in combinations(range(n), 2):
                    expect = {i for i in range(1, k + 1) if (u, v, i) in good}
                    assert prof.good_colors(u, v) == prof.good_colors(v, u) == expect
                    for i in range(1, k + 1):
                        assert prof.is_good(u, v, i) == (i in expect)
                        assert prof.is_good(v, u, i) == (i in expect)
                for x in range(n):
                    for i in range(1, k + 1):
                        assert prof.color_degree(x, i) == degrees[x, i]
                        ubar = {
                            y for y in range(n)
                            if y != x and (min(x, y), max(x, y), i) not in good
                        }
                        assert prof.ubar_set(x, i) == ubar
                        assert prof.ubar_size(x, i) == prof._ubar[x, i - 1] == len(ubar)

    def test_out_of_range(self):
        c = uniform(5, 3)
        with pytest.raises(ValueError):
            color_degree(5, 1, c)
        with pytest.raises(ValueError):
            color_degree(0, 3, c)


RANGE_COLORING = gen_coloring(HyperParams(7, 3, 3), "random", seed=1)
BAD_QUERIES = {
    "is_good-color-0": lambda p: p.is_good(0, 1, 0),
    "is_good-color-k+1": lambda p: p.is_good(0, 1, 4),
    "is_good-vertex-n": lambda p: p.is_good(0, 7, 1),
    "is_good-vertex-negative": lambda p: p.is_good(-1, 1, 1),
    "is_good-equal-endpoints": lambda p: p.is_good(2, 2, 1),
    "good_colors-vertex-n": lambda p: p.good_colors(7, 0),
    "good_colors-vertex-negative": lambda p: p.good_colors(0, -1),
    "ubar_set-color-0": lambda p: p.ubar_set(0, 0),
    "ubar_set-vertex-n": lambda p: p.ubar_set(7, 1),
    "ubar_size-vertex-negative": lambda p: p.ubar_size(-1, 1),
    "ubar_size-color-k+1": lambda p: p.ubar_size(0, 4),
    "color_degree-vertex-negative": lambda p: p.color_degree(-1, 1),
}
# a bool would read as a numpy mask and a float as numpy's IndexError
for bad, name in zip(NON_INTEGERS, NON_INTEGER_IDS):
    BAD_QUERIES.update({
        f"is_good-vertex-{name}": lambda p, bad=bad: p.is_good(bad, 2, 1),
        f"is_good-color-{name}": lambda p, bad=bad: p.is_good(0, 1, bad),
        f"good_colors-vertex-{name}": lambda p, bad=bad: p.good_colors(0, bad),
        f"ubar_set-vertex-{name}": lambda p, bad=bad: p.ubar_set(bad, 2),
        f"ubar_size-color-{name}": lambda p, bad=bad: p.ubar_size(0, bad),
        f"color_degree-color-{name}": lambda p, bad=bad: p.color_degree(0, bad),
        f"bad_edge_graph-color-{name}": lambda p, bad=bad: bad_edge_graph(bad, p),
    })


@pytest.mark.parametrize("query", BAD_QUERIES.values(), ids=BAD_QUERIES.keys())
def test_profile_queries_reject_bad_vertex_or_color(query):
    # a negative vertex or color would otherwise index from the end of the table
    with pytest.raises(ValueError):
        query(ColorProfile(RANGE_COLORING))


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
        # nothing to cover: the set is padded with the smallest vertex
        prof = ColorProfile(uniform(6, 3, k=3))
        assert _greedy_avoiding([], prof, default_degree_bound(3), frozenset(), 1) == [0]

    def test_find_single_vertex_suffices(self):
        prof = ColorProfile(uniform(6, 3, k=3))
        got = _greedy_avoiding([2, 3], prof, default_degree_bound(3), frozenset(), 3)
        assert got is not None
        assert len(got) <= 3
        assert avoids(got, [2, 3], prof)

    def test_greedy_failure_cross_checked(self):
        # uniform coloring, d_bound 0: color 1 saturates every vertex and is
        # good on every pair, so nothing can avoid it -- greedy reports absent
        # and exhaustive search over small subsets agrees
        prof = ColorProfile(uniform(6, 3))
        assert _greedy_avoiding([1], prof, 0, frozenset(), 2) is None
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
            got = _greedy_avoiding(P, prof, bound, frozenset(), len(P) + 1)
            if got is not None:
                assert len(got) <= len(P) + 1
                assert avoids(got, P, prof, d_bound=bound)


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
