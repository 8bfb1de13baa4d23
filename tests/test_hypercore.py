from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergeham import (
    BergeCycle,
    Coloring,
    HyperParams,
    Violation,
    find_mono_berge,
    gen_coloring,
    pair_supersets,
    rank_edge,
    unrank_edge,
    verify_berge_cycle,
)
from bergeham.hypercore import edge_members, iter_colex_edges, pair_edges


def colex_less(a, b):
    """Independent colex comparator: compare the largest differing element."""
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


class TestRankUnrank:
    def test_first_subset(self):
        assert rank_edge((0, 1, 2), HyperParams(5, 3)) == 0

    def test_last_block_subset(self):
        # enumerate all C(5,3)=10 subsets and sort them colexicographically
        subs = list(combinations(range(5), 3))
        order = sorted(subs, key=lambda s: sum(comb(v, j + 1) for j, v in enumerate(s)))
        assert all(
            colex_less(order[i], order[i + 1]) for i in range(len(order) - 1)
        )
        assert order.index((2, 3, 4)) == 9
        assert rank_edge((2, 3, 4), HyperParams(5, 3)) == 9

    def test_pair_rank(self):
        assert rank_edge((0, 1), HyperParams(4, 2)) == 0

    def test_unrank_examples(self):
        assert unrank_edge(0, HyperParams(5, 3)) == (0, 1, 2)
        assert unrank_edge(9, HyperParams(5, 3)) == (2, 3, 4)
        assert unrank_edge(comb(6, 3) - 1, HyperParams(6, 3)) == (3, 4, 5)

    def test_iteration_matches_rank(self):
        p = HyperParams(7, 4)
        for t, e in enumerate(iter_colex_edges(7, 4)):
            assert rank_edge(e, p) == t
            assert unrank_edge(t, p) == e

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
    def test_roundtrip_full_small(self, nr):
        n, r = nr
        p = HyperParams(n, r)
        for t in range(p.edge_count):
            assert rank_edge(unrank_edge(t, p), p) == t

    @pytest.mark.parametrize("n,r", [(30, 7), (40, 5), (24, 12), (100, 3)])
    def test_roundtrip_sampled_large(self, n, r):
        p = HyperParams(n, r)
        assert p.edge_count <= 10**7
        step = max(1, p.edge_count // 997)
        for t in range(0, p.edge_count, step):
            assert rank_edge(unrank_edge(t, p), p) == t
        assert rank_edge(unrank_edge(p.edge_count - 1, p), p) == p.edge_count - 1

    def test_rank_rejects_bad_subsets(self):
        p = HyperParams(5, 3)
        with pytest.raises(ValueError):
            rank_edge((0, 1), p)
        with pytest.raises(ValueError):
            rank_edge((2, 1, 3), p)
        with pytest.raises(ValueError):
            rank_edge((0, 1, 5), p)

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_edge(10, HyperParams(5, 3))
        with pytest.raises(ValueError):
            unrank_edge(-1, HyperParams(5, 3))


class TestParams:
    def test_rejects_overflowing_edge_counts(self):
        with pytest.raises(ValueError):
            HyperParams(70, 35)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            HyperParams(3, 4)
        with pytest.raises(ValueError):
            HyperParams(5, 1)
        with pytest.raises(ValueError):
            HyperParams(5, 3, 0)
        with pytest.raises(ValueError):
            HyperParams(5, 3, 256)


class TestPairSupersets:
    def test_counts(self):
        assert len(pair_supersets(0, 1, HyperParams(6, 3))) == 4
        assert len(pair_supersets(0, 1, HyperParams(5, 4))) == 3

    def test_single_edge(self):
        p = HyperParams(4, 4)
        assert pair_supersets(0, 1, p) == [0]
        assert unrank_edge(0, p) == (0, 1, 2, 3)

    @given(
        st.integers(4, 10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(2, min(n, 6)),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            )
        )
    )
    @settings(max_examples=60)
    def test_count_formula(self, args):
        n, r, u, v = args
        if u == v:
            return
        p = HyperParams(n, r)
        edges = pair_supersets(u, v, p)
        assert len(edges) == comb(n - 2, r - 2)
        assert edges == sorted(edges)
        for t in edges:
            members = unrank_edge(t, p)
            assert u in members and v in members

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            pair_supersets(2, 2, HyperParams(5, 3))

    @pytest.mark.parametrize(
        "n,r", [(2, 2), (5, 2), (6, 3), (7, 4), (6, 6), (9, 5), (24, 5)]
    )
    def test_matches_rank_edge_reference(self, n, r):
        p = HyperParams(n, r)
        for u, v in [(0, 1), (n - 1, 0), (n // 2, n - 1)]:
            if u == v:
                continue
            rest = [w for w in range(n) if w not in (u, v)]
            expect = sorted(
                rank_edge(sorted((u, v) + extra), p)
                for extra in combinations(rest, r - 2)
            )
            assert pair_supersets(u, v, p) == expect


class TestMemberTable:
    def test_rows_are_unranked_edges(self):
        for n, r in [(2, 2), (6, 3), (7, 7), (9, 4)]:
            table = edge_members(n, r)
            assert table.shape == (comb(n, r), r)
            p = HyperParams(n, r)
            assert [tuple(row) for row in table.tolist()] == [
                unrank_edge(t, p) for t in range(p.edge_count)
            ]

    def test_read_only_and_shared(self):
        table = edge_members(6, 3)
        assert edge_members(6, 3) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1

    @pytest.mark.parametrize("n,r,k,seed", [(5, 2, 2, 0), (6, 3, 3, 1), (6, 6, 1, 2),
                                             (8, 4, 5, 3), (10, 3, 12, 4)])
    def test_pair_edges_match_unrank_reference(self, n, r, k, seed):
        p = HyperParams(n, r, k)
        coloring = gen_coloring(p, "random", seed=seed)
        for color in range(1, k + 1):
            expect = {pair: [] for pair in combinations(range(n), 2)}
            for t in range(p.edge_count):
                if coloring.colors[t] == color:
                    for pair in combinations(unrank_edge(t, p), 2):
                        expect[pair].append(t)
            got = pair_edges(coloring, color)
            assert got == expect
            assert list(got) == list(expect)

    def test_coloring_gains_no_attributes(self):
        coloring = gen_coloring(HyperParams(7, 3, 3), "random", seed=5)
        before = set(vars(coloring))
        find_mono_berge(coloring)
        assert set(vars(coloring)) == before


class TestColoringFormat:
    def test_roundtrip_bit_exact(self):
        p = HyperParams(5, 3, 2)
        c = Coloring(p, [1, 2] * 5)
        text = c.to_text()
        assert text == "5 3 2\n1 2 1 2 1 2 1 2 1 2\n"
        assert Coloring.from_text(text) == c

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            Coloring.from_text("5 3 2\n1 2 1\n")

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError):
            Coloring.from_text("4 3 2\n1 2 3 1\n")

    def test_header_whitespace_runs(self):
        body = " ".join(["1"] * 4) + "\n"
        expect = Coloring(HyperParams(4, 3, 1), [1] * 4)
        assert Coloring.from_text("4  3 1\n" + body) == expect
        assert Coloring.from_text("4\t3 \t1 \n" + body) == expect

    def test_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            Coloring.from_text("5 3\n" + " ".join(["1"] * 10) + "\n")

    def test_color_of(self):
        p = HyperParams(5, 3, 2)
        c = Coloring(p, [1, 2] * 5)
        assert c.color_of(0) == 1
        assert c.color_of(1) == 2
        with pytest.raises(ValueError):
            c.color_of(10)

    def test_colors_immutable(self):
        c = Coloring(HyperParams(4, 3, 1), [1] * 4)
        with pytest.raises(ValueError):
            c.colors[0] = 1


def square_cycle():
    """The n=4, r=3 example cycle: consecutive triples, all color 1."""
    p = HyperParams(4, 3, 1)
    coloring = Coloring(p, [1, 1, 1, 1])
    edges = tuple(
        rank_edge(tuple(sorted({i, (i + 1) % 4, (i + 2) % 4})), p) for i in range(4)
    )
    return coloring, BergeCycle((0, 1, 2, 3), edges, 1)


class TestVerifier:
    def test_valid_cycle(self):
        coloring, cycle = square_cycle()
        assert verify_berge_cycle(cycle, coloring) is None

    def test_duplicate_edge_position(self):
        coloring, cycle = square_cycle()
        edges = list(cycle.edges)
        edges[2] = edges[0]  # repeated at 1-based positions 1 and 3
        bad = verify_berge_cycle(BergeCycle(cycle.core, tuple(edges), 1), coloring)
        assert bad is not None
        assert bad.kind == "duplicate edge"
        assert bad.position == 3

    def test_broken_containment_position(self):
        coloring, cycle = square_cycle()
        p = coloring.params
        edges = list(cycle.edges)
        edges[1] = rank_edge((0, 1, 3), p)  # misses v_3 = 2
        bad = verify_berge_cycle(BergeCycle(cycle.core, tuple(edges), 1), coloring)
        assert bad is not None
        assert bad.kind == "containment"
        assert bad.position == 2

    def test_rotation_reflection_invariance(self):
        coloring, cycle = square_cycle()
        n = 4
        for s in range(n):
            core = cycle.core[s:] + cycle.core[:s]
            edges = cycle.edges[s:] + cycle.edges[:s]
            assert verify_berge_cycle(BergeCycle(core, edges, 1), coloring) is None
        core = tuple(reversed(cycle.core))
        edges = tuple(reversed(cycle.edges[: n - 1])) + (cycle.edges[n - 1],)
        assert verify_berge_cycle(BergeCycle(core, edges, 1), coloring) is None

    def test_small_color_class_rejected(self):
        p = HyperParams(4, 3, 2)
        coloring = Coloring(p, [1, 1, 1, 2])  # class 1 has 3 < 4 edges
        cycle = BergeCycle((0, 1, 2, 3), (0, 1, 2, 3), 1)
        bad = verify_berge_cycle(cycle, coloring)
        assert bad is not None
        assert bad.kind == "color class smaller than n"

    def test_core_not_permutation(self):
        coloring, cycle = square_cycle()
        bad = verify_berge_cycle(
            BergeCycle((0, 1, 1, 3), cycle.edges, 1), coloring
        )
        assert bad is not None
        assert bad.kind == "core not a permutation"
        assert bad.position == 3

    def test_dimension_mismatch_is_violation(self):
        coloring, cycle = square_cycle()
        short_core = BergeCycle((0, 1, 2), cycle.edges, 1)
        short_edges = BergeCycle(cycle.core, cycle.edges[:-1], 1)
        for bad in (short_core, short_edges):
            assert verify_berge_cycle(bad, coloring) == Violation("wrong length")

    def test_wrong_color_reported(self):
        # shadow-level cycle in K_4^2: one cycle edge recolored
        p = HyperParams(4, 2, 2)
        colors = [1] * 6
        mid = rank_edge((1, 2), p)
        colors[mid] = 2
        coloring = Coloring(p, colors)
        edges = tuple(rank_edge(tuple(sorted((i, (i + 1) % 4))), p) for i in range(4))
        bad = verify_berge_cycle(BergeCycle((0, 1, 2, 3), edges, 1), coloring)
        assert bad is not None
        assert bad.kind == "edge color"
        assert bad.position == 2
