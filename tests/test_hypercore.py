from itertools import combinations
from math import comb

import numpy as np
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
from bergeham.hypercore import edge_members, iter_colex_edges

from conftest import NON_INTEGER_IDS, NON_INTEGERS, pair_edges


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
        # (16,4) has 1 820 edges, so its walk crosses a 1 024-row block seam
        for n, r in [(7, 4), (16, 4)]:
            p = HyperParams(n, r)
            walk = list(iter_colex_edges(n, r))
            assert walk == [tuple(row) for row in edge_members(n, r).tolist()]
            for t, e in enumerate(walk):
                assert rank_edge(e, p) == t
                assert unrank_edge(t, p) == e

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
    def test_roundtrip_full_small(self, nr):
        n, r = nr
        p = HyperParams(n, r)
        for t in range(p.edge_count):
            assert rank_edge(unrank_edge(t, p), p) == t

    @pytest.mark.parametrize(
        "n,r", [(30, 7), (40, 5), (60, 5), (24, 12), (100, 3), (300, 2)]
    )
    def test_roundtrip_sampled_large(self, n, r):
        p = HyperParams(n, r)
        assert p.edge_count <= 10**7
        table = edge_members(n, r)
        step = max(1, p.edge_count // 997)
        for t in [*range(0, p.edge_count, step), p.edge_count - 1]:
            assert rank_edge(unrank_edge(t, p), p) == t
            assert tuple(table[t].tolist()) == unrank_edge(t, p)

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

    @pytest.mark.parametrize("bad", NON_INTEGERS + [2.5], ids=NON_INTEGER_IDS + ["2.5"])
    def test_rejects_non_integers(self, bad):
        # a float n raised TypeError in comb, and a float or bool k was accepted
        for args in [(bad, 3), (6, bad), (6, 3, bad)]:
            with pytest.raises(ValueError, match="must be integers"):
                HyperParams(*args)
        assert HyperParams(np.int64(5), np.uint8(3), np.int32(2)).edge_count == 10


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


# (5,3,2): vertices in [0, 5), edge indices in [0, 10), colors in [1, 2].
# Each public entry taking one index, with one out-of-range value for it.
P532 = HyperParams(5, 3, 2)
C532 = Coloring(P532, [1, 2] * 5)
INDEX_ENTRIES = {
    "rank_edge": (lambda x: rank_edge((0, x, 2), P532), 5),
    "unrank_edge": (lambda x: unrank_edge(x, P532), 10),
    "pair_supersets": (lambda x: pair_supersets(x, 2, P532), -1),
    "color_of": (lambda x: C532.color_of(x), 10),
    "class_members": (lambda x: C532.class_members(x), 0),
}
OUT_OF_RANGE = object()  # stands for the entry's own out-of-range value


@pytest.mark.parametrize("entry", INDEX_ENTRIES)
@pytest.mark.parametrize("bad", NON_INTEGERS + [OUT_OF_RANGE],
                         ids=NON_INTEGER_IDS + ["out-of-range"])
def test_index_entries_reject_non_integers_and_out_of_range(entry, bad):
    # a bool or float compared equal to 1 and was answered as if it were one
    call, out_of_range = INDEX_ENTRIES[entry]
    with pytest.raises(ValueError):
        call(out_of_range if bad is OUT_OF_RANGE else bad)
    call(np.int64(1))  # numpy integers pass


def test_index_entries_keep_their_integer_results():
    assert rank_edge((0, np.int64(1), 2), P532) == rank_edge((0, 1, 2), P532) == 0
    assert unrank_edge(np.uint8(9), P532) == unrank_edge(9, P532) == (2, 3, 4)
    assert pair_supersets(np.int32(1), 2, P532) == pair_supersets(1, 2, P532) == [0, 3, 6]
    assert C532.color_of(np.int64(3)) == C532.color_of(3) == 2
    assert C532.class_members(np.int64(2))[0].tolist() == [1, 3, 5, 7, 9]


class TestMemberTable:
    def test_rows_are_unranked_edges(self):
        for n, r in [(2, 2), (6, 3), (7, 7), (9, 4), (300, 2)]:
            table = edge_members(n, r)
            assert table.shape == (comb(n, r), r)
            assert table.dtype == (np.uint8 if n <= 256 else np.uint16)
            p = HyperParams(n, r)
            assert [tuple(row) for row in table.tolist()] == [
                unrank_edge(t, p) for t in range(p.edge_count)
            ]

    @pytest.mark.parametrize(
        "n,r",
        [(2.5, 2), (3, 5), (4, 0), (1, 1), (6, 1.0), (6.0, 3), ("3", 2), (True, 2),
         (70, 35)],
    )
    def test_rejects_what_params_reject(self, n, r):
        # iter_colex_edges(2.5, 2) and (3, 5) never stopped, (4, 0) raised
        # IndexError; only next() is called, so such a walk cannot hang here
        edge_members(6, 3)  # a cached table must not answer for (6.0, 3)
        with pytest.raises(ValueError):
            HyperParams(n, r)
        with pytest.raises(ValueError):
            edge_members(n, r)
        with pytest.raises(ValueError):
            next(iter_colex_edges(n, r))

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

    def test_two_digit_ids_written_as_per_element_str(self):
        # `to_text` joins the ids of `colors.tolist()`; the bytes are those of
        # str(int(c)) per numpy element, and they read back to the coloring
        c = gen_coloring(HyperParams(8, 3, 12), "random", seed=3)
        assert max(c.colors) >= 10
        per_element = " ".join(str(int(x)) for x in c.colors)
        text = c.to_text()
        assert text.encode() == f"8 3 12\n{per_element}\n".encode()
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

    @pytest.mark.parametrize(
        "colors",
        [
            np.array([257, 1, 2, 1]),  # 1 once narrowed to uint8
            [256, 1, 1, 1],
            [-1, 1, 1, 1],
            [0, 1, 1, 1],
            [3, 1, 1, 1],
            np.array([2**64 - 1, 1, 1, 1], dtype=np.uint64),
            [1.0, 2.0, 1.0, 1.0],
            [1.5, 1, 1, 1],
            [True, True, True, True],
            ["1", "2", "1", "1"],
            [2**70, 1, 1, 1],  # beyond int64: an object array
            [1, 1, 1],
            [[1, 1], [1, 1]],
            1,
        ],
    )
    def test_rejects_anything_but_a_row_of_colors(self, colors):
        with pytest.raises(ValueError):
            Coloring(HyperParams(4, 3, 2), colors)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int64])
    def test_keeps_a_copy_of_its_own(self, dtype):
        given = np.array([1, 2, 1, 2], dtype=dtype)
        view = given[:]
        c = Coloring(HyperParams(4, 3, 2), given)
        assert given.flags.writeable
        view[0] = 2
        assert c.colors.tolist() == [1, 2, 1, 2]
        assert c.colors.dtype == np.uint8 and not c.colors.flags.writeable


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

    @pytest.mark.parametrize("vertex", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_non_integer_core_vertex_is_not_a_permutation(self, vertex):
        coloring, cycle = square_cycle()
        core = (0, vertex, 2, 3)
        bad = verify_berge_cycle(BergeCycle(core, cycle.edges, 1), coloring)
        assert bad == Violation("core not a permutation", 2)

    @pytest.mark.parametrize("color", NON_INTEGERS[:-1], ids=NON_INTEGER_IDS[:-1])
    def test_non_integer_color_is_out_of_range(self, color):
        coloring, cycle = square_cycle()
        bad = verify_berge_cycle(BergeCycle(cycle.core, cycle.edges, color), coloring)
        assert bad == Violation("color id out of range")

    def test_float_core_and_color_rejected(self):
        coloring = Coloring(HyperParams(4, 3, 1), [1] * 4)
        cycle = BergeCycle((0, 1.0, 2, 3), (0, 3, 2, 1), 1.0)
        assert verify_berge_cycle(cycle, coloring) == Violation("core not a permutation", 2)
        # integers of either kind pass, and a color of None claims none
        for core, color in (((0, 1, 2, 3), 1), (tuple(np.arange(4)), np.int64(1)),
                            ((0, 1, 2, 3), None)):
            fixed = BergeCycle(core, (0, 3, 2, 1), color)
            assert verify_berge_cycle(fixed, coloring) is None

    # every kind in NON_INTEGERS, and two integers out of range
    @pytest.mark.parametrize("edge", [1.5, 0.0, np.float64(2.0), "1", None, True, -1, 4])
    def test_non_integer_edge_is_out_of_range(self, edge):
        # 0.0 equals edge 0 at position 1, and True once read the member
        # table as a mask: the range check comes first
        coloring, cycle = square_cycle()
        edges = (cycle.edges[0], edge) + cycle.edges[2:]
        bad = verify_berge_cycle(BergeCycle(cycle.core, edges, 1), coloring)
        assert bad == Violation("edge index out of range", 2)

    def test_numpy_ints_verify_and_bools_are_out_of_range(self):
        coloring, cycle = square_cycle()
        as_numpy = tuple(np.int64(e) for e in cycle.edges)
        assert verify_berge_cycle(BergeCycle(cycle.core, as_numpy, 1), coloring) is None
        for flag in (False, True):
            edges = (cycle.edges[0], flag) + cycle.edges[2:]
            bad = verify_berge_cycle(BergeCycle(cycle.core, edges, 1), coloring)
            assert bad == Violation("edge index out of range", 2)

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
