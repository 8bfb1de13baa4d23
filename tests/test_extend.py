import random
from math import comb

import numpy as np
import pytest

from bergeham import (
    Coloring,
    HyperParams,
    build_candidates,
    extend_greedy_ordered,
    extend_matching,
    gen_coloring,
    pair_supersets,
    verify_berge_cycle,
)
from bergeham.extend import PrefixSDR, distinct_representatives
from bergeham.fixtures import case1_fixture, case2_fixture
from bergeham.harness import _sdr_search

from conftest import NON_INTEGER_IDS, NON_INTEGERS, as_mask, pair_edges
from test_construct import PINNED_CYCLES


def uniform(n, r, k=1):
    p = HyperParams(n, r, k)
    return Coloring(p, [1] * p.edge_count)


def sdr_brute(pools):
    """Independent exhaustive SDR decision (plain depth-first, no matching)."""

    def go(i, used):
        if i == len(pools):
            return True
        return any(e not in used and go(i + 1, used | {e}) for e in pools[i])

    return go(0, frozenset())


def representatives_unstopped(cands, work_counter):
    """Augmenting-path matching as it was before it stopped at the first
    unmatched position: every position gets its attempt."""
    owner = {}

    def augment(pos, visited):
        for e in cands[pos]:
            if e in visited:
                continue
            visited.add(e)
            if e not in owner or augment(owner[e], visited):
                owner[e] = pos
                return True
        return False

    for pos in range(len(cands)):
        work_counter[0] += 1
        augment(pos, set())
    if len(owner) < len(cands):
        return None
    return sorted(owner, key=owner.get)


def random_pools(rng):
    """Positions drawing from a small value range, so SDRs often fail."""
    m = rng.randint(1, 9)
    values = rng.randint(1, m + 2)
    return [
        sorted(rng.sample(range(values), rng.randint(0, min(values, 4))))
        for _ in range(m)
    ]


def random_table(rng):
    n = rng.randint(4, 8)
    p = HyperParams(n, 3, 2)
    coloring = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
    core = list(range(n))
    rng.shuffle(core)
    return build_candidates(tuple(core), rng.randint(1, 2), coloring)


class TestBuildCandidates:
    def test_counts_forced_small(self):
        table = build_candidates((0, 1, 2, 3), 1, uniform(4, 3))
        assert [len(c) for c in table.candidates] == [2, 2, 2, 2]

    def test_absent_color_gives_empty_lists(self):
        table = build_candidates((0, 1, 2, 3), 2, uniform(4, 3, k=2))
        assert all(not c for c in table.candidates)

    def test_three_candidates_each(self):
        table = build_candidates((0, 1, 2, 3, 4), 1, uniform(5, 4))
        assert [len(c) for c in table.candidates] == [3, 3, 3, 3, 3]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            build_candidates((0, 1, 2, 2), 1, uniform(4, 3))

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_rejects_non_integer_vertex_and_color(self, bad):
        coloring = uniform(4, 3)
        with pytest.raises(ValueError):
            build_candidates((0, bad, 2, 3), 1, coloring)
        with pytest.raises(ValueError):
            build_candidates((0, 1, 2, 3), bad, coloring)
        for color in (0, 2):  # k = 1
            with pytest.raises(ValueError):
                build_candidates((0, 1, 2, 3), color, coloring)
        table = build_candidates(tuple(np.arange(4)), np.int64(1), coloring)
        assert table.candidates == build_candidates((0, 1, 2, 3), 1, coloring).candidates

    @pytest.mark.parametrize("name, fixture", [("case1", case1_fixture), ("case2", case2_fixture)])
    def test_pinned_cores_read_pair_edges(self, name, fixture):
        # the constructive pipeline's own cores, at n = 12 and n = 24
        coloring = fixture()
        color, core, _ = PINNED_CYCLES[name]
        table = build_candidates(tuple(core), color, coloring)
        lists = pair_edges(coloring, color)
        pairs = zip(core, core[1:] + core[:1])
        assert table.candidates == [lists[min(u, v), max(u, v)] for u, v in pairs]

    def test_full_lists(self):
        # every pair lies in C(8,4) = 70 edges, all of color 1
        coloring = uniform(10, 6)
        table = build_candidates(tuple(range(10)), 1, coloring)
        assert [len(c) for c in table.candidates] == [comb(8, 4)] * 10
        pairs = zip(table.core, table.core[1:] + table.core[:1])
        for cands, (u, v) in zip(table.candidates, pairs):
            assert cands == pair_supersets(u, v, coloring.params)
        cycle = extend_matching(table)
        assert cycle is not None
        assert verify_berge_cycle(cycle, coloring) is None

    @pytest.mark.parametrize(
        "n,r,k,seed",
        [(6, 2, 2, 0), (7, 2, 3, 1), (5, 5, 1, 2), (6, 6, 1, 3), (8, 3, 4, 4),
         (9, 4, 5, 5), (10, 5, 3, 6), (12, 3, 24, 7), (24, 5, 4, 8)],
    )
    def test_lists_equal_filtered_supersets(self, n, r, k, seed):
        p = HyperParams(n, r, k)
        coloring = gen_coloring(p, "random", seed=seed)
        rng = random.Random(seed)
        for _ in range(3):
            core = list(range(n))
            rng.shuffle(core)
            color = rng.randint(1, k)
            table = build_candidates(tuple(core), color, coloring)
            for i in range(n):
                u, v = core[i], core[(i + 1) % n]
                expect = [
                    e for e in pair_supersets(u, v, p) if coloring.colors[e] == color
                ]
                assert table.candidates[i] == expect
                assert all(type(e) is int for e in table.candidates[i])


class TestMatching:
    def test_uniform_n5_r4_succeeds(self):
        coloring = uniform(5, 4)
        table = build_candidates((0, 1, 2, 3, 4), 1, coloring)
        cycle = extend_matching(table)
        assert cycle is not None
        assert verify_berge_cycle(cycle, coloring) is None

    def test_pigeonhole_three_edges(self):
        # only 3 hyperedges carry the target color; 4 positions cannot be distinct
        p = HyperParams(4, 3, 2)
        coloring = Coloring(p, [1, 1, 1, 2])
        table = build_candidates((0, 1, 2, 3), 1, coloring)
        assert extend_matching(table) is None

    def test_empty_position_fails(self):
        table = build_candidates((0, 1, 2, 3), 2, uniform(4, 3, k=2))
        assert extend_matching(table) is None

    def test_matches_brute_force_sdr(self):
        rng = random.Random(61)
        for _ in range(100):
            table = random_table(rng)
            got = extend_matching(table)
            expect = sdr_brute(table.candidates)
            assert (got is not None) == expect
            if got is not None:
                assert verify_berge_cycle(got, table.coloring) is None

    def test_rotation_invariance(self):
        rng = random.Random(67)
        for _ in range(40):
            table = random_table(rng)
            base = extend_matching(table) is not None
            n = len(table.core)
            s = rng.randrange(1, n)
            rotated = build_candidates(
                table.core[s:] + table.core[:s], table.color, table.coloring
            )
            assert (extend_matching(rotated) is not None) == base


class TestGreedyOrdered:
    def test_reserved_everywhere_is_identity(self):
        coloring = uniform(5, 4)
        table = build_candidates((0, 1, 2, 3, 4), 1, coloring)
        match = extend_matching(table)
        reserved = dict(enumerate(match.edges))
        got = extend_greedy_ordered(table, reserved)
        assert got is not None
        assert got.edges == match.edges

    def test_unreserved_small_square(self):
        coloring = uniform(4, 3)
        table = build_candidates((0, 1, 2, 3), 1, coloring)
        cycle = extend_greedy_ordered(table)
        assert cycle is not None
        assert verify_berge_cycle(cycle, coloring) is None

    def test_greedy_incomplete_where_matching_succeeds(self):
        # lowest-index choices exhaust the wraparound position on K_5^4
        coloring = uniform(5, 4)
        table = build_candidates((0, 1, 2, 3, 4), 1, coloring)
        assert extend_greedy_ordered(table) is None
        assert extend_matching(table) is not None

    def test_bad_reservation_rejected(self):
        coloring = uniform(4, 3, k=2)
        table = build_candidates((0, 1, 2, 3), 1, coloring)
        with pytest.raises(ValueError):
            extend_greedy_ordered(table, {0: 3})  # edge {1,2,3} misses v_1=0

    def test_duplicate_reservations_fail_soft(self):
        coloring = uniform(4, 3)
        table = build_candidates((0, 1, 2, 3), 1, coloring)
        e = table.candidates[0][0]
        assert e in table.candidates[1]  # {0,1,2} covers both (0,1) and (1,2)
        assert extend_greedy_ordered(table, {0: e, 1: e}) is None

    def test_greedy_success_implies_matching_success(self):
        rng = random.Random(71)
        for _ in range(80):
            table = random_table(rng)
            greedy = extend_greedy_ordered(table)
            if greedy is not None:
                assert extend_matching(table) is not None
                assert verify_berge_cycle(greedy, table.coloring) is None


class TestDistinctRepresentatives:
    def test_agrees_with_brute_force_and_unstopped_matching(self):
        rng = random.Random(83)
        saved = 0
        for _ in range(600):
            pools = random_pools(rng)
            now, before = [0], [0]
            got = distinct_representatives(pools, now)
            assert (got is None) == (_sdr_search(list(map(as_mask, pools))) is None)
            assert got == representatives_unstopped(pools, before)
            assert now[0] <= before[0]
            saved += before[0] - now[0]
        assert saved > 0  # some failures came before the last position


def pair_pools(rng, n):
    """Ascending edge lists for every pair of [0, n), from a random pool of
    hyperedges given as vertex sets."""
    edges = [set(rng.sample(range(n), 3)) for _ in range(rng.randint(n // 2, 2 * n))]
    return {
        (u, v): [t for t, e in enumerate(edges) if u in e and v in e]
        for u in range(n)
        for v in range(u + 1, n)
    }


class TestPrefixSDR:
    def test_push_and_pop_track_batch_matching(self):
        rng = random.Random(89)
        for _ in range(150):
            n = rng.randint(4, 8)
            lists = pair_pools(rng, n)
            work = [0]
            sdr = PrefixSDR(lists, work)
            held = []
            pushes = 0
            for _ in range(25):
                if held and rng.random() < 0.4:
                    sdr.pop()
                    held.pop()
                else:
                    u, v = rng.sample(range(n), 2)
                    pools = [lists[min(a, b), max(a, b)] for a, b in held + [(u, v)]]
                    before = sdr.representatives()
                    accepted = sdr.push(u, v)
                    pushes += 1
                    assert accepted == (_sdr_search(list(map(as_mask, pools))) is not None)
                    if accepted:
                        held.append((u, v))
                    else:
                        assert sdr.representatives() == before
                pools = [lists[min(a, b), max(a, b)] for a, b in held]
                assert sdr.cands == pools
                assert sdr.representatives() == distinct_representatives(pools)
            assert work[0] == pushes
