import functools
import gc
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from bergeham import (
    Coloring,
    HyperParams,
    Violation,
    exhaustive_verify,
    find_mono_berge,
    gen_coloring,
    naive_oracle,
    paper_threshold,
    verify_berge_cycle,
)
from bergeham import harness
from bergeham.fixtures import case1_fixture
from bergeham.harness import SearchReport
from bergeham.hypercore import BergeCycle, edge_members, iter_colex_edges, pair_supersets
from conftest import NON_INTEGER_IDS, NON_INTEGERS, pair_edges
from test_differential import DRAWN_SPACES, SPACES


# find_mono_berge at (10,3,12), random seeds 0-9: (seed, verdict, color,
# core, edges, nodes, augmentations).  Verdict, color, core and edges were
# recorded before the candidate tables were read from the colex member table
# and have not changed since.  Nodes and augmentations were re-recorded when
# the matching moved into the backtracker: Hall pruning removes nodes, and an
# augmentation is now one augmenting-path attempt per search-tree edge.  Nodes
# include the subtrees walked under a held pair until a cycle closes.  They
# were re-recorded again when the look-ahead began to refuse the pairs whose
# unvisited vertices cannot each get two distinct class edges.
PINNED_10_3_12 = [
    (0, "found", 1, (0, 2, 1, 4, 3, 6, 5, 8, 9, 7), (5, 6, 27, 7, 23, 34, 76, 119, 106, 36), 11, 11),
    (1, "found", 4, (0, 4, 2, 3, 5, 6, 7, 1, 8, 9), (62, 43, 9, 14, 55, 52, 39, 58, 118, 87), 1145, 1814),
    (2, "found", 6, (0, 3, 2, 1, 4, 5, 6, 9, 7, 8), (87, 25, 58, 6, 70, 76, 103, 108, 79, 62), 43, 25),
    (3, "found", 3, (0, 1, 2, 4, 6, 7, 8, 9, 5, 3), (4, 3, 28, 54, 52, 79, 119, 104, 69, 2), 95, 57),
    (4, "found", 5, (0, 1, 4, 7, 8, 2, 3, 9, 6, 5), (20, 42, 54, 78, 57, 89, 115, 99, 31, 11), 51, 39),
    (5, "found", 4, (0, 3, 1, 2, 7, 8, 6, 4, 9, 5), (7, 24, 58, 43, 78, 71, 26, 92, 98, 10), 382, 591),
    (6, "found", 6, (0, 1, 2, 4, 3, 5, 7, 6, 9, 8), (0, 12, 18, 8, 69, 47, 54, 99, 114, 59), 29, 20),
    (7, "found", 7, (0, 1, 5, 2, 9, 3, 4, 8, 7, 6), (4, 31, 32, 85, 97, 29, 116, 80, 51, 30), 39, 23),
    (8, "found", 5, (0, 2, 1, 3, 9, 8, 4, 6, 5, 7), (11, 58, 14, 89, 118, 62, 26, 55, 45, 38), 72, 51),
    (9, "found", 1, (0, 1, 3, 6, 2, 8, 7, 9, 5, 4), (56, 88, 23, 25, 114, 80, 108, 96, 17, 16), 31, 33),
]


def coloring_from_digits(params, line):
    return Coloring(params, [int(x) for x in line.split()])


def dict_sdr(pools):
    """Distinct representatives as the exact decider chose them before it read
    a cached pair table: depth first, fewest options first."""
    order = sorted(range(len(pools)), key=lambda i: len(pools[i]))
    choice, used = {}, set()

    def place(j):
        if j == len(order):
            return True
        for e in pools[order[j]]:
            if e not in used:
                used.add(e)
                choice[order[j]] = e
                if place(j + 1):
                    return True
                used.remove(e)
                del choice[order[j]]
        return False

    return [choice[i] for i in range(len(pools))] if place(0) else None


def pair_edges_decide(coloring):
    """An exact decider whose pools come from `pair_edges`, built whole per
    color, not from the cached per-vertex edge bitmasks."""
    p = coloring.params
    n = p.n
    sizes = coloring.class_sizes()
    stages = {"skipped_colors": []}
    for color in range(1, p.k + 1):
        if int(sizes[color - 1]) < n:
            stages["skipped_colors"].append(color)
            continue
        lists = pair_edges(coloring, color)
        for perm in permutations(range(1, n)):
            if n > 2 and perm[0] > perm[-1]:
                continue
            core = (0,) + perm
            pools = [lists[tuple(sorted((core[i], core[(i + 1) % n])))] for i in range(n)]
            if not all(pools):
                continue
            sdr = dict_sdr(pools)
            if sdr is not None:
                cycle = BergeCycle(core, tuple(sdr), color)
                return SearchReport("found", color=color, cycle=cycle, stages=stages)
    return SearchReport("not-found", stages=stages)


@lru_cache(maxsize=None)
def decoded_sweep(params):
    """Reference sweep: counter m decoded by repeated divmod, edge 0 most
    significant, each coloring decided by the oracle on its own, with no
    prefix tree.  Returns the success count and every failing coloring in
    counter order; each shape is swept once per test session."""
    success, failures = 0, []
    for m in range(params.k ** params.edge_count):
        digits = []
        for _ in range(params.edge_count):
            m, d = divmod(m, params.k)
            digits.append(d + 1)
        digits.reverse()
        if naive_oracle(Coloring(params, digits)).verdict == "found":
            success += 1
        else:
            failures.append(" ".join(map(str, digits)))
    return success, failures


class TestPaperThreshold:
    def test_exact_values(self):
        assert paper_threshold(5) == 145350
        assert paper_threshold(3) == 1188
        assert paper_threshold(2) == 96

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            paper_threshold(1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            paper_threshold(40)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            paper_threshold(bad)


class TestFindMonoBerge:
    def test_uniform_found(self):
        p = HyperParams(5, 4, 1)
        report = find_mono_berge(gen_coloring(p, "uniform"))
        assert report.verdict == "found"
        assert report.color == 1
        assert verify_berge_cycle(report.cycle, gen_coloring(p, "uniform")) is None

    def test_single_edge_hypergraph(self):
        p = HyperParams(4, 4, 2)
        report = find_mono_berge(gen_coloring(p, "uniform"))
        assert report.verdict == "not-found"

    def test_small_classes_skip_search(self):
        p = HyperParams(5, 3, 2)
        # 10 edges split 4/6: class 1 can never reach 5... class 2 can
        coloring = Coloring(p, [1] * 4 + [2] * 6)
        report = find_mono_berge(coloring)
        assert report.stages["colors"][1] == "class too small"

    def test_non_hamiltonian_support_stage(self):
        # color 1 never covers vertex 5, so its support graph has no cycle
        p = HyperParams(6, 3, 2)
        coloring = Coloring(p, [2 if 5 in e else 1 for e in iter_colex_edges(6, 3)])
        report = find_mono_berge(coloring)
        assert report.stages["colors"] == {
            1: "support graph not Hamiltonian",
            2: "found",
        }
        assert report.verdict == "found" and report.color == 2

    def test_all_cores_exhausted_stage(self):
        # color 1 reaches vertex 4 through the single edge {0,1,4}; the
        # support graph is Hamiltonian, but every core needs two distinct
        # color-1 edges at vertex 4
        p = HyperParams(5, 3, 2)
        ones = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)}
        coloring = Coloring(
            p, [1 if e in ones else 2 for e in iter_colex_edges(5, 3)]
        )
        report = find_mono_berge(coloring)
        assert report.stages["colors"] == {1: "all cores exhausted", 2: "found"}
        assert report.verdict == "found" and report.color == 2

    def test_parked_colors_go_to_the_constructive_pipeline(self):
        coloring = case1_fixture()
        report = find_mono_berge(coloring, budget=0)
        assert set(report.stages["colors"].values()) == {"budget exhausted"}
        # the first color's root node spends the budget; no later color starts
        assert report.nodes == 1
        assert report.stages["constructive"] == "found"
        assert report.verdict == "found"
        assert verify_berge_cycle(report.cycle, coloring) is None

    def test_parked_colors_without_a_pipeline_stay_undecided(self):
        # k = 12 is not r - 1, so no constructive attempt is possible
        coloring = gen_coloring(HyperParams(10, 3, 12), "random", seed=1)
        report = find_mono_berge(coloring, budget=5)
        assert "budget exhausted" in report.stages["colors"].values()
        assert (report.nodes, report.augmentations) == (4, 3)
        assert report.verdict == "undecided"
        assert report.stages["constructive"] == "unavailable"

    @pytest.mark.parametrize("bad", NON_INTEGERS + [-1], ids=NON_INTEGER_IDS + ["-1"])
    def test_rejects_a_bad_budget(self, bad):
        coloring = gen_coloring(HyperParams(7, 3, 2), "random", seed=1)
        with pytest.raises(ValueError):
            find_mono_berge(coloring, budget=bad)
        zero = find_mono_berge(coloring, budget=0).to_json()
        assert find_mono_berge(coloring, budget=np.int64(0)).to_json() == zero

    @pytest.mark.parametrize("pin", PINNED_10_3_12, ids=lambda pin: f"seed{pin[0]}")
    def test_pinned_reports(self, pin):
        seed, verdict, color, core, edges, nodes, aug = pin
        report = find_mono_berge(gen_coloring(HyperParams(10, 3, 12), "random", seed=seed))
        assert (report.verdict, report.color) == (verdict, color)
        assert (report.cycle.core, report.cycle.edges) == (core, edges)
        assert (report.nodes, report.augmentations) == (nodes, aug)

    def test_found_cycles_always_verify(self):
        rng = random.Random(73)
        p = HyperParams(6, 3, 2)
        for _ in range(30):
            c = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
            report = find_mono_berge(c)
            if report.verdict == "found":
                assert verify_berge_cycle(report.cycle, c) is None

    def test_report_json(self):
        import json

        p = HyperParams(5, 4, 1)
        report = find_mono_berge(gen_coloring(p, "uniform"))
        blob = report.to_json()
        assert json.loads(json.dumps(blob))["verdict"] == "found"


class TestNaiveOracle:
    def test_square_found(self):
        p = HyperParams(4, 3, 1)
        assert naive_oracle(gen_coloring(p, "uniform")).verdict == "found"

    def test_small_classes_not_found(self):
        p = HyperParams(5, 4, 2)
        coloring = Coloring(p, [1, 1, 1, 2, 2])
        assert naive_oracle(coloring).verdict == "not-found"

    def test_rejects_large_n(self):
        p = HyperParams(10, 3, 1)
        with pytest.raises(ValueError):
            naive_oracle(gen_coloring(p, "uniform"))

    def test_same_reports_as_the_pair_edges_decider(self):
        # the shapes with more colors draw most of the not-found colorings
        rng = random.Random(909)
        not_found = 0
        for n, r, k in SPACES + DRAWN_SPACES:
            p = HyperParams(n, r, k)
            for _ in range(20):
                c = Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
                got = naive_oracle(c)
                assert got.to_json() == pair_edges_decide(c).to_json(), c.to_text()
                not_found += got.verdict == "not-found"
        assert not_found >= 20

    @pytest.mark.parametrize("n, r", [(5, 3), (6, 4), (7, 3), (8, 4)])
    def test_vertex_masks_mark_every_edge_on_each_vertex(self, n, r):
        p = HyperParams(n, r)
        vm = harness._vertex_masks(n, r)
        expect = [0] * n
        for t, edge in enumerate(iter_colex_edges(n, r)):
            for x in edge:
                expect[x] |= 1 << t
        assert vm == tuple(expect)
        # a pair's pool is the set bits of both masks, low to high
        for u, v in combinations(range(n), 2):
            both = vm[u] & vm[v]
            assert [t for t in range(p.edge_count) if both >> t & 1] == pair_supersets(u, v, p)
        assert harness._vertex_masks(n, r) is vm

    def test_vertex_masks_across_a_chunk_seam(self):
        # C(26,5) = 65 780 edges: the packer's second chunk starts at edge
        # 65 536, so bits 65 520-65 551 straddle the seam
        p = HyperParams(26, 5, 1)
        members = edge_members(26, 5)
        vm = harness._vertex_masks(26, 5)
        assert [m.bit_count() for m in vm] == [comb(25, 4)] * 26
        for t in range(65520, 65552):
            assert [x for x in range(26) if vm[x] >> t & 1] == members[t].tolist()
        for u, v in [(0, 1), (3, 17), (12, 25), (24, 25)]:
            both = bin(vm[u] & vm[v])[:1:-1]  # lowest bit first
            assert [t for t, bit in enumerate(both) if bit == "1"] == pair_supersets(u, v, p)
        # a k = 1 class is the whole member table, packed the same way
        pools = harness._ClassPools(26, *Coloring(p, [1] * p.edge_count).class_members(1))
        assert pools.vm == list(vm)
        assert pools[(3, 17)] == pair_supersets(3, 17, p)

    def test_agreement_with_search(self):
        rng = random.Random(79)
        p = HyperParams(7, 3, 2)
        for _ in range(200):
            c = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
            fast = find_mono_berge(c)
            slow = naive_oracle(c)
            assert fast.verdict != "undecided"
            assert fast.verdict == slow.verdict


def _slow_decider(log, n, r, allowed, _real=harness._berge_cycle):
    """The exact decider, logging each call to the file `log` and taking 20 ms
    longer; module-level, so pool workers forked from a test can run it."""
    with open(log, "a") as fh:
        fh.write("x")
    time.sleep(0.02)
    return _real(n, r, allowed)


class TestExhaustiveVerify:
    def test_single_uniform_coloring(self):
        rep = exhaustive_verify(HyperParams(4, 3, 1))
        assert (rep.total, rep.success, rep.failure) == (1, 1, 0)

    def test_n_equals_r_never_succeeds(self):
        rep = exhaustive_verify(HyperParams(4, 4, 2))
        assert rep.total == 2
        assert rep.success == 0

    def test_5_4_3_counts(self):
        rep = exhaustive_verify(HyperParams(5, 4, 3))
        assert (rep.total, rep.success, rep.failure) == (243, 3, 240)

    def test_5_3_3_counts_and_counterexamples(self):
        # find_mono_berge shares no decision code with the exact decider
        p = HyperParams(5, 3, 3)
        rep = exhaustive_verify(p)
        assert (rep.total, rep.success, rep.failure) == (59049, 34299, 24750)
        assert len(rep.counterexamples) == 100
        for line in rep.counterexamples:
            assert find_mono_berge(coloring_from_digits(p, line)).verdict == "not-found"

    @pytest.fixture
    def built(self, monkeypatch):
        """The argument tuples of every `Coloring` the harness builds."""
        built = []

        def counted(*args):
            built.append(args)
            return Coloring(*args)

        monkeypatch.setattr(harness, "Coloring", counted)
        return built

    def test_sweep_makes_a_coloring_only_for_a_found_cycle(self, built):
        # each of the 3 successes is a leaf of the prefix tree; color 3's root
        # subtree is color 2's with the two colors swapped, and once 100
        # counterexamples are kept its success is counted without a walk
        rep = exhaustive_verify(HyperParams(5, 4, 3))
        assert (rep.success, len(built)) == (3, 2)

    def test_success_subtrees_counted_in_bulk(self, built):
        # one coloring per success subtree checks the subtree's cycle
        rep = exhaustive_verify(HyperParams(6, 4, 2))
        assert (rep.success, rep.failure) == (32768, 0)
        assert len(built) < rep.success // 20

    def test_7_5_2_counts(self):
        # 2^21 colorings, all with a cycle; a plain sweep takes about a minute
        rep = exhaustive_verify(HyperParams(7, 5, 2))
        assert (rep.total, rep.success, rep.failure) == (2097152, 2097152, 0)

    @pytest.mark.parametrize("shape", [(12, 3, 1), (30, 4, 1)])
    def test_one_coloring_decided_directly(self, shape, monkeypatch):
        # a walk would call the decider on every prefix of the coloring's
        # edges and recurse once per edge: the range takes one direct
        # decision, whose one color is one decider call, and no walk
        calls = {"_decide_exact": 0, "_berge_cycle": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(harness, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(harness, name, spy)
        rep = exhaustive_verify(HyperParams(*shape))
        assert (rep.total, rep.success, rep.failure) == (1, 1, 0)
        assert calls == {"_decide_exact": 1, "_berge_cycle": 1}

    def test_one_coloring_shards_match_one_shard(self):
        p = HyperParams(5, 4, 3)
        one = exhaustive_verify(p).to_json()
        each = exhaustive_verify(p, shards=243).to_json()
        assert each["shard_ranges"] == [[m, m + 1] for m in range(243)]
        del one["shard_ranges"], each["shard_ranges"]
        assert each == one

    def test_shard_invariance_small(self):
        p = HyperParams(4, 3, 2)
        one = exhaustive_verify(p, shards=1)
        many = exhaustive_verify(p, shards=5)
        assert (one.total, one.success, one.failure) == (
            many.total,
            many.success,
            many.failure,
        )
        assert one.counterexamples == many.counterexamples

    def test_counterexamples_lex_smallest_and_refail(self):
        p = HyperParams(5, 4, 3)
        rep = exhaustive_verify(p)
        assert len(rep.counterexamples) == 100
        assert rep.counterexamples[0] == "1 1 1 1 2"
        for line in rep.counterexamples[:5]:
            assert naive_oracle(coloring_from_digits(p, line)).verdict == "not-found"

    def test_infeasible_rejected_with_estimate(self, monkeypatch):
        # (5,3,3)'s walk spends 4 004 units (3 335 nodes and 669 decider
        # calls): a budget one short refuses the shard, the exact one admits it
        monkeypatch.setattr(harness, "SWEEP_BUDGET", 4003)
        with pytest.raises(ValueError) as err:
            exhaustive_verify(HyperParams(5, 3, 3))
        assert str(err.value).startswith(
            "a (5,3,3) sweep shard passed the 4003-unit sweep budget")
        monkeypatch.setattr(harness, "SWEEP_BUDGET", 4004)
        rep = exhaustive_verify(HyperParams(5, 3, 3))
        assert (rep.success, rep.failure) == (34299, 24750)

    def test_cap_decided_without_the_power(self, monkeypatch):
        # past n = 7 a sweep keeps the coloring cap: 2^27405 is never built,
        # nor any table
        def no_table(n, r):
            raise AssertionError("a mask table was built")

        monkeypatch.setattr(harness, "_vertex_masks", no_table)
        with pytest.raises(ValueError) as err:
            exhaustive_verify(HyperParams(30, 4, 2))
        assert str(err.value) == (
            f"2^{comb(30, 4)} colorings exceed the 5000000-coloring cap on sweeps "
            "with n > 7; narrow the parameters")

    @pytest.mark.parametrize("shape", [(8, 2, 2), (9, 3, 2), (10, 2, 2), (12, 3, 2)])
    def test_large_n_refused_without_a_table(self, shape, monkeypatch):
        # a decider call may try (n-1)!/2 cores, past the 360 of n = 7 where
        # the budget's unit was timed, so these are refused before any walk
        def no_table(n, r):
            raise AssertionError("a mask table was built")

        monkeypatch.setattr(harness, "_vertex_masks", no_table)
        p = HyperParams(*shape)
        with pytest.raises(ValueError) as err:
            exhaustive_verify(p, shards=3)
        assert str(err.value).startswith(f"2^{p.edge_count} colorings exceed the "
                                         "5000000-coloring cap on sweeps with n > 7")

    @pytest.mark.parametrize("shape, success", [((8, 7, 2), 2), ((9, 8, 3), 3), ((8, 8, 6), 0)])
    def test_large_n_under_the_cap_swept(self, shape, success):
        # C(n, n-1) = n edges: only a one-color coloring has a cycle
        p = HyperParams(*shape)
        rep = exhaustive_verify(p, shards=3)
        assert (rep.total, rep.success) == (p.k ** p.edge_count, success)

    def test_memo_starts_afresh_when_full(self, monkeypatch):
        # a memo of 16 answers repeats decider calls but keeps every count
        # and counterexample
        made = [0]

        def spy(*args, _real=harness._berge_cycle):
            made[0] += 1
            return _real(*args)

        p = HyperParams(5, 3, 3)
        full = exhaustive_verify(p).to_json()
        monkeypatch.setattr(harness, "_berge_cycle", spy)
        monkeypatch.setattr(harness, "SWEEP_MEMO", 16)
        assert exhaustive_verify(p).to_json() == full
        assert made[0] > self.MEMO_CALLS[(5, 3, 3)]

    def test_pooled_refusal_cancels_the_shards_not_started(self, tmp_path, monkeypatch):
        # under a 64-unit budget each of the 64 shards of (5,3,3) is refused
        # after at most 64 decider calls, which take 20 ms each here; the
        # refusal reaches the caller and most shards never start
        log = tmp_path / "calls"
        monkeypatch.setattr(harness, "_berge_cycle", functools.partial(_slow_decider, log))
        monkeypatch.setattr(harness, "SWEEP_BUDGET", 64)
        with pytest.raises(ValueError, match="sweep shard passed the 64-unit"):
            exhaustive_verify(HyperParams(5, 3, 3), shards=64, workers=2)
        assert 1 <= len(log.read_text()) <= 64 * 16

    def test_monotone_under_extra_color(self):
        # a failing k-coloring read with an unused extra color still fails
        p2 = HyperParams(5, 4, 2)
        p3 = HyperParams(5, 4, 3)
        failing = "1 1 1 1 2"
        assert naive_oracle(coloring_from_digits(p2, failing)).verdict == "not-found"
        assert naive_oracle(coloring_from_digits(p3, failing)).verdict == "not-found"

    @pytest.mark.parametrize(
        "shape", [(4, 3, 2), (5, 4, 2), (5, 4, 3), (6, 4, 2), (5, 3, 2), (6, 5, 2), (5, 3, 3)]
    )
    @pytest.mark.parametrize("shards", [1, 3])
    def test_counter_order_matches_a_divmod_decoder(self, shape, shards):
        p = HyperParams(*shape)
        success, failures = decoded_sweep(p)
        rep = exhaustive_verify(p, shards=shards)
        assert (rep.success, rep.failure) == (success, len(failures))
        assert rep.counterexamples == failures[: rep.MAX_STORED]

    @pytest.mark.parametrize("stored", [0, 1, 7])
    @pytest.mark.parametrize("shape", [(5, 3, 3), (5, 4, 3), (6, 5, 2)])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_relabelled_subtrees_keep_counterexamples(self, stored, shape, shards, monkeypatch):
        # a subtree with failures is reused only once the shard keeps
        # MAX_STORED counterexamples, so a smaller cap turns reuse on earlier
        monkeypatch.setattr(harness.ExhaustReport, "MAX_STORED", stored)
        p = HyperParams(*shape)
        success, failures = decoded_sweep(p)
        rep = exhaustive_verify(p, shards=shards)
        assert (rep.success, rep.failure) == (success, len(failures))
        assert rep.counterexamples == failures[:stored]

    # _berge_cycle calls of a serial sweep: (shape, calls at shards=1 of a
    # walk that reuses relabelled subtrees but keeps no memo, and the calls
    # at shards 1 and 3 of a walk that reuses no subtree and keeps no memo)
    DECIDER_CALLS = [
        ((4, 3, 2), 30, (30, 35)),
        ((5, 4, 2), 62, (62, 69)),
        ((5, 4, 3), 184, (363, 363)),
        ((6, 4, 2), 995, (1990, 2012)),
        ((5, 3, 2), 315, (630, 647)),
        ((6, 5, 2), 126, (126, 135)),
        ((5, 3, 3), 9999, (59700, 59700)),
        ((7, 5, 2), 3523, (7046, 7072)),
    ]
    # the calls at shards=1 with the shard's memo: one per distinct mask
    MEMO_CALLS = {
        (4, 3, 2): 15, (5, 4, 2): 31, (5, 4, 3): 31, (6, 4, 2): 995,
        (5, 3, 2): 315, (6, 5, 2): 63, (5, 3, 3): 669, (7, 5, 2): 3523,
    }

    @pytest.mark.parametrize("shape, calls, walked", DECIDER_CALLS)
    def test_relabelled_subtrees_save_decider_calls(self, shape, calls, walked, monkeypatch):
        # a whole subtree of a color unused by its prefix is counted from an
        # earlier unused color's walk; a shard-cut subtree is walked; a mask
        # the shard has already decided is answered from its memo
        made = [0]

        def spy(*args, _real=harness._berge_cycle):
            made[0] += 1
            return _real(*args)

        monkeypatch.setattr(harness, "_berge_cycle", spy)
        got = []
        for shards in (1, 3):
            made[0] = 0
            exhaustive_verify(HyperParams(*shape), shards=shards)
            got.append(made[0])
        assert got[0] == self.MEMO_CALLS[shape] <= calls
        assert all(now <= before for now, before in zip(got, walked))

    def test_pooled_sweep_matches_the_divmod_decoder(self):
        # shard bounds at 10922 and 21845 cut success subtrees
        p = HyperParams(6, 4, 2)
        success, failures = decoded_sweep(p)
        rep = exhaustive_verify(p, shards=3, workers=2)
        assert (rep.success, rep.failure) == (success, len(failures))
        assert rep.counterexamples == failures[: rep.MAX_STORED]

    @pytest.mark.parametrize(
        "shards, workers", [(0, 1), (2, 1), (10**12, 1), (1, 0), (1, -3)]
    )
    def test_bad_shards_and_workers_rejected(self, shards, workers):
        # (4,3,1) has exactly one coloring, so one shard is the only choice
        with pytest.raises(ValueError):
            exhaustive_verify(HyperParams(4, 3, 1), shards=shards, workers=workers)

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_non_integer_shards_and_workers_rejected(self, bad):
        # shards=True used to run one shard and workers=True one serial sweep
        for kwargs in ({"shards": bad}, {"workers": bad}):
            with pytest.raises(ValueError):
                exhaustive_verify(HyperParams(4, 3, 1), **kwargs)

    def test_pool_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process is started
        import concurrent.futures
        import os

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        p = HyperParams(6, 5, 2)
        serial = exhaustive_verify(p, shards=64)
        pooled = exhaustive_verify(p, shards=64, workers=64)
        # a pool of one process is the serial path, so a one-CPU host starts none
        cpus = min(64, os.cpu_count() or 1)
        assert sizes == ([cpus] if cpus > 1 else [])
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert exhaustive_verify(p, shards=64, workers=64).to_json() == serial.to_json()
        assert exhaustive_verify(p, workers=4).to_json() == exhaustive_verify(p).to_json()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert exhaustive_verify(p, shards=64, workers=64).to_json() == serial.to_json()
        assert sizes == [3]
        assert pooled.to_json() == serial.to_json()

    def test_workers_match_serial(self):
        p = HyperParams(5, 4, 3)
        serial = exhaustive_verify(p, shards=4)
        parallel = exhaustive_verify(p, shards=4, workers=2)
        assert serial.to_json() == parallel.to_json()


def test_sweep_oracle_and_search_leave_no_garbage():
    # the sweep's walk, the decider's distinct-representative search and the
    # backtracker's nested step leave no reference cycle, so with the
    # collector off nothing is left for it to find
    rng = random.Random(7)
    colorings = [
        Coloring(p, [rng.randint(1, p.k) for _ in range(p.edge_count)])
        for p in (HyperParams(6, 3, 2), HyperParams(7, 3, 3)) for _ in range(5)
    ]
    gc.collect()
    gc.disable()
    try:
        exhaustive_verify(HyperParams(6, 4, 2))
        exhaustive_verify(HyperParams(5, 3, 3))
        for coloring in colorings:
            naive_oracle(coloring)
            find_mono_berge(coloring)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCertificateStep:
    """Every cycle the search, the oracle and the sweep find passes
    `verify_berge_cycle`, reached through `harness`, before it is reported."""

    @pytest.fixture(autouse=True)
    def rejecting(self, monkeypatch):
        def reject(cycle, coloring):
            return Violation("containment", 1)

        monkeypatch.setattr(harness, "verify_berge_cycle", reject)

    def test_search(self):
        coloring = gen_coloring(HyperParams(6, 3, 1), "uniform")
        with pytest.raises(RuntimeError, match="^search produced an invalid cycle: containment"):
            find_mono_berge(coloring)

    def test_oracle(self):
        coloring = gen_coloring(HyperParams(6, 3, 1), "uniform")
        with pytest.raises(RuntimeError, match="^oracle produced an invalid cycle: containment"):
            naive_oracle(coloring)

    def test_sweep(self):
        with pytest.raises(RuntimeError, match="^sweep produced an invalid cycle: containment"):
            exhaustive_verify(HyperParams(5, 4, 3))

    def test_one_coloring_sweep_goes_through_the_oracle(self):
        with pytest.raises(RuntimeError, match="^oracle produced an invalid cycle: containment"):
            exhaustive_verify(HyperParams(5, 3, 1))


def test_oracle_builds_no_coloring(monkeypatch):
    # the oracle checks a found cycle on the coloring it was handed
    built = []

    def counted(*args):
        built.append(args)
        return Coloring(*args)

    coloring = gen_coloring(HyperParams(6, 3, 2), "uniform", color=2)
    monkeypatch.setattr(harness, "Coloring", counted)
    report = naive_oracle(coloring)
    assert (report.verdict, report.color, built) == ("found", 2, [])


@pytest.mark.parametrize("shape", [(5, 4, 3), (6, 5, 2), (5, 3, 3)])
def test_sweep_refuses_a_cycle_off_its_prefix(shape, monkeypatch):
    # a decider that, finding nothing on the prefix's edges, allows every
    # edge past j; a sweep checking its cycles only on the subtree's first
    # coloring, whose later edges all have color 1, would pass them and
    # count every coloring as a success (243/0 instead of 3/240 at (5,4,3))
    def past_j(n, r, allowed, _real=harness._berge_cycle):
        found = _real(n, r, allowed)
        if found is None:
            later = (1 << comb(n, r)) - (1 << allowed.bit_length())
            found = _real(n, r, allowed | later)
        return found

    monkeypatch.setattr(harness, "_berge_cycle", past_j)
    with pytest.raises(RuntimeError, match="^sweep produced an invalid cycle"):
        exhaustive_verify(HyperParams(*shape))


def test_sweep_decider_agrees_with_the_search_on_its_own_masks(monkeypatch):
    # every color mask the sweep's decider is asked about, as color 1 of a
    # 2-coloring: find_mono_berge, which shares no decision code with the
    # decider, tries color 1 first and finds it exactly when the decider does
    asked: dict = {}

    def spy(n, r, allowed, _real=harness._berge_cycle):
        found = _real(n, r, allowed)
        asked[(n, r, allowed)] = found is not None
        return found

    monkeypatch.setattr(harness, "_berge_cycle", spy)
    for shape, hi in [((5, 3, 3), 3**10), ((7, 5, 2), 2**21), ((6, 4, 3), 3**11)]:
        harness._sweep_range(HyperParams(*shape), 0, hi)
    distinct = Counter((n, r) for n, r, _ in asked)
    assert distinct == {(5, 3): 669, (7, 5): 3523, (6, 4): 1488}
    for (n, r, allowed), found in asked.items():
        p = HyperParams(n, r, 2)
        colors = [1 if allowed >> t & 1 else 2 for t in range(p.edge_count)]
        report = find_mono_berge(Coloring(p, colors))
        assert report.verdict != "undecided"
        assert (report.color == 1) == found, (n, r, allowed)


class TestGenColoring:
    def test_uniform(self):
        c = gen_coloring(HyperParams(5, 3, 2), "uniform", color=2)
        assert set(int(x) for x in c.colors) == {2}

    def test_digits_cycled(self):
        c = gen_coloring(HyperParams(5, 3, 2), "digits", digits="12")
        assert [int(x) for x in c.colors] == [1, 2] * 5

    def test_random_deterministic(self):
        p = HyperParams(6, 3, 3)
        a = gen_coloring(p, "random", seed=42)
        b = gen_coloring(p, "random", seed=42)
        assert a == b
        assert a != gen_coloring(p, "random", seed=43)

    @pytest.mark.parametrize("bad", NON_INTEGERS + [-1], ids=NON_INTEGER_IDS + ["-1"])
    def test_seed_must_be_a_nonnegative_integer(self, bad):
        # seed=True drew seed 1's coloring, and 1.5 or "1" raised numpy's
        # TypeError
        p = HyperParams(6, 3, 2)
        with pytest.raises(ValueError):
            gen_coloring(p, "random", seed=bad)
        assert gen_coloring(p, "random", seed=np.int64(1)) == gen_coloring(p, "random", seed=1)

    def test_vertex_partition(self):
        p = HyperParams(5, 3, 2)
        c = gen_coloring(p, "vertex-partition", classes=[1, 1, 2, 2, 2])
        for t, e in enumerate(iter_colex_edges(5, 3)):
            assert c.color_of(t) == (1 if min(e) <= 1 else 2)

    def test_bad_scheme_params(self):
        p = HyperParams(5, 3, 2)
        with pytest.raises(ValueError):
            gen_coloring(p, "nope")
        with pytest.raises(ValueError):
            gen_coloring(p, "digits", digits="13")  # 3 > k
        with pytest.raises(ValueError):
            gen_coloring(p, "uniform", color=3)
        with pytest.raises(ValueError):
            # vertex 4 is no edge's minimum, so its id colors no edge
            gen_coloring(p, "vertex-partition", classes=[1, 1, 1, 1, 3])
        with pytest.raises(ValueError):
            gen_coloring(p, "vertex-partition", classes=[1, 1])
        with pytest.raises(ValueError):
            gen_coloring(p, "vertex-partition", classes=[1, True, 2, 1, 2])
        for bad in NON_INTEGERS:
            with pytest.raises(ValueError):
                gen_coloring(p, "vertex-partition", classes=[1, 1, 1, 1, bad])
