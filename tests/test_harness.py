import random

import pytest

from bergeham import (
    Coloring,
    HyperParams,
    exhaustive_verify,
    find_mono_berge,
    gen_coloring,
    naive_oracle,
    paper_threshold,
    verify_berge_cycle,
)
from bergeham.hypercore import iter_colex_edges


# find_mono_berge at (10,3,12), random seeds 0-9: (seed, verdict, color,
# core, edges, nodes, augmentations).  Verdict, color, core and edges were
# recorded before the candidate tables were read from the colex member table
# and have not changed since.  Nodes and augmentations were re-recorded when
# the matching moved into the backtracker: Hall pruning removes nodes, and an
# augmentation is now one augmenting-path attempt per search-tree edge.
PINNED_10_3_12 = [
    (0, "found", 1, (0, 2, 1, 4, 3, 6, 5, 8, 9, 7), (5, 6, 27, 7, 23, 34, 76, 119, 106, 36), 11, 11),
    (1, "found", 4, (0, 4, 2, 3, 5, 6, 7, 1, 8, 9), (62, 43, 9, 14, 55, 52, 39, 58, 118, 87), 2134, 2599),
    (2, "found", 6, (0, 3, 2, 1, 4, 5, 6, 9, 7, 8), (87, 25, 58, 6, 70, 76, 103, 108, 79, 62), 102, 89),
    (3, "found", 3, (0, 1, 2, 4, 6, 7, 8, 9, 5, 3), (4, 3, 28, 54, 52, 79, 119, 104, 69, 2), 227, 190),
    (4, "found", 5, (0, 1, 4, 7, 8, 2, 3, 9, 6, 5), (20, 42, 54, 78, 57, 89, 115, 99, 31, 11), 1355, 1583),
    (5, "found", 4, (0, 3, 1, 2, 7, 8, 6, 4, 9, 5), (7, 24, 58, 43, 78, 71, 26, 92, 98, 10), 2422, 2763),
    (6, "found", 6, (0, 1, 2, 4, 3, 5, 7, 6, 9, 8), (0, 12, 18, 8, 69, 47, 54, 99, 114, 59), 46, 28),
    (7, "found", 7, (0, 1, 5, 2, 9, 3, 4, 8, 7, 6), (4, 31, 32, 85, 97, 29, 116, 80, 51, 30), 97, 92),
    (8, "found", 5, (0, 2, 1, 3, 9, 8, 4, 6, 5, 7), (11, 58, 14, 89, 118, 62, 26, 55, 45, 38), 1237, 1433),
    (9, "found", 1, (0, 1, 3, 6, 2, 8, 7, 9, 5, 4), (56, 88, 23, 25, 114, 80, 108, 96, 17, 16), 32, 33),
]


def coloring_from_digits(params, line):
    return Coloring(params, [int(x) for x in line.split()])


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

    def test_agreement_with_search(self):
        rng = random.Random(79)
        p = HyperParams(7, 3, 2)
        for _ in range(200):
            c = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
            fast = find_mono_berge(c)
            slow = naive_oracle(c)
            assert fast.verdict != "undecided"
            assert fast.verdict == slow.verdict


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

    def test_infeasible_rejected_with_estimate(self):
        with pytest.raises(ValueError) as err:
            exhaustive_verify(HyperParams(6, 3, 3))
        assert "3486784401" in str(err.value)

    def test_monotone_under_extra_color(self):
        # a failing k-coloring read with an unused extra color still fails
        p2 = HyperParams(5, 4, 2)
        p3 = HyperParams(5, 4, 3)
        failing = "1 1 1 1 2"
        assert naive_oracle(coloring_from_digits(p2, failing)).verdict == "not-found"
        assert naive_oracle(coloring_from_digits(p3, failing)).verdict == "not-found"

    def test_workers_match_serial(self):
        p = HyperParams(5, 4, 3)
        serial = exhaustive_verify(p, shards=4)
        parallel = exhaustive_verify(p, shards=4, workers=2)
        assert serial.to_json() == parallel.to_json()


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
            gen_coloring(p, "vertex-partition", classes=[1, 1])
