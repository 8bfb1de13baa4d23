import dataclasses
import gc
import hashlib
import json
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from bergeham import (
    Coloring,
    ColorProfile,
    GammaBuildError,
    HyperParams,
    Witness,
    avoids,
    build_gamma_case1,
    build_gamma_case2,
    constructive_find,
    default_degree_bound,
    naive_oracle,
    verify_berge_cycle,
    witness_search,
)
from bergeham import construct
from bergeham.construct import _edge_key, _repair_degrees
from bergeham.fixtures import case1_fixture, case2_fixture
from bergeham.graphs import Graph
from bergeham.harness import gen_coloring
from bergeham.hypercore import iter_colex_edges
from conftest import NON_INTEGER_IDS, NON_INTEGERS, random_graph


def uniform(n, r, k):
    p = HyperParams(n, r, k)
    return Coloring(p, [1] * p.edge_count)


def balanced_all_good(n=8, r=3, k=2):
    """Both colors present on every pair: with threshold 1 nothing is bad."""
    p = HyperParams(n, r, k)
    return Coloring(p, [1 + t % k for t in range(p.edge_count)])


class TestWitnessSearch:
    def test_uniform_r3_witness(self):
        prof = ColorProfile(uniform(8, 3, 2))
        w = witness_search(prof)
        assert w is not None
        assert w.f == 1  # maximal split for r = 3
        assert w.ubar_sizes == (7,)  # color 2 is bad everywhere
        assert w.original_color(2) == 2
        w.validate(prof)

    def test_dense_balanced_has_no_witness(self):
        coloring = balanced_all_good()
        prof = ColorProfile(coloring, good_threshold=1)
        # premise: every pair supports both colors
        for u, v in combinations(range(8), 2):
            assert prof.good_colors(u, v) == {1, 2}
        assert witness_search(prof) is None

    def test_needs_k_equal_r_minus_one(self):
        prof = ColorProfile(uniform(8, 3, 1))
        with pytest.raises(ValueError):
            witness_search(prof)

    def test_revalidation_and_tamper_detection(self):
        prof = ColorProfile(case1_fixture())
        w = witness_search(prof)
        w.validate(prof)
        broken = Witness(w.x, w.f, w.y, w.color_perm, tuple(s + 1 for s in w.ubar_sizes))
        with pytest.raises(ValueError):
            broken.validate(prof)
        swapped = Witness(w.x, w.f, (w.y[0],) * len(w.y), w.color_perm, w.ubar_sizes)
        with pytest.raises(ValueError):
            swapped.validate(prof)


class TestCase1:
    def test_fixture_bundle_shape(self):
        coloring = case1_fixture()
        prof = ColorProfile(coloring)
        w = witness_search(prof)
        assert w.f == coloring.params.r - 2
        bundle = build_gamma_case1(w, prof)
        bundle.validate(prof)
        n, r = coloring.params.n, coloring.params.r
        Y = bundle.info["Y"]
        assert sorted(Y) == [0, 1, 2]
        others = [v for v in range(n) if v not in Y]
        # every hyperedge through Y is the target color, so the off-Y part is complete
        for u, v in combinations(others, 2):
            assert bundle.gamma.has_edge(u, v)
        for y in Y:
            assert bundle.gamma.degree(y) == n - (r - 2)

    def test_no_target_color_gives_bipartite_gamma(self):
        # same shape of witness, but no hyperedge through Y has the target color
        p = HyperParams(12, 5, 4)
        colors = [1 + t % 3 for t in range(p.edge_count)]
        coloring = Coloring(p, colors)
        prof = ColorProfile(coloring)
        w = Witness(
            x=3, f=3, y=(0, 1, 2, 4), color_perm=(1, 2, 3, 4), ubar_sizes=(8,)
        )
        bundle = build_gamma_case1(w, prof)
        assert not bundle.reserved
        assert bundle.info["E1_size"] == 0
        Y = set(bundle.info["Y"])
        for u, v in bundle.gamma.edges():
            assert (u in Y) != (v in Y)
        assert bundle.gamma.edge_count() == len(Y) * (12 - len(Y))

    def test_wrong_f_rejected(self):
        prof = ColorProfile(case2_fixture(), good_threshold=2)
        w = witness_search(prof, d_bound=0)
        assert w.f == 0
        with pytest.raises(ValueError):
            build_gamma_case1(w, prof)


@pytest.fixture(scope="module")
def bundle():
    coloring = case2_fixture()
    prof = ColorProfile(coloring, good_threshold=2)
    w = witness_search(prof, d_bound=0)
    return prof, w, build_gamma_case2(w, prof)


class TestCase2:

    def test_witness_lands_in_case2(self, bundle):
        _, w, _ = bundle
        assert w.f == 0
        assert w.x == 0
        assert w.ubar_sizes == (1, 1, 1, 12)

    def test_partition_constraints(self, bundle):
        prof, w, b = bundle
        b.validate(prof)
        n, r = 24, 5
        parts = {int(i): v for i, v in b.info["A_parts"].items()}
        assert len(parts[r - 1]) == n // 2 + 1
        assert parts[w.f + 1] == []
        mids = [len(parts[i]) for i in parts if i not in (w.f + 1, r - 1)]
        assert max(mids) - min(mids) <= 1
        assert sorted(v for vs in parts.values() for v in vs) == sorted(b.info["U"])

    def test_reservations_injective_and_containing(self, bundle):
        prof, _, b = bundle
        values = list(b.reserved.values())
        assert len(values) == len(set(values))
        from bergeham.hypercore import unrank_edge

        for (u, v), h in b.reserved.items():
            members = unrank_edge(h, prof.params)
            assert u in members and v in members
            assert prof.coloring.color_of(h) == b.target_color

    @pytest.mark.parametrize("bad", [comb(24, 5), -1, 1.5, True])
    def test_validate_rejects_a_bad_reserved_index(self, bundle, bad):
        # checked before the member table is read, where -1 would be a row
        prof, _, b = bundle
        pair = next(iter(b.reserved))
        broken = dataclasses.replace(b, reserved={**b.reserved, pair: bad})
        with pytest.raises(ValueError, match="^edge index must be an integer"):
            broken.validate(prof)

    def test_repaired_degrees_exceed_2r(self, bundle):
        _, _, b = bundle
        r = 5
        for u_i, d1, t_i in zip(b.info["ubar_f1"], b.info["u_gamma1_deg"], b.info["t"]):
            assert b.gamma.degree(u_i) >= d1 + t_i > 2 * r
        for w_i, d2, tp in zip(b.info["w_list"], b.info["w_gamma2_deg"], b.info["t_prime"]):
            assert b.gamma.degree(w_i) >= d2 + tp > 2 * r

    def test_y_degree_at_least_part_size(self, bundle):
        _, w, b = bundle
        parts = {int(i): v for i, v in b.info["A_parts"].items()}
        for i, vs in parts.items():
            if i == w.f + 1:
                continue
            assert b.gamma.degree(w.y_of(i)) >= len(vs)

    def test_w_flagging(self, bundle):
        _, _, b = bundle
        assert b.info["w_total"] == 8
        assert len(b.info["w_list"]) == 5  # min(r, m)
        assert b.info["w_truncated"]

    def test_oversized_ubar_rejected(self):
        # rename so the huge Ubar color sits first: the precondition must fire
        coloring = case2_fixture()
        prof = ColorProfile(coloring, good_threshold=2)
        w = Witness(
            x=0,
            f=0,
            y=(5, 2, 3, 1),
            color_perm=(4, 2, 3, 1),
            ubar_sizes=(12, 1, 1, 1),
        )
        with pytest.raises(GammaBuildError) as err:
            build_gamma_case2(w, prof)
        assert "r-2" in str(err.value)

    def test_wrong_f_rejected(self):
        prof = ColorProfile(case1_fixture())
        w = witness_search(prof)
        with pytest.raises(ValueError):
            build_gamma_case2(w, prof)

    def test_bundle_json_roundtrip(self, bundle, tmp_path):
        _, _, b = bundle
        blob = b.to_json()
        assert json.loads(json.dumps(blob)) == blob
        out = tmp_path / "bundle.json"
        b.dump_json(out)
        assert json.loads(out.read_text())["case"] == 2

    def test_repair_exhaustion_names_vertex(self):
        # every class edge through 0 meets the exclusion except those holding
        # 4 or 5; after two repairs both are contacts, so the third fails.
        # Vertex 0 lies outside the exclusion and must never be its own contact.
        coloring = uniform(6, 3, 1)
        edges, rows = coloring.class_members(1)
        reserved = {}
        with pytest.raises(GammaBuildError) as err:
            _repair_degrees([0], Graph(6, []), {1, 2, 3}, edges, rows, reserved)
        assert err.value.failing_vertex == 0
        assert "exhausted" in str(err.value)
        assert sorted(reserved) == [(0, 4), (0, 5)]

    def test_leftover_u_without_middle_part_is_a_gamma_failure(self):
        # at r = 3 every A_i but A_{f+1} and A_{r-1} is missing, so the U
        # vertices past floor(n/2)+1 have no part to go to
        coloring = gen_coloring(HyperParams(8, 3, 2), "random", seed=45)
        out = constructive_find(coloring, d_bound=0, good_threshold=2)
        assert out.stage == "gamma"
        assert "no middle part" in out.detail

    def test_repair_converts_only_the_rows_it_scans(self, bundle):
        # the repair scans about 200 of the 14 000 class rows through its
        # vertices; building a list for each would trigger about 15
        # generation-0 collections per call
        prof, w, _ = bundle
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        build_gamma_case2(w, prof)
        assert gc.get_stats()[0]["collections"] - before <= 2

    def test_all_good_repair_never_contacts_itself(self):
        # thin out color 1 through {0, 17} so that the all-good vertex 17
        # needs three repairs; 17 must never be taken as its own contact
        base = case2_fixture()
        w = witness_search(ColorProfile(base, good_threshold=2), d_bound=0)
        colors = [
            2 if c == 1 and 0 in e and 17 in e and t % 3 == 0 else c
            for t, (e, c) in enumerate(zip(iter_colex_edges(24, 5), base.colors))
        ]
        prof = ColorProfile(Coloring(base.params, colors), good_threshold=2)
        b = build_gamma_case2(w, prof)
        b.validate(prof)
        assert b.info["w_list"][1] == 17 and b.info["t_prime"][1] == 3
        assert all(u != v for u, v in b.reserved)
        assert b.gamma.degree(17) > 2 * 5


def repair_degrees_per_step(vertices, graph, exclusion, edges, rows, reserved):
    """Reference for `_repair_degrees`: every step rescans the whole class for
    the lowest unused hyperedge through v with a member outside `blocked`."""
    r = rows.shape[1]
    used = set(reserved.values())
    added, counts, degrees, cover, partners = [], [], [], set(), {}
    for v in vertices:
        d = graph.degree(v)
        degrees.append(d)
        counts.append(max(0, 2 * r + 1 - d))
        blocked = exclusion | {v} | set(graph.neighbors(v)) | partners.get(v, set())
        through = (rows == v).any(axis=1)
        for _ in range(counts[-1]):
            ok = through & ~np.isin(rows, list(blocked)).all(axis=1)
            hits = np.flatnonzero(ok & ~np.isin(edges, list(used)))
            if not hits.size:
                raise GammaBuildError("exhausted", failing_vertex=v)
            members = rows[hits[0]].tolist()
            h = int(edges[hits[0]])
            fresh = next(w for w in members if w not in blocked)
            used.add(h)
            blocked.add(fresh)
            cover.update(members)
            partners.setdefault(fresh, set()).add(v)
            key = _edge_key(v, fresh)
            added.append(key)
            reserved[key] = h
    return added, counts, degrees, cover


def test_repair_degrees_matches_per_step_reference():
    rng = random.Random(12)
    exhausted = 0
    for trial in range(400):
        n, r = rng.choice([(7, 3), (9, 3), (11, 3), (8, 4), (10, 4)])
        p = HyperParams(n, r, 2)
        coloring = Coloring(p, [rng.choice([1, 1, 2]) for _ in range(p.edge_count)])
        edges, rows = coloring.class_members(1)
        graph = random_graph(rng, n, rng.random())
        exclusion = set(rng.sample(range(n), rng.randint(0, 3)))
        vertices = rng.sample(range(n), rng.randint(1, 4))
        taken = rng.sample(edges.tolist(), min(len(edges), rng.randint(0, 6)))
        # hyperedges some earlier gamma edge reserved, under keys no repair makes
        start = {(n + j, n + j + 1): h for j, h in enumerate(taken)}
        results = []
        for repair in (_repair_degrees, repair_degrees_per_step):
            reserved = dict(start)
            try:
                out = repair(vertices, graph, set(exclusion), edges, rows, reserved)
            except GammaBuildError as err:
                out = ("exhausted", err.failing_vertex)
            results.append((out, reserved))
        assert results[0] == results[1], trial
        exhausted += results[0][0][0] == "exhausted"
    # both branches are exercised
    assert 50 < exhausted < 350


# Constructive outputs recorded before the two degree-repair rounds were
# merged into one routine; a refactor must not pick different hyperedges.
CASE2_BUNDLE_SHA256 = "49a323f19b1af7879157990a93138ccf945c40667edb4118fe6875fd80151392"
CASE2_BUNDLE_INFO = {
    "A_cover": list(range(1, 16)),
    "A_parts": {
        "1": [],
        "2": [18, 20, 22],
        "3": [19, 21, 23],
        "4": [4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
    },
    "B_cover": [],
    "E_sizes": {"E1": 143, "E2": 19, "E3": 11, "E4": 0, "E5": 8},
    "U": [4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
    "Y": [2, 3, 5],
    "t": [11],
    "t_prime": [0, 0, 0, 0, 0],
    "u_gamma1_deg": [0],
    "ubar_f1": [1],
    "w_gamma2_deg": [12, 12, 12, 12, 12],
    "w_list": [17, 18, 19, 20, 21],
    "w_total": 8,
    "w_truncated": True,
    "x": 0,
}
PINNED_CYCLES = {
    "case1": (
        4,
        [0, 10, 1, 11, 2, 3, 4, 5, 6, 7, 8, 9],
        [253, 252, 463, 462, 1, 0, 2, 11, 36, 91, 196, 126],
    ),
    "case2": (
        1,
        [22, 2, 20, 15, 18, 13, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17, 14, 19, 16,
         21, 3, 23, 0],
        [26341, 15511, 16871, 9935, 9285, 1300, 32, 4, 13, 38, 93, 198, 380, 674,
         1124, 6685, 7191, 12631, 13450, 22171, 20356, 33656, 33652, 26344],
    ),
}


class TestPinnedOutputs:
    def test_case2_bundle(self, bundle):
        _, _, b = bundle
        blob = b.to_json()
        assert blob["info"] == CASE2_BUNDLE_INFO
        digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
        assert digest == CASE2_BUNDLE_SHA256

    @pytest.mark.parametrize(
        "name, coloring, kwargs",
        [
            ("case1", case1_fixture, {}),
            ("case2", case2_fixture, {"d_bound": 0, "good_threshold": 2}),
        ],
    )
    def test_constructive_cycle(self, name, coloring, kwargs):
        out = constructive_find(coloring(), **kwargs)
        assert out.found
        color, core, edges = PINNED_CYCLES[name]
        assert (out.color, list(out.cycle.core), list(out.cycle.edges)) == (
            color,
            core,
            edges,
        )


class TestPipeline:
    def test_case1_end_to_end(self):
        coloring = case1_fixture()
        out = constructive_find(coloring)
        assert out.found
        assert out.color == 4
        assert verify_berge_cycle(out.cycle, coloring) is None
        # when the auxiliary graph passes Chvatal, the ordered extension must
        # not starve at the wraparound positions
        from bergeham import chvatal_check

        assert chvatal_check(out.bundle.gamma)

    def test_no_witness_stage(self):
        out = constructive_find(balanced_all_good(), good_threshold=1)
        assert out.stage == "witness"
        assert not out.found

    def test_incomplete_on_uniform(self):
        # the chosen witness leads to a star-shaped auxiliary graph; the
        # pipeline is sound, not complete, and reports the failing stage
        out = constructive_find(uniform(8, 3, 2))
        assert not out.found
        assert out.stage == "hamilton"

    def test_sound_against_naive(self):
        # parity-striped star: edges through 0 get color 2 when the other two
        # vertices have odd sum; the pipeline succeeds at n=8 where the naive
        # oracle can confirm it
        p = HyperParams(8, 3, 2)
        colors = [
            2 if (0 in e and (e[1] + e[2]) % 2 == 1) else 1
            for e in iter_colex_edges(8, 3)
        ]
        coloring = Coloring(p, colors)
        out = constructive_find(coloring)
        assert out.found
        assert out.color == 2
        assert verify_berge_cycle(out.cycle, coloring) is None
        assert naive_oracle(coloring).verdict == "found"

    def test_requires_paper_color_count(self, monkeypatch):
        built = []
        monkeypatch.setattr(construct, "ColorProfile", lambda *a: built.append(a))
        with pytest.raises(ValueError):
            constructive_find(uniform(8, 3, 1))
        assert not built  # k is checked before any profile is built

    # None is absent: it asks for the default bound C(4r, r-1)
    @pytest.mark.parametrize("bad", NON_INTEGERS[:-1] + [1.5, -5],
                             ids=NON_INTEGER_IDS[:-1] + ["1.5", "-5"])
    def test_degree_bound_must_be_a_nonnegative_integer(self, bad):
        # -5, 1.5 and True once gave stage "witness" without a word, and "1"
        # a TypeError from a comparison
        coloring = case1_fixture()
        with pytest.raises(ValueError):
            constructive_find(coloring, d_bound=bad)
        profile = ColorProfile(coloring)
        with pytest.raises(ValueError):
            witness_search(profile, d_bound=bad)
        witness = witness_search(profile)
        with pytest.raises(ValueError):
            witness.validate(profile, d_bound=bad)
        with pytest.raises(ValueError):
            avoids([0], [1], profile, d_bound=bad)
        bound = np.int64(default_degree_bound(coloring.params.r))
        assert constructive_find(coloring, d_bound=bound).stage == "done"
