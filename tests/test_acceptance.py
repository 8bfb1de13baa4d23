"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated tolerance and count is asserted exactly.
"""

import random
import time
from itertools import combinations

from bergeham import (
    BergeCycle,
    Coloring,
    ColorProfile,
    Graph,
    HyperParams,
    build_gamma_case2,
    chvatal_check,
    closure,
    constructive_find,
    exhaustive_verify,
    extend_greedy_ordered,
    extend_matching,
    find_hamiltonian_cycle,
    find_mono_berge,
    iter_hamiltonian_cycles,
    naive_oracle,
    paper_threshold,
    transfer_cycle,
    build_candidates,
    verify_berge_cycle,
    witness_search,
)
from bergeham.fixtures import case1_fixture, case2_fixture
from bergeham.hamilton import closure_order
from bergeham.hypercore import pair_supersets, rank_edge, unrank_edge

from conftest import PETERSEN_EDGES, random_graph


def _pass(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_paper_threshold():
    t0 = time.perf_counter()
    five = paper_threshold(5)
    three = paper_threshold(3)
    elapsed = time.perf_counter() - t0
    assert five == 145350
    assert three == 1188
    assert elapsed < 0.001
    _pass(1, f"thresholds 145350 / 1188 exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_exhaust_5_4_3():
    t0 = time.perf_counter()
    p = HyperParams(5, 4, 3)
    one = exhaustive_verify(p, shards=1)
    eight = exhaustive_verify(p, shards=8)
    elapsed = time.perf_counter() - t0
    assert (one.total, one.success, one.failure) == (243, 3, 240)
    assert (eight.total, eight.success, eight.failure) == (243, 3, 240)
    assert one.counterexamples == eight.counterexamples
    assert elapsed < 10
    _pass(2, f"243 colorings -> 3 successes, shard-invariant, {elapsed:.2f}s")


def test_criterion_3_exhaust_5_3_2_agreement():
    t0 = time.perf_counter()
    p = HyperParams(5, 3, 2)
    report = exhaustive_verify(p)
    assert report.total == 1024
    assert report.success + report.failure == 1024
    disagreements = 0
    for m in range(1024):
        digits = [((m >> (9 - t)) & 1) + 1 for t in range(10)]
        coloring = Coloring(p, digits)
        fast = find_mono_berge(coloring)
        slow = naive_oracle(coloring)
        assert fast.verdict != "undecided"
        if fast.verdict != slow.verdict:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 120
    _pass(3, f"1024/1024 classified, 0 disagreements, {elapsed:.1f}s")


def test_criterion_4_closure_lemma_suite():
    # all graphs on n <= 5, plus a seeded uniform sample at n = 6 and 7
    # (full enumeration of n <= 7 is out of a 10-minute budget, so the
    # criterion's 1e5-sample branch applies)
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    suites = []
    for n in (3, 4, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            suites.append(
                Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            )
    sampled = [random_graph(rng, 6, 0.5) for _ in range(15_000)]
    sampled += [random_graph(rng, 7, 0.5) for _ in range(85_000)]
    violations = 0
    transfers = 0
    for g in suites + sampled:
        direct = next(iter_hamiltonian_cycles(g), None)
        closed, added = closure_order(g)
        via = next(iter_hamiltonian_cycles(closed), None)
        if (direct is None) != (via is None):
            violations += 1
            continue
        if via is not None and added:
            cert = via
            work = closed
            for u, v in reversed(added):
                work = work.without_edges([(u, v)])
                cert = transfer_cycle(work, u, v, cert)
                cert.validate(work)  # raises on any bad transfer
                transfers += 1
            cert.validate(g)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    count = len(suites) + len(sampled)
    _pass(
        4,
        f"{count} graphs, 0 equivalence violations, "
        f"{transfers} validated transfers, {elapsed:.0f}s",
    )


def test_criterion_5_chvatal_soundness(petersen):
    t0 = time.perf_counter()
    rng = random.Random(5150)
    confirmed = 0
    while confirmed < 1000:
        n = rng.randint(5, 14)
        g = random_graph(rng, n, rng.uniform(0.5, 0.9))
        if not chvatal_check(g):
            continue
        cert = find_hamiltonian_cycle(g)
        assert cert is not None, "Chvatal graph without a certificate"
        cert.validate(g)
        confirmed += 1
    assert not chvatal_check(petersen)
    assert find_hamiltonian_cycle(petersen) is None
    assert next(iter_hamiltonian_cycles(petersen), None) is None
    elapsed = time.perf_counter() - t0
    _pass(5, f"1000 Chvatal graphs certified; Petersen proven absent, {elapsed:.0f}s")


def _sdr_brute(pools):
    def go(i, used):
        if i == len(pools):
            return True
        return any(e not in used and go(i + 1, used | {e}) for e in pools[i])

    return go(0, frozenset())


def test_criterion_6_extension_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(606)
    greedy_successes = 0
    for _ in range(500):
        n = rng.randint(4, 8)
        p = HyperParams(n, 3, 2)
        coloring = Coloring(p, [rng.randint(1, 2) for _ in range(p.edge_count)])
        core = list(range(n))
        rng.shuffle(core)
        table = build_candidates(tuple(core), rng.randint(1, 2), coloring)
        match = extend_matching(table)
        assert (match is not None) == _sdr_brute(table.candidates)
        greedy = extend_greedy_ordered(table)
        if greedy is not None:
            greedy_successes += 1
            assert match is not None
    elapsed = time.perf_counter() - t0
    _pass(
        6,
        f"500 tables: matching == brute-force SDR; greedy sound "
        f"({greedy_successes} greedy hits), {elapsed:.1f}s",
    )


def test_criterion_7_case1_pipeline():
    t0 = time.perf_counter()
    coloring = case1_fixture()
    outcome = constructive_find(coloring)
    elapsed = time.perf_counter() - t0
    assert outcome.found
    assert outcome.color == 4
    assert outcome.cycle.color == 4
    assert verify_berge_cycle(outcome.cycle, coloring) is None
    assert elapsed < 5
    _pass(7, f"case-1 fixture yields a verified color-4 cycle in {elapsed:.2f}s")


def test_criterion_8_case2_structural_suite():
    coloring = case2_fixture()
    profile = ColorProfile(coloring, good_threshold=2)
    witness = witness_search(profile, d_bound=0)
    assert witness is not None
    assert witness.f <= coloring.params.r - 3
    bundle = build_gamma_case2(witness, profile)  # any step error raises here
    bundle.validate(profile)
    n, r = coloring.params.n, coloring.params.r
    parts = {int(i): v for i, v in bundle.info["A_parts"].items()}
    assert len(parts[r - 1]) == n // 2 + 1
    assert parts[witness.f + 1] == []
    mids = [len(parts[i]) for i in parts if i not in (witness.f + 1, r - 1)]
    assert max(mids) - min(mids) <= 1
    assert sorted(v for vs in parts.values() for v in vs) == sorted(bundle.info["U"])
    hyperedges = list(bundle.reserved.values())
    assert len(hyperedges) == len(set(hyperedges))
    for (u, v), h in bundle.reserved.items():
        members = unrank_edge(h, coloring.params)
        assert u in members and v in members
    for u_i in bundle.info["ubar_f1"]:
        assert bundle.gamma.degree(u_i) > 2 * r
    for w_i in bundle.info["w_list"]:
        assert bundle.gamma.degree(w_i) > 2 * r
    _pass(
        8,
        f"case-2 bundle: partition exact, {len(hyperedges)} injective "
        f"reservations, repaired degrees > {2 * r}",
    )


def _random_valid_cycle(rng, tables):
    n, r, coloring, supersets = tables[rng.randrange(len(tables))]
    core = list(range(n))
    rng.shuffle(core)
    while True:
        edges = []
        used = set()
        ok = True
        for i in range(n):
            a, b = core[i], core[(i + 1) % n]
            pool = supersets[(a, b) if a < b else (b, a)]
            pick = rng.choice(pool)
            retries = 0
            while pick in used and retries < 20:
                pick = rng.choice(pool)
                retries += 1
            if pick in used:
                ok = False
                break
            used.add(pick)
            edges.append(pick)
        if ok:
            return coloring, BergeCycle(tuple(core), tuple(edges), 1)


def test_criterion_9_verifier_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(909)
    tables = []
    for n, r in ((5, 3), (6, 3), (7, 4), (8, 3)):
        p = HyperParams(n, r, 1)
        coloring = Coloring(p, [1] * p.edge_count)
        supersets = {
            (u, v): pair_supersets(u, v, p) for u, v in combinations(range(n), 2)
        }
        tables.append((n, r, coloring, supersets))
    for trial in range(10_000):
        coloring, cycle = _random_valid_cycle(rng, tables)
        n = coloring.params.n
        assert verify_berge_cycle(cycle, coloring) is None
        s = rng.randrange(n)
        rotated = BergeCycle(
            cycle.core[s:] + cycle.core[:s], cycle.edges[s:] + cycle.edges[:s], 1
        )
        assert verify_berge_cycle(rotated, coloring) is None
        reflected = BergeCycle(
            tuple(reversed(cycle.core)),
            tuple(reversed(cycle.edges[: n - 1])) + (cycle.edges[n - 1],),
            1,
        )
        assert verify_berge_cycle(reflected, coloring) is None
        # mutation 1: duplicate edge
        a, b = sorted(rng.sample(range(n), 2))
        dup_edges = list(cycle.edges)
        dup_edges[b] = dup_edges[a]
        bad = verify_berge_cycle(BergeCycle(cycle.core, tuple(dup_edges), 1), coloring)
        assert bad is not None
        assert bad.kind == "duplicate edge"
        assert bad.position == b + 1
        # mutation 2: broken containment
        j = rng.randrange(n)
        pair = {cycle.core[j], cycle.core[(j + 1) % n]}
        used = set(cycle.edges)
        h = next(
            t
            for t in range(coloring.params.edge_count)
            if t not in used
            and not pair <= set(unrank_edge(t, coloring.params))
        )
        brk = list(cycle.edges)
        brk[j] = h
        bad = verify_berge_cycle(BergeCycle(cycle.core, tuple(brk), 1), coloring)
        assert bad is not None
        assert bad.kind == "containment"
        assert bad.position == j + 1
    elapsed = time.perf_counter() - t0
    _pass(
        9,
        f"10000 cycles rotation/reflection-invariant; all mutants rejected "
        f"at the right position, {elapsed:.0f}s",
    )
