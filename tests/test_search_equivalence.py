"""find_mono_berge with the matching inside the backtracker, against the
per-core search it replaced.

The reference below enumerates every Hamiltonian cycle of a color's support
graph and matches each core from scratch.  Cutting the path prefixes whose
pairs have no distinct hyperedges must not change which core is found first,
the edges it gets, or any per-color stage label.
"""

import random

import pytest

from bergeham import Coloring, Graph, HyperParams, find_mono_berge, gen_coloring
from bergeham.extend import PrefixSDR, build_candidates, extend_matching
from bergeham.hamilton import iter_hamiltonian_cycles
from bergeham.hypercore import pair_edges

from test_differential import SPACES

CHEAP_12_3_24 = [0, 20, 22, 36, 114, 361, 382]  # 22, 361 and 382 are not-found


def per_core_search(coloring):
    """(verdict, color, core, edges, stages): every core enumerated, each one
    matched on its own candidate table."""
    p = coloring.params
    sizes = coloring.class_sizes()
    stages = {}
    for color in range(1, p.k + 1):
        if int(sizes[color - 1]) < p.n:
            stages[color] = "class too small"
            continue
        lists = pair_edges(coloring, color)
        support = Graph(p.n, [pair for pair, pool in lists.items() if pool])
        stage = "support graph not Hamiltonian"
        for cert in iter_hamiltonian_cycles(support):
            stage = "all cores exhausted"
            cycle = extend_matching(build_candidates(cert.order, color, coloring))
            if cycle is not None:
                stages[color] = "found"
                return "found", color, cycle.core, cycle.edges, stages
        stages[color] = stage
    return "not-found", None, None, None, stages


def outcome(report):
    cycle = report.cycle
    core, edges = (None, None) if cycle is None else (cycle.core, cycle.edges)
    return report.verdict, report.color, core, edges, report.stages["colors"]


def random_colorings():
    rng = random.Random(2025)
    for n, r, k in SPACES:
        p = HyperParams(n, r, k)
        for _ in range(20):
            yield Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
    for seed in range(40):
        yield gen_coloring(HyperParams(10, 3, 12), "random", seed=seed)
    for seed in CHEAP_12_3_24:
        yield gen_coloring(HyperParams(12, 3, 24), "random", seed=seed)


def test_same_outcome_as_per_core_search():
    verdicts = set()
    for coloring in random_colorings():
        got = outcome(find_mono_berge(coloring))
        assert got == per_core_search(coloring), coloring.to_text()
        verdicts.add(got[0])
    assert verdicts == {"found", "not-found"}


def test_hooked_enumeration_yields_the_matchable_cores_in_order():
    rng = random.Random(31)
    seen = 0
    for n, r, k in [(6, 3, 3), (7, 3, 4), (8, 3, 6)]:
        p = HyperParams(n, r, k)
        for _ in range(15):
            coloring = Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
            color = rng.randint(1, k)
            lists = pair_edges(coloring, color)
            support = Graph(n, [pair for pair, pool in lists.items() if pool])
            expect = []
            for cert in iter_hamiltonian_cycles(support):
                cycle = extend_matching(build_candidates(cert.order, color, coloring))
                if cycle is not None:
                    expect.append((cert.order, cycle.edges))
            sdr = PrefixSDR(lists)
            got = [
                (cert.order, tuple(sdr.representatives()))
                for cert in iter_hamiltonian_cycles(support, prefix_hook=sdr)
            ]
            assert got == expect
            assert sdr.cands == []  # every push was taken back
            seen += len(got)
    assert seen > 0


def test_accepting_hook_changes_nothing():
    # a hook that accepts everything changes neither the cycles nor the nodes
    class Accept:
        def push(self, u, v):
            return True

        def pop(self):
            pass

    g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if (u + v) % 4])
    plain, hooked = [0], [0]
    a = [c.order for c in iter_hamiltonian_cycles(g, counter=plain)]
    b = [c.order for c in iter_hamiltonian_cycles(g, counter=hooked, prefix_hook=Accept())]
    assert a == b and a and plain == hooked


@pytest.mark.parametrize("budget", [50, 500, 5000])
def test_tight_budget_never_changes_the_answer(budget):
    n = 10
    for seed in range(40):
        coloring = gen_coloring(HyperParams(n, 3, 12), "random", seed=seed)
        full = find_mono_berge(coloring)
        report = find_mono_berge(coloring, budget=budget)
        assert report.verdict in ("undecided", full.verdict)
        if report.verdict == "found":
            assert (report.color, report.cycle) == (full.color, full.cycle)
        assert report.work_units <= budget + n


def test_color_without_cores_stops_at_the_budget():
    # (10,3,12) seed 6: color 4 is the first color searched.  Its support
    # graph is not Hamiltonian; the plain enumeration shows that in 19 nodes.
    # The hooked search plus the plain first-cycle search that the matcher's
    # cuts call for take 54 work units, and every one of them counts.
    coloring = gen_coloring(HyperParams(10, 3, 12), "random", seed=6)
    for budget in (19, 40, 53):
        report = find_mono_berge(coloring, budget=budget)
        assert report.stages["colors"][4] == "budget exhausted"
        assert report.verdict == "undecided"
    report = find_mono_berge(coloring, budget=54)
    assert report.stages["colors"][4] == "support graph not Hamiltonian"
