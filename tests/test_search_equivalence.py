"""find_mono_berge with the matching inside the backtracker, against the
per-core search it replaced.

The reference below enumerates every Hamiltonian cycle of a color's support
graph and matches each core from scratch.  Cutting the path prefixes whose
pairs have no distinct hyperedges, or whose unvisited vertices cannot each
get two distinct class edges (the look-ahead), must not change which core is
found first, the edges it gets, or any per-color stage label.
"""

import random
from itertools import permutations

import pytest

from bergeham import Coloring, Graph, HyperParams, find_mono_berge, gen_coloring
from bergeham import harness
from bergeham.extend import PrefixSDR, build_candidates, extend_matching
from bergeham.hamilton import iter_hamiltonian_cycles
from bergeham.hypercore import edge_members, iter_colex_edges
from conftest import as_mask, class_vertex_masks, pair_edges

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


def test_non_hamiltonian_colors_walk_the_plain_tree(monkeypatch):
    # Until a cycle closes, a pair the matcher cannot serve is held, not
    # refused.  On a support graph with no Hamiltonian cycle none ever
    # closes, so the color's search walks exactly the plain search tree.
    searched = []  # (support graph, nodes counted before its search)

    def spy(g, *, counter, prefix_hook):
        searched.append((g, counter[0]))
        return iter_hamiltonian_cycles(g, counter=counter, prefix_hook=prefix_hook)

    monkeypatch.setattr(harness, "iter_hamiltonian_cycles", spy)
    rng = random.Random(7)
    non_hamiltonian = 0
    for n, r, k in SPACES:
        p = HyperParams(n, r, k)
        for _ in range(300):
            coloring = Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
            searched.clear()
            report = find_mono_berge(coloring)
            labels = [s for s in report.stages["colors"].values() if s != "class too small"]
            ends = [start for _, start in searched[1:]] + [report.nodes]
            assert len(labels) == len(searched)
            for (g, start), end, label in zip(searched, ends, labels):
                plain = [0]
                if next(iter_hamiltonian_cycles(g, counter=plain), None) is not None:
                    assert label != "support graph not Hamiltonian"
                else:
                    assert label == "support graph not Hamiltonian"
                    assert end - start == plain[0]
                    non_hamiltonian += 1
    assert non_hamiltonian >= 100


def test_cycles_found_only_under_a_held_pair():
    # Color 1 reaches vertex 4 only through the edge {1,2,4}, so every
    # Hamiltonian cycle runs 1-4-2 or 2-4-1, and its second pair at vertex 4
    # has no edge of its own.  The matcher alone never reaches a closing
    # pair; the cycles are seen only in the subtree of a held pair.
    p = HyperParams(5, 3, 2)
    ones = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2, 4)}
    coloring = Coloring(p, [1 if e in ones else 2 for e in iter_colex_edges(5, 3)])
    lists = pair_edges(coloring, 1)
    support = Graph(5, [pair for pair, pool in lists.items() if pool])
    closing = []

    class Closings(PrefixSDR):
        def push(self, u, v):
            if v == 0:
                closing.append(u)
            return super().push(u, v)

    assert list(iter_hamiltonian_cycles(support))
    hook = Closings(class_vertex_masks(coloring, 1), [0])
    assert not list(iter_hamiltonian_cycles(support, prefix_hook=hook))
    assert closing == []
    report = find_mono_berge(coloring)
    assert report.stages["colors"][1] == "all cores exhausted"
    assert outcome(report) == per_core_search(coloring)


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
            sdr = PrefixSDR(class_vertex_masks(coloring, color), [0])
            got = [
                (cert.order, tuple(sdr.representatives()))
                for cert in iter_hamiltonian_cycles(support, prefix_hook=sdr)
            ]
            assert got == expect
            assert sdr.cands == []  # every push was taken back
            seen += len(got)
    assert seen > 0


class LookaheadSpy(harness._BudgetedSDR):
    """The production hook with an unreachable budget; it records every path
    prefix, ending at the new vertex, that the look-ahead refuses."""

    def __init__(self, coloring, color, nodes):
        self.edges, rows = coloring.class_members(color)
        super().__init__(harness._class_masks(coloring.params.n, rows), [0], nodes, 10**12)
        self.refused = []

    def _lookahead(self, w):
        ok = super()._lookahead(w)
        if not ok:
            self.refused.append((0, *self.path, w))
        return ok


def searched_colors(coloring):
    """(color, pair lists, support graph) for every color large enough to search."""
    p = coloring.params
    sizes = coloring.class_sizes()
    for color in range(1, p.k + 1):
        if int(sizes[color - 1]) >= p.n:
            lists = pair_edges(coloring, color)
            yield color, lists, Graph(p.n, [pair for pair, pool in lists.items() if pool])


def test_search_pools_and_support_match_pair_edges(monkeypatch):
    # The search reads each color's support graph and pools off per-vertex
    # class-edge bitmasks; the (18,4,2) classes hold about 1 530 edges, more
    # than `harness._BLOCK`, so numpy packs them, while the small spaces take
    # the Python loop.  Every pair's pool is read, not only those the search
    # pushed.
    searched = []  # (support graph, prefix hook) per color searched

    def spy(g, *, counter, prefix_hook):
        searched.append((g, prefix_hook))
        return iter_hamiltonian_cycles(g, counter=counter, prefix_hook=prefix_hook)

    monkeypatch.setattr(harness, "iter_hamiltonian_cycles", spy)
    rng = random.Random(19)
    colorings = [gen_coloring(HyperParams(18, 4, 2), "random", seed=s) for s in range(2)]
    for n, r, k in SPACES:
        p = HyperParams(n, r, k)
        for _ in range(10):
            colorings.append(Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)]))
    largest = checked = 0
    for coloring in colorings:
        n = coloring.params.n
        searched.clear()
        find_mono_berge(coloring)
        checked += len(searched)
        for (g, hook), (color, lists, support) in zip(searched, searched_colors(coloring)):
            edges, rows = coloring.class_members(color)
            assert g == support, (coloring.to_text(), color)
            for x in range(n):
                bits = [j for j, row in enumerate(rows.tolist()) if x in row]
                assert hook.vm[x] == sum(1 << j for j in bits)
            for (u, v), pool in lists.items():
                # the hook's pools hold class positions: `edges` maps them back
                both = bin(hook.vm[u] & hook.vm[v])[:1:-1]  # lowest bit first
                got = edges[[j for j, bit in enumerate(both) if bit == "1"]].tolist()
                assert got == pool, (coloring.to_text(), color, (u, v))
            largest = max(largest, len(edges))
    assert largest > harness._BLOCK and checked > len(colorings)


@pytest.mark.parametrize("size", [harness._BLOCK, harness._BLOCK + 1])
def test_class_masks_on_either_side_of_the_size_switch(size):
    # at most `_BLOCK` rows take the Python loop, one more takes numpy
    rows = edge_members(18, 4)[:size]
    expect = [0] * 18
    for j, row in enumerate(rows.tolist()):
        for x in row:
            expect[x] |= 1 << j
    assert harness._class_masks(18, rows) == expect


def test_lookahead_yields_every_cycle_the_matcher_yields():
    # Over the whole enumeration, not only up to the first cycle: the
    # look-ahead refuses only prefixes with no matchable completion, so the
    # cycles and their edges are those of the plain prefix matcher.
    rng = random.Random(2026)
    colorings = [gen_coloring(HyperParams(10, 3, 12), "random", seed=s) for s in range(5, 10)]
    for n, r, k in SPACES:
        p = HyperParams(n, r, k)
        for _ in range(6):
            colorings.append(Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)]))
    cycles = refused = 0
    for coloring in colorings:
        for color, lists, support in searched_colors(coloring):
            plain = PrefixSDR(class_vertex_masks(coloring, color), [0])
            want = [
                (cert.order, tuple(plain.representatives()))
                for cert in iter_hamiltonian_cycles(support, prefix_hook=plain)
            ]
            nodes = [0]
            spy = LookaheadSpy(coloring, color, nodes)
            edges = spy.edges  # the spy matches class positions
            got = [
                (cert.order, tuple(edges[spy.representatives()].tolist()))
                for cert in iter_hamiltonian_cycles(support, counter=nodes, prefix_hook=spy)
            ]
            assert got == want, (coloring.to_text(), color)
            assert spy.cands == [] and spy.path == [] and spy.held == 0
            cycles += len(got)
            refused += len(spy.refused)
    assert cycles > 10_000 and refused > 20_000


def has_matchable_completion(prefix, lists, n):
    """Brute force: some Hamiltonian cycle that starts with the prefix has
    distinct class edges on its n pairs."""
    rest = [v for v in range(n) if v not in prefix]
    for tail in permutations(rest):
        order = prefix + tail
        pools = [as_mask(lists[tuple(sorted((order[i], order[(i + 1) % n])))]) for i in range(n)]
        if all(pools) and harness._sdr_search(pools) is not None:
            return True
    return False


def test_lookahead_refuses_only_prefixes_without_a_matchable_completion():
    rng = random.Random(4)
    refused = 0
    for n, r, k in [shape for shape in SPACES if shape[0] <= 7]:
        p = HyperParams(n, r, k)
        for _ in range(20):
            coloring = Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
            for color, lists, support in searched_colors(coloring):
                nodes = [0]
                spy = LookaheadSpy(coloring, color, nodes)
                for _ in iter_hamiltonian_cycles(support, counter=nodes, prefix_hook=spy):
                    pass
                for prefix in spy.refused:
                    assert not has_matchable_completion(prefix, lists, n), (
                        coloring.to_text(), color, prefix,
                    )
                refused += len(spy.refused)
    assert refused > 1_000


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


@pytest.mark.parametrize("budget", [0, 50, 500, 5000])
def test_tight_budget_never_changes_the_answer(budget):
    # The budget is checked before every push and before a color starts, so
    # the last check saw at most `budget` work units; after it come at most
    # one accepted push (one augmentation) and the node it opens.
    n = 10
    for seed in range(40):
        coloring = gen_coloring(HyperParams(n, 3, 12), "random", seed=seed)
        full = find_mono_berge(coloring)
        report = find_mono_berge(coloring, budget=budget)
        assert report.verdict in ("undecided", full.verdict)
        if report.verdict == "found":
            assert (report.color, report.cycle) == (full.color, full.cycle)
        assert report.work_units <= budget + 2


def test_color_without_cores_stops_at_the_budget():
    # (10,3,12) seed 6: color 4 is the first color searched.  Its support
    # graph is not Hamiltonian; the plain enumeration shows that in 19 nodes.
    # The hooked search walks those same 19 nodes, holding the pairs that the
    # matcher or the look-ahead refuses.  Held pairs cost no augmentations, so
    # it makes 9 augmenting-path attempts on the way: 28 work units, and
    # every one of them counts.
    coloring = gen_coloring(HyperParams(10, 3, 12), "random", seed=6)
    for budget in (19, 24, 27):
        report = find_mono_berge(coloring, budget=budget)
        assert report.stages["colors"][4] == "budget exhausted"
        assert report.verdict == "undecided"
    report = find_mono_berge(coloring, budget=28)
    assert report.stages["colors"][4] == "support graph not Hamiltonian"
