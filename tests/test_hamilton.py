import random
from itertools import combinations

import numpy as np
import pytest

from bergeham import (
    CycleCertificate,
    Graph,
    SearchBudgetExceeded,
    chvatal_check,
    closure,
    dirac_check,
    find_hamiltonian_cycle,
    iter_hamiltonian_cycles,
    transfer_cycle,
)
from bergeham.hamilton import closure_order

from conftest import NON_INTEGER_IDS, NON_INTEGERS, random_graph


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestConditions:
    def test_dirac(self):
        assert dirac_check(Graph.complete(4))
        assert not dirac_check(cycle_graph(5))  # 2*2 < 5
        assert dirac_check(cycle_graph(4))

    def test_chvatal(self):
        assert chvatal_check(Graph.complete(4))
        # degree sequence of C_5: d_2 = 2 <= 2 but d_3 = 2 < 3
        assert not chvatal_check(cycle_graph(5))

    def test_petersen_chvatal_false_and_non_hamiltonian(self, petersen):
        assert not chvatal_check(petersen)
        assert find_hamiltonian_cycle(petersen) is None
        assert next(iter_hamiltonian_cycles(petersen), None) is None

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dirac_check(Graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            chvatal_check(Graph(2, [(0, 1)]))

    def test_dirac_implies_chvatal(self):
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            g = random_graph(rng, rng.randint(3, 10), rng.random())
            if dirac_check(g):
                assert chvatal_check(g)
                checked += 1


class TestClosure:
    def test_k4_minus_edge_closes_to_k4(self):
        g = Graph.complete(4).without_edges([(0, 2)])
        assert closure(g) == Graph.complete(4)

    def test_c5_is_closed(self):
        g = cycle_graph(5)
        assert closure(g) == g

    def test_complete_fixpoint(self):
        g = Graph.complete(6)
        assert closure(g) == g

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_graph(rng, rng.randint(3, 9), rng.random())
            c = closure(g)
            assert closure(c) == c

    def test_order_independent(self):
        # randomized addition order reaches the same fixpoint
        def closure_shuffled(g, rng):
            masks = [g.adjacency_mask(v) for v in range(g.n)]
            degs = [m.bit_count() for m in masks]
            while True:
                pairs = [
                    (u, v)
                    for u, v in combinations(range(g.n), 2)
                    if not masks[u] >> v & 1 and degs[u] + degs[v] >= g.n
                ]
                if not pairs:
                    return Graph(g.n, []).with_edges(
                        [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                         if masks[u] >> v & 1]
                    )
                u, v = rng.choice(pairs)
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                degs[u] += 1
                degs[v] += 1

        rng = random.Random(29)
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 9), rng.random())
            expected = closure(g)
            assert closure_shuffled(g, rng) == expected
            assert closure_shuffled(g, rng) == expected

    def test_contains_original(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, 8, 0.5)
            c = closure(g)
            for u, v in g.edges():
                assert c.has_edge(u, v)


class TestGraphEdits:
    @pytest.mark.parametrize("edit", ["with_edges", "without_edges"])
    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2), (1, 1)])
    def test_edges_checked_as_the_constructor_does(self, edit, edge):
        # an endpoint out of range once raised IndexError, or "negative shift
        # count" for -1, and without_edges took a loop
        with pytest.raises(ValueError) as built:
            Graph(4, [edge])
        with pytest.raises(ValueError) as edited:
            getattr(Graph.complete(4), edit)([(0, 1), edge])
        assert str(edited.value) == str(built.value)

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_endpoints_must_be_integers(self, bad):
        # (True, 2) built the edge (1, 2), and (0, 1.5) raised TypeError
        for edge in [(bad, 2), (0, bad)]:
            with pytest.raises(ValueError):
                Graph(4, [edge])
        g = Graph(4, [(np.int64(1), np.uint8(2))])  # numpy integers pass
        assert g == Graph(4, [(1, 2)])
        assert all(type(g.adjacency_mask(v)) is int for v in range(4))

    @pytest.mark.parametrize("bad", NON_INTEGERS + [2.5, -1],
                             ids=NON_INTEGER_IDS + ["2.5", "-1"])
    def test_vertex_count_must_be_a_nonnegative_integer(self, bad):
        # Graph(2.5) raised TypeError from list multiplication, and
        # Graph(True) built a graph with n=True
        with pytest.raises(ValueError):
            Graph(bad)
        assert Graph(np.int64(3), [(0, 2)]) == Graph(3, [(0, 2)])

    def test_results(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.with_edges([(2, 3), (1, 0)]) == Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.without_edges([(2, 1), (0, 3)]) == Graph(4, [(0, 1)])
        assert g == Graph(4, [(0, 1), (1, 2)])  # the graph itself is unchanged


class TestCertificate:
    def test_validate_names_the_first_missing_edge(self):
        cert = CycleCertificate((0, 1, 2, 3, 4))
        cert.validate(cycle_graph(5))
        path = cycle_graph(5).without_edges([(4, 0)])
        with pytest.raises(ValueError, match=r"missing edge \(4,0\)"):
            cert.validate(path)  # the wraparound pair is checked last
        with pytest.raises(ValueError, match=r"missing edge \(1,2\)"):
            cert.validate(path.without_edges([(1, 2)]))

    @pytest.mark.parametrize("order", [(0, 1, 2, 3, 3), (0, 1, 2, 3), (1, 2, 3, 4, 5)])
    def test_validate_rejects_a_non_permutation(self, order):
        with pytest.raises(ValueError, match="not a permutation"):
            CycleCertificate(order).validate(cycle_graph(5))


class TestTransfer:
    def test_k4_minus_edge_example(self):
        g = Graph.complete(4).without_edges([(0, 2)])
        cert = CycleCertificate((0, 2, 1, 3))
        out = transfer_cycle(g, 0, 2, cert)
        out.validate(g)

    def test_unused_edge_returned_unchanged(self):
        g = Graph.complete(5).without_edges([(0, 2)])
        cert = CycleCertificate((0, 1, 2, 3, 4))
        assert transfer_cycle(g, 0, 2, cert) is cert

    def test_degree_precondition(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            transfer_cycle(g, 0, 3, CycleCertificate((0, 3, 2, 1)))

    def test_outputs_always_validate(self):
        rng = random.Random(37)
        produced = 0
        while produced < 100:
            n = rng.randint(4, 10)
            g = random_graph(rng, n, 0.55)
            closed, added = closure_order(g)
            cert = find_hamiltonian_cycle(closed)
            if cert is None or not added:
                continue
            masks = closed
            for u, v in reversed(added):
                masks = masks.without_edges([(u, v)])
                cert = transfer_cycle(masks, u, v, cert)
                cert.validate(masks)
                produced += 1


class TestFinder:
    def test_c5_found(self):
        cert = find_hamiltonian_cycle(cycle_graph(5))
        assert cert is not None
        cert.validate(cycle_graph(5))

    def test_disjoint_triangles_absent(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert find_hamiltonian_cycle(g) is None

    def test_budget_reported_distinctly(self):
        from conftest import PETERSEN_EDGES

        g = Graph(10, PETERSEN_EDGES)
        with pytest.raises(SearchBudgetExceeded):
            find_hamiltonian_cycle(g, max_nodes=3)
        assert find_hamiltonian_cycle(g) is None

    # None is absent: it means no budget
    @pytest.mark.parametrize("bad", NON_INTEGERS[:-1] + [1.5, -1],
                             ids=NON_INTEGER_IDS[:-1] + ["1.5", "-1"])
    def test_budget_must_be_a_nonnegative_integer(self, petersen, bad):
        # True and 1.5 acted as a budget of 1, -1 read as an exhausted
        # budget, and "1" raised TypeError from a comparison
        with pytest.raises(ValueError, match="max_nodes"):
            find_hamiltonian_cycle(petersen, max_nodes=bad)
        with pytest.raises(SearchBudgetExceeded):
            find_hamiltonian_cycle(petersen, max_nodes=np.int64(3))
        # a complete closure is answered without a search, so 0 suffices
        assert find_hamiltonian_cycle(Graph.complete(5), max_nodes=0) is not None

    def test_closure_equivalence_small(self):
        # computable closure lemma on a slice of small graphs
        rng = random.Random(43)
        for _ in range(400):
            g = random_graph(rng, rng.randint(3, 7), rng.random())
            direct = next(iter_hamiltonian_cycles(g), None)
            via = next(iter_hamiltonian_cycles(closure(g)), None)
            assert (direct is None) == (via is None)
            peeled = find_hamiltonian_cycle(g)
            assert (peeled is None) == (direct is None)
            if peeled is not None:
                peeled.validate(g)

    def test_chvatal_implies_certificate_sample(self):
        rng = random.Random(47)
        confirmed = 0
        while confirmed < 150:
            g = random_graph(rng, rng.randint(5, 14), rng.uniform(0.5, 0.9))
            if not chvatal_check(g):
                continue
            cert = find_hamiltonian_cycle(g)
            assert cert is not None
            cert.validate(g)
            confirmed += 1

    def test_deterministic_certificates(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_graph(rng, 9, 0.5)
            a = find_hamiltonian_cycle(g)
            b = find_hamiltonian_cycle(g)
            assert (a is None and b is None) or a.order == b.order


class TestEnumeration:
    def test_k4_has_three_cycles(self):
        assert len(list(iter_hamiltonian_cycles(Graph.complete(4)))) == 3

    def test_c5_has_one(self):
        cycles = list(iter_hamiltonian_cycles(cycle_graph(5)))
        assert len(cycles) == 1
        assert cycles[0].order == (0, 1, 2, 3, 4)

    def test_count_matches_brute_force(self):
        rng = random.Random(59)
        for _ in range(20):
            n = rng.randint(4, 7)
            g = random_graph(rng, n, 0.6)
            got = len(list(iter_hamiltonian_cycles(g)))
            # brute force: canonical cyclic sequences that are cycles of g
            from itertools import permutations

            brute = 0
            for perm in permutations(range(1, n)):
                if perm[0] > perm[-1]:
                    continue
                order = (0,) + perm
                if all(
                    g.has_edge(order[i], order[(i + 1) % n]) for i in range(n)
                ):
                    brute += 1
            assert got == brute

    def test_first_yield_is_plain_finder_certificate(self):
        # with nothing to close and the graph not complete, the finder runs
        # the plain search on the graph itself
        rng = random.Random(61)
        checked = found = 0
        for _ in range(1500):
            g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.3, 0.7))
            closed, added = closure_order(g)
            if added or closed == Graph.complete(g.n):
                continue
            first = next(iter_hamiltonian_cycles(g), None)
            cert = find_hamiltonian_cycle(g)
            assert (first is None) == (cert is None)
            if first is not None:
                assert first.order == cert.order
                found += 1
            checked += 1
        assert checked >= 500 and found >= 30

    def test_yields_canonical_orders_ascending(self):
        orders = [c.order for c in iter_hamiltonian_cycles(Graph.complete(6))]
        assert len(orders) == 60
        assert orders == sorted(orders)
        assert all(o[0] == 0 and o[1] < o[-1] for o in orders)

    def test_only_the_finder_takes_a_budget(self, petersen):
        # the enumerator's counter is keyword-only, so an old positional
        # budget is refused rather than read as a counter
        with pytest.raises(TypeError):
            iter_hamiltonian_cycles(petersen, 3)
        with pytest.raises(TypeError):
            iter_hamiltonian_cycles(petersen, max_nodes=3)
        with pytest.raises(SearchBudgetExceeded):
            find_hamiltonian_cycle(petersen, max_nodes=3)

    def test_finder_and_enumerator_share_one_search(self, petersen):
        # Petersen's closure adds nothing, so on this non-Hamiltonian graph
        # both explore the same full search tree
        counter = [0]
        assert list(iter_hamiltonian_cycles(petersen, counter=counter)) == []
        spent = counter[0]
        assert spent > 0
        assert closure(petersen) == petersen
        assert find_hamiltonian_cycle(petersen, counter=counter) is None
        assert counter[0] == 2 * spent
