"""Dirac and Chvatal conditions, the degree-sum closure, and the exact finder."""

import random

from bergeham import (
    Graph,
    chvatal_check,
    closure,
    dirac_check,
    find_hamiltonian_cycle,
    iter_hamiltonian_cycles,
    transfer_cycle,
)
from bergeham.hamilton import closure_order

c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
print("C_5: dirac", dirac_check(c5), "| chvatal", chvatal_check(c5))
print("C_5 is its own closure:", closure(c5) == c5)
print("C_5 cycle:", find_hamiltonian_cycle(c5).order)

petersen = Graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])
print("\nPetersen: chvatal", chvatal_check(petersen),
      "| finder:", find_hamiltonian_cycle(petersen))

# The closure adds uv whenever deg(u)+deg(v) >= n; Hamiltonicity is preserved
# in both directions, and the transfer step makes the backward direction
# constructive: peel added edges off a cycle of the closure one at a time.
g = Graph.complete(6).without_edges([(0, 2), (1, 4), (3, 5)])
closed, added = closure_order(g)
print("\nK_6 minus three edges closes back to K_6:", closed == Graph.complete(6))
cert = next(iter_hamiltonian_cycles(closed))
work = closed
for u, v in reversed(added):
    work = work.without_edges([(u, v)])
    cert = transfer_cycle(work, u, v, cert)
print("peeled cycle valid in the original graph:", cert.order)
cert.validate(g)

# The enumerator yields one representative per rotation/reflection class.
print("\nK_5 has", len(list(iter_hamiltonian_cycles(Graph.complete(5)))),
      "Hamiltonian cycles up to symmetry (4!/2 = 12)")

# Random dense graphs almost always satisfy Chvatal, and then a certificate
# is guaranteed; the finder stays exact either way.
rng = random.Random(2)
hits = 0
for _ in range(200):
    n = rng.randint(6, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.7]
    graph = Graph(n, edges)
    if chvatal_check(graph):
        assert find_hamiltonian_cycle(graph) is not None
        hits += 1
print(f"{hits}/200 random graphs passed Chvatal; every one yielded a cycle")
