"""Multi-coloring machinery on the shadow graph.

For an edge-colored K_n^r the shadow graph is the complete graph on the same
vertices.  Each vertex pair carries the list of colors of hyperedges through
it; a color is *good* for the pair when at least `good_threshold` such
hyperedges have that color.  On top of that sit color degrees, the U/U-bar
vertex splits, avoidance sets, the bad-pair graphs W_i, and the
isolated / high-degree / middle partition of an auxiliary graph.

The good threshold defaults to r-1 and the avoidance degree bound to
C(4r, r-1); both are parameters because those values swamp every statistic at
small n and experiments need smaller ones to reach the nontrivial branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph
from .hamilton import find_hamiltonian_cycle
from .hypercore import Coloring, _check_args, _check_int, edge_members, iter_colex_edges


def default_degree_bound(r: int) -> int:
    """The avoidance degree bound C(4r, r-1)."""
    return comb(4 * r, r - 1)


class ColorProfile:
    """Per-pair color counts, good-color sets, and color degrees for a coloring.

    Built in one vectorized pass over all hyperedges; all queries afterwards
    are read-only and pass their vertices and colors through
    `hypercore._check_args`.  A good threshold that is not an integer of at
    least 1 raises ValueError.
    """

    def __init__(self, coloring: Coloring, good_threshold: Optional[int] = None):
        p = coloring.params
        self.coloring = coloring
        self.good_threshold = p.r - 1 if good_threshold is None else good_threshold
        _check_int("good_threshold", self.good_threshold, 1)
        n, r, k = p.n, p.r, p.k
        edges = edge_members(n, r)
        ci = coloring.colors.astype(np.intp) - 1
        # counts[u, v, i-1] = color-i hyperedges through u and v; rows are
        # ascending, so the loop fills u < v and the transpose the rest
        counts = np.zeros(n * n * k, dtype=np.int64)
        for a, b in combinations(range(r), 2):
            cell = (edges[:, a].astype(np.intp) * n + edges[:, b]) * k + ci
            counts += np.bincount(cell, minlength=counts.size)
        counts = counts.reshape(n, n, k)
        counts = counts + counts.transpose(1, 0, 2)
        self._good = counts >= self.good_threshold
        # each color-i hyperedge through x holds r-1 other vertices
        self._deg = counts.sum(axis=1) // (r - 1)

    @property
    def params(self):
        return self.coloring.params

    def good_colors(self, u: int, v: int) -> set[int]:
        """L*(uv): colors with at least good_threshold hyperedges through u, v."""
        _check_args(self.params, (u, v))
        return {int(i) + 1 for i in np.flatnonzero(self._good[u, v])}

    def is_good(self, u: int, v: int, i: int) -> bool:
        _check_args(self.params, (u, v), (i,))
        return bool(self._good[u, v, i - 1])

    def color_degree(self, x: int, i: int) -> int:
        """Number of color-i hyperedges containing x."""
        _check_args(self.params, (x,), (i,))
        return int(self._deg[x, i - 1])

    def ubar_set(self, x: int, i: int) -> frozenset[int]:
        _check_args(self.params, (x,), (i,))
        bad = ~self._good[x, :, i - 1]
        bad[x] = False
        return frozenset(int(y) for y in np.flatnonzero(bad))

    def ubar_size(self, x: int, i: int) -> int:
        _check_args(self.params, (x,), (i,))
        # the zero diagonal is never good, so x is not counted among the good
        return self.params.n - 1 - int(np.count_nonzero(self._good[x, :, i - 1]))


def color_degree(x: int, i: int, coloring: Coloring) -> int:
    """Count color-i hyperedges containing x, straight from the coloring."""
    p = coloring.params
    _check_args(p, (x,), (i,))
    count = 0
    for t, e in enumerate(iter_colex_edges(p.n, p.r)):
        if x in e and coloring.colors[t] == i:
            count += 1
    return count


def u_sets(
    x: int, I: Iterable[int], profile: ColorProfile
) -> tuple[frozenset[int], frozenset[int]]:
    """(U_I(x), Ubar_I(x)): vertices where every color of I is good / none is.

    For a single color the two sets partition the other vertices; for larger I
    they are intersections and need not cover everything.
    """
    I = list(I)
    _check_args(profile.params, (x,), I)
    if not I:
        raise ValueError("color set I must be nonempty")
    good = profile._good[x][:, [i - 1 for i in I]]
    u_acc = good.all(axis=1)
    ub_acc = ~good.any(axis=1)
    u_acc[x] = False
    ub_acc[x] = False
    return (
        frozenset(int(y) for y in np.flatnonzero(u_acc)),
        frozenset(int(y) for y in np.flatnonzero(ub_acc)),
    )


def avoids(
    S: Iterable[int],
    W: Iterable[int],
    profile: ColorProfile,
    d_bound: Optional[int] = None,
) -> bool:
    """Does vertex set S avoid every color of W?

    Color i is blocked when some x in S has at most d_bound hyperedges of
    color i, or some pair inside S lacks i as a good color.  Empty W is
    vacuously avoided.
    """
    S = sorted(set(S))
    W = set(W)
    if d_bound is None:
        d_bound = default_degree_bound(profile.params.r)
    for i in W:
        if any(profile.color_degree(x, i) <= d_bound for x in S):
            continue
        if any(not profile.is_good(u, v, i) for u, v in combinations(S, 2)):
            continue
        return False
    return True


def _greedy_avoiding(
    P: Iterable[int],
    profile: ColorProfile,
    d_bound: int,
    forbidden: frozenset[int] = frozenset(),
    pad_to: Optional[int] = None,
) -> Optional[list[int]]:
    """Greedy avoidance-set construction; best effort, smallest vertices first.

    Covers colors in ascending order via a low-degree vertex, then a bad-pair
    completion against the current set, then (budget permitting) a fresh bad
    pair.  Returns None when some color cannot be covered.  With pad_to the
    result is padded to that exact size; avoidance is monotone under adding
    vertices, so padding is safe.
    """
    P = sorted(set(P))
    n = profile.params.n
    S: list[int] = []
    limit = (pad_to if pad_to is not None else len(P) + 1) or 0

    def usable(v):
        return v not in forbidden and v not in S

    for i in P:
        if avoids(S, [i], profile, d_bound):
            continue
        pick = next(
            (
                v
                for v in range(n)
                if usable(v) and profile.color_degree(v, i) <= d_bound
            ),
            None,
        )
        if pick is None:
            pick = next(
                (
                    v
                    for v in range(n)
                    if usable(v)
                    and any(not profile.is_good(u, v, i) for u in S)
                ),
                None,
            )
        if pick is not None:
            if len(S) + 1 > limit:
                return None
            S.append(pick)
            continue
        fresh = next(
            (
                (u, v)
                for u, v in bad_edge_graph(i, profile).edges()
                if usable(u) and usable(v)
            ),
            None,
        )
        if fresh is None or len(S) + 2 > limit:
            return None
        S.extend(fresh)
    if pad_to is not None:
        for v in range(n):
            if len(S) >= pad_to:
                break
            if usable(v):
                S.append(v)
        if len(S) != pad_to:
            return None
    return S


def find_avoiding_set(
    P: Iterable[int], profile: ColorProfile, d_bound: Optional[int] = None
) -> Optional[frozenset[int]]:
    """Best-effort search for a vertex set of size <= |P|+1 avoiding P.

    The existence guarantee behind this shape of set only holds under a global
    hypothesis that small instances need not satisfy, so absence here carries
    no structural meaning.
    """
    P = set(P)
    if d_bound is None:
        d_bound = default_degree_bound(profile.params.r)
    got = _greedy_avoiding(P, profile, d_bound)
    return None if got is None else frozenset(got)


@dataclass(frozen=True)
class PartitionTRQ:
    """Isolated vertices (T), degree >= (n-1)/2 vertices (R), and the rest (Q)."""

    T: frozenset[int]
    R: frozenset[int]
    Q: frozenset[int]

    def to_json(self) -> dict:
        return {
            "T": sorted(self.T),
            "R": sorted(self.R),
            "Q": sorted(self.Q),
        }


def partition_trq(g: Graph) -> PartitionTRQ:
    """Split vertices by degree in g: zero / at least (n-1)/2 / in between.

    The threshold comparison is exact integer arithmetic: 2*deg >= n-1.
    """
    n = g.n
    T, R, Q = [], [], []
    for v in range(n):
        d = g.degree(v)
        if d == 0:
            T.append(v)
        elif 2 * d >= n - 1:
            R.append(v)
        else:
            Q.append(v)
    return PartitionTRQ(frozenset(T), frozenset(R), frozenset(Q))


def bad_edge_graph(i: int, profile: ColorProfile) -> Graph:
    """The graph W_i of vertex pairs for which color i is not good."""
    p = profile.params
    _check_args(p, (), (i,))
    # pairs u < v only: the diagonal is never good, so it would read as bad
    bad = np.triu(~profile._good[:, :, i - 1], 1)
    return Graph(p.n, np.argwhere(bad).tolist())


def minimal_breaking_subgraph(
    i: int, profile: ColorProfile, budget: int = 200_000
) -> Optional[tuple[frozenset[tuple[int, int]], Graph, Graph]]:
    """Minimum S_i inside W_i whose removal from K_n kills Hamiltonicity.

    Precondition (checked): removing all of W_i already gives a
    non-Hamiltonian spanning subgraph.  Subsets are enumerated by increasing
    size in lexicographic order, so the result is the lexicographically
    smallest minimum set; `budget` caps the number of subsets tested and
    exceeding it returns None.

    Returns (S_i, G_i, G_i_complement) where G_i is spanned by S_i and the
    complement by the remaining shadow edges.  The minimum set provably
    satisfies deg(x) + deg(y) >= n-1 in G_i for each of its edges; that is
    re-checked here.
    """
    n = profile.params.n
    bad = sorted(bad_edge_graph(i, profile).edges())
    complete = Graph.complete(n)
    base = complete.without_edges(bad)
    if find_hamiltonian_cycle(base) is not None:
        raise ValueError(
            "removing all bad pairs leaves a Hamiltonian spanning subgraph; "
            "minimal breaking set is undefined"
        )
    tested = 0
    for size in range(len(bad) + 1):
        for S in combinations(bad, size):
            tested += 1
            if tested > budget:
                return None
            g = complete.without_edges(S)
            if find_hamiltonian_cycle(g) is None:
                gi = Graph(n, S)
                for u, v in S:
                    if gi.degree(u) + gi.degree(v) < n - 1:
                        raise RuntimeError(
                            "minimum breaking set violates the adjacent "
                            "degree-sum bound; enumeration is broken"
                        )
                return frozenset(S), gi, g
    raise AssertionError("unreachable: the full bad set satisfies the precondition")
