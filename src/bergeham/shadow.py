"""Multi-coloring machinery on the shadow graph.

For an edge-colored K_n^r the shadow graph is the complete graph on the same
vertices.  Each vertex pair carries the list of colors of hyperedges through
it; a color is *good* for the pair when at least `good_threshold` such
hyperedges have that color.  On top of that sit color degrees, the U-bar
sets, avoidance sets and the bad-pair graphs W_i.

The good threshold defaults to r-1 and the avoidance degree bound to
C(4r, r-1); both are parameters because those values swamp every statistic at
small n and experiments need smaller ones to reach the nontrivial branches.
Either one given explicitly must be an integer (at least 1 for the threshold,
at least 0 for the bound), else ValueError.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph
from .hypercore import Coloring, _check_args, _check_int, edge_members


def default_degree_bound(r: int) -> int:
    """The avoidance degree bound C(4r, r-1)."""
    return comb(4 * r, r - 1)


def _degree_bound(d_bound: Optional[int], r: int) -> int:
    """`d_bound`, or `default_degree_bound(r)` when it is None.  A bound that
    is not an integer of at least 0 raises ValueError."""
    if d_bound is None:
        return default_degree_bound(r)
    _check_int("d_bound", d_bound, 0)
    return d_bound


_PROFILE_BLOCK = 1 << 13  # member rows per `ColorProfile` counting block


class ColorProfile:
    """Per-pair color counts, good-color sets, color degrees and |Ubar_i(x)|
    for a coloring.

    The pair counts are summed over the member table `_PROFILE_BLOCK` edges
    at a time, one `bincount` per block and column pair, so the temporaries
    stay a block long; all queries afterwards are read-only and pass their
    vertices and colors through `hypercore._check_args`.  A good threshold
    that is not an integer of at least 1 raises ValueError.
    """

    def __init__(self, coloring: Coloring, good_threshold: Optional[int] = None):
        p = coloring.params
        self.coloring = coloring
        self.good_threshold = p.r - 1 if good_threshold is None else good_threshold
        _check_int("good_threshold", self.good_threshold, 1)
        n, r, k = p.n, p.r, p.k
        edges = edge_members(n, r)
        colors = coloring.colors
        # counts[u, v, i-1] = color-i hyperedges through u and v; rows are
        # ascending, so the loop fills u < v and the transpose the rest
        counts = np.zeros(n * n * k, dtype=np.int64)
        for lo in range(0, len(edges), _PROFILE_BLOCK):
            block = slice(lo, lo + _PROFILE_BLOCK)
            cols = edges[block].T.astype(np.intp, order="C")
            # columns a < b put an edge of color i in cell (u n + v) k + i-1,
            # heads[a] + tails[b-1]: heads are columns 0..r-2 times nk plus
            # i-1, tails columns 1..r-1 times k
            heads = cols[:-1] * (n * k)
            heads += colors[block] - 1
            tails = cols[1:]
            tails *= k
            for a, b in combinations(range(r), 2):
                counts += np.bincount(heads[a] + tails[b - 1], minlength=counts.size)
        counts = counts.reshape(n, n, k)
        counts = counts + counts.transpose(1, 0, 2)
        self._good = counts >= self.good_threshold
        # each color-i hyperedge through x holds r-1 other vertices
        self._deg = counts.sum(axis=1) // (r - 1)
        # the zero diagonal is never good, so x is not counted among the good
        self._ubar = n - 1 - np.count_nonzero(self._good, axis=1)

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
        return int(self._ubar[x, i - 1])


def avoids(
    S: Iterable[int],
    W: Iterable[int],
    profile: ColorProfile,
    d_bound: Optional[int] = None,
) -> bool:
    """Does vertex set S avoid every color of W?

    Color i is blocked when some x in S has at most d_bound hyperedges of
    color i, or some pair inside S lacks i as a good color.  Empty W is
    vacuously avoided.  A d_bound that is not an integer of at least 0 raises
    ValueError.
    """
    S = sorted(set(S))
    W = set(W)
    d_bound = _degree_bound(d_bound, profile.params.r)
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
    forbidden: frozenset[int],
    pad_to: int,
) -> Optional[list[int]]:
    """Greedy avoidance-set construction; best effort, smallest vertices first.

    Covers colors in ascending order via a low-degree vertex, then a bad-pair
    completion against the current set, then (budget permitting) a fresh bad
    pair, never using a vertex of `forbidden`.  Returns None when some color
    cannot be covered within pad_to vertices.  The result is padded to exactly
    pad_to vertices; avoidance is monotone under adding vertices, so padding
    is safe.
    """
    P = sorted(set(P))
    n = profile.params.n
    S: list[int] = []

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
            if len(S) + 1 > pad_to:
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
        if fresh is None or len(S) + 2 > pad_to:
            return None
        S.extend(fresh)
    for v in range(n):
        if len(S) >= pad_to:
            break
        if usable(v):
            S.append(v)
    if len(S) != pad_to:
        return None
    return S


def bad_edge_graph(i: int, profile: ColorProfile) -> Graph:
    """The graph W_i of vertex pairs for which color i is not good."""
    p = profile.params
    _check_args(p, (), (i,))
    # pairs u < v only: the diagonal is never good, so it would read as bad
    bad = np.triu(~profile._good[:, :, i - 1], 1)
    return Graph(p.n, np.argwhere(bad).tolist())
