"""Core data model: complete r-uniform hypergraphs, edge colorings, Berge-cycles.

Hyperedges of K_n^r are the r-subsets of [0, n), indexed by their colex rank
(combinadic number system).  A coloring is a dense vector of 1-based color ids
over that index space.  Everything here is immutable after construction.

Which vertices an edge holds is read from one cached member table per (n, r),
`edge_members`; pair lists, candidate tables and the verifier all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

MAX_EDGE_INDEX = 2**63  # constructors reject parameter sets at or beyond this
MAX_COLORS = 255


@dataclass(frozen=True)
class HyperParams:
    """Parameters (n, r, k): vertex count, uniformity, number of colors."""

    n: int
    r: int
    k: int = 1

    def __post_init__(self):
        if not all(map(_is_int, (self.n, self.r, self.k))):
            raise ValueError(f"n, r and k must be integers, got {self!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 2 <= self.r <= self.n:
            raise ValueError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        if not 1 <= self.k <= MAX_COLORS:
            raise ValueError(f"need 1 <= k <= {MAX_COLORS}, got k={self.k}")
        if comb(self.n, self.r) >= MAX_EDGE_INDEX:
            raise ValueError(
                f"C({self.n},{self.r}) = {comb(self.n, self.r)} exceeds the "
                f"64-bit edge index range"
            )

    @property
    def edge_count(self) -> int:
        return comb(self.n, self.r)


def rank_edge(subset: Sequence[int], params: HyperParams) -> int:
    """Colex rank of an r-subset: sum of C(v_j, j+1) over the sorted elements."""
    r, n = params.r, params.n
    if len(subset) != r:
        raise ValueError(f"subset has {len(subset)} vertices, expected r={r}")
    prev = -1
    rank = 0
    for j, v in enumerate(subset):
        if v <= prev:
            raise ValueError(f"subset {tuple(subset)} is not strictly increasing")
        if v >= n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        prev = v
        rank += comb(v, j + 1)
    return rank


def unrank_edge(index: int, params: HyperParams) -> tuple[int, ...]:
    """The r-subset of [0, n) with the given colex rank."""
    if not 0 <= index < params.edge_count:
        raise ValueError(f"edge index {index} out of range [0, {params.edge_count})")
    out = [0] * params.r
    j = params.r
    v = params.n
    rem = index
    while j > 0:
        v -= 1
        c = comb(v, j)
        if rem >= c:
            rem -= c
            j -= 1
            out[j] = v
    return tuple(out)


def iter_colex_edges(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Yield all r-subsets of [0, n) in colex order (rank 0, 1, 2, ...)."""
    cur = list(range(r))
    last = n - 1
    while True:
        yield tuple(cur)
        # odometer step: bump the lowest element that has room below its successor
        j = 0
        while j < r - 1 and cur[j] + 1 == cur[j + 1]:
            j += 1
        if j == r - 1 and cur[j] == last:
            return
        cur[j] += 1
        for i in range(j):
            cur[i] = i


@lru_cache(maxsize=8)
def edge_members(n: int, r: int) -> np.ndarray:
    """Read-only (C(n, r), r) table whose row t is the colex-rank-t edge.

    Rows are ascending vertex tuples.  One table per (n, r) is cached and
    shared by every coloring with those parameters.
    """
    table = np.fromiter(
        (v for e in iter_colex_edges(n, r) for v in e),
        dtype=np.uint8 if n <= 256 else np.uint16,
        count=comb(n, r) * r,
    ).reshape(-1, r)
    table.flags.writeable = False
    return table


def pair_supersets(u: int, v: int, params: HyperParams) -> list[int]:
    """Edge indices of all r-subsets containing both u and v, ascending.

    There are exactly C(n-2, r-2) of them.
    """
    n, r = params.n, params.r
    if u == v:
        raise ValueError("u and v must be distinct")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for n={n}")
    members = edge_members(n, r)
    hit = (members == u).any(axis=1) & (members == v).any(axis=1)
    return np.flatnonzero(hit).tolist()


class Coloring:
    """A k-coloring of all r-subsets of [0, n), colex-indexed, colors 1..k."""

    def __init__(self, params: HyperParams, colors):
        """`colors` must be a row of C(n,r) integers in [1, k], else
        ValueError; the coloring keeps a read-only uint8 copy of its own."""
        arr = np.asarray(colors)
        if arr.ndim != 1 or len(arr) != params.edge_count:
            raise ValueError(
                f"expected a row of {params.edge_count} colors, got shape {arr.shape}"
            )
        # checked before narrowing, so no value wraps into range
        if arr.dtype.kind not in "iu" or arr.min() < 1 or arr.max() > params.k:
            raise ValueError(f"colors must be integers in [1, {params.k}]")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        self.params = params
        self.colors = arr

    def color_of(self, index: int) -> int:
        if not 0 <= index < self.params.edge_count:
            raise ValueError(f"edge index {index} out of range")
        return int(self.colors[index])

    def class_sizes(self) -> np.ndarray:
        """Number of edges per color; entry i-1 is the size of class i."""
        return np.bincount(self.colors, minlength=self.params.k + 1)[1:]

    def class_members(self, color: int) -> tuple[np.ndarray, np.ndarray]:
        """(edges, rows): ascending edge indices of one color class and the
        member-table rows of those edges."""
        edges = np.flatnonzero(self.colors == color)
        return edges, edge_members(self.params.n, self.params.r)[edges]

    # --- text format: line 1 "n r k", line 2 = edge_count color ids -------

    def to_text(self) -> str:
        p = self.params
        body = " ".join(str(int(c)) for c in self.colors)
        return f"{p.n} {p.r} {p.k}\n{body}\n"

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        lines = text.split("\n")
        if len(lines) < 2:
            raise ValueError("coloring text needs a header line and a color line")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"malformed header {lines[0]!r}, expected 'n r k'")
        try:
            n, r, k = (int(x) for x in head)
        except ValueError:
            raise ValueError(f"non-integer header {lines[0]!r}") from None
        return cls(HyperParams(n, r, k), [int(x) for x in lines[1].split()])

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.params == other.params
            and bool(np.array_equal(self.colors, other.colors))
        )

    def __repr__(self):
        p = self.params
        return f"Coloring(n={p.n}, r={p.r}, k={p.k})"


def pair_edges(coloring: Coloring, color: int) -> dict[tuple[int, int], list[int]]:
    """Map each vertex pair (u, v), u < v, to the ascending edges of one color
    class that contain it."""
    edges, rows = coloring.class_members(color)
    return _class_pair_lists(coloring.params.n, edges.tolist(), rows.tolist())


def _class_pair_lists(
    n: int, edges: list[int], rows: list[list[int]]
) -> dict[tuple[int, int], list[int]]:
    """`pair_edges` from a color class already gathered: its ascending edge
    indices and their member rows."""
    lists: dict[tuple[int, int], list[int]] = {
        pair: [] for pair in combinations(range(n), 2)
    }
    for t, row in zip(edges, rows):
        for pair in combinations(row, 2):
            lists[pair].append(t)
    return lists


def _is_int(x) -> bool:
    """A Python or numpy integer; bools, floats and strings are not."""
    return type(x) is int or isinstance(x, np.integer)


@dataclass(frozen=True)
class BergeCycle:
    """Core vertex sequence v_1..v_n plus distinct hyperedge indices e_1..e_n.

    Edge e_i must contain {v_i, v_{i+1}} (cyclically).  When `color` is set the
    cycle claims to be monochromatic in that color.
    """

    core: tuple[int, ...]
    edges: tuple[int, ...]
    color: Optional[int] = None


@dataclass(frozen=True)
class Violation:
    """Why a Berge-cycle certificate failed; position is 1-based (e_1..e_n)."""

    kind: str
    position: Optional[int] = None

    def __str__(self):
        if self.position is None:
            return self.kind
        return f"{self.kind} at position {self.position}"


def verify_berge_cycle(cycle: BergeCycle, coloring: Coloring) -> Optional[Violation]:
    """Check a Hamiltonian Berge-cycle certificate; None means valid.

    Checks, in order: core and edge tuples both have length n; core is a
    permutation of [0, n); the claimed color is in [1, k] and its class has at
    least n edges (a core vertex or color that is not a Python or numpy
    integer fails its check); then per position (ascending, 1-based) the edge
    index range (a float, a string or another index numpy cannot take counts
    as out of range), distinctness against earlier positions, containment of
    the core pair, and the edge color.  The first failure is reported.
    """
    params = coloring.params
    n = params.n
    if len(cycle.core) != n or len(cycle.edges) != n:
        return Violation("wrong length")
    seen_v = set()
    for pos, v in enumerate(cycle.core, start=1):
        if not _is_int(v) or not 0 <= v < n or v in seen_v:
            return Violation("core not a permutation", pos)
        seen_v.add(v)
    colors = coloring.colors
    color = cycle.color
    if color is not None:
        if not _is_int(color) or not 1 <= color <= params.k:
            return Violation("color id out of range")
        if int(np.count_nonzero(colors == color)) < n:
            return Violation("color class smaller than n")
    members = edge_members(n, params.r)
    edge_count = params.edge_count
    seen_e = set()
    for i in range(n):
        pos = i + 1
        e = cycle.edges[i]
        # numpy refuses a non-integer row index (IndexError), and a
        # non-number fails the comparison (TypeError)
        try:
            if not 0 <= e < edge_count:
                raise IndexError
            row = members[e].tolist()
        except (IndexError, TypeError):
            return Violation("edge index out of range", pos)
        if e in seen_e:
            return Violation("duplicate edge", pos)
        seen_e.add(e)
        a, b = cycle.core[i], cycle.core[(i + 1) % n]
        if a not in row or b not in row:
            return Violation("containment", pos)
        if color is not None and colors[e] != color:
            return Violation("edge color", pos)
    return None
