"""Core data model: complete r-uniform hypergraphs, edge colorings, Berge-cycles.

Hyperedges of K_n^r are the r-subsets of [0, n), indexed by their colex rank
(combinadic number system).  A coloring is a dense vector of 1-based color ids
over that index space.  Everything here is immutable after construction.

Which vertices an edge holds is read from one cached member table per (n, r),
`edge_members`, built from the prefix property of colex order: the j-subsets
with largest element m are the first C(m, j-1) rows of the (j-1)-subset table,
each with m appended.  The search's per-vertex class bitmasks, candidate
tables and the verifier read it, and `iter_colex_edges` yields its rows.

Every vertex, color and edge index a public call takes passes one argument
check, `_check_args`: a Python or numpy integer (`_is_int`: no bool, float or
string) in [0, n), [1, k] or [0, C(n, r)) respectively, else ValueError.  The
verifier reports a failure of the same rule as a `Violation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

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
    if len(subset) != params.r:
        raise ValueError(f"subset has {len(subset)} vertices, expected r={params.r}")
    _check_args(params, subset)
    prev = -1
    rank = 0
    for j, v in enumerate(subset):
        if v <= prev:
            raise ValueError(f"subset {tuple(subset)} is not strictly increasing")
        prev = v
        rank += comb(v, j + 1)
    return rank


def unrank_edge(index: int, params: HyperParams) -> tuple[int, ...]:
    """The r-subset of [0, n) with the given colex rank."""
    _check_args(params, edges=(index,))
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
    """Yield the rows of `edge_members(n, r)` as tuples, 1 024 at a time."""
    table = edge_members(n, r)
    for start in range(0, len(table), 1024):
        yield from map(tuple, table[start:start + 1024].tolist())


@lru_cache(maxsize=8, typed=True)  # typed: 6.0 never hits the entry of 6
def edge_members(n: int, r: int) -> np.ndarray:
    """Read-only (C(n, r), r) table whose row t is the colex-rank-t edge.

    Built one column at a time: the j-subsets with largest element m are the
    first C(m, j-1) rows of the (j-1)-subset table, each with m appended; an
    r-subset's j-th vertex is at most n-r+j-1.  Rows are ascending.  One table
    per (n, r) is cached and shared by every coloring with those parameters.
    An (n, r) that `HyperParams` rejects raises ValueError.
    """
    HyperParams(n, r)
    table = np.empty((1, 0), dtype=np.uint8 if n <= 256 else np.uint16)
    for j in range(1, r + 1):
        tops = np.arange(j - 1, n - r + j, dtype=table.dtype)
        counts = [comb(m, j - 1) for m in range(j - 1, n - r + j)]
        heads = np.concatenate([table[:c] for c in counts])
        table = np.column_stack((heads, np.repeat(tops, counts)))
    table.flags.writeable = False
    return table


def pair_supersets(u: int, v: int, params: HyperParams) -> list[int]:
    """Edge indices of all r-subsets containing both u and v, ascending.

    There are exactly C(n-2, r-2) of them.
    """
    _check_args(params, (u, v))
    members = edge_members(params.n, params.r)
    return np.flatnonzero(_rows_through(members, u) & _rows_through(members, v)).tolist()


def _rows_through(rows: np.ndarray, v: int) -> np.ndarray:
    """Boolean mask of the member rows (one edge per row) that hold vertex v,
    from one compare per column."""
    hit = rows[:, 0] == v
    for j in range(1, rows.shape[1]):
        hit |= rows[:, j] == v
    return hit


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
        _check_args(self.params, edges=(index,))
        return int(self.colors[index])

    def class_sizes(self) -> np.ndarray:
        """Number of edges per color; entry i-1 is the size of class i."""
        return np.bincount(self.colors, minlength=self.params.k + 1)[1:]

    def class_members(self, color: int) -> tuple[np.ndarray, np.ndarray]:
        """(edges, rows): ascending edge indices of one color class and the
        member-table rows of those edges."""
        _check_args(self.params, colors=(color,))
        edges = np.flatnonzero(self.colors == color)
        return edges, edge_members(self.params.n, self.params.r)[edges]

    # --- text format: line 1 "n r k", line 2 = edge_count color ids; no more

    def to_text(self) -> str:
        p = self.params
        body = " ".join(map(str, self.colors.tolist()))
        return f"{p.n} {p.r} {p.k}\n{body}\n"

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        lines = text.split("\n")
        if len(lines) < 2:
            raise ValueError("coloring text needs a header line and a color line")
        if any(line.strip() for line in lines[2:]):
            raise ValueError("coloring text has content past its color line")
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


def _is_int(x) -> bool:
    """A Python or numpy integer; bools, floats and strings are not."""
    return type(x) is int or isinstance(x, np.integer)


def _check_int(name: str, x, lo: int, hi: float = float("inf")) -> None:
    """Raise ValueError unless x is a Python or numpy integer in [lo, hi]."""
    if not _is_int(x) or not lo <= x <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")


def _check_args(p: HyperParams, vertices: Sequence = (), colors: Iterable = (),
                edges: Iterable = ()) -> None:
    """Raise ValueError unless each vertex, color and edge index is an integer
    in range (see the module docstring) and a pair of vertices is distinct."""
    # a Python int in range, the common case, skips the `_check_int` call
    n = p.n
    for v in vertices:
        if type(v) is not int or not 0 <= v < n:
            _check_int("vertex", v, 0, n - 1)
    if len(vertices) == 2 and vertices[0] == vertices[1]:
        raise ValueError("pair endpoints must be distinct")
    for i in colors:
        if type(i) is not int or not 1 <= i <= p.k:
            _check_int("color", i, 1, p.k)
    for e in edges:
        if type(e) is not int or not 0 <= e < p.edge_count:
            _check_int("edge index", e, 0, p.edge_count - 1)


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
    least n edges; then per position (ascending, 1-based) the edge index
    range, distinctness against earlier positions, containment of the core
    pair, and the edge color.  A core vertex, color or edge index that is not
    a Python or numpy integer (`_is_int`) fails its check.  The first failure
    is reported.
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
        if not _is_int(e) or not 0 <= e < edge_count:
            return Violation("edge index out of range", pos)
        if e in seen_e:
            return Violation("duplicate edge", pos)
        seen_e.add(e)
        a, b = cycle.core[i], cycle.core[(i + 1) % n]
        row = members[e].tolist()
        if a not in row or b not in row:
            return Violation("containment", pos)
        if color is not None and colors[e] != color:
            return Violation("edge color", pos)
    return None
