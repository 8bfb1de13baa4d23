"""Simple undirected graphs on [0, n) with bitmask adjacency.

Shared by the shadow-level constructions and the Hamiltonicity engines.
Graphs are immutable; edge-adding operations return new instances.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .hypercore import _check_int, _is_int


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph; adjacency stored as one int bitmask per vertex.

    A vertex count that is not an integer of at least 0, or an edge that is
    not a pair of distinct integer vertices in range, raises ValueError."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_int("vertex count", n, 0)
        adj = [0] * n
        for u, v in edges:
            # Python ints, the common case, skip the `_is_int` calls
            if type(u) is not int or type(v) is not int:
                if not (_is_int(u) and _is_int(v)):
                    raise ValueError(f"edge ({u!r},{v!r}) has a non-integer endpoint")
                u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = adj

    @classmethod
    def _from_masks(cls, masks: list[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(masks)
        g._adj = masks
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls._from_masks([full ^ (1 << v) for v in range(n)])

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self._adj]

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in _bits(self._adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """This graph plus the given edges, checked as the constructor does."""
        added = Graph(self.n, edges)._adj
        return Graph._from_masks([a | b for a, b in zip(self._adj, added)])

    def without_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """This graph minus the given edges, checked as the constructor does."""
        gone = Graph(self.n, edges)._adj
        return Graph._from_masks([a & ~b for a, b in zip(self._adj, gone)])

    def __eq__(self, other):
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash(tuple(self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"
