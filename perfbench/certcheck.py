"""Berge-cycle certificate checker that shares no code with bergeham.

The benchmark accepts a "found" verdict only when this module accepts its
certificate.  It derives the colex member table itself (sorting r-subsets by
their reversed tuples) instead of calling `unrank_edge` or
`verify_berge_cycle`, so a defect in either cannot vouch for itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence


@lru_cache(maxsize=None)
def colex_members(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-subsets of range(n); entry t is the subset of colex rank t."""
    return tuple(sorted(combinations(range(n), r), key=lambda s: s[::-1]))


def cycle_problem(
    core: Sequence[int],
    edges: Sequence[int],
    color: Optional[int],
    colors: Sequence[int],
    n: int,
    r: int,
) -> Optional[str]:
    """Why (core, edges) is not a monochromatic Hamiltonian Berge-cycle.

    `colors[t]` is the color of the colex-rank-t hyperedge of K_n^r.  Returns
    None when the certificate is valid.
    """
    members = colex_members(n, r)
    if len(colors) != len(members):
        return f"coloring has {len(colors)} entries, expected {len(members)}"
    if sorted(int(v) for v in core) != list(range(n)):
        return "core is not a permutation of the vertices"
    if len(edges) != n:
        return f"{len(edges)} hyperedges for {n} core pairs"
    if len({int(e) for e in edges}) != n:
        return "a hyperedge is used twice"
    if color is None:
        return "no color claimed"
    for i in range(n):
        e = int(edges[i])
        if not 0 <= e < len(members):
            return f"position {i}: hyperedge index {e} out of range"
        a, b = core[i], core[(i + 1) % n]
        if a not in members[e] or b not in members[e]:
            return f"position {i}: hyperedge {members[e]} misses pair ({a}, {b})"
        if int(colors[e]) != color:
            return f"position {i}: hyperedge {e} has color {int(colors[e])}, not {color}"
    return None
