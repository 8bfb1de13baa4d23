"""Turning a core vertex sequence into a monochromatic Berge-cycle.

Position i of a candidate table lists, ascending, every hyperedge of the
target color containing the consecutive core pair (v_i, v_{i+1 mod n});
positions are 0-based here.  A cycle needs one *distinct* hyperedge per
position, i.e. a system of distinct representatives.

Two strategies: `extend_matching` decides SDR existence exactly via
augmenting-path bipartite matching; `extend_greedy_ordered` assigns positions
in order, honoring reserved hyperedges, picking the lowest unused candidate
otherwise.  Greedy is sound but incomplete; matching is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hypercore import BergeCycle, Coloring, verify_berge_cycle


@dataclass
class CandidateTable:
    """Per-position candidate hyperedge indices (full, ascending lists) for a
    core sequence and color."""

    core: tuple[int, ...]
    color: int
    coloring: Coloring
    candidates: list[list[int]]

    def position_pair(self, i: int) -> tuple[int, int]:
        n = len(self.core)
        return self.core[i], self.core[(i + 1) % n]

    def is_candidate(self, i: int, edge_index: int) -> bool:
        return edge_index in self.candidates[i]


def build_candidates(
    core: Sequence[int], color: int, coloring: Coloring
) -> CandidateTable:
    """Candidate table for a core permutation and target color.

    Only the n core pairs are materialised, from the member-table rows of the
    color class.
    """
    p = coloring.params
    n = p.n
    if sorted(core) != list(range(n)):
        raise ValueError("core must be a permutation of the vertices")
    if not 1 <= color <= p.k:
        raise ValueError(f"color {color} out of range")
    core = tuple(core)
    edges, rows = coloring.class_members(color)
    slot = np.empty(n, dtype=np.intp)
    slot[list(core)] = np.arange(n)
    # incident[i, j]: core vertex v_i lies in the j-th class edge; row n
    # repeats row 0 so that rows i and i+1 always hold a core pair
    incident = np.zeros((n + 1, len(edges)), dtype=bool)
    incident[slot[rows], np.arange(len(edges))[:, None]] = True
    incident[n] = incident[0]
    both = incident[:-1] & incident[1:]
    cands = [edges[hit].tolist() for hit in both]
    return CandidateTable(core, color, coloring, cands)


def _augment(
    pos: int,
    cands: list[list[int]],
    owner: dict[int, int],
    visited: set[int],
) -> bool:
    for e in cands[pos]:
        if e in visited:
            continue
        visited.add(e)
        if e not in owner or _augment(owner[e], cands, owner, visited):
            owner[e] = pos
            return True
    return False


def max_position_matching(
    cands: list[list[int]], work_counter: Optional[list[int]] = None
) -> dict[int, int]:
    """Maximum matching positions -> candidate values (augmenting paths)."""
    owner: dict[int, int] = {}
    for pos in range(len(cands)):
        if work_counter is not None:
            work_counter[0] += 1
        _augment(pos, cands, owner, set())
    return {pos: e for e, pos in owner.items()}

def _finish(table: CandidateTable, assignment: Sequence[int]) -> BergeCycle:
    cycle = BergeCycle(table.core, tuple(assignment), table.color)
    bad = verify_berge_cycle(cycle, table.coloring)
    if bad is not None:
        raise RuntimeError(f"extension produced an invalid cycle: {bad}")
    return cycle


def extend_matching(
    table: CandidateTable, work_counter: Optional[list[int]] = None
) -> Optional[BergeCycle]:
    """Exact extension: a cycle exists iff positions admit a perfect matching."""
    n = len(table.core)
    match = max_position_matching(table.candidates, work_counter)
    if len(match) < n:
        return None
    return _finish(table, [match[i] for i in range(n)])


def extend_greedy_ordered(
    table: CandidateTable,
    reserved: Optional[dict[int, int]] = None,
) -> Optional[BergeCycle]:
    """Ordered extension: positions assigned ascending, reservations verbatim.

    Free positions take their lowest-index unused candidate.  Returns None
    when some position cannot be served; a reserved edge that is not a
    candidate for its position raises ValueError.
    """
    reserved = reserved or {}
    n = len(table.core)
    for pos, e in reserved.items():
        if not 0 <= pos < n:
            raise ValueError(f"reserved position {pos} out of range")
        if not table.is_candidate(pos, e):
            raise ValueError(
                f"reserved edge {e} is not a candidate for position {pos}"
            )
    used: set[int] = set()
    assignment: list[int] = []
    for i in range(n):
        if i in reserved:
            e = reserved[i]
            if e in used:
                return None
            assignment.append(e)
            used.add(e)
            continue
        pick = next((e for e in table.candidates[i] if e not in used), None)
        if pick is None:
            return None
        assignment.append(pick)
        used.add(pick)
    return _finish(table, assignment)
