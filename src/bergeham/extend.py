"""Turning a core vertex sequence into a monochromatic Berge-cycle.

Position i of a candidate table lists, ascending, every hyperedge of the
target color containing the consecutive core pair (v_i, v_{i+1 mod n});
positions are 0-based here.  A cycle needs one *distinct* hyperedge per
position, i.e. a system of distinct representatives.

Two strategies: `extend_matching` decides SDR existence exactly via
augmenting-path bipartite matching; `extend_greedy_ordered` assigns positions
in order, honoring reserved hyperedges, picking the lowest unused candidate
otherwise.  Greedy is sound but incomplete; matching is complete.

`PrefixSDR` runs the same augmenting-path matching incrementally, one pair at
a time with exact undo, so the Hamiltonian backtracker can grow a matching as
it grows a path and drop every prefix whose pairs have no distinct
representatives (Hall's theorem).
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
    journal: list[tuple[int, Optional[int]]],
) -> bool:
    """One augmenting-path attempt from position pos.  Every reassignment is
    logged in the journal as (edge, previous owner); a failed attempt changes
    nothing."""
    for e in cands[pos]:
        if e in visited:
            continue
        visited.add(e)
        if e not in owner or _augment(owner[e], cands, owner, visited, journal):
            journal.append((e, owner.get(e)))
            owner[e] = pos
            return True
    return False


class PrefixSDR:
    """Distinct representatives for a growing sequence of vertex pairs.

    Pair i draws from pair_lists[(u, v)] (u < v, ascending edge lists).  Each
    push makes one augmenting-path attempt for the new pair, counted in
    work_counter[0], and is refused when none exists: by Hall's theorem no
    extension of the sequence then has distinct representatives.  `pop`
    undoes the last accepted push exactly, so after any sequence of pushes
    and pops the matching is the one `distinct_representatives` gives for the
    pairs still held.  Usable as the backtracker's prefix hook.
    """

    def __init__(
        self,
        pair_lists: dict[tuple[int, int], list[int]],
        work_counter: Optional[list[int]] = None,
    ):
        self.pair_lists = pair_lists
        self.work_counter = work_counter
        self.cands: list[list[int]] = []
        self.refused = 0  # pushes refused so far
        self.longest = 0  # most pairs a push has tried to hold
        self._owner: dict[int, int] = {}
        self._journal: list[tuple[int, Optional[int]]] = []
        self._marks: list[int] = []

    def push(self, u: int, v: int) -> bool:
        if self.work_counter is not None:
            self.work_counter[0] += 1
        cands = self.cands
        cands.append(self.pair_lists[(u, v) if u < v else (v, u)])
        if len(cands) > self.longest:
            self.longest = len(cands)
        mark = len(self._journal)
        if _augment(len(cands) - 1, cands, self._owner, set(), self._journal):
            self._marks.append(mark)
            return True
        cands.pop()
        self.refused += 1
        return False

    def pop(self) -> None:
        self.cands.pop()
        mark = self._marks.pop()
        journal, owner = self._journal, self._owner
        while len(journal) > mark:
            e, prev = journal.pop()
            if prev is None:
                del owner[e]
            else:
                owner[e] = prev

    def representatives(self) -> list[int]:
        """The edge matched to each pair held, in push order."""
        return sorted(self._owner, key=self._owner.get)  # one edge per pair


def distinct_representatives(
    cands: list[list[int]], work_counter: Optional[list[int]] = None
) -> Optional[list[int]]:
    """One distinct value per position via augmenting paths, or None when the
    positions admit no system of distinct representatives.  Positions are
    tried in order, one augmenting-path attempt each, and the first position
    left unmatched ends the search."""
    owner: dict[int, int] = {}
    journal: list[tuple[int, Optional[int]]] = []
    for pos in range(len(cands)):
        if work_counter is not None:
            work_counter[0] += 1
        if not _augment(pos, cands, owner, set(), journal):
            return None
    return sorted(owner, key=owner.get)  # each position owns one value


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
    reps = distinct_representatives(table.candidates, work_counter)
    return None if reps is None else _finish(table, reps)


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
