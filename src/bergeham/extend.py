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
representatives (Hall's theorem).  Its pools are bitmasks, the AND of two
per-vertex edge masks, walked lowest bit first; construct's candidate lists
are long and read lazily, so `distinct_representatives` keeps walking lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .hypercore import BergeCycle, Coloring, _is_int, _unpacked, _vertex_bits, verify_berge_cycle


@dataclass
class CandidateTable:
    """Per-position candidate hyperedge indices (full, ascending lists) for a
    core sequence and color."""

    core: tuple[int, ...]
    color: int
    coloring: Coloring
    candidates: list[list[int]]


def build_candidates(
    core: Sequence[int], color: int, coloring: Coloring
) -> CandidateTable:
    """Candidate table for a core permutation and target color.

    Position i lists the class edges holding both v_i and v_{i+1 mod n}: the
    two vertices' rows of the class's `_vertex_bits`, ANDed and unpacked
    once.  A core vertex or color that is not an integer raises ValueError.
    """
    p = coloring.params
    n = p.n
    if not all(map(_is_int, core)) or sorted(core) != list(range(n)):
        raise ValueError("core must be a permutation of the vertices")
    core = tuple(core)
    edges, rows = coloring.class_members(color)
    bits = _vertex_bits(n, rows)  # bit j of row v: v lies in the j-th class edge
    both = _unpacked(bits[list(core)] & bits[list(core[1:] + core[:1])], len(edges))
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


def _augment_bits(
    pos: int, pools: list[int], owner: dict[int, int], seen: list[int], journal: list
) -> bool:
    """`_augment` on bitmask pools: bit e of pools[pos] is a candidate, tried
    lowest first, and seen[0] holds the bits visited so far, so it makes the
    choices `_augment` makes on the ascending lists of the same bits."""
    free = pools[pos] & ~seen[0]
    while free:
        low = free & -free
        seen[0] |= low
        e = low.bit_length() - 1
        if e not in owner or _augment_bits(owner[e], pools, owner, seen, journal):
            journal.append((e, owner.get(e)))
            owner[e] = pos
            return True
        free &= ~seen[0]  # the attempt may have visited more of the pool
    return False


class PrefixSDR:
    """Distinct representatives for a growing sequence of vertex pairs.

    Bit e of vm[x] is set when vertex x lies in edge e, so pair (u, v) draws
    from the set bits of vm[u] & vm[v], lowest first.  Each push makes one
    augmenting-path attempt for the new pair, counted in work_counter[0], and
    is refused when none exists: by Hall's theorem no extension of the
    sequence then has distinct representatives.  `pop` undoes the last
    accepted push exactly, so after any sequence of pushes and pops the
    matching is the one `distinct_representatives` gives for the ascending
    lists of the pools still held.  Usable as the backtracker's prefix hook.
    """

    def __init__(self, vm: list[int], work_counter: list[int]):
        self.vm = vm
        self.work_counter = work_counter
        self.cands: list[int] = []  # the pools held, in push order
        self._owner: dict[int, int] = {}
        self._journal: list[tuple[int, Optional[int]]] = []
        self._marks: list[int] = []

    def push(self, u: int, v: int) -> bool:
        self.work_counter[0] += 1
        cands = self.cands
        cands.append(self.vm[u] & self.vm[v])
        mark = len(self._journal)
        if _augment_bits(len(cands) - 1, cands, self._owner, [0], self._journal):
            self._marks.append(mark)
            return True
        cands.pop()
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
        """The edge (bit index) matched to each pair held, in push order."""
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
        if e not in table.candidates[pos]:
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
