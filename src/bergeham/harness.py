"""End-user search pipeline, independent oracle, and exhaustive verification.

`find_mono_berge` is the production search: per color class large enough to
matter, it runs the Hamiltonian backtracker once on the pair-support graph
with a prefix matcher hooked in (`_BudgetedSDR`, with a look-ahead), so the
path and its distinct hyperedges grow together and a prefix with none is
cut (Hall's theorem).  A class is read once into per-vertex class-edge
bitmasks, `_class_masks`, and a pair's pool is the AND of two of them.  It
falls back to the constructive pipeline when budgets bite.  `naive_oracle`
is the deliberately independent ground truth: `_berge_cycle` decides one
color's edge mask by permutations plus brute-force SDR over bitmask pools,
with no graph machinery.
`exhaustive_verify` sweeps a whole coloring space with the same decider,
deciding whole subtrees of colorings at once, once per distinct color mask
in a shard, and counting a subtree that a color swap or a relabelling of
vertices 0..r maps onto a walked one without walking it.  The search, the
oracle and the sweep hand every cycle they find to one certificate step,
`_checked`.

Budgets are node expansions plus matching augmentations, and for a sweep
shard walk nodes, decider calls and the cores those calls try; wall clock
never influences a verdict.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice, permutations
from math import comb
from typing import Optional

import numpy as np

from .construct import constructive_find
# Unused here; kept importable because the perfbench tracer wraps these names.
from .extend import build_candidates, extend_matching  # noqa: F401
from .extend import PrefixSDR
from .graphs import Graph
from .hamilton import find_hamiltonian_cycle  # noqa: F401  (tracer only, as above)
from .hamilton import SearchBudgetExceeded, iter_hamiltonian_cycles
from .hypercore import (
    BergeCycle,
    Coloring,
    HyperParams,
    _check_args,
    _check_int,
    edge_members,
    verify_berge_cycle,
)

NAIVE_MAX_N = 9
SWEEP_BUDGET = 60_000_000  # walk nodes, decider calls and cores tried per sweep shard
MAX_SHARDS = 2_000_000  # keeps the table of shard ranges small
SWEEP_MEMO = 1 << 14  # decider answers a sweep shard keeps at once


@dataclass
class SearchReport:
    """Outcome of a monochromatic Hamiltonian Berge-cycle search."""

    verdict: str  # found | not-found | undecided
    color: Optional[int] = None
    cycle: Optional[BergeCycle] = None
    stages: dict = field(default_factory=dict)
    nodes: int = 0
    augmentations: int = 0

    @property
    def work_units(self) -> int:
        return self.nodes + self.augmentations

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "color": self.color,
            "nodes": self.nodes,
            "augmentations": self.augmentations,
            "work_units": self.work_units,
            "stages": self.stages,
        }
        if self.cycle is not None:
            out["cycle"] = {
                "core": list(self.cycle.core),
                "edges": [int(e) for e in self.cycle.edges],
                "color": self.cycle.color,
            }
        return out


def paper_threshold(r: int) -> int:
    """The vertex-count threshold 6*r*C(4r, r-1) above which the headline
    guarantee applies.  An r that is not an integer of at least 2, or whose
    threshold passes the 64-bit range, raises ValueError."""
    _check_int("uniformity", r, 2)
    value = 6 * r * comb(4 * r, r - 1)
    if value >= 2**63:
        raise ValueError(f"threshold for r={r} exceeds the 64-bit range")
    return value


def _sdr_search(pools: list[int]) -> Optional[list[int]]:
    """Brute-force system of distinct representatives of bitmask pools (bit
    t set: option t), or None.  Pools are placed fewest options first, each
    trying its free options lowest first; entry i of the answer is pool i's
    option.  The nested `place` recurses once per pool and is deleted before
    the call returns, so a call leaves no reference cycle behind."""
    sizes = [pool.bit_count() for pool in pools]
    order = sorted(range(len(pools)), key=sizes.__getitem__)
    choice = [0] * len(pools)

    def place(j: int, used: int) -> bool:
        if j == len(order):
            return True
        i = order[j]
        m = pools[i] & ~used
        while m:
            low = m & -m
            if place(j + 1, used | low):
                choice[i] = low.bit_length() - 1
                return True
            m ^= low
        return False

    try:
        return choice if place(0, 0) else None
    finally:
        del place  # `place` refers to itself; drop it so no reference cycle is left


def _packed_masks(n: int, rows: np.ndarray) -> list[int]:
    """Entry x has bit j set when vertex x lies in rows[j].  numpy flags and
    packs 2^16 rows (2^13 whole bytes) at a time, so the flags stay small."""
    packed = np.empty((n, (len(rows) + 7) // 8), dtype=np.uint8)
    for at in range(0, packed.shape[1], 1 << 13):
        part = rows[8 * at:8 * (at + (1 << 13))]
        flags = np.zeros((n, len(part)), dtype=bool)
        flags[part.T, np.arange(len(part))] = True
        packed[:, at:at + (1 << 13)] = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@lru_cache(maxsize=8)
def _vertex_masks(n: int, r: int) -> tuple[int, ...]:
    """`_packed_masks` of the colex member table: bit t is the rank-t edge."""
    return tuple(_packed_masks(n, edge_members(n, r)))


def _berge_cycle(
    n: int, r: int, allowed: int
) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """((core, edges) of a Hamiltonian Berge-cycle of K_n^r whose edges all
    lie in `allowed` (bit t: the colex-rank-t edge) or None, cores tried).

    It refuses at once, trying no core, when fewer than n edges are allowed
    or some vertex lies in fewer than two of them.  Otherwise it tries every
    core up to rotation/reflection, (n-1)!/2 of them, in permutation order,
    with brute-force distinct representatives.  Every pool is a bitmask: a
    pair's allowed edges are the AND of its two vertices' allowed-edge
    masks, read off the cached per-vertex edge bitmasks."""
    if allowed.bit_count() < n:
        return None, 0
    va = [mask & allowed for mask in _vertex_masks(n, r)]
    for mask in va:
        if not mask & (mask - 1):
            return None, 0
    v0 = va[0]
    cores = 0
    for perm in permutations(range(1, n)):
        if n > 2 and perm[0] > perm[-1]:
            continue  # reflection representative
        cores += 1
        pools = []
        prev = v0
        for b in perm:
            pool = prev & va[b]
            if not pool:
                break
            pools.append(pool)
            prev = va[b]
        else:
            pool = prev & v0  # the closing pair
            if pool:
                pools.append(pool)
                sdr = _sdr_search(pools)
                if sdr is not None:
                    return ((0,) + perm, tuple(sdr)), cores
    return None, cores


def _checked(cycle: BergeCycle, coloring: Coloring, source: str) -> BergeCycle:
    """`cycle` once `verify_berge_cycle` accepts it on `coloring`; else the
    `source` ("search", "oracle" or "sweep") is named in a RuntimeError."""
    bad = verify_berge_cycle(cycle, coloring)
    if bad is not None:
        raise RuntimeError(f"{source} produced an invalid cycle: {bad}")
    return cycle


def _decide_exact(coloring: Coloring) -> SearchReport:
    """Exhaustive decision: `_berge_cycle` on each color's edge mask in turn,
    read off `coloring.colors`.  A color with fewer than n edges is skipped,
    and a found cycle is checked on `coloring`."""
    p = coloring.params
    stages: dict = {"skipped_colors": []}
    for color in range(1, p.k + 1):
        bits = np.packbits(coloring.colors == color, bitorder="little")
        allowed = int.from_bytes(bits.tobytes(), "little")
        if allowed.bit_count() < p.n:
            stages["skipped_colors"].append(color)
            continue
        found, _ = _berge_cycle(p.n, p.r, allowed)
        if found is not None:
            cycle = _checked(BergeCycle(*found, color), coloring, "oracle")
            return SearchReport("found", color=color, cycle=cycle, stages=stages)
    return SearchReport("not-found", stages=stages)


def naive_oracle(coloring: Coloring) -> SearchReport:
    """Independent exact decision for n <= 9; never undecided.

    Deliberately avoids the closure/backtracking machinery: plain permutation
    enumeration with brute-force distinct representatives.
    """
    if coloring.params.n > NAIVE_MAX_N:
        raise ValueError(f"naive oracle is factorial-bounded to n <= {NAIVE_MAX_N}")
    return _decide_exact(coloring)


_BLOCK = 64  # larger classes get their masks from `_packed_masks` (measured crossover)


def _class_masks(n: int, rows: np.ndarray) -> list[int]:
    """`_packed_masks` of one color class's member rows: bit j of entry x is
    set when vertex x lies in the j-th class edge.  Up to `_BLOCK` rows, a
    loop over Python ints beats the numpy packer."""
    if len(rows) > _BLOCK:
        return _packed_masks(n, rows)
    vm = [0] * n
    bit = 1
    for row in rows.tolist():
        for x in row:
            vm[x] |= bit
        bit <<= 1
    return vm


class _BudgetedSDR(PrefixSDR):
    """Prefix matcher for one color's search on the masks of `_class_masks`,
    so its pools and representatives are class positions.  It ends the
    search once nodes plus augmentations pass the budget, checked at every
    push, so at every node but the root.

    From the color's first backtrack on, a tree pair (v, w) that the matcher
    accepts must also pass a look-ahead (Hall's condition on what is left),
    read off the class's per-vertex bitmasks.  Let R be the unvisited
    vertices together with w and 0, and E_R the class edges with at least two
    vertices in R.  Every pair still to come lies inside R and needs an edge
    of E_R of its own, so the pair is refused when |E_R| < n - (pairs held),
    or when some unvisited vertex lies in fewer than two edges of E_R.  Both
    are necessary for distinct edges, so the look-ahead changes the work and
    nothing else.  The closing pair is not checked.  A search that never
    backtracks never pays for the look-ahead.

    Until a cycle of the support graph closes, a pair that the matcher or the
    look-ahead refuses is held unmatched instead, and its subtree is walked
    on at no augmentation cost.  A closing pair that the matcher refuses or
    that comes under a held pair sets `hamiltonian` and is refused, so
    nothing is yielded while a pair is held; from then on refusals cut."""

    def __init__(self, vm: list[int], aug: list[int], nodes: list[int], budget: int):
        super().__init__(vm, aug)
        self.nodes = nodes
        self.budget = budget
        self.held = 0  # the first pair held unmatched and every pair pushed below it
        self.hamiltonian = False  # a cycle of the support graph has closed
        self.backtracked = False  # the look-ahead runs from the first pop on
        self.path: list[int] = []  # the vertex each accepted push moved to
        self.rest = (1 << len(self.vm)) - 1  # vertex 0 and the unvisited ones

    def push(self, u: int, v: int) -> bool:
        if self.nodes[0] + self.work_counter[0] > self.budget:
            raise SearchBudgetExceeded("work budget exhausted")
        matched = not self.held and super().push(u, v)
        if matched and v and self.backtracked and not self._lookahead(v):
            super().pop()
            matched = False
        if not matched:
            self.hamiltonian |= v == 0  # a closing pair: cycles close at vertex 0
            if self.hamiltonian:
                return False
            self.held += 1
        self.path.append(v)
        self.rest ^= 1 << v
        return True

    def pop(self) -> None:
        self.backtracked = True
        self.rest ^= 1 << self.path.pop()
        if self.held:
            self.held -= 1
        else:
            super().pop()

    def _lookahead(self, w: int) -> bool:
        """False when the pairs still to come after the pair to w cannot all
        get distinct class edges (see the class docstring)."""
        vm = self.vm
        seen = two = 0  # edges with a vertex in R so far, and with two
        m = self.rest  # R: w is still in it
        while m:
            low = m & -m
            x = vm[low.bit_length() - 1]
            two |= seen & x
            seen |= x
            m ^= low
        if two.bit_count() < len(vm) - len(self.cands):
            return False
        m = self.rest ^ (1 << w) ^ 1  # the unvisited vertices
        while m:
            low = m & -m
            x = vm[low.bit_length() - 1] & two
            if not x & (x - 1):  # fewer than two edges of E_R
                return False
            m ^= low
        return True


def find_mono_berge(coloring: Coloring, budget: int = 2_000_000) -> SearchReport:
    """Search for a monochromatic Hamiltonian Berge-cycle.

    Per color with a large enough class: every Hamiltonian cycle of the graph
    of covered pairs is a candidate core (there are no others), and a core
    works exactly when its n pairs have distinct hyperedges of the color.
    The class is read once into per-vertex bitmasks of its edges
    (`_class_masks`): uv is a covered pair when the masks of u and v meet,
    and their AND is the pair's pool of class positions, which rise with
    edge ids; a found cycle's positions are mapped to edge ids once.  One
    backtracker per color grows the path together with a matching of its
    pairs (`PrefixSDR`) and cuts every prefix that already has none, so the
    first cycle it yields is the answer: the first core, in the
    backtracker's order, that has distinct edges, with the edges that
    augmenting-path matching of its pairs in order gives.  The matcher's
    look-ahead (see `_BudgetedSDR`) cuts more prefixes, but only ones with no
    distinct edges.  Until a cycle of the support graph closes, a prefix that
    the matcher or the look-ahead cuts is walked on unmatched, yielding
    nothing, so a color that yields nothing is "all cores exhausted" when a
    cycle closed and "support graph not Hamiltonian" otherwise.  A budget hit
    parks the color; parked colors get one constructive attempt, and the
    verdict is undecided only if some color stays unresolved.  That attempt
    runs outside `budget`, under `construct.GAMMA_NODE_BUDGET` (2 000 000
    nodes), and `nodes` and `augmentations` do not count its work.

    The budget is cumulative across colors, not a fresh allowance per color:
    search nodes and augmenting-path attempts (one per search-tree edge not
    under a held pair) spent on earlier colors count against later ones, and
    the total is checked at every node and before a color starts.  Once it is
    spent no further color starts; each is parked.  After the last check come
    at most one accepted push and the node it opens, so `work_units` is at
    most budget + 2.  Under a tight budget the verdict can depend on how the
    colors are numbered.  A budget that is not an integer of at least 0
    raises ValueError.
    """
    _check_int("budget", budget, 0)
    p = coloring.params
    n = p.n
    sizes = coloring.class_sizes()
    nodes = [0]
    aug = [0]
    stages: dict = {"colors": {}}
    parked: list[int] = []
    for color in range(1, p.k + 1):
        if int(sizes[color - 1]) < n:
            stages["colors"][color] = "class too small"
            continue
        if nodes[0] + aug[0] > budget:
            stages["colors"][color] = "budget exhausted"
            parked.append(color)
            continue
        edges, rows = coloring.class_members(color)
        vm = _class_masks(n, rows)
        adj = [0] * n  # the support graph: uv is an edge when vm[u] & vm[v]
        for u, v in combinations(range(n), 2):
            if vm[u] & vm[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        support = Graph._from_masks(adj)
        sdr = _BudgetedSDR(vm, aug, nodes, budget)
        try:
            for cert in iter_hamiltonian_cycles(support, counter=nodes, prefix_hook=sdr):
                found = edges[sdr.representatives()].tolist()
                cycle = _checked(BergeCycle(cert.order, tuple(found), color), coloring, "search")
                stages["colors"][color] = "found"
                return SearchReport("found", color, cycle, stages, nodes[0], aug[0])
            stages["colors"][color] = (
                "all cores exhausted" if sdr.hamiltonian else "support graph not Hamiltonian"
            )
        except SearchBudgetExceeded:
            stages["colors"][color] = "budget exhausted"
            parked.append(color)
    if parked:
        outcome = constructive_find(coloring) if p.k == p.r - 1 else None
        if outcome is not None and outcome.found:
            stages["constructive"] = "found"
            return SearchReport(
                "found", outcome.color, outcome.cycle, stages, nodes[0], aug[0]
            )
        stages["constructive"] = (
            "unavailable" if outcome is None else f"failed at {outcome.stage}"
        )
        return SearchReport("undecided", stages=stages, nodes=nodes[0], augmentations=aug[0])
    return SearchReport("not-found", stages=stages, nodes=nodes[0], augmentations=aug[0])


@dataclass
class ExhaustReport:
    """Tally of an exhaustive coloring sweep."""

    n: int
    r: int
    k: int
    total: int
    success: int
    failure: int
    counterexamples: list[str]
    shard_ranges: list[tuple[int, int]]

    MAX_STORED = 100

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "total": self.total,
            "success": self.success,
            "failure": self.failure,
            "counterexamples": self.counterexamples,
            "shard_ranges": [list(rg) for rg in self.shard_ranges],
        }

    def dump_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def _sweep_range(params: HyperParams, lo: int, hi: int) -> tuple[int, int, list[str]]:
    """Classify the colorings at counter values [lo, hi) of the sweep order
    by a walk of the prefix tree, under the shard's work budget (see
    `exhaustive_verify`).  A whole in-range subtree at depth r + 1 takes the
    success count of the first one walked with the same sorted color counts
    on edges 0..r, under the counterexample rule of the unused-color swap."""
    n, r, k, count = params.n, params.r, params.k, params.edge_count
    stored = ExhaustReport.MAX_STORED
    if hi - lo == 1:
        row = [lo // k ** (count - 1 - i) % k + 1 for i in range(count)]  # base-k digits
        if _decide_exact(Coloring(params, row)).verdict == "found":
            return 1, 0, []
        return 0, 1, [" ".join(map(str, row))][:stored]
    examples: list[str] = []
    owned = [0] * k  # per color (0-based): the edges of the prefix it holds
    prefix = [0] * count  # colors 1..k of the edges above the node
    answers: dict[int, tuple] = {}  # mask -> the decider's answer, () for none
    checked: set[tuple[int, int]] = set()  # (mask, color) of checked cycles
    classes: dict[tuple[int, ...], int] = {}  # sorted color counts -> successes
    units = 0  # walk nodes, decider calls and cores tried

    def walk(j: int, base: int) -> int:
        """Give edge j each color under the prefix of edges 0..j-1, held in
        `owned` and `prefix`, whose subtree starts at counter `base`; return
        the subtree's successes in range."""
        nonlocal units
        size = k ** (count - j - 1)
        # relabelling vertices 0..r and colors maps one whole depth-(r+1)
        # subtree onto any other whose prefix has the same sorted color counts
        whole = j == r + 1 and lo <= base and base + k * size <= hi
        if whole:
            key = tuple(sorted(mask.bit_count() for mask in owned))
            got = classes.get(key)
            if got is not None and (got == k * size or len(examples) >= stored):
                return got
        units += 1
        bit = 1 << j
        success = 0
        twin = -1  # successes of a walked whole subtree of an unused color
        for c in range(k):
            start = base + c * size
            a, b = max(start, lo), min(start + size, hi)
            if a >= b:
                continue
            fresh = not owned[c] and b - a == size
            # swapping two unused colors maps one whole subtree onto the other
            if fresh and (twin == size or twin >= 0 and len(examples) >= stored):
                success += twin
                continue
            mine = owned[c] | bit
            found = answers.get(mine)
            if found is None:
                if len(answers) == SWEEP_MEMO:  # a full memo starts afresh
                    answers.clear()
                    checked.clear()
                found, cores = _berge_cycle(n, r, mine)
                found = answers[mine] = found or ()
                units += 1 + cores
            if found:
                # every completion holds the cycle only if its edges lie in
                # `mine`, so it is checked, once per mask and color, on the
                # completion that gives color c to no later edge
                if (mine, c) not in checked:
                    row = prefix[:j] + [c + 1] + [(c + 1) % k + 1] * (count - j - 1)
                    _checked(BergeCycle(*found, c + 1), Coloring(params, row), "sweep")
                    checked.add((mine, c))
                got = b - a
            elif j + 1 == count:  # a leaf: one failing coloring
                if len(examples) < stored:
                    examples.append(" ".join(map(str, prefix[:j] + [c + 1])))
                got = 0
            else:
                owned[c] = mine
                prefix[j] = c + 1
                got = walk(j + 1, start)
                owned[c] = mine ^ bit
            if fresh:
                twin = got
            success += got
        if whole:
            classes[key] = success
        if units > SWEEP_BUDGET:  # checked as each node returns, the root last
            raise ValueError(
                f"a ({n},{r},{k}) sweep shard passed the {SWEEP_BUDGET}-unit sweep budget "
                "(walk nodes, decider calls and cores tried); narrow the parameters or "
                "add shards"
            )
        return success

    try:
        success = walk(0, 0)
    finally:
        del walk  # `walk` refers to itself; drop it so no reference cycle is left
    return success, hi - lo - success, examples


def exhaustive_verify(
    params: HyperParams,
    shards: int = 1,
    workers: int = 1,
) -> ExhaustReport:
    """Sweep every k-coloring of K_n^r and count which contain a
    monochromatic Hamiltonian Berge-cycle.

    Colorings are the color tuples of `itertools.product(range(1, k+1),
    repeat=C(n,r))` over the colex edge order, so a coloring's counter value
    is its position in that order: edge 0 is the most significant digit and
    counter order is lexicographic on the digit strings.  `shards`, an
    integer between 1 and the smaller of the number of colorings and
    `MAX_SHARDS` (so the table of shard ranges stays small), splits the
    counter range, and `workers` is an integer of at least 1; results are
    merged in range order, so counts and retained counterexamples are
    independent of the shard and worker counts.  Up to 100 lexicographically
    smallest failing colorings are kept.

    Each shard walks the prefix tree over its counter range: the colorings
    that share the colors of edges 0..j-1 form one contiguous range, and the
    node's children, edge j colored 1..k, follow in counter order.  The exact
    decider `_berge_cycle` settles success subtrees.  When edge j's color c
    closes a c-cycle among the edges colored so far (it must use edge j,
    since the parent node had no c-cycle), every completion succeeds: the
    subtree's colorings in range are counted.  The cycle is checked
    (`_checked`) on the subtree's coloring that gives c to no edge after j:
    passing there shows that its edges lie among the prefix's c-edges, so
    every completion holds it.  Otherwise the walk goes on to edge j + 1, so
    a coloring reached as a leaf has no monochromatic cycle and fails; the
    failures are kept in counter order.

    The decider's answer depends only on the mask of c-edges, which comes
    back under many prefixes.  So a shard keeps a memo from mask to answer:
    the decider runs once per distinct mask, and a cycle is checked once per
    distinct (mask, color).  The memo keeps at most `SWEEP_MEMO` answers and
    starts afresh once full, which repeats decider calls but changes no count
    or counterexample.

    Swapping two colors c and c' that edges 0..j-1 leave unused maps the
    subtree "edge j = c" one-to-one onto "edge j = c'" and keeps each
    answer.  So a node walks the first unused color whose subtree lies whole
    in the shard's range, and each later one whose subtree does too gets the
    same success count with no decider call.  The swap does not keep counter
    order, so failures are never copied as counterexamples: a subtree is
    reused only when the walked one had no failure or the shard already
    keeps `MAX_STORED` counterexamples.  A subtree cut by a shard bound is
    walked.  A shard's failures are its range size minus its successes.

    Vertex relabelling goes further at depth r + 1.  In colex order, edges
    0..r are the r-subsets of {0, ..., r}, edge i the one that misses vertex
    r - i.  A permutation of vertices 0..r fixes every vertex above r, so it
    permutes edges 0..r and maps every later edge to a later edge: it maps
    the subtree of a prefix of edges 0..r one-to-one onto the subtree of the
    permuted prefix and keeps every answer, and a renaming of the colors
    does the same.  Every rearrangement of the r + 1 prefix colors comes
    from such a permutation, so two prefixes are related by these maps
    exactly when their sorted color counts agree.  A shard walks the first
    whole in-range depth-(r+1) subtree of each count class and gives its
    success count to each later whole in-range subtree of the class, at no
    budget cost, under the swap's counterexample rule.

    Each shard's walk may spend `SWEEP_BUDGET` units: one per walk node,
    one per decider call and one per core the call tries, memo hits free.
    It raises ValueError once past the budget, so the refusal does not
    depend on timing.  With cores charged a unit cost 0.4-5.1 us on every
    space timed (2-vCPU Xeon VM), so a shard runs there for up to ~5 min.

    A sweep of k >= 2 colors is refused before k^C(n,r) or any table is
    built when its walk provably passes the budget.  No edge of colex rank
    below C(n-1, r) holds vertex n-1 and a cycle needs n edges of one color,
    so no prefix of depth d = min(max(C(n-1, r), n-1), C(n,r) - 1) or less
    closes a cycle.  Of the nodes down to depth d whose prefix starts with
    color 1 and uses colors 1 and 2 alone, none is counted from a swapped
    subtree (below the root, color 2 is never a second unused color).  Above
    depth r + 1 none is counted from a relabelled one: the 2^(min(d,r)-1) at
    depth min(d, r) are walked.  The prefix 1...12 comes first in its count
    class, so it is walked, and so are its 2^(d-r-1) descendants at depth d.
    Every shard whose range meets such a node's subtree walks the node, so
    the shards spend at least 2^e units in all, e the larger exponent, and
    when 2^e passes `shards` budgets some shard passes its own.  A shard of
    one coloring walks nothing, but exists only when 2^e < k^C(n,r) < 2 *
    shards, which keeps the guard silent.

    The walk recurses once per edge, so at most C(n,r) deep.  In one shard
    the guard admits at most 378 edges, at (28,26), well inside Python's
    default recursion limit of 1 000; past 109 951 shards it admits (n, n-2)
    spaces of 990 edges or more, whose walk may raise RecursionError.

    A shard of a single coloring, so every k = 1 sweep, builds that one
    `Coloring` and is decided directly by `naive_oracle`'s decider, outside
    the budget: a walk would call the decider on every prefix of that
    coloring's edges (about 1 s at (12,3,1), against 1 ms) and recurse once
    per edge.  Shards run in a process pool of min(workers, shards,
    os.cpu_count()) processes, or serially when that is 1.  When a shard is
    refused, the shards not yet started are cancelled, and the error reaches
    the caller once the shards already running end.
    """
    n, r, k, edges = params.n, params.r, params.k, params.edge_count
    _check_int("workers", workers, 1)
    # min(k^edges, MAX_SHARDS) without the power: k >= 2 on 21 edges passes it
    _check_int("shards", shards, 1, min(k ** min(edges, MAX_SHARDS.bit_length()), MAX_SHARDS))
    if k > 1:
        d = min(max(comb(n - 1, r), n - 1), edges - 1)
        e = max(min(d, r) - 1, d - r - 1)
        if e >= (SWEEP_BUDGET * int(shards)).bit_length():  # 2^e > SWEEP_BUDGET * shards
            raise ValueError(
                f"a ({n},{r},{k}) sweep walks at least 2^{e} nodes, more than "
                f"{shards} shard(s) of the {SWEEP_BUDGET}-unit sweep budget allow; "
                "narrow the parameters"
            )
    total = k ** edges
    bounds = [total * i // shards for i in range(shards + 1)]
    args = ([params] * shards, bounds[:-1], bounds[1:])
    size = min(workers, shards, os.cpu_count() or 1)
    if size == 1:
        parts = list(map(_sweep_range, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            try:
                parts = list(pool.map(_sweep_range, *args))
            except BaseException:
                pool.shutdown(cancel_futures=True)  # start no further shard
                raise
    success, failure, examples = zip(*parts)
    kept = list(islice(chain.from_iterable(examples), ExhaustReport.MAX_STORED))
    return ExhaustReport(
        n, r, k, total, sum(success), sum(failure), kept, list(zip(bounds, bounds[1:])),
    )


def gen_coloring(
    params: HyperParams,
    scheme: str,
    *,
    color: int = 1,
    seed: int = 0,
    classes: Optional[list[int]] = None,
    digits: Optional[str] = None,
) -> Coloring:
    """Deterministic coloring generators.

    uniform: every edge gets `color`.
    random: seeded uniform choice per edge.
    vertex-partition: `classes[v]` is a color id per vertex; an edge takes the
        class of its minimum vertex (an adversarial family).
    digits: a string of digit characters cycled over the colex edge order.

    A seed that is not an integer of at least 0 raises ValueError.
    """
    _check_int("seed", seed, 0)
    E = params.edge_count
    if scheme == "uniform":
        return Coloring(params, [color] * E)
    if scheme == "random":
        rng = np.random.default_rng(seed)
        return Coloring(params, rng.integers(1, params.k + 1, size=E))
    if scheme == "vertex-partition":
        if classes is None or len(classes) != params.n:
            raise ValueError("vertex-partition needs one class id per vertex")
        # checked here: vertices n-r+1..n-1 are no edge's minimum, so a bad
        # class id there never reaches Coloring
        _check_args(params, colors=classes)
        lowest = edge_members(params.n, params.r)[:, 0]
        return Coloring(params, np.asarray(classes)[lowest])
    if scheme == "digits":
        if not digits or any(ch not in "123456789" for ch in digits):
            raise ValueError("digits scheme needs a nonempty string of digits 1-9")
        return Coloring(params, [int(digits[t % len(digits)]) for t in range(E)])
    raise ValueError(f"unknown scheme {scheme!r}")
