"""End-user search pipeline, independent oracle, and exhaustive verification.

`find_mono_berge` is the production search: per color class large enough to
matter, it runs the Hamiltonian backtracker on the pair-support graph with a
prefix matcher hooked in, so the path and its distinct hyperedges grow
together and a prefix with none is cut (Hall's theorem); it falls back to the
constructive pipeline when budgets bite.  `naive_oracle` is the deliberately
independent ground truth (permutations plus brute-force SDR, no graph
machinery), and `exhaustive_verify` sweeps an entire coloring space.

Budgets are node expansions plus matching augmentations; wall clock never
influences a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from math import comb
from typing import Optional

import numpy as np

from .construct import constructive_find
# Unused here; kept importable because the perfbench tracer wraps these names.
from .extend import build_candidates, extend_matching  # noqa: F401
from .extend import PrefixSDR
from .graphs import Graph
from .hamilton import (
    SearchBudgetExceeded,
    find_hamiltonian_cycle,
    iter_hamiltonian_cycles,
)
from .hypercore import (
    BergeCycle,
    Coloring,
    HyperParams,
    iter_colex_edges,
    pair_edges,
    verify_berge_cycle,
)

NAIVE_MAX_N = 9
MAX_SWEEP_COLORINGS = 5_000_000


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
    guarantee applies."""
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    value = 6 * r * comb(4 * r, r - 1)
    if value >= 2**63:
        raise ValueError(f"threshold for r={r} exceeds the 64-bit range")
    return value


def _sdr_search(pools: list[list[int]]) -> Optional[list[int]]:
    """Brute-force system of distinct representatives, fewest options first."""
    order = sorted(range(len(pools)), key=lambda i: len(pools[i]))
    choice: dict[int, int] = {}
    used: set[int] = set()

    def place(j: int) -> bool:
        if j == len(order):
            return True
        i = order[j]
        for e in pools[i]:
            if e not in used:
                used.add(e)
                choice[i] = e
                if place(j + 1):
                    return True
                used.remove(e)
                del choice[i]
        return False

    if not place(0):
        return None
    return [choice[i] for i in range(len(pools))]


def _decide_exact(coloring: Coloring) -> SearchReport:
    """Exhaustive decision: all colors, all cores up to rotation/reflection."""
    p = coloring.params
    n = p.n
    sizes = coloring.class_sizes()
    stages: dict = {"skipped_colors": []}
    for color in range(1, p.k + 1):
        if int(sizes[color - 1]) < n:
            stages["skipped_colors"].append(color)
            continue
        lists = pair_edges(coloring, color)
        rest = list(range(1, n))
        for perm in permutations(rest):
            if n > 2 and perm[0] > perm[-1]:
                continue  # reflection representative
            core = (0,) + perm
            pools = []
            ok = True
            for i in range(n):
                a, b = core[i], core[(i + 1) % n]
                pool = lists[(a, b) if a < b else (b, a)]
                if not pool:
                    ok = False
                    break
                pools.append(pool)
            if not ok:
                continue
            sdr = _sdr_search(pools)
            if sdr is not None:
                cycle = BergeCycle(core, tuple(sdr), color)
                bad = verify_berge_cycle(cycle, coloring)
                if bad is not None:
                    raise RuntimeError(f"oracle produced an invalid cycle: {bad}")
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


class _BudgetedSDR(PrefixSDR):
    """Prefix matcher that ends the search once nodes plus augmentations pass
    the budget.  The backtracker pushes before every node but the root, so
    the whole allowance is checked at every node."""

    def __init__(self, pair_lists, aug: list[int], nodes: list[int], budget: int):
        super().__init__(pair_lists, aug)
        self.nodes = nodes
        self.budget = budget

    def push(self, u: int, v: int) -> bool:
        if self.nodes[0] + self.work_counter[0] > self.budget:
            raise SearchBudgetExceeded("work budget exhausted")
        return super().push(u, v)


def find_mono_berge(coloring: Coloring, budget: int = 2_000_000) -> SearchReport:
    """Search for a monochromatic Hamiltonian Berge-cycle.

    Per color with a large enough class: every Hamiltonian cycle of the graph
    of covered pairs is a candidate core (there are no others), and a core
    works exactly when its n pairs have distinct hyperedges of the color.  One
    backtracker per color grows the path together with a matching of its
    pairs (`PrefixSDR`) and cuts every prefix that already has none, so the
    first cycle it yields is the answer: the first core, in the backtracker's
    order, that has distinct edges, with the edges that augmenting-path
    matching of its pairs in order gives.  A color that yields nothing is
    "all cores exhausted" when its support graph is Hamiltonian (seen by the
    search itself, or by a plain first-cycle search when the matcher cut some
    branch) and "support graph not Hamiltonian" otherwise.  A budget hit parks
    the color; parked colors get one constructive attempt, and the verdict is
    undecided only if some color stays unresolved.

    The budget is cumulative across colors, not a fresh allowance per color:
    search nodes and augmenting-path attempts (one per search-tree edge)
    spent on earlier colors count against later ones, and the total is
    checked at every node.  Under a tight budget the verdict can therefore
    depend on how the colors are numbered.
    """
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
        lists = pair_edges(coloring, color)
        support = Graph(n, [pair for pair, pool in lists.items() if pool])
        sdr = _BudgetedSDR(lists, aug, nodes, budget)
        try:
            for cert in iter_hamiltonian_cycles(
                support, max_nodes=budget, counter=nodes, prefix_hook=sdr
            ):
                cycle = BergeCycle(cert.order, tuple(sdr.representatives()), color)
                bad = verify_berge_cycle(cycle, coloring)
                if bad is not None:
                    raise RuntimeError(f"search produced an invalid cycle: {bad}")
                stages["colors"][color] = "found"
                return SearchReport("found", color, cycle, stages, nodes[0], aug[0])
            # nothing yielded: either the search completed a cycle and the
            # matcher refused it, or a refused pair may have cut off the only
            # cycles, and a plain search decides
            hamiltonian = sdr.longest == n or (
                sdr.refused > 0
                and find_hamiltonian_cycle(
                    support, max_nodes=budget - aug[0], use_closure=False, counter=nodes
                )
                is not None
            )
            stages["colors"][color] = (
                "all cores exhausted" if hamiltonian else "support graph not Hamiltonian"
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


def _digits_of(m: int, k: int, width: int) -> list[int]:
    """Base-k digits of m, most significant first, as colors 1..k."""
    out = [1] * width
    for t in range(width - 1, -1, -1):
        out[t] = m % k + 1
        m //= k
    return out


def _sweep_range(params: HyperParams, lo: int, hi: int) -> tuple[int, int, list[str]]:
    """Classify colorings with counter values in [lo, hi)."""
    n, k = params.n, params.k
    width = params.edge_count
    success = 0
    failure = 0
    examples: list[str] = []
    for m in range(lo, hi):
        digits = _digits_of(m, k, width)
        counts = [0] * (k + 1)
        for d in digits:
            counts[d] += 1
        if max(counts[1:]) < n:
            failure += 1  # no class can supply n distinct edges
            if len(examples) < ExhaustReport.MAX_STORED:
                examples.append(" ".join(map(str, digits)))
            continue
        coloring = Coloring(params, digits)
        report = _decide_exact(coloring)
        if report.verdict == "found":
            success += 1
        else:
            failure += 1
            if len(examples) < ExhaustReport.MAX_STORED:
                examples.append(" ".join(map(str, digits)))
    return success, failure, examples


def exhaustive_verify(
    params: HyperParams,
    shards: int = 1,
    workers: int = 1,
) -> ExhaustReport:
    """Sweep every k-coloring of K_n^r and count which contain a
    monochromatic Hamiltonian Berge-cycle.

    Colorings are enumerated as base-k counters over the colex edge order
    (edge 0 most significant, so counter order is lexicographic on the digit
    strings).  Sharding splits the counter range; results are merged in range
    order, so counts and retained counterexamples are independent of the shard
    count.  Up to 100 lexicographically smallest failing colorings are kept.
    """
    total = params.k ** params.edge_count
    if total > MAX_SWEEP_COLORINGS:
        raise ValueError(
            f"{params.k}^{params.edge_count} = {total} colorings exceed the "
            f"{MAX_SWEEP_COLORINGS} cap; narrow the parameters"
        )
    if shards < 1:
        raise ValueError("need at least one shard")
    bounds = [total * i // shards for i in range(shards + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(shards)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_worker, [(params, lo, hi) for lo, hi in ranges]))
    else:
        parts = [_sweep_range(params, lo, hi) for lo, hi in ranges]
    success = sum(pt[0] for pt in parts)
    failure = sum(pt[1] for pt in parts)
    examples: list[str] = []
    for pt in parts:
        for ex in pt[2]:
            if len(examples) >= ExhaustReport.MAX_STORED:
                break
            examples.append(ex)
    return ExhaustReport(
        params.n, params.r, params.k, total, success, failure, examples, ranges
    )


def _sweep_worker(args):
    return _sweep_range(*args)


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
    """
    E = params.edge_count
    if scheme == "uniform":
        if not 1 <= color <= params.k:
            raise ValueError(f"color {color} out of range")
        return Coloring(params, [color] * E)
    if scheme == "random":
        rng = np.random.default_rng(seed)
        return Coloring(params, rng.integers(1, params.k + 1, size=E))
    if scheme == "vertex-partition":
        if classes is None or len(classes) != params.n:
            raise ValueError("vertex-partition needs one class id per vertex")
        if any(not 1 <= c <= params.k for c in classes):
            raise ValueError("class ids must be valid colors")
        cols = [classes[e[0]] for e in iter_colex_edges(params.n, params.r)]
        return Coloring(params, cols)
    if scheme == "digits":
        if not digits or any(ch not in "123456789" for ch in digits):
            raise ValueError("digits scheme needs a nonempty string of digits 1-9")
        vals = [int(digits[t % len(digits)]) for t in range(E)]
        if any(v > params.k for v in vals):
            raise ValueError(f"digit exceeds k={params.k}")
        return Coloring(params, vals)
    raise ValueError(f"unknown scheme {scheme!r}")
