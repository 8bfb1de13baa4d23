"""Constructive pipeline: witness -> auxiliary graph -> Hamiltonian cycle -> Berge-cycle.

A witness is a vertex x together with y_1..y_{r-1} and a split point f: after
renaming colors, the first f are jointly dodged by {y_1..y_f} (avoidance),
each remaining color i is not good for the pair x y_i, the bad-pair
neighborhoods Ubar_i(x) come sorted ascending by size, and the last one covers
at least half the graph.  Witnesses seed one of two auxiliary-graph
constructions depending on whether f is maximal (f = r-2) or not, and every
auxiliary edge may carry a reserved hyperedge that the extension step uses
verbatim.

The searches here are bounded and best-effort: the guarantees behind the
witness shape hold only under a global hypothesis that small instances need
not satisfy, so "no witness" is a search outcome, not a structural fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .extend import build_candidates, distinct_representatives, extend_greedy_ordered, extend_matching
from .graphs import Graph
from .hamilton import SearchBudgetExceeded, chvatal_check, find_hamiltonian_cycle
from .hypercore import BergeCycle, Coloring, _check_args, _rows_through, edge_members, rank_edge
from .shadow import ColorProfile, _degree_bound, _greedy_avoiding, avoids

GAMMA_NODE_BUDGET = 2_000_000


class GammaBuildError(Exception):
    """An auxiliary-graph construction ran out of material.

    `failing_vertex` names the vertex whose step could not be completed when
    the failure is a step exhaustion.
    """

    def __init__(self, message: str, failing_vertex: Optional[int] = None):
        super().__init__(message)
        self.failing_vertex = failing_vertex


@dataclass(frozen=True)
class Witness:
    """The (x, f, y_1..y_{r-1}) structure seeding the auxiliary constructions.

    `color_perm[orig-1]` is the renamed id of original color `orig`; y and
    ubar_sizes are indexed by renamed color.  `ubar_sizes[j]` is
    |Ubar_{f+1+j}(x)|, ascending.
    """

    x: int
    f: int
    y: tuple[int, ...]
    color_perm: tuple[int, ...]
    ubar_sizes: tuple[int, ...]

    def original_color(self, renamed: int) -> int:
        return self.color_perm.index(renamed) + 1

    def y_of(self, renamed: int) -> int:
        return self.y[renamed - 1]

    def validate(self, profile: ColorProfile, d_bound: Optional[int] = None) -> None:
        """Re-derive every witness invariant from the profile; raise on failure.
        A d_bound that is not an integer of at least 0 raises ValueError."""
        p = profile.params
        k, n = p.k, p.n
        d_bound = _degree_bound(d_bound, p.r)
        if sorted(self.color_perm) != list(range(1, k + 1)):
            raise ValueError("color_perm is not a permutation of the colors")
        if not 0 <= self.f <= p.r - 2:
            raise ValueError(f"f={self.f} out of range [0, r-2]")
        if len(self.y) != k:
            raise ValueError(f"expected {k} witness vertices, got {len(self.y)}")
        if len(set(self.y)) != k or self.x in self.y:
            raise ValueError("witness vertices must be distinct and avoid x")
        sizes = []
        for i in range(self.f + 1, k + 1):
            orig = self.original_color(i)
            if profile.is_good(self.x, self.y_of(i), orig):
                raise ValueError(
                    f"color {i} (renamed) is good for x y_{i}; witness broken"
                )
            sizes.append(profile.ubar_size(self.x, orig))
        if tuple(sizes) != self.ubar_sizes:
            raise ValueError("recorded ubar_sizes disagree with the profile")
        if sizes != sorted(sizes):
            raise ValueError("ubar_sizes are not ascending")
        if 2 * sizes[-1] < n - 1:
            raise ValueError("largest Ubar covers less than (n-1)/2 vertices")
        head = [self.original_color(i) for i in range(1, self.f + 1)]
        if not avoids(self.y[: self.f], head, profile, d_bound):
            raise ValueError("y_1..y_f do not avoid the first f colors")


def witness_search(
    profile: ColorProfile, d_bound: Optional[int] = None
) -> Optional[Witness]:
    """Search for a witness with maximum f; None when the search finds none.

    Candidate x are tried by descending max_i |Ubar_i(x)| (ties by index), f
    from r-2 downward.  For each color split the avoidance set is built
    greedily and the remaining y_i come from a distinct-representatives
    matching over the Ubar sets, so results are deterministic.  A d_bound
    that is not an integer of at least 0 raises ValueError.
    """
    p = profile.params
    k, n = p.k, p.n
    if k != p.r - 1:
        raise ValueError("witness search needs the (r-1)-coloring setting k = r-1")
    d_bound = _degree_bound(d_bound, p.r)
    all_colors = list(range(1, k + 1))
    ubar = profile._ubar.tolist()  # ubar[x][i-1] = |Ubar_i(x)|
    xs = sorted(range(n), key=lambda x: (-max(ubar[x]), x))
    for f in range(p.r - 2, -1, -1):
        for x in xs:
            if 2 * max(ubar[x]) < n - 1:
                continue
            for P in combinations(all_colors, f):
                rest = [i for i in all_colors if i not in P]
                rest.sort(key=lambda i: (ubar[x][i - 1], i))
                if 2 * ubar[x][rest[-1] - 1] < n - 1:
                    continue
                if any(ubar[x][i - 1] == 0 for i in rest):
                    continue
                S = _greedy_avoiding(
                    P, profile, d_bound, forbidden=frozenset({x}), pad_to=f
                )
                if S is None:
                    continue
                taken = set(S) | {x}
                pools = [
                    sorted(profile.ubar_set(x, i) - taken) for i in rest
                ]
                tail = distinct_representatives(pools)
                if tail is None:
                    continue
                perm = [0] * k
                for renamed, orig in enumerate(sorted(P), start=1):
                    perm[orig - 1] = renamed
                for renamed, orig in enumerate(rest, start=f + 1):
                    perm[orig - 1] = renamed
                return Witness(
                    x=x,
                    f=f,
                    y=tuple(S) + tuple(tail),
                    color_perm=tuple(perm),
                    ubar_sizes=tuple(ubar[x][i - 1] for i in rest),
                )
    return None


@dataclass
class GammaBundle:
    """An auxiliary graph with its reserved-hyperedge map and bookkeeping.

    `reserved` maps gamma edges (u, v) with u < v to hyperedge indices; every
    reserved hyperedge contains its edge's endpoints, has the target color,
    and no hyperedge is reserved twice.  `info` holds the construction's
    bookkeeping sets in JSON-ready form.
    """

    gamma: Graph
    reserved: dict[tuple[int, int], int]
    case_tag: int
    target_color: int
    witness: Witness
    info: dict = field(default_factory=dict)

    def validate(self, profile: ColorProfile) -> None:
        p = profile.params
        _check_args(p, edges=self.reserved.values())
        table = edge_members(p.n, p.r)
        seen = set()
        for (u, v), h in self.reserved.items():
            if not self.gamma.has_edge(u, v):
                raise ValueError(f"reservation on missing gamma edge ({u},{v})")
            if h in seen:
                raise ValueError(f"hyperedge {h} reserved twice")
            seen.add(h)
            members = table[h].tolist()
            if u not in members or v not in members:
                raise ValueError(
                    f"reserved hyperedge {h} misses an endpoint of ({u},{v})"
                )
            if profile.coloring.colors[h] != self.target_color:
                raise ValueError(f"reserved hyperedge {h} has the wrong color")
        if self.case_tag == 2:
            r, n = p.r, p.n
            f = self.witness.f
            parts = {int(i): list(vs) for i, vs in self.info["A_parts"].items()}
            flat = sorted(v for vs in parts.values() for v in vs)
            if flat != sorted(self.info["U"]):
                raise ValueError("A_1..A_{r-1} do not partition U")
            if len(parts[r - 1]) != n // 2 + 1:
                raise ValueError("A_{r-1} must have floor(n/2)+1 vertices")
            if parts.get(f + 1):
                raise ValueError("A_{f+1} must be empty")
            mid = [len(parts[i]) for i in parts if i not in (f + 1, r - 1)]
            if mid and max(mid) - min(mid) > 1:
                raise ValueError("middle A_i sizes differ by more than one")

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "n": self.gamma.n,
            "target_color": self.target_color,
            "witness": {
                "x": self.witness.x,
                "f": self.witness.f,
                "y": list(self.witness.y),
                "color_perm": list(self.witness.color_perm),
                "ubar_sizes": list(self.witness.ubar_sizes),
            },
            "gamma_edges": [[u, v] for u, v in self.gamma.edges()],
            "reserved": sorted(
                [u, v, h] for (u, v), h in self.reserved.items()
            ),
            "info": self.info,
        }

    def dump_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _certified(candidates, target: int, profile: ColorProfile) -> dict:
    """Map each (key, vertex set) candidate's key to the colex rank of the
    target-colored hyperedge its set spans; a key keeps its first such edge."""
    certified = {}
    for key, vertices in candidates:
        if key not in certified:
            h = rank_edge(sorted(vertices), profile.params)
            if profile.coloring.colors[h] == target:
                certified[key] = h
    return certified


def build_gamma_case1(witness: Witness, profile: ColorProfile) -> GammaBundle:
    """Auxiliary graph for a maximal split (f = r-2).

    On the non-witness vertices, an edge appears exactly when the hyperedge
    formed by Y plus the pair has the target color, and that hyperedge is
    reserved for it; every witness vertex is joined to all non-witness
    vertices without a reservation.
    """
    p = profile.params
    r, n = p.r, p.n
    if witness.f != r - 2:
        raise ValueError(f"case 1 needs f = r-2, got f={witness.f}")
    target = witness.original_color(r - 1)
    Y = list(witness.y[: r - 2])
    yset = set(Y)
    others = [v for v in range(n) if v not in yset]
    reserved = _certified(
        (((u, v), Y + [u, v]) for u, v in combinations(others, 2)), target, profile
    )
    e2 = [(y, v) for y in Y for v in others]
    gamma = Graph(n, [*reserved, *e2])
    info = {
        "Y": Y,
        "E1_size": len(reserved),
        "E2_size": len(e2),
    }
    return GammaBundle(gamma, reserved, 1, target, witness, info)


def _repair_degrees(
    vertices: list[int],
    graph: Graph,
    exclusion: set[int],
    edges: np.ndarray,
    rows: np.ndarray,
    reserved: dict[tuple[int, int], int],
) -> tuple[list[tuple[int, int]], list[int], list[int], set[int]]:
    """Raise each vertex's degree in `graph` above 2r with fresh hyperedges.

    Vertex v of degree d takes t = max(0, 2r+1-d) target-color hyperedges
    through it (`edges`, member `rows`) that no gamma edge reserves yet,
    lowest first, each with a contact vertex outside `exclusion`, v, v's
    neighbors and contacts, and the vertices that took v as a contact; the
    new gamma edge is reserved.  Only a vertex with t > 0 reads the class:
    its rows through v come from one compare per column (`_rows_through`).
    Returns the added edges, t and d per vertex, and the vertices of the
    hyperedges taken.
    """
    r = rows.shape[1]  # members per hyperedge
    used = set(reserved.values())
    added: list[tuple[int, int]] = []
    counts: list[int] = []
    degrees: list[int] = []
    cover: set[int] = set()
    partners: dict[int, set[int]] = {}
    for v in vertices:
        d = graph.degree(v)
        degrees.append(d)
        counts.append(max(0, 2 * r + 1 - d))
        if not counts[-1]:
            continue
        blocked = exclusion | {v} | set(graph.neighbors(v)) | partners.get(v, set())
        through = _rows_through(rows, v)
        # one ascending pass serves every step: `used` and `blocked` only
        # grow, so an edge passed over stays unusable
        pool = zip(edges[through].tolist(), map(np.ndarray.tolist, rows[through]))
        for _ in range(counts[-1]):
            for h, members in pool:
                if h not in used and not blocked.issuperset(members):
                    break
            else:
                raise GammaBuildError(
                    f"degree repair exhausted the target-color hyperedges "
                    f"through vertex {v}",
                    failing_vertex=v,
                )
            fresh = next(w for w in members if w not in blocked)
            used.add(h)
            blocked.add(fresh)
            cover.update(members)
            partners.setdefault(fresh, set()).add(v)
            key = _edge_key(v, fresh)
            added.append(key)
            reserved[key] = h
    return added, counts, degrees, cover


def build_gamma_case2(witness: Witness, profile: ColorProfile) -> GammaBundle:
    """Auxiliary graph for a non-maximal split (f <= r-3).

    Five edge classes: pairs certified by target-colored hyperedges through x
    and a bad-pair vertex (reserved); a partition of the x-certified vertices
    distributed to the witness vertices (reserved); two rounds of one greedy
    degree repair, `_repair_degrees`, first for the bad-pair vertices at x on
    that graph, then for the r lowest-degree all-good vertices on the result
    (reserved, always on previously unused hyperedges with fresh contact
    vertices); and x joined to everything the repairs did not touch.

    Raises GammaBuildError when |Ubar_{f+1}(x)| exceeds r-2, when too few
    hyperedges through x and Y have the target color, when U outgrows
    A_{r-1} and k = 2 leaves no middle part, or when a repair step exhausts
    its candidates (the failing vertex is reported).
    """
    p = profile.params
    r, n, k = p.r, p.n, p.k
    f = witness.f
    if f > r - 3:
        raise ValueError(f"case 2 needs f <= r-3, got f={f}")
    x = witness.x
    target = witness.original_color(f + 1)
    ubar_f1 = profile.ubar_set(x, target)
    if witness.y_of(f + 1) not in ubar_f1:
        raise ValueError("y_{f+1} must lie in Ubar_{f+1}(x)")
    if len(ubar_f1) > r - 2:
        raise GammaBuildError(
            f"|Ubar_(f+1)(x)| = {len(ubar_f1)} exceeds r-2 = {r - 2}; "
            f"the case-2 construction does not apply"
        )
    u_list = [witness.y_of(f + 1)] + sorted(ubar_f1 - {witness.y_of(f + 1)})
    Y = [witness.y_of(i) for i in range(1, k + 1) if i != f + 1]
    yset = set(Y)
    others = [v for v in range(n) if v != x and v not in yset]
    edges, rows = profile.coloring.class_members(target)

    # E1: bad-pair vertices of the tail colors, certified through x
    tails = [(witness.y_of(i), witness.original_color(i)) for i in range(f + 2, r)]
    reserved = _certified(
        (
            (_edge_key(u, v), [w for w in Y if w != y_i] + [x, u, v])
            for y_i, orig in tails
            for u in sorted(profile.ubar_set(x, orig) - {y_i})
            for v in others
            if v != u
        ),
        target,
        profile,
    )
    e1_size = len(reserved)

    # E2: partition of the x-certified vertex set U over the witness vertices
    through_x = _certified(((v, Y + [x, v]) for v in others), target, profile)
    U = list(through_x)
    quota = n // 2 + 1
    if len(U) < quota:
        raise GammaBuildError(
            f"only {len(U)} vertices certify the target color through x and Y; "
            f"need floor(n/2)+1 = {quota}"
        )
    parts: dict[int, list[int]] = {i: [] for i in range(1, k + 1)}
    parts[k] = U[:quota]
    middle = [i for i in range(1, k) if i != f + 1]
    if len(U) > quota and not middle:
        raise GammaBuildError(
            f"k = {k} leaves no middle part A_i for the {len(U) - quota} vertices "
            f"of U past floor(n/2)+1 = {quota}"
        )
    for j, v in enumerate(U[quota:]):
        parts[middle[j % len(middle)]].append(v)
    e2 = []
    for i in range(1, k + 1):
        if i == f + 1:
            continue
        y_i = witness.y_of(i)
        for v in parts[i]:
            key = _edge_key(y_i, v)
            e2.append(key)
            reserved.setdefault(key, through_x[v])
    gamma1 = Graph(n, reserved)  # every E1 and E2 edge is reserved

    # E3 and E4: degree repairs for the bad-pair vertices at x, then for the
    # vertices where every color is good at x
    exclusion = yset | set(u_list) | {x}
    e3, t_list, u_gamma1_deg, a_cover = _repair_degrees(
        u_list, gamma1, exclusion, edges, rows, reserved
    )
    gamma2 = gamma1.with_edges(e3)
    w_all = sorted(
        (w for w in range(n) if w != x
         and all(profile.is_good(x, w, c) for c in range(1, k + 1))),
        key=lambda w: (gamma2.degree(w), w),
    )
    w_processed = w_all[:r]
    e4, tp_list, w_gamma2_deg, b_cover = _repair_degrees(
        w_processed, gamma2, exclusion, edges, rows, reserved
    )

    # E5: x joined to everything untouched by the repairs
    blocked = exclusion | a_cover | b_cover
    e5 = [_edge_key(x, v) for v in range(n) if v not in blocked]
    gamma = gamma2.with_edges(e4 + e5)

    # each repair gives its vertex t new, distinct neighbours (a contact is
    # never the vertex, a neighbour, an earlier contact or a vertex that took
    # it as contact) and later steps only add edges, so d + t >= 2r+1 holds
    assert all(gamma.degree(v) > 2 * r for v in u_list + w_processed)

    info = {
        "Y": Y,
        "x": x,
        "ubar_f1": u_list,
        "U": U,
        "A_parts": {str(i): parts[i] for i in parts},
        "t": t_list,
        "u_gamma1_deg": u_gamma1_deg,
        "t_prime": tp_list,
        "w_gamma2_deg": w_gamma2_deg,
        "w_list": w_processed,
        "w_total": len(w_all),
        "w_truncated": len(w_all) != r,
        "A_cover": sorted(a_cover),
        "B_cover": sorted(b_cover),
        "E_sizes": {
            "E1": e1_size,
            "E2": len(e2),
            "E3": len(e3),
            "E4": len(e4),
            "E5": len(e5),
        },
    }
    return GammaBundle(gamma, reserved, 2, target, witness, info)


@dataclass
class ConstructOutcome:
    """Result of the constructive pipeline with a stage-tagged diagnostic."""

    stage: str  # witness | gamma | hamilton | extend | done
    color: Optional[int] = None
    cycle: Optional[BergeCycle] = None
    witness: Optional[Witness] = None
    bundle: Optional[GammaBundle] = None
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.stage == "done"


def constructive_find(
    coloring: Coloring,
    d_bound: Optional[int] = None,
    good_threshold: Optional[int] = None,
) -> ConstructOutcome:
    """Witness search, auxiliary graph, Hamiltonian cycle, then extension.

    Sound, not complete: a returned cycle always verifies, and a miss reports
    the stage that failed.  Colors in the outcome are original ids.  A
    d_bound that is not an integer of at least 0 raises ValueError, as
    `witness_search` does.
    """
    p = coloring.params
    if p.k != p.r - 1:
        raise ValueError("constructive search needs k = r-1 colors")
    profile = ColorProfile(coloring, good_threshold)
    witness = witness_search(profile, d_bound)
    if witness is None:
        return ConstructOutcome("witness", detail="no witness found")
    try:
        if witness.f == p.r - 2:
            bundle = build_gamma_case1(witness, profile)
        else:
            bundle = build_gamma_case2(witness, profile)
        bundle.validate(profile)
    except GammaBuildError as err:
        return ConstructOutcome("gamma", witness=witness, detail=str(err))
    try:
        cert = find_hamiltonian_cycle(bundle.gamma, GAMMA_NODE_BUDGET)
    except SearchBudgetExceeded as err:
        return ConstructOutcome(
            "hamilton", witness=witness, bundle=bundle, detail=str(err)
        )
    if cert is None:
        return ConstructOutcome(
            "hamilton",
            witness=witness,
            bundle=bundle,
            detail=f"auxiliary graph is not Hamiltonian "
            f"(chvatal={chvatal_check(bundle.gamma)})",
        )
    order = list(cert.order)
    if bundle.case_tag == 2:
        # the ordered extension wants x last so its two cycle edges come at the end
        ix = order.index(witness.x)
        order = order[ix + 1 :] + order[: ix + 1]
    core = tuple(order)
    table = build_candidates(core, bundle.target_color, coloring)
    n = p.n
    reservations = {}
    for i in range(n):
        key = _edge_key(core[i], core[(i + 1) % n])
        if key in bundle.reserved:
            reservations[i] = bundle.reserved[key]
    cycle = extend_greedy_ordered(table, reservations)
    if cycle is None:
        cycle = extend_matching(table)
    if cycle is None:
        return ConstructOutcome(
            "extend",
            witness=witness,
            bundle=bundle,
            detail="no distinct-representative assignment for the cycle",
        )
    return ConstructOutcome(
        "done",
        color=bundle.target_color,
        cycle=cycle,
        witness=witness,
        bundle=bundle,
    )
