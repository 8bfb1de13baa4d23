"""Hamiltonicity engines.

Sufficient conditions (Dirac, Chvatal), the degree-sum closure with a
constructive cycle transfer, and one exact backtracker.

The backtracker is a depth-first search over adjacency bitmasks, anchored at
vertex 0, taking neighbors in ascending order.  It prunes a branch when vertex
0 has no unvisited neighbor left, or when some unvisited vertex has fewer than
two neighbors among the unvisited vertices, the path's end and vertex 0.  It
yields each Hamiltonian cycle once, as the order whose second vertex is
smaller than its last, in lexicographic order.  `iter_hamiltonian_cycles`
exposes the whole enumeration, whose first cycle is the plain search on a
graph.  An optional prefix hook can veto path pairs as the search grows
them, which cuts whole subtrees; the Berge-cycle search uses it to stop at a
path prefix whose pairs have no distinct hyperedges (Hall's theorem).
`find_hamiltonian_cycle` closes the graph, takes the first cycle of the
closure (none is searched for when the closure is complete), then peels the
added edges in reverse order via the transfer step, so the closure lemma does
the heavy lifting.

Budgets are node-expansion counts, never wall clock, so verdicts are
reproducible.  Exhausting a budget raises SearchBudgetExceeded; a plain None
from the finder means "proven non-Hamiltonian".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol

from .graphs import Graph
from .hypercore import _check_int


class SearchBudgetExceeded(Exception):
    """A bounded search ran out of node expansions before reaching a verdict."""


@dataclass(frozen=True)
class CycleCertificate:
    """A Hamiltonian cycle given as a vertex order; wraparound edge included."""

    order: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless the order is a permutation of g's vertices
        whose consecutive pairs, wraparound last, are all edges of g; the
        first missing edge is named."""
        order = self.order
        n = g.n
        if len(order) != n or set(order) != set(range(n)):
            raise ValueError("certificate order is not a permutation of the vertices")
        masks = g._adj
        for u, v in zip(order, order[1:] + order[:1]):
            if not masks[u] >> v & 1:
                raise ValueError(f"certificate uses missing edge ({u},{v})")


def dirac_check(g: Graph) -> bool:
    """Minimum degree at least n/2 (integer form: 2*deg >= n)."""
    if g.n < 3:
        raise ValueError("Dirac condition needs n >= 3")
    return all(2 * g.degree(v) >= g.n for v in range(g.n))


def chvatal_check(g: Graph) -> bool:
    """Chvatal degree-sequence condition.

    With d_1 <= ... <= d_n: for every i with 1 <= i < n/2, d_i <= i must imply
    d_{n-i} >= n - i.
    """
    n = g.n
    if n < 3:
        raise ValueError("Chvatal condition needs n >= 3")
    d = sorted(g.degrees())
    for i in range(1, n):
        if 2 * i >= n:
            break
        if d[i - 1] <= i and d[n - i - 1] < n - i:
            return False
    return True


def closure_order(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Degree-sum closure plus the edges added, in addition order.

    Repeatedly adds uv for nonadjacent u, v with deg(u) + deg(v) >= n until no
    pair qualifies.  Scans pairs ascending, repeating passes to the fixpoint,
    so the addition order is deterministic.
    """
    n = g.n
    masks = [g.adjacency_mask(v) for v in range(n)]
    degs = [m.bit_count() for m in masks]
    added: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if not masks[u] >> v & 1 and degs[u] + degs[v] >= n:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                    degs[u] += 1
                    degs[v] += 1
                    added.append((u, v))
                    changed = True
    return Graph._from_masks(masks), added


def closure(g: Graph) -> Graph:
    """The Bondy-Chvatal closure of g."""
    return closure_order(g)[0]


def _transfer_order(
    masks: list[int], n: int, u: int, v: int, order: tuple[int, ...]
) -> tuple[int, ...]:
    """Rewire a cycle of g+uv into a cycle of g (crossing pair); a cycle that
    does not use uv is already one of g and comes back as `order` itself."""
    iu, iv = order.index(u), order.index(v)
    if (iu - iv) % n == 1:
        u, v, iu, iv = v, u, iv, iu
    elif (iv - iu) % n != 1:
        return order
    # v directly follows u; walking backward from u traverses the rest of the
    # cycle, giving a path p[0]=u ... p[n-1]=v that avoids the uv edge
    p = [order[(iu - t) % n] for t in range(n)]
    assert p[0] == u and p[-1] == v
    for j in range(1, n - 1):
        if masks[u] >> p[j + 1] & 1 and masks[v] >> p[j] & 1:
            return tuple(p[: j + 1] + p[j + 1 :][::-1])
    raise AssertionError("degree-sum precondition guarantees a crossing pair")


def transfer_cycle(
    g: Graph, u: int, v: int, cert: CycleCertificate
) -> CycleCertificate:
    """Convert a Hamiltonian cycle of g+uv into one of g.

    Requires deg(u) + deg(v) >= n in g.  If the certificate does not use the
    edge uv it is returned unchanged.
    """
    n = g.n
    if g.degree(u) + g.degree(v) < n:
        raise ValueError(
            f"degree sum {g.degree(u)}+{g.degree(v)} < n={n}; transfer needs >= n"
        )
    cert.validate(g.with_edges([(u, v)]))
    if g.has_edge(u, v):
        return cert
    order = _transfer_order(g._adj, n, u, v, cert.order)
    if order is not cert.order:
        cert = CycleCertificate(order)
        cert.validate(g)
    return cert


class PrefixHook(Protocol):
    """Veto on the pairs of the path the backtracker grows.

    `push(u, v)` is asked before the search moves along the pair uv; False
    skips that branch and must leave the hook as it was.  `pop()` takes back
    the last accepted push.
    """

    def push(self, u: int, v: int) -> bool: ...

    def pop(self) -> None: ...


def _cycle_orders(
    masks: list[int],
    max_nodes: Optional[int],
    counter: list[int],
    hook: Optional[PrefixHook] = None,
) -> Iterator[tuple[int, ...]]:
    """The exact backtracker described in the module docstring.

    Yields every Hamiltonian cycle of the adjacency masks as a vertex order.
    Node expansions accumulate in counter[0]; max_nodes caps them by raising
    SearchBudgetExceeded.  With a hook, each tree edge (v, w) is pushed before
    the search descends to w, and the closing pair (v_{n-1}, v_0) before a
    cycle is yielded; a refused push cuts that subtree or that cycle.
    The nested `step` is deleted once the enumeration ends, finished or
    closed early, so a search leaves no reference cycle for the collector.
    """
    n = len(masks)
    full = (1 << n) - 1
    if any(m.bit_count() < 2 for m in masks):
        return
    path = [0]

    def step(v: int, used: int) -> Iterator[tuple[int, ...]]:
        counter[0] += 1
        if max_nodes is not None and counter[0] > max_nodes:
            raise SearchBudgetExceeded(f"node budget {max_nodes} exhausted")
        if used == full:
            if masks[v] & 1 and path[1] < path[-1]:
                if hook is None:
                    yield tuple(path)
                elif hook.push(v, 0):
                    yield tuple(path)
                    hook.pop()
            return
        un = full & ~used
        if not masks[0] & un:
            return
        reach = un | (1 << v) | 1
        m = un
        while m:
            low = m & -m
            if (masks[low.bit_length() - 1] & reach).bit_count() < 2:
                return
            m ^= low
        m = masks[v] & un
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if hook is not None and not hook.push(v, w):
                continue
            path.append(w)
            yield from step(w, used | low)
            path.pop()
            if hook is not None:
                hook.pop()

    try:
        yield from step(0, 1)
    finally:
        del step  # `step` refers to itself; drop it so no reference cycle is left


def find_hamiltonian_cycle(
    g: Graph,
    max_nodes: Optional[int] = None,
    counter: Optional[list[int]] = None,
) -> Optional[CycleCertificate]:
    """Exact Hamiltonian-cycle finder.

    Returns a validated certificate, or None when the graph is proven
    non-Hamiltonian.  Raises SearchBudgetExceeded when the node budget runs
    out, so an undecided search is never mistaken for a proof of absence.

    The search runs on the closure and the added edges are peeled off in
    reverse order via transfer_cycle; for plain backtracking on g itself,
    take the first cycle of `iter_hamiltonian_cycles`.  `counter`, when
    given, accumulates node expansions in its first slot.  `max_nodes` must be
    None or an integer of at least 0, else ValueError.
    """
    if max_nodes is not None:
        _check_int("max_nodes", max_nodes, 0)
    n = g.n
    if n < 3:
        raise ValueError("Hamiltonian cycles need n >= 3")
    if counter is None:
        counter = [0]
    closed, added = closure_order(g)
    full = (1 << n) - 1
    masks = [closed.adjacency_mask(v) for v in range(n)]
    if all(m == full ^ (1 << v) for v, m in enumerate(masks)):
        order = tuple(range(n))
    else:
        order = next(_cycle_orders(masks, max_nodes, counter), None)
        if order is None:
            return None  # g is a subgraph of its closure
    for u, v in reversed(added):
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        order = _transfer_order(masks, n, u, v, order)
    cert = CycleCertificate(order)
    cert.validate(g)
    return cert


def iter_hamiltonian_cycles(
    g: Graph,
    *,
    counter: Optional[list[int]] = None,
    prefix_hook: Optional[PrefixHook] = None,
) -> Iterator[CycleCertificate]:
    """Enumerate all Hamiltonian cycles, one per rotation/reflection class.

    Cycles are anchored at vertex 0 with second vertex < last vertex, yielded
    in lexicographic order of that canonical form.  `counter`, when given,
    accumulates node expansions in its first slot.  `prefix_hook` sees every
    pair of the growing path (see `PrefixHook`); the cycles it lets through
    keep their order, and while one is being yielded all of its n pairs are
    pushed on the hook.
    """
    if g.n < 3:
        raise ValueError("Hamiltonian cycles need n >= 3")
    masks = [g.adjacency_mask(v) for v in range(g.n)]
    counter = [0] if counter is None else counter
    for order in _cycle_orders(masks, None, counter, prefix_hook):
        yield CycleCertificate(order)
