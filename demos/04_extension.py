"""Candidate tables and the two ways to extend a core sequence into a cycle."""

from bergeham import (
    Coloring,
    HyperParams,
    build_candidates,
    extend_greedy_ordered,
    extend_matching,
    unrank_edge,
    verify_berge_cycle,
)

# On the one-color K_5^4 every consecutive pair has three candidate
# hyperedges; a Berge-cycle needs five pairwise-distinct picks.
params = HyperParams(5, 4, 1)
coloring = Coloring(params, [1] * 5)
table = build_candidates((0, 1, 2, 3, 4), 1, coloring)
pairs = zip(table.core, table.core[1:] + table.core[:1])
for i, (pair, cands) in enumerate(zip(pairs, table.candidates)):
    print(f"position {i} pair {pair}:", [unrank_edge(e, params) for e in cands])

# The matching extender solves the distinct-representatives problem exactly.
cycle = extend_matching(table)
print("\nmatching assignment:", cycle.edges)
print("verifies:", verify_berge_cycle(cycle, coloring) is None)

# The ordered greedy takes the lowest unused index per position.  Here it
# paints itself into a corner at the wraparound pair -- sound but incomplete.
print("greedy outcome:", extend_greedy_ordered(table))

# Reservations pin positions to specific hyperedges; the greedy honors them
# verbatim and fills the rest.
reserved = {0: table.candidates[0][2], 1: table.candidates[1][2]}
pinned = extend_greedy_ordered(table, reserved)
print("with reservations:", pinned.edges if pinned else None)
