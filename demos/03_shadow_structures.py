"""Good colors, U-bar sets, bad-pair graphs, and avoidance on the shadow graph."""

from bergeham import ColorProfile, avoids, bad_edge_graph
from bergeham import Coloring, HyperParams
from bergeham.hypercore import iter_colex_edges

# Color K_7^3 with two colors: everything through vertex 0 is color 2,
# the rest color 1.
params = HyperParams(7, 3, 2)
colors = [2 if 0 in e else 1 for e in iter_colex_edges(7, 3)]
coloring = Coloring(params, colors)

# A color is good for a pair when enough hyperedges of that color cover it
# (threshold r-1 = 2 here).
profile = ColorProfile(coloring)
print("L*(0,1):", profile.good_colors(0, 1))
print("L*(1,2):", profile.good_colors(1, 2))
print("color degrees at 0:", [profile.color_degree(0, i) for i in (1, 2)])

# Ubar_i(x) collects the partners of x for which color i is not good.
print("Ubar_2(1):", sorted(profile.ubar_set(1, 2)))

# W_i is the graph of pairs where color i is NOT good; the star structure of
# the coloring is visible in it.
w1 = bad_edge_graph(1, profile)
print("bad pairs for color 1:", sorted(w1.edges()))

# A vertex set avoids a color set when each color is blocked by a low-degree
# member or an internal bad pair.
print("does {0} avoid {1}?", avoids([0], [1], profile, d_bound=0))
print("does {1,2} avoid {2}?", avoids([1, 2], [2], profile, d_bound=0))
