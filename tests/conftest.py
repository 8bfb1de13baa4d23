import random
from itertools import combinations

import numpy as np
import pytest

from bergeham import Coloring, Graph
from bergeham.hypercore import _check_args, iter_colex_edges


PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


# core vertices and colors that are not integers, although most compare equal
# to 1; None last, since as a claimed color it means no claim
NON_INTEGERS = [1.0, np.float64(1.0), True, "1", None]
NON_INTEGER_IDS = ["float", "numpy-float", "bool", "str", "None"]


@pytest.fixture
def petersen():
    return Graph(10, PETERSEN_EDGES)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def color_degree(x: int, i: int, coloring: Coloring) -> int:
    """Count color-i hyperedges containing x, straight from the coloring."""
    p = coloring.params
    _check_args(p, (x,), (i,))
    count = 0
    for t, e in enumerate(iter_colex_edges(p.n, p.r)):
        if x in e and coloring.colors[t] == i:
            count += 1
    return count


def as_mask(pool) -> int:
    """An ascending list of edge indices as a bitmask: bit t for edge t."""
    return sum(1 << t for t in pool)


def pair_edges(coloring: Coloring, color: int) -> dict[tuple[int, int], list[int]]:
    """Map each vertex pair (u, v), u < v, to the ascending edges of one color
    class that contain it."""
    edges, rows = coloring.class_members(color)
    lists: dict[tuple[int, int], list[int]] = {
        pair: [] for pair in combinations(range(coloring.params.n), 2)
    }
    for t, row in zip(edges.tolist(), rows.tolist()):
        for pair in combinations(row, 2):
            lists[pair].append(t)
    return lists


def class_vertex_masks(coloring: Coloring, color: int) -> list[int]:
    """Per-vertex bitmasks of one color class over edge ids: bit t of entry x
    is set when vertex x lies in the class edge t, so the AND of entries u
    and v is `as_mask` of `pair_edges(coloring, color)[(u, v)]`."""
    edges, rows = coloring.class_members(color)
    vm = [0] * coloring.params.n
    for t, row in zip(edges.tolist(), rows.tolist()):
        for x in row:
            vm[x] |= 1 << t
    return vm
