"""Differential and metamorphic checks of find_mono_berge where verdicts mix.

Random colorings with many colors at n <= 8 are the regime where "not-found"
actually happens.  There the production search must agree with the
independent naive oracle, and its verdict must not change when the vertices
and the colors are renamed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bergeham import Coloring, HyperParams, find_mono_berge, naive_oracle, verify_berge_cycle
from bergeham.hypercore import edge_members, rank_edge

SPACES = [(6, 3, 3), (7, 3, 4), (7, 3, 5), (7, 4, 8), (8, 3, 6), (8, 3, 8)]
PER_SPACE = 50
# more colors than SPACES, so that about one drawn coloring in seven is
# not-found, few of them only because every class is too small
DRAWN_SPACES = [(6, 3, 4), (7, 3, 6), (8, 3, 9), (8, 3, 10)]


def relabel(coloring, vertex_perm, color_perm):
    """The coloring with vertex v renamed vertex_perm[v] and color c renamed
    color_perm[c - 1]."""
    p = coloring.params
    colors = [0] * p.edge_count
    for t, row in enumerate(edge_members(p.n, p.r).tolist()):
        image = rank_edge(sorted(vertex_perm[v] for v in row), p)
        colors[image] = color_perm[int(coloring.colors[t]) - 1]
    return Coloring(p, colors)


def test_relabel_is_a_bijection_on_edges():
    p = HyperParams(6, 3, 3)
    rng = random.Random(5)
    c = Coloring(p, [rng.randint(1, 3) for _ in range(p.edge_count)])
    vperm = [3, 0, 5, 1, 4, 2]
    inverse = [vperm.index(v) for v in range(p.n)]
    out = relabel(relabel(c, vperm, [2, 3, 1]), inverse, [3, 1, 2])
    assert out == c


def test_search_agrees_with_oracle_and_relabelling():
    rng = random.Random(2024)
    not_found = 0
    for n, r, k in SPACES:
        p = HyperParams(n, r, k)
        for _ in range(PER_SPACE):
            c = Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])
            vperm = rng.sample(range(n), n)
            cperm = rng.sample(range(1, k + 1), k)
            report = find_mono_berge(c)
            renamed = find_mono_berge(relabel(c, vperm, cperm))
            assert "undecided" not in (report.verdict, renamed.verdict)
            assert report.verdict == naive_oracle(c).verdict, (n, r, k, c.to_text())
            assert renamed.verdict == report.verdict, (n, r, k, c.to_text())
            if report.verdict == "found":
                assert verify_berge_cycle(report.cycle, c) is None
            else:
                not_found += 1
    assert not_found >= 1


@st.composite
def small_colorings(draw):
    n, r, k = draw(st.sampled_from(DRAWN_SPACES))
    p = HyperParams(n, r, k)
    rng = draw(st.randoms(use_true_random=False))
    return Coloring(p, [rng.randint(1, k) for _ in range(p.edge_count)])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(small_colorings())
def test_search_agrees_with_oracle_on_drawn_colorings(coloring):
    report = find_mono_berge(coloring)
    assert report.verdict == naive_oracle(coloring).verdict
    if report.verdict == "found":
        assert verify_berge_cycle(report.cycle, coloring) is None
