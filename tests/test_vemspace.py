"""Local dof layouts: counts, edge chains and the dof points they index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem.geometry import Facet
from polyvem.localmat import Element, ElementGroup, ElementMatrixCache
from polyvem.monomials import basis_size
from polyvem.quadrature import gauss_lobatto_1d
from polyvem.vemspace import build_layout

from conftest import pentagon, random_facet, square_with_hole, unit_square


@pytest.mark.parametrize("k,expected", [(1, 5), (2, 11), (3, 18)])
def test_pentagon_dof_counts(k, expected):
    layout = build_layout(pentagon(), k)
    assert layout.num_dofs == expected


def test_dof_count_formula_on_holed_facet():
    f = square_with_hole()
    for k in (1, 2, 3, 4):
        layout = build_layout(f, k)
        nv = f.num_vertices
        assert layout.num_dofs == nv * k + basis_size(k - 2)
        assert layout.moment_offset == nv * k


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=3, max_value=8))
@settings(max_examples=30, deadline=None)
def test_dof_count_formula_random(k, n):
    rng = np.random.default_rng(100 * k + n)
    f = random_facet(rng, "plain")
    layout = build_layout(f, k)
    assert layout.num_dofs == f.num_vertices * k + basis_size(k - 2)


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        build_layout(unit_square(), 0)


def dof_points(facet, k):
    """Point of every vertex and edge dof, as the element kernel stacks them."""
    group = ElementGroup([Element(facet, k)], [ElementMatrixCache()])
    return group.dof_points[0]


def test_dof_ordering_and_fields():
    f = unit_square()
    layout = build_layout(f, 3)
    assert (layout.num_vertex_dofs, layout.num_edge_dofs) == (4, 8)
    assert (layout.moment_offset, layout.num_moment_dofs, layout.num_dofs) == (12, 3, 15)
    pts = dof_points(f, 3)
    assert pts.shape == (12, 2)
    # vertex dofs follow the boundary walk
    assert np.allclose(pts[:4], [[0, 0], [1, 0], [1, 1], [0, 1]])
    # interior Lobatto parameters for k=3 are (1 -+ 1/sqrt(5))/2, in edge
    # direction
    lo = 0.5 - 0.5 / np.sqrt(5.0)
    for chain in layout.chains:
        p0, p1 = pts[chain[0]], pts[chain[-1]]
        t = (pts[chain[1:-1]] - p0) @ (p1 - p0)
        assert np.allclose(t, [lo, 1.0 - lo], atol=1e-14)


def test_edge_dof_points_lie_on_edges():
    f = pentagon()
    k = 4
    layout = build_layout(f, k)
    pts = dof_points(f, k)
    t, _ = gauss_lobatto_1d(k + 1)
    for chain in layout.chains:
        p0, p1 = pts[chain[0]], pts[chain[-1]]
        expected = p0 + t[1:-1, None] * (p1 - p0)
        assert np.allclose(pts[chain[1:-1]], expected, atol=1e-15)


def test_shared_edge_nodes_coincide_under_reversal():
    # two elements see a common edge with opposite direction; the Lobatto
    # nodes are symmetric so the physical points must pair up as t <-> 1-t
    coords = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    )
    left = Facet(coords, [0, 1, 2, 3])
    right = Facet(coords, [1, 4, 5, 2])
    k = 3

    def nodes_on_edge_12(facet):
        ids = facet.vertex_ids()
        chains = build_layout(facet, k).chains
        chain = next(c for c in chains if {ids[c[0]], ids[c[-1]]} == {1, 2})
        return dof_points(facet, k)[chain[1:-1]]

    pa, pb = nodes_on_edge_12(left), nodes_on_edge_12(right)
    assert np.allclose(pa, pb[::-1], atol=1e-13)


def test_edge_dof_chain_endpoints():
    f = pentagon()
    layout = build_layout(f, 2)
    ids = f.vertex_ids()
    assert layout.chains.shape == (5, 3)
    for i, chain in enumerate(layout.chains):
        assert ids[chain[0]] == ids[i]
        assert ids[chain[-1]] == ids[(i + 1) % 5]


def test_pinched_walk_keeps_last_position():
    # one loop through vertex 2 twice, at walk positions 2 and 6: both
    # passes read the dof at position 6
    coords = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [0, 1]], float)
    f = Facet(coords, [0, 1, 2, 3, 4, 5, 2, 6])
    chains = build_layout(f, 2).chains
    assert chains[:, 0].tolist() == [0, 1, 6, 3, 4, 5, 6, 7]
    assert chains[:, -1].tolist() == [1, 6, 3, 4, 5, 6, 7, 0]


def test_holed_facet_walk_covers_both_loops():
    f = square_with_hole()
    layout = build_layout(f, 2)
    ids = f.vertex_ids()
    assert set(ids[layout.chains[:, 0]]) == set(ids)
    assert set(ids[layout.chains[:, -1]]) == set(ids)
    assert layout.num_vertex_dofs == 8
    assert layout.num_edge_dofs == 8


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["plain", "hanging", "hole"]),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_chains_follow_the_boundary_walk(seed, kind, k):
    f = random_facet(np.random.default_rng(seed), kind)
    layout = build_layout(f, k)
    n = f.num_vertices
    assert layout.chains.shape == (n, k + 1)
    pts = dof_points(f, k)
    start = 0
    for loop in f.loops():
        size = len(loop)
        for j in range(size):
            i = start + j
            chain = layout.chains[i]
            # walk position of edge i's first vertex, then of the next
            # vertex of its loop
            assert chain[0] == i and chain[-1] == start + (j + 1) % size
            assert chain[1:-1].tolist() == list(n + i * (k - 1) + np.arange(k - 1))
            # the chain's points run along edge i from its start to its end
            p0, p1 = loop.points()[j], loop.points()[(j + 1) % size]
            assert np.array_equal(pts[chain[0]], p0) and np.array_equal(pts[chain[-1]], p1)
            d = p1 - p0
            rel = pts[chain] - p0
            cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
            assert np.all(np.abs(cross) <= 1e-12 * (d @ d))
            assert np.all(np.diff(rel @ d) > 0.0)
        start += size
