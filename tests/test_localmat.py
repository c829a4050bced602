"""Element matrices: dual-route checks against boundary-integral oracles."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import localmat
from polyvem.errors import SingularG, SingularH
from polyvem.geometry import Facet, FacetTable
from polyvem.localmat import (
    COND_LIMIT,
    Element,
    ElementMatrixCache,
    MatrixTag,
    _monomial_integrals,
    find_or_compute,
    group_facets,
    load_vector,
)
from polyvem.mesh import (
    CutLine,
    PolyMesh,
    build_global_dofs,
    cut_mesh,
    gen_structured,
    merge_meshes,
)
from polyvem.monomials import (
    MonomialBasis,
    basis_exponents,
    basis_index,
    basis_size,
    laplacian_terms,
)
from polyvem.quadrature import gauss_lobatto_1d, polygon_rule
from polyvem.system import assemble, discretisation, error_norms, interpolate_dofs

from conftest import (
    boundary_edges,
    derivative,
    gauss_edge,
    lone_group,
    monomial_integral,
    pentagon,
    perimeter,
    product,
    random_facet,
    square_with_hole,
    unit_square,
)
from test_acceptance import element_zoo


def compute_all(facet, k):
    el = Element(facet, k)
    cache = ElementMatrixCache()
    find_or_compute(cache, el, MatrixTag.STIFFNESS)
    find_or_compute(cache, el, MatrixTag.PI_ZERO_STAR)
    return el, cache


def gradient_product_integral(el, s, t):
    # integral of grad(m_s) . grad(m_t) through the boundary-integral
    # monomial oracle, fully independent of the triangulated rules
    h = el.frame[2]
    total = 0.0
    for var in "xy":
        ds = derivative(el.basis.members[s], var)
        dt = derivative(el.basis.members[t], var)
        if ds.coeff == 0.0 or dt.coeff == 0.0:
            continue
        p = product(ds, dt)
        total += p.coeff * monomial_integral(el.facet, p.ex, p.ey, el.frame)
    return total / h**2


def test_d_constant_column():
    # point dofs of the constant are 1; its moment rows are the element
    # averages of the scaled monomials, zero for X and Y by the centroid
    # choice of frame center
    for k in (1, 2, 3):
        el = Element(pentagon(), k)
        cache = ElementMatrixCache()
        D = find_or_compute(cache, el, MatrixTag.D)
        mo = el.layout.moment_offset
        assert np.allclose(D[:mo, 0], 1.0, atol=1e-15)
        if k >= 2:
            assert D[mo, 0] == pytest.approx(1.0, rel=1e-13)
        if k >= 3:
            assert np.allclose(D[mo + 1 :, 0], 0.0, atol=1e-13)


def test_d_unit_square_order_one_frozen():
    el = Element(unit_square(), 1)
    D = find_or_compute(ElementMatrixCache(), el, MatrixTag.D)
    h = np.sqrt(2.0)
    expected = np.array(
        [
            [1.0, -0.5 / h, -0.5 / h],
            [1.0, 0.5 / h, -0.5 / h],
            [1.0, 0.5 / h, 0.5 / h],
            [1.0, -0.5 / h, 0.5 / h],
        ]
    )
    assert np.allclose(D, expected, atol=1e-15)


def test_d_moment_rows_match_mass_matrix():
    # moment dofs of a monomial are scaled mass-matrix entries
    for k in (2, 3):
        el, cache = compute_all(pentagon(), k)
        find_or_compute(cache, el, MatrixTag.H)
        D = cache.get(MatrixTag.D)
        H = cache.get(MatrixTag.H)
        nm = el.layout.num_moment_dofs
        rows = D[el.layout.moment_offset :, :]
        assert np.allclose(rows, H[:nm, :] / el.facet.area, rtol=1e-13, atol=1e-15)


def test_h_symmetry_and_constant_entry():
    for facet in (pentagon(), square_with_hole()):
        for k in (1, 2, 3):
            el = Element(facet, k)
            H = find_or_compute(ElementMatrixCache(), el, MatrixTag.H)
            assert np.array_equal(H, H.T)
            assert H[0, 0] == pytest.approx(facet.area, rel=1e-13)
            assert np.all(np.linalg.eigvalsh(H) > 0)


def test_h_entries_match_boundary_oracle():
    el = Element(pentagon(), 3)
    H = find_or_compute(ElementMatrixCache(), el, MatrixTag.H)
    for a in range(el.basis.size):
        for b in range(a, el.basis.size):
            p = product(el.basis.members[a], el.basis.members[b])
            exact = p.coeff * monomial_integral(el.facet, p.ex, p.ey, el.frame)
            assert H[a, b] == pytest.approx(exact, rel=1e-12, abs=1e-15)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["plain", "hanging", "hole"]),
    st.integers(0, 8),
)
@settings(max_examples=60, deadline=None)
def test_monomial_integrals_match_green_oracle(seed, kind, degree):
    # divergence theorem on Gauss edge rules against the oracle's Green
    # antiderivative, on plain, hanging-node and holed facets
    facet = random_facet(np.random.default_rng(seed), kind)
    group = lone_group(facet, 1)
    got = _monomial_integrals(group, degree)[0]
    want = np.array([monomial_integral(facet, ex, ey) for ex, ey in basis_exponents(degree)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_g_row_zero_is_boundary_average():
    for k in (1, 2, 3):
        el = Element(pentagon(), k)
        G = find_or_compute(ElementMatrixCache(), el, MatrixTag.G)
        assert G[0, 0] == pytest.approx(1.0, abs=1e-14)
        # independent route: plain Gauss edge rules instead of Lobatto
        total = np.zeros(el.basis.size)
        for e in boundary_edges(el.facet):
            pts, w = gauss_edge(e.p0, e.p1, k + 2)
            total += w @ el.basis.eval(pts, el.frame)
        assert np.allclose(G[0, :], total / perimeter(el.facet), atol=1e-13)


def test_g_gradient_block_matches_oracle():
    for k in (1, 2, 3):
        el = Element(pentagon(), k)
        G = find_or_compute(ElementMatrixCache(), el, MatrixTag.G)
        for s in range(1, el.basis.size):
            for t in range(el.basis.size):
                exact = gradient_product_integral(el, s, t)
                assert G[s, t] == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_g_constant_column_zero_below_first_row():
    el = Element(square_with_hole(), 2)
    G = find_or_compute(ElementMatrixCache(), el, MatrixTag.G)
    assert np.all(G[1:, 0] == 0.0)


def test_b_row_zero_normalization():
    # pairing the constraint row with the constant's dofs must give one
    for facet in (pentagon(), square_with_hole()):
        for k in (1, 2, 3):
            el, cache = compute_all(facet, k)
            B, D = cache.get(MatrixTag.B), cache.get(MatrixTag.D)
            assert float(B[0, :] @ D[:, 0]) == pytest.approx(1.0, rel=1e-14)


def test_b_moment_columns_only_from_laplacian():
    el, cache = compute_all(pentagon(), 3)
    B = cache.get(MatrixTag.B)
    mo = el.layout.moment_offset
    # constant and linear monomials are harmonic: no volume contribution
    assert np.all(B[:3, mo:] == 0.0)
    # the X^2 row pairs with the constant moment: -2/h^2 * |E|
    h = el.frame[2]
    assert B[3, mo] == pytest.approx(-2.0 / h**2 * el.facet.area, rel=1e-14)


def test_consistency_identity_random_elements():
    # B @ D == G ties the two quadrature routes together; run it across
    # plain, hanging-node and holed elements at every supported order
    rng = np.random.default_rng(42)
    for kind in ("plain", "hanging", "hole"):
        for trial in range(12):
            facet = random_facet(rng, kind)
            for k in (1, 2, 3):
                el, cache = compute_all(facet, k)
                B, D, G = (
                    cache.get(MatrixTag.B),
                    cache.get(MatrixTag.D),
                    cache.get(MatrixTag.G),
                )
                err = np.max(np.abs(B @ D - G)) / np.max(np.abs(G))
                assert err < 1e-12, f"{kind} trial {trial} k={k}: {err:.3e}"


def test_projector_reproduces_polynomials():
    for facet in (pentagon(), square_with_hole()):
        for k in (1, 2, 3):
            el, cache = compute_all(facet, k)
            PiS = cache.get(MatrixTag.PI_GRAD_STAR)
            D = cache.get(MatrixTag.D)
            assert np.allclose(PiS @ D, np.eye(el.basis.size), atol=1e-13)


def test_projector_idempotent_and_trace():
    for k in (1, 2, 3):
        el, cache = compute_all(pentagon(), k)
        PiN = cache.get(MatrixTag.PI_GRAD)
        assert np.max(np.abs(PiN @ PiN - PiN)) < 1e-11
        assert np.trace(PiN) == pytest.approx(el.basis.size, abs=1e-9)


def test_moment_projector_order_one_is_vertex_average():
    el, cache = compute_all(pentagon(), 1)
    PiZ = cache.get(MatrixTag.PI_ZERO_STAR)
    assert PiZ.shape == (1, 5)
    assert np.all(PiZ == 0.2)


def test_moment_projector_reproduces_low_orders():
    for k in (2, 3):
        el, cache = compute_all(pentagon(), k)
        PiZ = cache.get(MatrixTag.PI_ZERO_STAR)
        D = cache.get(MatrixTag.D)
        nm = el.layout.num_moment_dofs
        assert np.allclose(PiZ @ D[:, :nm], np.eye(nm), atol=1e-12)


def test_stiffness_properties():
    for facet in (pentagon(), square_with_hole()):
        for k in (1, 2, 3):
            el, cache = compute_all(facet, k)
            K = cache.get(MatrixTag.STIFFNESS)
            D = cache.get(MatrixTag.D)
            scale = np.max(np.abs(K))
            assert np.max(np.abs(K - K.T)) < 1e-13 * scale
            assert np.max(np.abs(K @ D[:, 0])) < 1e-11 * scale
            ev = np.linalg.eigvalsh(0.5 * (K + K.T))
            assert ev[0] > -1e-12 * ev[-1]
            assert np.sum(ev > 1e-9 * ev[-1]) == el.layout.num_dofs - 1


def test_stiffness_energy_consistency():
    """K restricted to polynomial dofs equals the exact Dirichlet energy."""
    for k in (1, 2, 3):
        el, cache = compute_all(pentagon(), k)
        K = cache.get(MatrixTag.STIFFNESS)
        D = cache.get(MatrixTag.D)
        scale = np.max(np.abs(K))
        for s in range(el.basis.size):
            for t in range(el.basis.size):
                exact = gradient_product_integral(el, s, t)
                got = float(D[:, s] @ K @ D[:, t])
                assert got == pytest.approx(exact, abs=1e-11 * scale)


def test_cache_hits_and_dependency_reuse():
    el = Element(pentagon(), 2)
    cache = ElementMatrixCache()
    find_or_compute(cache, el, MatrixTag.D)
    assert cache.compute_count == 1
    find_or_compute(cache, el, MatrixTag.STIFFNESS)
    # stiffness pulled G, B, both projector forms and itself; D was reused
    assert cache.compute_count == 6
    before = cache.compute_count
    find_or_compute(cache, el, MatrixTag.STIFFNESS)
    find_or_compute(cache, el, MatrixTag.D)
    assert cache.compute_count == before


def test_elements_of_one_order_share_their_basis():
    a, b = Element(pentagon(), 3), Element(square_with_hole(), 3)
    assert a.basis is b.basis
    assert Element(pentagon(), 2).basis is not a.basis


def test_translation_leaves_stiffness_unchanged():
    base = pentagon()
    shifted = Facet(base.coords + np.array([10.0, -3.0]), [0, 1, 2, 3, 4])
    for k in (1, 2, 3):
        _, ca = compute_all(base, k)
        _, cb = compute_all(shifted, k)
        Ka, Kb = ca.get(MatrixTag.STIFFNESS), cb.get(MatrixTag.STIFFNESS)
        assert np.allclose(Ka, Kb, atol=1e-12 * np.max(np.abs(Ka)))


def test_load_vector_zero_source():
    for k in (1, 2):
        el = Element(pentagon(), k)
        b = load_vector(el, lambda x, y: np.zeros_like(x))
        assert np.all(b == 0.0)


def test_load_vector_constant_order_one():
    el = Element(pentagon(), 1)
    b = load_vector(el, lambda x, y: np.ones_like(x))
    assert np.allclose(b, el.facet.area / 5.0, rtol=1e-14)


def test_load_vector_constant_higher_order():
    for k in (2, 3):
        el = Element(pentagon(), k)
        b = load_vector(el, lambda x, y: np.ones_like(x))
        expected = np.zeros(el.layout.num_dofs)
        expected[el.layout.moment_offset] = el.facet.area
        assert np.allclose(b, expected, atol=1e-12 * el.facet.area)


def test_load_vector_pairs_exactly_with_low_order_monomials():
    # b . dofs(m_a) must reproduce the moment of f against m_a exactly
    el = Element(pentagon(), 3)
    cache = ElementMatrixCache()
    D = find_or_compute(cache, el, MatrixTag.D)

    def f(x, y):
        return 1.5 + 2.0 * x - y + x * y

    b = load_vector(el, f, cache)
    xc, yc, h = el.frame
    for a in range(el.layout.num_moment_dofs):
        m = el.basis.members[a]
        # expand f * m_a in the scaled frame with plain monomial algebra
        exact = 0.0
        for cf, px, py in [(1.5, 0, 0), (2.0, 1, 0), (-1.0, 0, 1), (1.0, 1, 1)]:
            # physical x^px y^py written as sum over the scaled basis
            for ix in range(px + 1):
                for iy in range(py + 1):
                    from math import comb

                    c = (
                        cf
                        * comb(px, ix)
                        * comb(py, iy)
                        * xc ** (px - ix)
                        * yc ** (py - iy)
                        * h ** (ix + iy)
                    )
                    exact += (
                        c
                        * m.coeff
                        * monomial_integral(
                            el.facet, ix + m.ex, iy + m.ey, el.frame
                        )
                    )
        got = float(b @ D[:, a])
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)


# -- conditioning gate -----------------------------------------------------


def gate_member(size, kind, exponent, scale, seed):
    """A (size, size) matrix: of condition about 10**exponent ("graded"),
    exactly singular, or holding a NaN or an inf; times 10**scale."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((size, size)))
    q2, _ = np.linalg.qr(rng.standard_normal((size, size)))
    M = (q1 * np.logspace(0.0, -exponent, size)) @ q2
    if kind == "repeated row":
        M[-1] = M[0]
    elif kind == "zero row":
        M[rng.integers(size)] = 0.0
    elif kind in ("nan", "inf"):
        M[tuple(rng.integers(size, size=2))] = np.nan if kind == "nan" else np.inf
    return M * 10.0**scale


def gate_outcome(test, M):
    try:
        return test(M).tolist()
    except np.linalg.LinAlgError as err:
        return "LinAlgError: %s" % err


@given(
    st.sampled_from([3, 6, 10, 15]),
    st.lists(
        st.tuples(
            st.sampled_from(["graded"] * 4 + ["repeated row", "zero row", "nan", "inf"]),
            st.one_of(st.floats(0.0, 8.0), st.floats(9.0, 15.0)),
            st.sampled_from([0, 0, -8, 8, -150, 150, -170, 170]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([COND_LIMIT, np.inf]),
)
@settings(max_examples=300, deadline=None)
def test_conditioning_gate_decides_as_the_svd(size, members, limit):
    # the bound clears members with cond <= COND_LIMIT / 100; the rest,
    # and every member if the inverse fails, take np.linalg.cond itself
    M = np.stack([gate_member(size, *member) for member in members])
    with mock.patch.object(localmat, "COND_LIMIT", limit):
        got = gate_outcome(localmat._ill_conditioned, M)
    assert got == gate_outcome(lambda M: np.linalg.cond(M) > limit, M)


def test_benchmarked_path_takes_no_svd(monkeypatch):
    # distortedQuads elements are well inside COND_LIMIT: the bound clears
    # every member of H and G, so no exact condition number is needed
    calls = []
    for name in ("cond", "svd"):
        def counted(*args, real=getattr(np.linalg, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    mesh = gen_structured("distortedQuads", 8)
    sys_ = assemble(mesh, 3, sine_source)
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    error_norms(mesh, 3, np.cos(np.arange(sys_.num_dofs)), u, grad)
    assert calls == []


# -- oracle: the element-by-element kernel ---------------------------------
#
# The per-element implementation the group kernel replaced, on triangulated
# rules and per-entry Gram sums, kept as the reference for every matrix,
# load vector, assembled A and b, interpolant and error norm.


class OracleElement:
    def __init__(self, facet, k):
        self.facet = facet
        self.k = k
        self.basis = MonomialBasis(k)
        self.frame = facet.frame
        self.edges = edges = boundary_edges(facet)
        n = len(edges)
        # dofs: vertices in walk order, k-1 Lobatto nodes per edge in edge
        # direction, then the moments; a vertex the walk passes twice has
        # its dof at its last walk position
        self.moment_offset = n * k
        self.num_moment_dofs = basis_size(k - 2)
        self.num_dofs = self.moment_offset + self.num_moment_dofs
        position = {e.v0: i for i, e in enumerate(edges)}
        self.chains = [
            [position[e.v0]] + [n + i * (k - 1) + j for j in range(k - 1)] + [position[e.v1]]
            for i, e in enumerate(edges)
        ]
        t, _ = gauss_lobatto_1d(k + 1)
        self.points = np.array(
            [e.p0 for e in edges]
            + [e.p0 + float(t[j]) * (e.p1 - e.p0) for e in edges for j in range(1, k)]
        )
        # the perimeter as it was summed over the boundary edges
        self.perimeter = sum(e.length for e in edges)
        self._rules = {}

    def rule(self, degree):
        if degree not in self._rules:
            self._rules[degree] = polygon_rule(self.facet, degree)
        return self._rules[degree]


def oracle_gram(V, W, weights):
    n = V.shape[1]
    M = np.empty((n, n))
    Vw = V * weights[:, None]
    for a in range(n):
        for b in range(a, n):
            M[a, b] = float(np.dot(Vw[:, a], W[:, b]))
            M[b, a] = M[a, b]
    return M


def oracle_boundary_average(el):
    k, basis, frame = el.k, el.basis, el.frame
    t, w = gauss_lobatto_1d(k + 1)
    total = np.zeros(basis.size)
    for e in el.edges:
        pts = e.p0[None, :] + t[:, None] * (e.p1 - e.p0)[None, :]
        vals = basis.eval(pts, frame)
        total += e.length * (w @ vals)
    return total / el.perimeter


def oracle_d(el, c):
    basis = el.basis
    D = np.empty((el.num_dofs, basis.size))
    D[: el.moment_offset] = basis.eval(el.points, el.frame)
    if el.num_moment_dofs:
        rule = el.rule(2 * el.k - 2)
        V = basis.eval(rule.points, el.frame)
        Vm = V[:, : el.num_moment_dofs]
        D[el.moment_offset :] = ((Vm * rule.weights[:, None]).T @ V) / el.facet.area
    return D


def oracle_h(el, c):
    rule = el.rule(2 * el.k)
    V = el.basis.eval(rule.points, el.frame)
    H = oracle_gram(V, V, rule.weights)
    if np.linalg.cond(H) > COND_LIMIT:
        raise SingularH("monomial mass matrix is numerically singular")
    return H


def oracle_g(el, c):
    rule = el.rule(max(2 * el.k - 2, 0))
    gx, gy = el.basis.grad(rule.points, el.frame)
    G = oracle_gram(gx, gx, rule.weights)
    G += oracle_gram(gy, gy, rule.weights)
    G[0, :] = oracle_boundary_average(el)
    return G


def oracle_b(el, c):
    k, basis = el.k, el.basis
    B = np.zeros((basis.size, el.num_dofs))
    t, w = gauss_lobatto_1d(k + 1)
    for e, chain in zip(el.edges, el.chains):
        pts = e.p0[None, :] + t[:, None] * (e.p1 - e.p0)[None, :]
        gx, gy = basis.grad(pts, el.frame)
        gn = gx * e.normal[0] + gy * e.normal[1]
        for j, dof in enumerate(chain):
            B[:, dof] += w[j] * e.length * gn[j, :]
    if el.num_moment_dofs:
        h = el.frame[2]
        for s, m in enumerate(basis.members):
            for term in laplacian_terms(m, h):
                col = el.moment_offset + basis_index(term.ex, term.ey)
                B[s, col] -= term.coeff * el.facet.area
    B[0, :] = 0.0
    for e, chain in zip(el.edges, el.chains):
        for j, dof in enumerate(chain):
            B[0, dof] += w[j] * e.length
    B[0, :] /= el.perimeter
    return B


def oracle_pi_grad_star(el, c):
    if np.linalg.cond(c[MatrixTag.G]) > COND_LIMIT:
        raise SingularG("projector Gram matrix is numerically singular")
    return np.linalg.solve(c[MatrixTag.G], c[MatrixTag.B])


def oracle_pi_zero_star(el, c):
    if el.k == 1:
        return np.full((1, el.num_dofs), 1.0 / el.num_dofs)
    nm = el.num_moment_dofs
    C = np.zeros((nm, el.num_dofs))
    for a in range(nm):
        C[a, el.moment_offset + a] = el.facet.area
    return np.linalg.solve(c[MatrixTag.H][:nm, :nm], C)


def oracle_stiffness(el, c):
    PiS = c[MatrixTag.PI_GRAD_STAR]
    G_raw = c[MatrixTag.G].copy()
    G_raw[0, :] = 0.0
    R = np.eye(el.num_dofs) - c[MatrixTag.PI_GRAD]
    return PiS.T @ G_raw @ PiS + R.T @ R


ORACLE = {
    MatrixTag.D: ((), oracle_d),
    MatrixTag.H: ((), oracle_h),
    MatrixTag.G: ((), oracle_g),
    MatrixTag.B: ((), oracle_b),
    MatrixTag.PI_GRAD_STAR: ((MatrixTag.G, MatrixTag.B), oracle_pi_grad_star),
    MatrixTag.PI_GRAD: (
        (MatrixTag.D, MatrixTag.PI_GRAD_STAR),
        lambda el, c: c[MatrixTag.D] @ c[MatrixTag.PI_GRAD_STAR],
    ),
    MatrixTag.PI_ZERO_STAR: ((MatrixTag.H,), oracle_pi_zero_star),
    MatrixTag.STIFFNESS: (
        (MatrixTag.G, MatrixTag.PI_GRAD_STAR, MatrixTag.PI_GRAD),
        oracle_stiffness,
    ),
}


def oracle_matrix(el, c, tag):
    if tag not in c:
        deps, fn = ORACLE[tag]
        for dep in deps:
            oracle_matrix(el, c, dep)
        c[tag] = fn(el, c)
    return c[tag]


def oracle_load(el, f, c):
    if el.k == 1:
        favg = float(np.mean(f(el.points[:, 0], el.points[:, 1])))
        return np.full(el.num_dofs, favg * el.facet.area / el.num_dofs)
    PiZ = oracle_matrix(el, c, MatrixTag.PI_ZERO_STAR)
    PiS = oracle_matrix(el, c, MatrixTag.PI_GRAD_STAR)
    H = oracle_matrix(el, c, MatrixTag.H)
    rule = el.rule(2 * el.k + 2)
    V = el.basis.eval(rule.points, el.frame)
    fv = np.asarray(f(rule.points[:, 0], rule.points[:, 1]), dtype=float)
    mf = (V * (rule.weights * fv)[:, None]).sum(axis=0)
    nm = el.num_moment_dofs
    low = np.linalg.solve(H[:nm, :nm], mf[:nm])
    return PiZ.T @ mf[:nm] + PiS.T @ (mf - H[:nm, :].T @ low)


def oracle_assemble(mesh, k, f):
    dofmap = build_global_dofs(mesh, k)
    rows, cols, vals = [], [], []
    b = np.zeros(dofmap.num_dofs)
    for eid, facet in enumerate(mesh.facets):
        el, c = OracleElement(facet, k), {}
        K = oracle_matrix(el, c, MatrixTag.STIFFNESS)
        K = 0.5 * (K + K.T)
        g = dofmap.element_maps[eid]
        rows.append(np.repeat(g, len(g)))
        cols.append(np.tile(g, len(g)))
        vals.append(K.ravel())
        np.add.at(b, g, oracle_load(el, f, c))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    A = sp.csr_matrix(
        (np.add.reduceat(vals, starts), (rows[starts], cols[starts])),
        shape=(dofmap.num_dofs, dofmap.num_dofs),
    )
    return A, b


def oracle_interpolate_and_errors(mesh, k, u, grad, x):
    dofmap = build_global_dofs(mesh, k)
    xi = np.zeros(dofmap.num_dofs)
    pts = dofmap.dof_points[: dofmap.moment_offset]
    xi[: dofmap.moment_offset] = u(pts[:, 0], pts[:, 1])
    err_l2 = err_h1 = 0.0
    for eid, facet in enumerate(mesh.facets):
        el = OracleElement(facet, k)
        rule = el.rule(2 * k + 2)
        V = el.basis.eval(rule.points, el.frame)
        xq, yq = rule.points[:, 0], rule.points[:, 1]
        g = dofmap.element_maps[eid]
        if k >= 2:
            nm = el.num_moment_dofs
            uv = np.asarray(u(xq, yq), dtype=float)
            moments = (V[:, :nm] * (rule.weights * uv)[:, None]).sum(axis=0)
            xi[g[el.moment_offset :]] = moments / facet.area
        coeff = oracle_matrix(el, {}, MatrixTag.PI_GRAD_STAR) @ x[g]
        du = V @ coeff - np.asarray(u(xq, yq), dtype=float)
        err_l2 += float(np.sum(rule.weights * du * du))
        gx, gy = el.basis.grad(rule.points, el.frame)
        gex, gey = grad(xq, yq)
        dgx = gx @ coeff - np.asarray(gex, dtype=float)
        dgy = gy @ coeff - np.asarray(gey, dtype=float)
        err_h1 += float(np.sum(rule.weights * (dgx * dgx + dgy * dgy)))
    return xi, float(np.sqrt(err_l2)), float(np.sqrt(err_h1))


def sine_source(x, y):
    return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def zoo_meshes():
    holed = PolyMesh(
        np.array([[0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [2, 1], [2, 2], [1, 2]], float),
        [([0, 1, 2, 3], [[7, 6, 5, 4]]), [4, 5, 6, 7]],
    )
    coarse = PolyMesh(np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float), [[0, 1, 2, 3]])
    # one loop through vertex 2 twice: its dof chains are its own
    pinched = PolyMesh(
        np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [0, 1]], float),
        [[0, 1, 2, 3, 4, 5, 2, 6]],
    )
    return {
        "pinched": pinched,
        "triangles": gen_structured("triangles", 2),
        "distortedQuads": gen_structured("distortedQuads", 3),
        "merged": merge_meshes(gen_structured("quads", 2), coarse),
        "cut": cut_mesh(gen_structured("distortedQuads", 3), CutLine(1.0, -0.31, 0.4)),
        "holed": holed,
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_group_members_match_lone_elements_bitwise(k):
    # one arithmetic path: a lone element is a group of one, and a member's
    # matrices and load carry the same bits in any group
    for name, mesh in zoo_meshes().items():
        _, groups = discretisation(mesh, k)
        for ids, group in groups:
            loads = load_vector(group, sine_source, group.cache)
            for tag in MatrixTag:
                find_or_compute(group.cache, group, tag)
            for i, (eid, load) in enumerate(zip(ids, loads)):
                lone, c = Element(mesh.facets[eid], k), ElementMatrixCache()
                for tag in MatrixTag:
                    got = group.cache.get(tag)[i]
                    assert np.array_equal(got, find_or_compute(c, lone, tag)), (name, eid, tag)
                assert np.array_equal(load, load_vector(lone, sine_source, c)), (name, eid)


# -- tolerance oracle: the same reference, compared by relative error ------
#
# A change that reorders sums or replaces a quadrature moves the last bits
# and must re-record the golden digests in tests/test_cli.py; these bounds,
# set from double precision and never loosened, are what such a change must
# still meet.


def relative_deviation(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_group_kernel_matches_element_oracle_within_tolerance(k):
    zoo = element_zoo()
    caches = [ElementMatrixCache() for _ in zoo]
    for _, group in group_facets(FacetTable.from_facets(zoo), k, caches):
        for tag in MatrixTag:
            find_or_compute(group.cache, group, tag)
    for eid, (facet, cache) in enumerate(zip(zoo, caches)):
        el, c = OracleElement(facet, k), {}
        for tag in MatrixTag:
            dev = relative_deviation(cache.get(tag), oracle_matrix(el, c, tag))
            assert dev <= 1e-13, (eid, tag, dev)


@pytest.mark.parametrize(
    "case", ["distortedQuads", "holed", "pinched", "triangles", "merged", "cut"]
)
def test_assembly_matches_element_loop_within_tolerance(case):
    mesh = gen_structured("distortedQuads", 8) if case == "distortedQuads" else zoo_meshes()[case]
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    for k in (1, 2, 3):
        sys_ = assemble(mesh, k, sine_source)
        A, b = oracle_assemble(mesh, k, sine_source)
        assert abs(sys_.A - A).max() <= 1e-12 * abs(A).max(), k
        assert relative_deviation(sys_.b, b) <= 1e-12, k
        # a dof vector far from u: the errors stay O(1), so their rounding
        # is relative to themselves, not to a cancellation
        x = np.cos(np.arange(sys_.num_dofs))
        xi, el2, eh1 = oracle_interpolate_and_errors(mesh, k, u, grad, x)
        assert relative_deviation(interpolate_dofs(mesh, k, u), xi) <= 1e-12, k
        got = np.array(error_norms(mesh, k, x, u, grad))
        assert np.all(np.abs(got - (el2, eh1)) <= 1e-12 * np.array([el2, eh1])), k
