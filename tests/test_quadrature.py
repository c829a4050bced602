import math

import numpy as np
import pytest

from polyvem import geometry
from polyvem.errors import NonPlanarFace
from polyvem.geometry import Facet, triangulate
from polyvem.monomials import MonomialBasis, basis_size
from polyvem.quadrature import (
    QuadratureKind,
    QuadratureRule,
    certify_rule,
    compress_rule,
    compressed_polygon_rule,
    gauss_1d,
    gauss_lobatto_1d,
    nnls,
    planar_face_rule,
    polygon_rule,
    _TRIANGLE_TABLES,
    _triangle_rule,
)

from conftest import gauss_edge, monomial_integral, random_facet, square_with_hole, unit_square


def ref_triangle_moment(a, b):
    """Exact integral of x^a y^b over the unit triangle: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestGauss1d:
    def test_one_point_is_midpoint(self):
        t, w = gauss_1d(1)
        assert np.allclose(t, [0.5]) and np.allclose(w, [1.0])

    def test_two_point_nodes(self):
        t, w = gauss_1d(2)
        ref = 0.5 + np.array([-1.0, 1.0]) / (2.0 * math.sqrt(3.0))
        assert np.allclose(t, ref, atol=1e-15)
        assert np.allclose(w, [0.5, 0.5])

    def test_cubic_exact_with_two_points(self):
        t, w = gauss_1d(2)
        assert float(np.sum(w * t**3)) == pytest.approx(0.25, abs=1e-15)

    def test_exactness_sweep(self):
        for n in range(1, 8):
            t, w = gauss_1d(n)
            for d in range(2 * n):
                assert float(np.sum(w * t**d)) == pytest.approx(
                    1.0 / (d + 1), abs=1e-14
                )


class TestGaussLobatto:
    def test_two_points_are_endpoints(self):
        t, w = gauss_lobatto_1d(2)
        assert np.allclose(t, [0.0, 1.0])
        assert np.allclose(w, [0.5, 0.5])

    def test_three_points(self):
        t, w = gauss_lobatto_1d(3)
        assert np.allclose(t, [0.0, 0.5, 1.0], atol=1e-15)
        assert np.allclose(w, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0], atol=1e-15)

    def test_four_point_interior_nodes(self):
        t, _ = gauss_lobatto_1d(4)
        lo = (1.0 - 1.0 / math.sqrt(5.0)) / 2.0
        hi = (1.0 + 1.0 / math.sqrt(5.0)) / 2.0
        assert np.allclose(t, [0.0, lo, hi, 1.0], atol=1e-14)

    def test_four_point_weights_from_moment_equations(self):
        # independent oracle: weights must solve the Vandermonde moment system
        t, w = gauss_lobatto_1d(4)
        V = np.vander(t, 4, increasing=True).T
        rhs = np.array([1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])
        w_ref = np.linalg.solve(V, rhs)
        assert np.allclose(w, w_ref, atol=1e-14)
        assert np.allclose(w, [1.0 / 12.0, 5.0 / 12.0, 5.0 / 12.0, 1.0 / 12.0], atol=1e-14)

    def test_exactness_to_2n_minus_3(self):
        for npts in range(2, 8):
            t, w = gauss_lobatto_1d(npts)
            for d in range(2 * npts - 2):
                assert float(np.sum(w * t**d)) == pytest.approx(
                    1.0 / (d + 1), abs=1e-13
                )

    def test_endpoints_included_in_order(self):
        for npts in range(2, 7):
            t, _ = gauss_lobatto_1d(npts)
            assert t[0] == 0.0 and t[-1] == 1.0
            assert np.all(np.diff(t) > 0)


class TestEdgeRules:
    def test_gauss_edge_weight_sum_is_length(self):
        _, w = gauss_edge([0.0, 0.0], [3.0, 4.0], 3)
        assert float(np.sum(w)) == pytest.approx(5.0, abs=1e-13)

    def test_gauss_edge_integrates_linear(self):
        pts, w = gauss_edge([1.0, 1.0], [2.0, 3.0], 2)
        # integral of x along the segment = length * mean of x
        length = math.sqrt(5.0)
        assert float(np.sum(w * pts[:, 0])) == pytest.approx(1.5 * length, abs=1e-13)


class TestTriangleTables:
    def test_tables_exact_to_their_degree(self):
        for deg, (pts, wts) in _TRIANGLE_TABLES.items():
            pts = np.asarray(pts)
            wts = np.asarray(wts)
            assert np.all(wts > 0)
            for a in range(deg + 1):
                for b in range(deg + 1 - a):
                    got = float(np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b))
                    assert got == pytest.approx(
                        ref_triangle_moment(a, b), abs=1e-14
                    ), (deg, a, b)

    def test_collapsed_rule_covers_higher_degrees(self):
        for deg in range(7, 11):
            pts, wts = _triangle_rule(deg)
            assert np.all(wts > 0)
            for a in range(deg + 1):
                for b in range(deg + 1 - a):
                    got = float(np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b))
                    assert got == pytest.approx(
                        ref_triangle_moment(a, b), abs=1e-14
                    ), (deg, a, b)


class TestMonomialOracle:
    def test_unit_square_closed_form(self):
        f = unit_square()
        for a in range(6):
            for b in range(6):
                exact = 1.0 / ((a + 1) * (b + 1))
                got = monomial_integral(f, a, b, frame=(0.0, 0.0, 1.0))
                assert got == pytest.approx(exact, rel=1e-14, abs=1e-15)

    def test_reference_triangle_closed_form(self):
        f = Facet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [0, 1, 2])
        for a in range(5):
            for b in range(5):
                got = monomial_integral(f, a, b, frame=(0.0, 0.0, 1.0))
                assert got == pytest.approx(ref_triangle_moment(a, b), rel=1e-13, abs=1e-16)

    def test_scaled_frame_change_of_variables(self):
        f = unit_square()
        xc, yc, h = 0.5, 0.5, 2.0
        # X = (x-1/2)/2: integral of X^2 over the square is
        # (1/4) int_{-1/2}^{1/2} u^2 du = 1/48
        exact = 1.0 / 48.0
        assert monomial_integral(f, 2, 0, frame=(xc, yc, h)) == pytest.approx(
            exact, rel=1e-14
        )

    def test_default_frame_is_facet_frame(self):
        f = unit_square()
        assert monomial_integral(f, 0, 0) == pytest.approx(1.0, abs=1e-14)
        assert monomial_integral(f, 1, 0) == pytest.approx(0.0, abs=1e-15)

    def test_hole_subtracted(self):
        f = square_with_hole(1.0, 0.5)
        assert monomial_integral(f, 0, 0, frame=(0.0, 0.0, 1.0)) == pytest.approx(
            0.75, abs=1e-14
        )
        # symmetric region: integral of x = area * 1/2
        assert monomial_integral(f, 1, 0, frame=(0.0, 0.0, 1.0)) == pytest.approx(
            0.375, abs=1e-14
        )


def looped_polygon_rule(facet, degree):
    """Reference: the per-triangle loop that polygon_rule used to run."""
    ref_pts, ref_wts = _triangle_rule(degree)
    coords = facet.coords
    all_pts, all_wts = [], []
    for (i, j, k) in triangulate(facet):
        a, b, c = coords[i], coords[j], coords[k]
        e1 = b - a
        e2 = c - a
        jac = e1[0] * e2[1] - e1[1] * e2[0]
        all_pts.append(a[None, :] + np.outer(ref_pts[:, 0], e1) + np.outer(ref_pts[:, 1], e2))
        all_wts.append(ref_wts * jac)
    return np.concatenate(all_pts), np.concatenate(all_wts)


class TestPolygonRule:
    def test_broadcast_matches_per_triangle_loop_bitwise(self):
        # degrees 0..8 cover the table rules and the collapsed (Duffy) one
        rng = np.random.default_rng(29)
        for kind in ("plain", "hanging", "hole"):
            for _ in range(3):
                f = random_facet(rng, kind)
                for deg in range(0, 9):
                    r = polygon_rule(f, deg)
                    pts, wts = looped_polygon_rule(f, deg)
                    assert np.array_equal(r.points, pts), (kind, deg)
                    assert np.array_equal(r.weights, wts), (kind, deg)

    def test_facet_triangulated_once(self, monkeypatch):
        calls = []

        def counting(facet):
            calls.append(facet)
            return triangulate(facet)

        monkeypatch.setattr(geometry, "triangulate", counting)
        f = square_with_hole()
        for deg in (2, 4, 7):
            polygon_rule(f, deg)
        assert len(calls) == 1
        assert not f.triangles.flags.writeable

    def test_weight_sum_matches_area(self):
        rng = np.random.default_rng(21)
        for kind in ("plain", "hanging", "hole"):
            for _ in range(10):
                f = random_facet(rng, kind)
                r = polygon_rule(f, 3)
                assert float(np.sum(r.weights)) == pytest.approx(
                    f.area, rel=1e-12
                )

    def test_certified_against_oracle(self):
        rng = np.random.default_rng(23)
        for kind in ("plain", "hanging", "hole"):
            for deg in range(0, 6):
                for _ in range(4):
                    f = random_facet(rng, kind)
                    r = polygon_rule(f, deg)
                    ok, err = certify_rule(r, f, tol=1e-12)
                    assert ok, (kind, deg, err)

    def test_high_degree_certified(self):
        f = unit_square()
        for deg in (7, 8, 9):
            r = polygon_rule(f, deg)
            ok, err = certify_rule(r, f, tol=1e-12)
            assert ok, err

    def test_vertex_rotation_leaves_integrals_alone(self):
        f = unit_square()
        g = Facet(f.coords, [2, 3, 0, 1])
        r1 = polygon_rule(f, 4)
        r2 = polygon_rule(g, 4)
        frame = (0.0, 0.0, 1.0)
        basis = MonomialBasis(4)
        v1 = basis.eval(r1.points, frame).T @ r1.weights
        v2 = basis.eval(r2.points, frame).T @ r2.weights
        assert np.allclose(v1, v2, atol=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            polygon_rule(unit_square(), -1)


class TestNnls:
    def test_unconstrained_optimum_recovered(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        b = A @ np.array([0.7, 0.3])
        x, rnorm = nnls(A, b)
        assert np.allclose(x, [0.7, 0.3], atol=1e-12)
        assert rnorm < 1e-12

    def test_active_constraint(self):
        # the unconstrained optimum has x2 = -0.5; clamping it to zero
        # leaves x1 = 1 as the best feasible point, residual 0.5
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, -0.5])
        x, rnorm = nnls(A, b)
        assert np.all(x >= 0.0)
        assert x[1] == 0.0
        assert x[0] == pytest.approx(1.0, abs=1e-12)
        assert rnorm == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(31)
        A = rng.uniform(-1.0, 1.0, (8, 30))
        b = rng.uniform(-1.0, 1.0, 8)
        x1, r1 = nnls(A, b)
        x2, r2 = nnls(A, b)
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_zero_rhs(self):
        A = np.ones((2, 3))
        x, rnorm = nnls(A, np.zeros(2))
        assert np.array_equal(x, np.zeros(3))
        assert rnorm == 0.0


class TestCompression:
    def test_hexagon_degree2(self):
        ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
        f = Facet(np.column_stack([np.cos(ang), np.sin(ang)]), list(range(6)))
        base = polygon_rule(f, 2)
        assert base.npoints == 18 or base.npoints == 12  # 6 or 4 triangles x 3 pts
        comp = compress_rule(base, frame=(np.asarray(f.centroid), f.diameter))
        assert not comp.compression_failed
        assert comp.npoints <= basis_size(2)
        assert np.all(comp.weights > 0)
        ok, err = certify_rule(comp, f, tol=1e-12)
        assert ok, err

    def test_degree0_single_point(self):
        f = random_facet(np.random.default_rng(41), "plain")
        comp = compressed_polygon_rule(f, 0)
        assert comp.npoints == 1
        assert float(comp.weights[0]) == pytest.approx(f.area, rel=1e-13)

    def test_points_are_subset_of_input(self):
        f = random_facet(np.random.default_rng(43), "plain")
        base = polygon_rule(f, 3)
        comp = compress_rule(base, frame=(np.asarray(f.centroid), f.diameter))
        assert not comp.compression_failed
        base_rows = {tuple(p) for p in base.points}
        for p in comp.points:
            assert tuple(p) in base_rows

    def test_recompression_does_not_grow(self):
        f = random_facet(np.random.default_rng(47), "hole")
        frame = (np.asarray(f.centroid), f.diameter)
        c1 = compress_rule(polygon_rule(f, 4), frame=frame)
        c2 = compress_rule(c1, frame=frame)
        assert not c2.compression_failed
        assert c2.npoints <= c1.npoints
        ok, err = certify_rule(c2, f, tol=1e-11)
        assert ok, err

    def test_randomized_counts_and_moments(self):
        rng = np.random.default_rng(53)
        for kind in ("plain", "hole"):
            for deg in range(0, 5):
                f = random_facet(rng, kind)
                comp = compressed_polygon_rule(f, deg)
                assert not comp.compression_failed
                assert comp.npoints <= basis_size(deg)
                assert np.all(comp.weights > 0)
                ok, err = certify_rule(comp, f, tol=1e-12)
                assert ok, (kind, deg, err)

    def test_infeasible_moments_flagged(self):
        # weights with a negative entry put the moment vector outside the
        # cone spanned by these two points, so no nonnegative weights exist
        pts = np.array([[0.0, 0.0], [0.6, 0.0]])
        w = np.array([1.0, -0.5])
        rule = QuadratureRule(pts, w, 1, QuadratureKind.TRIANGULATED_POLYGON)
        comp = compress_rule(rule, frame=(np.zeros(2), 1.0))
        assert comp.compression_failed
        assert np.array_equal(comp.points, pts)
        assert np.array_equal(comp.weights, w)

    def test_unit_cube_degree2_compresses_to_ten(self):
        # dense tensor rule declared at degree 2; compression must land on
        # at most dim P_2(R^3) = 10 points while keeping every moment
        t, w1 = gauss_1d(4)
        X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
        W = (
            w1[:, None, None] * w1[None, :, None] * w1[None, None, :]
        ).ravel()
        pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        rule = QuadratureRule(pts, W, 2, QuadratureKind.TRIANGULATED_POLYGON)
        comp = compress_rule(rule, frame=(np.full(3, 0.5), 1.0))
        assert not comp.compression_failed
        assert comp.npoints <= 10
        assert np.all(comp.weights > 0)
        for a in range(3):
            for b in range(3 - a):
                for c in range(3 - a - b):
                    exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
                    got = float(
                        np.sum(
                            comp.weights
                            * comp.points[:, 0] ** a
                            * comp.points[:, 1] ** b
                            * comp.points[:, 2] ** c
                        )
                    )
                    assert got == pytest.approx(exact, abs=1e-12), (a, b, c)


class TestPlanarFace:
    def test_xy_plane_matches_2d(self):
        coords = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
        )
        r = planar_face_rule(coords, [0, 1, 2, 3], degree=2)
        assert float(np.sum(r.weights)) == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(r.points[:, 2], 0.0, atol=1e-14)
        got = float(np.sum(r.weights * r.points[:, 0] * r.points[:, 1]))
        assert got == pytest.approx(0.25, abs=1e-13)

    def test_cube_side_face(self):
        coords = np.array(
            [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], dtype=float
        )
        r = planar_face_rule(coords, [0, 1, 2, 3], degree=1)
        assert float(np.sum(r.weights * r.points[:, 0])) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_tilted_triangle_area(self):
        coords = np.array([[0, 0, 0], [1, 0, 1], [0, 2, 1]], dtype=float)
        e1 = coords[1] - coords[0]
        e2 = coords[2] - coords[0]
        area = 0.5 * np.linalg.norm(np.cross(e1, e2))
        r = planar_face_rule(coords, [0, 1, 2], degree=3)
        assert float(np.sum(r.weights)) == pytest.approx(area, abs=1e-13)

    def test_face_with_hole(self):
        coords = np.array(
            [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
             [0.25, 0.25, 1], [0.25, 0.75, 1], [0.75, 0.75, 1], [0.75, 0.25, 1]],
            dtype=float,
        )
        r = planar_face_rule(coords, [0, 1, 2, 3], [[4, 5, 6, 7]], degree=2)
        assert float(np.sum(r.weights)) == pytest.approx(0.75, abs=1e-13)

    def test_nonplanar_rejected(self):
        coords = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]], dtype=float
        )
        with pytest.raises(NonPlanarFace):
            planar_face_rule(coords, [0, 1, 2, 3], degree=1)

