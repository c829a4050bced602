import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem.monomials import (
    MonomialBasis,
    ScaledMonomial,
    basis_exponents,
    basis_index,
    basis_size,
    derivative_tables,
    laplacian_terms,
)

from conftest import derivative, evaluate, product


class TestAlgebra:
    def test_product_multiplies_coeffs_and_adds_exponents(self):
        a = ScaledMonomial(1, 2, 3.0)
        b = ScaledMonomial(2, 1, 2.0)
        c = product(a, b)
        assert (c.ex, c.ey, c.coeff) == (3, 3, 6.0)

    def test_product_identity(self):
        m = ScaledMonomial(2, 1, 4.5)
        one = ScaledMonomial(0, 0, 1.0)
        assert product(m, one) == m

    def test_evaluate(self):
        m = ScaledMonomial(1, 2, 3.0)
        # frame (0, 0, 1): plain monomial 3 x y^2
        assert evaluate(m, np.array([2.0, 0.5]), (0.0, 0.0, 1.0)) == pytest.approx(1.5)
        # scaled frame
        val = evaluate(m, np.array([2.0, 3.0]), (1.0, 1.0, 2.0))
        assert val == pytest.approx(3.0 * 0.5 * 1.0)

    def test_derivative_power_rule(self):
        m = ScaledMonomial(3, 2, 2.0)
        dx = derivative(m, "x")
        assert (dx.ex, dx.ey, dx.coeff) == (2, 2, 6.0)
        dy = derivative(m, "y")
        assert (dy.ex, dy.ey, dy.coeff) == (3, 1, 4.0)

    def test_derivative_kills_constants(self):
        m = ScaledMonomial(0, 3, 5.0)
        assert derivative(m, "x").coeff == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        frame = (0.3, -0.2, 1.7)
        for _ in range(30):
            ex, ey = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            m = ScaledMonomial(ex, ey, float(rng.uniform(0.5, 2.0)))
            p = rng.uniform(-1.0, 1.0, 2)
            eps = 1e-6
            fd_x = (
                evaluate(m, p + [eps, 0.0], frame) - evaluate(m, p - [eps, 0.0], frame)
            ) / (2 * eps)
            # physical derivative carries 1/h
            an_x = evaluate(derivative(m, "x"), p, frame) / frame[2]
            assert fd_x == pytest.approx(an_x, rel=1e-6, abs=1e-8)


class TestLaplacian:
    def test_two_term_decomposition(self):
        # X^3 Y^2 -> 6/h^2 X Y^2 + 2/h^2 X^3
        h = 2.0
        terms = laplacian_terms(ScaledMonomial(3, 2, 1.0), h)
        assert len(terms) == 2
        t1, t2 = terms
        assert (t1.ex, t1.ey) == (1, 2) and t1.coeff == pytest.approx(6.0 / h**2)
        assert (t2.ex, t2.ey) == (3, 0) and t2.coeff == pytest.approx(2.0 / h**2)

    def test_harmonic_product_term_empty(self):
        assert laplacian_terms(ScaledMonomial(1, 1, 1.0), 1.0) == []
        assert laplacian_terms(ScaledMonomial(0, 0, 1.0), 1.0) == []
        assert laplacian_terms(ScaledMonomial(1, 0, 1.0), 1.0) == []

    def test_single_term_with_scaling(self):
        terms = laplacian_terms(ScaledMonomial(2, 0, 1.0), 2.0)
        assert len(terms) == 1
        assert (terms[0].ex, terms[0].ey) == (0, 0)
        assert terms[0].coeff == pytest.approx(0.5)

    def test_degree_drops_by_two(self):
        for ex in range(5):
            for ey in range(5):
                m = ScaledMonomial(ex, ey, 1.0)
                for t in laplacian_terms(m, 1.3):
                    assert t.degree == m.degree - 2

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        frame = (0.1, 0.4, 1.9)
        h = frame[2]
        for _ in range(25):
            ex, ey = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            m = ScaledMonomial(ex, ey, float(rng.uniform(0.5, 2.0)))
            p = rng.uniform(-0.5, 0.5, 2)
            eps = 1e-4
            f0 = evaluate(m, p, frame)
            lap_fd = (
                evaluate(m, p + [eps, 0], frame)
                + evaluate(m, p - [eps, 0], frame)
                + evaluate(m, p + [0, eps], frame)
                + evaluate(m, p - [0, eps], frame)
                - 4.0 * f0
            ) / eps**2
            lap_an = sum(evaluate(t, p, frame) for t in laplacian_terms(m, h))
            assert lap_fd == pytest.approx(lap_an, rel=1e-4, abs=1e-5)


class TestOrdering:
    def test_frozen_order_degree_three(self):
        assert basis_exponents(3) == [
            (0, 0),
            (1, 0), (0, 1),
            (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
        ]

    def test_sizes(self):
        assert [basis_size(k) for k in range(-2, 5)] == [0, 0, 1, 3, 6, 10, 15]

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_index_inverts_exponents(self, ex, ey):
        k = ex + ey
        assert basis_exponents(k)[basis_index(ex, ey)] == (ex, ey)

    def test_index_rejects_negative(self):
        with pytest.raises(ValueError):
            basis_index(-1, 0)


class TestBasisEvaluation:
    def test_matches_member_evaluate(self):
        rng = np.random.default_rng(9)
        basis = MonomialBasis(3)
        frame = (0.2, 0.7, 1.4)
        pts = rng.uniform(-1.0, 1.0, (20, 2))
        vals = basis.eval(pts, frame)
        for j, m in enumerate(basis.members):
            assert np.allclose(vals[:, j], evaluate(m, pts, frame), atol=1e-14)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        basis = MonomialBasis(3)
        frame = (0.0, 0.1, 2.2)
        pts = rng.uniform(-0.8, 0.8, (5, 2))
        gx, gy = basis.grad(pts, frame)
        eps = 1e-6
        vxp = basis.eval(pts + [eps, 0.0], frame)
        vxm = basis.eval(pts - [eps, 0.0], frame)
        vyp = basis.eval(pts + [0.0, eps], frame)
        vym = basis.eval(pts - [0.0, eps], frame)
        assert np.allclose(gx, (vxp - vxm) / (2 * eps), rtol=1e-6, atol=1e-7)
        assert np.allclose(gy, (vyp - vym) / (2 * eps), rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivative_tables_give_the_gradient(self, k):
        # the low basis_size(k - 1) columns of the degree-k values, times
        # the derivative coefficients over h, are the gradient
        rng = np.random.default_rng(k)
        basis = MonomialBasis(k)
        frame = (0.3, -0.2, 1.7)
        pts = rng.uniform(-1.0, 1.0, (12, 2))
        c = rng.standard_normal(basis.size)
        Dx, Dy = derivative_tables(k)
        low = basis.eval(pts, frame)[:, : basis_size(k - 1)]
        gx, gy = basis.grad(pts, frame)
        assert np.allclose(low @ (Dx @ c) / frame[2], gx @ c, rtol=0.0, atol=1e-13)
        assert np.allclose(low @ (Dy @ c) / frame[2], gy @ c, rtol=0.0, atol=1e-13)

    def test_constant_column(self):
        basis = MonomialBasis(2)
        vals = basis.eval(np.array([[0.4, 0.6], [-1.0, 2.0]]), (0.0, 0.0, 1.0))
        assert np.allclose(vals[:, 0], 1.0)

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_power_tables_match_free_functions(self, k, seed, stacked):
        # eval and grad read powers built by repeated multiplication; the
        # oracle raises the scaled coordinates with pow
        rng = np.random.default_rng(seed)
        basis = MonomialBasis(k)
        frames = [(*rng.uniform(-2.0, 2.0, 2), rng.uniform(0.3, 3.0)) for _ in range(3)]
        pts = np.array([f[:2] + f[2] * rng.uniform(-0.8, 0.8, (7, 2)) for f in frames])
        if stacked:
            frame = tuple(np.array(frames).T[:, :, None])
            vals, (gx, gy) = basis.eval(pts, frame), basis.grad(pts, frame)
        else:
            vals = np.array([basis.eval(p, f) for p, f in zip(pts, frames)])
            gx, gy = np.array([basis.grad(p, f) for p, f in zip(pts, frames)]).swapaxes(0, 1)
        for i, frame in enumerate(frames):
            for j, m in enumerate(basis.members):
                want = evaluate(m, pts[i], frame)
                dx = evaluate(derivative(m, "x"), pts[i], frame) / frame[2]
                dy = evaluate(derivative(m, "y"), pts[i], frame) / frame[2]
                for got, ref in ((vals, want), (gx, dx), (gy, dy)):
                    assert np.allclose(got[i, :, j], ref, rtol=1e-14, atol=1e-14)

    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_product_evaluates_to_product(self, ax, ay, bx, by, px, py):
        a = ScaledMonomial(ax, ay, 1.5)
        b = ScaledMonomial(bx, by, -0.5)
        frame = (0.1, -0.3, 1.2)
        p = np.array([px, py])
        lhs = evaluate(product(a, b), p, frame)
        rhs = evaluate(a, p, frame) * evaluate(b, p, frame)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
