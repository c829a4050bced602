"""Quadrature: 1d Gauss rules, polygons (holes included) and planar 3d faces.

Polygon rules come from triangulating the facet and mapping symmetric
reference-triangle rules; every base rule here has positive weights, so the
moment-matching compression below always has a feasible nonnegative
solution.  The integrals of the scaled monomials over stacked polygons
(`monomial_integrals`, the divergence theorem on exact edge rules) never
triangulate: they give the element matrices G and H, and certify the
triangulated rules (`certify_rule`, and `quad` a group at a time).
"""

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from . import monomials
from .errors import NonPlanarFace
from .geometry import Facet, face_frame


class QuadratureKind(enum.Enum):
    TRIANGULATED_POLYGON = "triangulated_polygon"
    COMPRESSED_POLYGON = "compressed_polygon"
    PLANAR_FACE = "planar_face"


@dataclass
class QuadratureRule:
    """Points (n, dim), weights (n,), the degree the rule is exact for."""

    points: np.ndarray
    weights: np.ndarray
    degree: int
    kind: QuadratureKind
    compression_failed: bool = False

    @property
    def npoints(self):
        return int(self.weights.size)


@lru_cache(maxsize=None)
def gauss_1d(n):
    """Gauss-Legendre nodes and weights on [0, 1]; exact to degree 2n-1."""
    if n < 1:
        raise ValueError("need at least one Gauss point")
    x, w = npleg.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def gauss_lobatto_1d(npts):
    """Gauss-Lobatto nodes and weights on [0, 1], endpoints included.

    Interior nodes are the roots of the derivative of the Legendre
    polynomial of degree npts-1; the classical closed-form weight is
    2 / (n (n-1) P_{n-1}(x)^2) on [-1, 1].  Exact to degree 2*npts - 3.
    """
    if npts < 2:
        raise ValueError("Gauss-Lobatto needs at least the two endpoints")
    c = np.zeros(npts)
    c[-1] = 1.0  # Legendre series for P_{npts-1}
    interior = npleg.legroots(npleg.legder(c))
    x = np.concatenate([[-1.0], np.sort(np.real(interior)), [1.0]])
    pvals = npleg.legval(x, c)
    w = 2.0 / (npts * (npts - 1) * pvals ** 2)
    return (x + 1.0) / 2.0, w / 2.0


# Symmetric positive-weight rules on the unit triangle {x, y >= 0, x+y <= 1};
# weights sum to 1/2.  Degrees 1-2 are the classic Zienkiewicz/Strang-Fix
# points, 3-6 the Strang-Fix / Dunavant positive families.
_TRIANGLE_TABLES = {
    1: (
        [[1.0 / 3.0, 1.0 / 3.0]],
        [0.5],
    ),
    2: (
        [[1.0 / 6.0, 1.0 / 6.0], [1.0 / 6.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 6.0]],
        [1.0 / 6.0] * 3,
    ),
    3: (
        [
            [0.659027622374092, 0.231933368553031],
            [0.659027622374092, 0.109039009072877],
            [0.231933368553031, 0.659027622374092],
            [0.231933368553031, 0.109039009072877],
            [0.109039009072877, 0.659027622374092],
            [0.109039009072877, 0.231933368553031],
        ],
        [1.0 / 12.0] * 6,
    ),
    4: (
        [
            [0.816847572980459, 0.091576213509771],
            [0.091576213509771, 0.816847572980459],
            [0.091576213509771, 0.091576213509771],
            [0.108103018168070, 0.445948490915965],
            [0.445948490915965, 0.108103018168070],
            [0.445948490915965, 0.445948490915965],
        ],
        [0.109951743655322 / 2.0] * 3 + [0.223381589678011 / 2.0] * 3,
    ),
    5: (
        [
            [1.0 / 3.0, 1.0 / 3.0],
            [0.79742698535308720, 0.10128650732345633],
            [0.10128650732345633, 0.79742698535308720],
            [0.10128650732345633, 0.10128650732345633],
            [0.05971587178976981, 0.47014206410511505],
            [0.47014206410511505, 0.05971587178976981],
            [0.47014206410511505, 0.47014206410511505],
        ],
        [0.225 / 2.0]
        + [0.12593918054482717 / 2.0] * 3
        + [0.13239415278850616 / 2.0] * 3,
    ),
    6: (
        [
            [0.873821971016996, 0.063089014491502],
            [0.063089014491502, 0.873821971016996],
            [0.063089014491502, 0.063089014491502],
            [0.501426509658179, 0.249286745170910],
            [0.249286745170910, 0.501426509658179],
            [0.249286745170910, 0.249286745170910],
            [0.636502499121399, 0.310352451033785],
            [0.636502499121399, 0.053145049844816],
            [0.310352451033785, 0.636502499121399],
            [0.310352451033785, 0.053145049844816],
            [0.053145049844816, 0.636502499121399],
            [0.053145049844816, 0.310352451033785],
        ],
        [0.050844906370207 / 2.0] * 3
        + [0.116786275726379 / 2.0] * 3
        + [0.082851075618374 / 2.0] * 6,
    ),
}


@lru_cache(maxsize=None)
def _triangle_rule(degree):
    """Reference-triangle points/weights exact to the requested degree.

    Embedded tables up to degree 6; beyond that a collapsed (Duffy) product
    Gauss rule, which stays positive at any degree.
    """
    d = max(degree, 1)
    if d in _TRIANGLE_TABLES:
        pts, wts = _TRIANGLE_TABLES[d]
        return np.array(pts, dtype=float), np.array(wts, dtype=float)
    n1 = (d + 3) // 2
    n2 = (d + 2) // 2
    x1, w1 = gauss_1d(n1)
    x2, w2 = gauss_1d(n2)
    X, Y = np.meshgrid(x1, x2, indexing="ij")
    W = np.outer(w1 * (1.0 - x1), w2)
    pts = np.column_stack([X.ravel(), (Y * (1.0 - X)).ravel()])
    return pts, W.ravel()


def polygon_rule(facet, degree):
    """Quadrature over a facet, exact for scaled monomials up to degree.

    Maps the reference-triangle rule onto every triangle of the facet's
    triangulation (holes handled there); weights sum to the facet area.
    `facet` may also be the triangle corners of several facets, an array
    (facets, triangles, 3, 2): points and weights then carry a leading
    facet axis.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be >= 0")
    ref_pts, ref_wts = _triangle_rule(degree)
    corners = facet.coords[facet.triangles] if isinstance(facet, Facet) else facet
    a = corners[..., 0, :]
    e1 = corners[..., 1, :] - a
    e2 = corners[..., 2, :] - a
    jac = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]  # 2 * triangle areas, positive
    # (a + r0 e1) + r1 e2 on every triangle at once, in that order, so the
    # points round exactly as a per-triangle a + outer(r0, e1) + outer(r1, e2)
    r0, r1 = ref_pts[:, :1], ref_pts[:, 1:]
    pts = (a[..., None, :] + r0 * e1[..., None, :]) + r1 * e2[..., None, :]
    lead = corners.shape[:-3]
    return QuadratureRule(
        pts.reshape(lead + (-1, 2)),
        (ref_wts * jac[..., None]).reshape(lead + (-1,)),
        degree,
        QuadratureKind.TRIANGULATED_POLYGON,
    )


def monomial_integrals(starts, ends, frame, degree):
    """Integral over each of m polygons of every scaled monomial of degree
    <= `degree`: (m, basis_size(degree)).  The polygons are given by their
    boundary edges starts[:, i] -> ends[:, i], (m, n, 2) each, walked with
    the material on the left, and frame entries that broadcast against
    (m, 1).

    X^a Y^b is homogeneous of degree d = a + b in x - c, so by the divergence
    theorem its integral is sum_e ((v_e - c).n_e) int_e X^a Y^b / (2 + d),
    with an exact Gauss rule on every edge, stacked over edges and polygons.
    No triangulation enters, so this certifies the triangulated rules.
    """
    basis = monomials.shared_basis(degree)
    t, w = gauss_1d(degree // 2 + 1)
    d = ends - starts
    lengths = np.hypot(d[..., 0], d[..., 1])
    tangent = d / lengths[..., None]
    normals = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    points = starts[:, :, None, :] + t[:, None] * d[:, :, None, :]
    values = basis.eval(points.reshape(len(starts), -1, 2), frame)
    per_edge = w @ values.reshape(points.shape[:-1] + (basis.size,))
    centre = np.stack(frame[:2], axis=-1)
    flux = lengths * ((starts - centre) * normals).sum(axis=-1)
    return (flux[:, None, :] @ per_edge)[:, 0] / (2 + np.sum(basis.exponents, axis=1))


def certified(rule, exact, frame, area, degree, tol=1e-12):
    """(ok, max_error) of a rule's integrals of the scaled monomials of
    degree <= `degree` in a (xc, yc, h) frame against their `exact`
    values, errors relative to max(|exact|, area).  An error that is not
    a number makes max_error NaN, which fails."""
    approx = monomials.shared_basis(degree).eval(rule.points, frame).T @ rule.weights
    err = np.abs(approx - exact) / np.maximum(np.abs(exact), area)
    worst = float(np.max(err, initial=0.0))
    return worst <= tol, worst


def certify_rule(rule, facet, degree=None, tol=1e-12):
    """Compare a polygon rule against the boundary integrals of
    `monomial_integrals` over the facet, in the facet's frame.

    Returns (ok, max_error) with errors relative to max(|exact|, area).
    """
    degree = rule.degree if degree is None else degree
    loops = facet.loops()
    starts = np.concatenate([facet.coords[loop] for loop in loops])
    ends = np.concatenate([facet.coords[np.roll(loop, -1)] for loop in loops])
    column = [np.full((1, 1), c) for c in facet.frame]
    exact = monomial_integrals(starts[None], ends[None], column, degree)[0]
    return certified(rule, exact, facet.frame, facet.area, degree, tol)


def nnls(A, b, maxiter=None):
    """Nonnegative least squares by the Lawson-Hanson active-set method.

    Column selection is deterministic: the largest entry of the gradient
    wins and ties go to the lowest index (np.argmax does exactly that), so
    compressed quadrature points never depend on iteration order or
    platform.  Returns (x, residual_norm).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if maxiter is None:
        maxiter = 3 * max(m, n)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(float(np.abs(A).sum(axis=0).max()), 1.0)
    outer = 0
    while True:
        resid = b - A @ x
        w = A.T @ resid
        w = np.where(passive, -np.inf, w)
        j = int(np.argmax(w))
        if not np.isfinite(w[j]) or w[j] <= tol or passive.sum() >= m:
            break
        passive[j] = True
        while True:
            outer += 1
            if outer > maxiter:
                return x, float(np.linalg.norm(b - A @ x))
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            z[cols] = sol
            if np.all(z[cols] > 0.0):
                x = z
                break
            neg = cols[z[cols] <= 0.0]
            steps = x[neg] / (x[neg] - z[neg])
            alpha = float(np.min(steps))
            x = x + alpha * (z - x)
            drop = passive & (x <= tol)
            x[drop] = 0.0
            passive &= ~drop
    return x, float(np.linalg.norm(b - A @ x))


def _exponent_tuples(degree, dim):
    """Graded exponent tuples for monomials of total degree <= degree."""
    out = []
    if dim == 2:
        return monomials.basis_exponents(degree)
    for d in range(degree + 1):
        for ex in range(d, -1, -1):
            for ey in range(d - ex, -1, -1):
                out.append((ex, ey, d - ex - ey))
    return out


def compress_rule(rule, frame=None, tol=1e-10):
    """Shrink a rule to at most dim(P_degree) points with the same moments.

    Works in any dimension: the moment system is assembled from scaled
    monomial values at the rule's own points, normalized by the measure, and
    solved as a nonnegative least-squares problem.  The surviving points are
    a subset of the input points.  If the residual exceeds tol times the
    measure the original rule is returned with compression_failed set; with
    positive input weights that cannot happen.
    """
    pts = np.asarray(rule.points, dtype=float)
    w = np.asarray(rule.weights, dtype=float)
    dim = pts.shape[1]
    if frame is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        center = 0.5 * (lo + hi)
        h = float(max(np.max(hi - lo), 1.0))
    else:
        center, h = frame
        center = np.asarray(center, dtype=float)
    S = (pts - center) / h
    exps = _exponent_tuples(rule.degree, dim)
    A = np.empty((len(exps), pts.shape[0]))
    for r, e in enumerate(exps):
        col = np.ones(pts.shape[0])
        for ax, p in enumerate(e):
            if p:
                col = col * S[:, ax] ** p
        A[r] = col
    b = A @ w
    measure = float(np.sum(w))
    if measure <= 0.0:
        return replace(rule, compression_failed=True)
    # the monomial rows get badly conditioned from degree ~6 on and the
    # active-set gradient test then stops well short of the exact match
    # that positive input weights guarantee; orthonormalizing the rows
    # first keeps the gradient test meaningful at any degree
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > s[0] * np.finfo(float).eps * max(A.shape)
    c = (U.T @ (b / measure))[keep] / s[keep]
    x, _ = nnls(Vt[keep], c)
    rnorm = float(np.linalg.norm(A @ x - b / measure))
    if rnorm > tol:
        return replace(rule, compression_failed=True)
    sel = x > 0.0
    return QuadratureRule(
        pts[sel],
        x[sel] * measure,
        rule.degree,
        QuadratureKind.COMPRESSED_POLYGON,
    )


def compressed_polygon_rule(facet, degree, tol=1e-10):
    """Triangulated polygon rule followed by moment-matching compression."""
    base = polygon_rule(facet, degree)
    return compress_rule(base, frame=(facet.centroid, facet.diameter), tol=tol)


def planar_face_rule(coords, outer, holes=(), degree=2, tol=1e-10):
    """Polygon quadrature on a planar face embedded in 3d.

    Projects the face onto an orthonormal in-plane frame, builds the 2d
    rule and lifts the points back; weights are unchanged because the map is
    an isometry.  NonPlanarFace if any vertex (hole vertices included) sits
    off the plane by more than the relative tolerance.
    """
    coords = np.asarray(coords, dtype=float)
    origin, u, v, nrm = face_frame(coords, outer, tol=tol)
    used = []
    for loop in [list(outer)] + [list(h) for h in holes]:
        used.extend(loop)
    pts3 = coords[used]
    dev = np.abs((pts3 - origin) @ nrm)
    d2 = np.sum((pts3[:, None, :] - pts3[None, :, :]) ** 2, axis=2)
    diam = float(np.sqrt(np.max(d2)))
    if float(np.max(dev)) > tol * diam:
        raise NonPlanarFace("face vertices are not coplanar")
    remap = {}
    flat = np.empty((len(used), 2))
    for idx, vid in enumerate(used):
        remap.setdefault(vid, len(remap))
        q = coords[vid] - origin
        flat[remap[vid]] = (float(q @ u), float(q @ v))
    coords2 = flat[: len(remap)]
    outer2 = [remap[i] for i in outer]
    holes2 = [[remap[i] for i in h] for h in holes]
    facet = Facet(coords2, outer2, holes2)
    rule2 = polygon_rule(facet, degree)
    lifted = origin[None, :] + np.outer(rule2.points[:, 0], u) + np.outer(rule2.points[:, 1], v)
    return QuadratureRule(lifted, rule2.weights, degree, QuadratureKind.PLANAR_FACE)
