"""Shared shape builders and randomized element generators for the tests."""

import numpy as np

from polyvem.geometry import Facet
from polyvem.monomials import ScaledMonomial
from polyvem.quadrature import gauss_1d


def unit_square():
    return Facet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), [0, 1, 2, 3])


def pentagon():
    pts = np.array([[0.0, 0.0], [1.1, 0.0], [1.5, 0.9], [0.5, 1.4], [-0.3, 0.8]])
    return Facet(pts, [0, 1, 2, 3, 4])


def lshape():
    pts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    return Facet(pts, list(range(6)))


def square_with_hole(width=1.0, hole=0.5):
    """Square of side width with a centered square hole of side hole."""
    a = (width - hole) / 2.0
    b = a + hole
    pts = np.array(
        [[0, 0], [width, 0], [width, width], [0, width],
         [a, a], [a, b], [b, b], [b, a]],
        dtype=float,
    )
    return Facet(pts, [0, 1, 2, 3], [[4, 5, 6, 7]])  # hole listed clockwise


def hanging_square():
    """Unit square with a collinear vertex in the middle of the bottom edge."""
    pts = np.array([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    return Facet(pts, [0, 1, 2, 3, 4])


def random_star(rng, n):
    """Simple (possibly concave) polygon, star shaped about its center.

    Returns (points, center); sorting by angle guarantees no
    self-intersection, random radii make concavity common.
    """
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        # every gap below pi keeps the center enclosed, which is what makes
        # the radial construction simple; the floor keeps edges non-tiny
        if np.min(gaps) > 0.08 and np.max(gaps) < 2.8:
            break
    rad = rng.uniform(0.4, 1.0, n)
    center = rng.uniform(-2.0, 2.0, 2)
    scale = rng.uniform(0.3, 3.0)
    pts = center + scale * np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return pts, center


def random_facet(rng, kind="plain"):
    """Randomized test element: plain | hanging | hole."""
    n = int(rng.integers(4, 9))
    pts, center = random_star(rng, n)
    if kind == "plain":
        return Facet(pts, list(range(n)))
    if kind == "hanging":
        e = int(rng.integers(0, n))
        t = float(rng.uniform(0.3, 0.7))
        mid = (1.0 - t) * pts[e] + t * pts[(e + 1) % n]
        pts2 = np.vstack([pts, mid])
        ids = list(range(n))
        ids.insert(e + 1, n)
        return Facet(pts2, ids)
    if kind == "hole":
        # shrinking toward the star center keeps the copy strictly inside
        hole_pts = center + 0.35 * (pts - center)
        all_pts = np.vstack([pts, hole_pts])
        hole_ids = list(range(n, 2 * n))[::-1]  # reversed: clockwise
        return Facet(all_pts, list(range(n)), [hole_ids])
    raise ValueError(kind)


# -- independent oracles -------------------------------------------------
#
# Plain monomial algebra and a Gauss edge rule, kept apart from the library
# so the tests can check its element matrices by another route.


def product(a, b):
    """a * b for scaled monomials: exponents add, coefficients multiply."""
    return ScaledMonomial(a.ex + b.ex, a.ey + b.ey, a.coeff * b.coeff)


def derivative(m, var):
    """Derivative of a scaled monomial in the scaled variable (no 1/h)."""
    if var == "x":
        if m.ex == 0:
            return ScaledMonomial(0, 0, 0.0)
        return ScaledMonomial(m.ex - 1, m.ey, m.coeff * m.ex)
    if var == "y":
        if m.ey == 0:
            return ScaledMonomial(0, 0, 0.0)
        return ScaledMonomial(m.ex, m.ey - 1, m.coeff * m.ey)
    raise ValueError("var must be 'x' or 'y'")


def evaluate(m, points, frame):
    """Value of a scaled monomial at physical points, frame = (xc, yc, h)."""
    xc, yc, h = frame
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    X = (pts[:, 0] - xc) / h
    Y = (pts[:, 1] - yc) / h
    vals = m.coeff * X ** m.ex * Y ** m.ey
    if np.ndim(points) == 1:
        return float(vals[0])
    return vals


def gauss_edge(p0, p1, n):
    """Points and weights of the n-point Gauss rule along the segment p0-p1;
    the weights sum to its length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t, w = gauss_1d(n)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return pts, w * float(np.linalg.norm(p1 - p0))
