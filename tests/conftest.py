"""Shared shape builders, randomized element generators and independent
oracles for the tests."""

import numpy as np

from polyvem.errors import ParseError
from polyvem.geometry import Facet, FacetTable
from polyvem.localmat import ElementMatrixCache, group_facets
from polyvem.mesh import PolyMesh
from polyvem.monomials import MonomialBasis, ScaledMonomial
from polyvem.quadrature import gauss_1d


def lone_group(facet, k):
    """The element group of one facet at order k: the group of its
    one-row FacetTable, with a fresh member cache."""
    return group_facets(FacetTable.from_facets([facet]), k, [ElementMatrixCache()])[0][1]


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


def gathered_basis(k, points, frame):
    """(values, gx, gy) of the degree-k scaled monomials at points, by a
    gather formula: exponent-last power tables built by the same repeated
    multiplication as MonomialBasis, two np.take gathers and a product,
    (ex / h) first in the gradients.  MonomialBasis, which writes each
    member's column directly, must match it bit for bit."""
    ex, ey = np.array(MonomialBasis(k).exponents).T
    xc, yc, h = frame
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scaled = (pts - np.stack([xc, yc], axis=-1)) / np.asarray(h)[..., None]
    table = np.ones(scaled.shape + (k + 1,))
    for e in range(1, k + 1):
        table[..., e] = table[..., e - 1] * scaled
    px, py = table[..., 0, :], table[..., 1, :]
    h = np.asarray(h)[..., None]
    values = np.take(px, ex, axis=-1) * np.take(py, ey, axis=-1)
    exm, eym = np.maximum(ex - 1, 0), np.maximum(ey - 1, 0)
    gx = (ex / h) * np.take(px, exm, axis=-1) * np.take(py, ey, axis=-1)
    gy = (ey / h) * np.take(px, ex, axis=-1) * np.take(py, eym, axis=-1)
    return values, gx, gy


def gauss_edge(p0, p1, n):
    """Points and weights of the n-point Gauss rule along the segment p0-p1;
    the weights sum to its length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t, w = gauss_1d(n)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return pts, w * float(np.linalg.norm(p1 - p0))


# -- the line-by-line poly2d reader --------------------------------------
#
# The reader `polyvem.mesh.read_mesh` replaced: one line at a time, with a
# list of ids per loop.  The array reader must raise what this one raises
# and build the same mesh.


class _LineReader:
    def __init__(self, path):
        with open(path) as fh:
            raw = fh.readlines()
        self.lines = []
        for n, text in enumerate(raw, start=1):
            text = text.split("#", 1)[0].strip()
            if text:
                self.lines.append((n, text))
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 0
            raise ParseError("unexpected end of file, expected %s" % what, last)
        n, text = self.lines[self.pos]
        self.pos += 1
        return n, text

    def next_int(self, what):
        n, text = self.next(what)
        try:
            return int(text)
        except ValueError:
            raise ParseError("expected %s, got %r" % (what, text), n)


def read_mesh_by_lines(path):
    """Read a poly2d file a line at a time."""
    r = _LineReader(path)
    n, header = r.next("header")
    if header.split() != ["poly2d", "1"]:
        raise ParseError("not a poly2d version 1 file", n)
    nv = r.next_int("vertex count")
    verts = np.empty((nv, 2))
    for i in range(nv):
        n, text = r.next("vertex %d" % i)
        parts = text.split()
        if len(parts) != 2:
            raise ParseError("expected two coordinates", n)
        try:
            verts[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ParseError("bad coordinate %r" % text, n)
    ne = r.next_int("element count")
    elements = []
    for e in range(ne):
        nloops = r.next_int("loop count of element %d" % e)
        if nloops < 1:
            raise ParseError("element %d has no loops" % e, r.lines[r.pos - 1][0])
        loops = []
        for li in range(nloops):
            n, text = r.next("loop %d of element %d" % (li, e))
            parts = text.split()
            try:
                count, ids = int(parts[0]), [int(p) for p in parts[1:]]
            except (ValueError, IndexError):
                raise ParseError("bad loop line %r" % text, n)
            if len(ids) != count:
                raise ParseError(
                    "loop announces %d ids but has %d" % (count, len(ids)), n
                )
            if any(i < 0 or i >= nv for i in ids):
                raise ParseError("vertex id out of range", n)
            loops.append(ids)
        elements.append((loops[0], loops[1:]))
    if r.pos != len(r.lines):
        raise ParseError("trailing content", r.lines[r.pos][0])
    return PolyMesh(verts, elements)
