"""Shared shape builders, randomized element generators and independent
oracles for the tests."""

import warnings
from collections import namedtuple

import numpy as np

from polyvem.errors import InvalidOrientation, InvariantViolation, ParseError
from polyvem.geometry import Facet, FacetTable, OrientationWarning
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


# The loop kernels of `polyvem.geometry` as they were written over points
# (m, L, 2), loop by loop along the rows: row sums for the measures, and
# reductions over the short loop axis and a broadcast over every ordered
# vertex pair for the defects and diameters.  The kernels, which take (2,
# L, m) and reduce down the loop position, must match them bit for bit.


def _next_row_entry(a):
    return np.concatenate((a[:, 1:], a[:, :1]), axis=1)


def row_loop_measures(pts):
    """Signed areas and first moments of m loops, pts (m, L, 2)."""
    nxt = _next_row_entry(pts)
    x, y = pts[..., 0], pts[..., 1]
    xn, yn = nxt[..., 0], nxt[..., 1]
    cr = x * yn - xn * y
    return (0.5 * cr.sum(axis=1), ((x + xn) * cr).sum(axis=1) / 6.0,
            ((y + yn) * cr).sum(axis=1) / 6.0)


def broadcast_loop_defects(ids, pts, area):
    """Which of m loops `checked_loop` rejects: ids (m, L), pts (m, L, 2)."""
    seg = _next_row_entry(pts) - pts
    lens = np.hypot(seg[..., 0], seg[..., 1])
    scale = np.maximum((pts.max(axis=1) - pts.min(axis=1)).max(axis=1), 0.0)
    return (
        (ids == _next_row_entry(ids)).any(axis=1)
        | (scale == 0.0)
        | (lens <= (1e-14 * scale)[:, None]).any(axis=1)
        | (np.abs(area) <= 1e-14 * scale * scale)
    )


def broadcast_vertex_diameters(pts):
    """Largest vertex distance of m facets, pts (m, V, 2), over every
    ordered pair, the diagonal included."""
    d2 = ((pts[:, :, None, :] - pts[:, None, :, :]) ** 2).sum(axis=3)
    return np.sqrt(d2.reshape(len(pts), -1).max(axis=1))


def monomial_integral(facet, ex, ey, frame=None):
    """Exact integral of the scaled monomial X^ex Y^ey over the facet.

    Green's theorem turns the area integral into edge integrals of the
    x-antiderivative, each a 1d polynomial handled by a Gauss rule of the
    right order.  Independent of the triangulation path and of the
    divergence-theorem integrals of `polyvem.quadrature.monomial_integrals`,
    which it certifies.
    """
    if ex < 0 or ey < 0:
        raise ValueError("exponents must be nonnegative")
    if frame is None:
        frame = facet.frame
    xc, yc, h = frame
    npts = (ex + ey + 2 + 1) // 2  # integrand degree ex+1+ey along each edge
    t, w = gauss_1d(npts)
    total = 0.0
    for loop in facet.loops():
        pts = (facet.coords[loop] - np.array([xc, yc])) / h
        nxt = np.roll(pts, -1, axis=0)
        for (u0, v0), (u1, v1) in zip(pts, nxt):
            dv = v1 - v0
            if dv == 0.0:
                continue
            ut = u0 + t * (u1 - u0)
            vt = v0 + t * dv
            total += dv / (ex + 1) * float(np.sum(w * ut ** (ex + 1) * vt ** ey))
    return total * h * h


Edge = namedtuple("Edge", "v0 v1 p0 p1 length tangent normal")


def boundary_edges(facet):
    """Every edge of a facet's boundary walk, loop after loop, with its
    length, unit tangent and outward normal (the tangent turned by -90
    degrees), computed edge by edge."""
    edges = []
    for ids in facet.loops():
        pts = facet.coords[ids]
        n = len(ids)
        for j in range(n):
            p0, p1 = pts[j], pts[(j + 1) % n]
            d = p1 - p0
            length = float(np.hypot(d[0], d[1]))
            t = d / length
            edges.append(Edge(int(ids[j]), int(ids[(j + 1) % n]), p0, p1, length, t,
                              np.array([t[1], -t[0]])))
    return edges


def perimeter(facet):
    """The lengths of `boundary_edges`, summed in their order."""
    return sum(e.length for e in boundary_edges(facet))


# -- the scalar facet reference ------------------------------------------
#
# The loop-by-loop construction the checked FacetTable path replaced: each
# loop checked on its own, reversed with a warning when wound the wrong way,
# then the facet measured and its holes tested.  Facet must give its area,
# centroid and diameter bit for bit, and raise and warn as it does.


def _shifted(a):
    return np.concatenate((a[1:], a[:1]))


class ReferenceLoop:
    """Closed vertex loop over a coordinate array, rejected at construction
    when degenerate (fewer than 3 vertices, repeated consecutive vertices,
    coordinates not finite, zero-length edges, vanishing signed area)."""

    def __init__(self, ids, coords):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size < 3:
            raise InvariantViolation("a loop needs at least 3 vertices")
        if (ids == _shifted(ids)).any():
            raise InvariantViolation("repeated consecutive vertex in loop")
        pts = coords[ids]
        if not np.isfinite(pts).all():
            raise ValueError("loop coordinates must be finite")
        seg = _shifted(pts) - pts
        lens = np.hypot(seg[:, 0], seg[:, 1])
        scale = float(max((pts.max(axis=0) - pts.min(axis=0)).max(), 0.0))
        if scale == 0.0 or (lens <= 1e-14 * scale).any():
            raise InvariantViolation("zero-length edge in loop")
        self.ids, self.coords = ids, coords
        nxt = _shifted(pts)
        self.signed_area = 0.5 * float((pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]).sum())
        if abs(self.signed_area) <= 1e-14 * scale * scale:
            raise InvalidOrientation("loop encloses no area; winding undefined")

    @property
    def orientation(self):
        return "ccw" if self.signed_area > 0.0 else "cw"

    def points(self):
        return self.coords[self.ids]

    def reversed(self):
        return ReferenceLoop(self.ids[::-1], self.coords)


def _winding(p, pts):
    x, y = float(p[0]), float(p[1])
    nxt = _shifted(pts)
    x0, y0, x1, y1 = pts[:, 0], pts[:, 1], nxt[:, 0], nxt[:, 1]
    side = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (side > 0)
    dn = (y0 > y) & (y1 <= y) & (side < 0)
    return int(up.sum()) - int(dn.sum())


class ReferenceFacet:
    """Facet(coords, outer, holes) built loop by loop; `outer` and `holes`
    are the oriented id arrays, and `perimeter` adds up `boundary_edges`."""

    def __init__(self, coords, outer, holes=()):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        loop = ReferenceLoop(outer, coords)
        if loop.orientation == "cw":
            warnings.warn("outer loop was clockwise; reversing", OrientationWarning)
            loop = loop.reversed()
        hole_loops = []
        for h in holes:
            hl = ReferenceLoop(h, coords)
            if hl.orientation == "ccw":
                warnings.warn("hole loop was counterclockwise; reversing", OrientationWarning)
                hl = hl.reversed()
            hole_loops.append(hl)
        pts = [l.points() for l in [loop] + hole_loops]
        area, sx, sy = 0.0, 0.0, 0.0
        for i, p in enumerate(pts):
            nxt = _shifted(p)
            cr = p[:, 0] * nxt[:, 1] - nxt[:, 0] * p[:, 1]
            a = 0.5 * float(cr.sum())
            mx = float(((p[:, 0] + nxt[:, 0]) * cr).sum()) / 6.0
            my = float(((p[:, 1] + nxt[:, 1]) * cr).sum()) / 6.0
            if i:
                area, sx, sy = area + a, sx + mx, sy + my
            else:
                area, sx, sy = a, mx, my
        if area <= 0.0:
            raise InvariantViolation("facet area must be positive")
        for hp in pts[1:]:
            if _winding(hp[0], pts[0]) == 0:
                raise InvariantViolation("hole loop lies outside the outer loop")
        self.coords = coords
        self.outer, self.holes = loop.ids, [h.ids for h in hole_loops]
        self.area = area
        self.centroid = np.array([sx / area, sy / area])
        allpts = np.concatenate(pts)
        d2 = ((allpts[:, None, :] - allpts[None, :, :]) ** 2).sum(axis=2)
        self.diameter = float(np.sqrt(d2.max()))

    def loops(self):
        return [self.outer] + self.holes

    @property
    def perimeter(self):
        return perimeter(self)


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

    def next_count(self, what):
        """The vertex or the element count, which is never negative."""
        value = self.next_int(what)
        if value < 0:
            raise ParseError("expected %s, got %r" % (what, self.lines[self.pos - 1][1]),
                             self.lines[self.pos - 1][0])
        return value


def read_mesh_by_lines(path):
    """Read a poly2d file a line at a time."""
    r = _LineReader(path)
    n, header = r.next("header")
    if header.split() != ["poly2d", "1"]:
        raise ParseError("not a poly2d version 1 file", n)
    nv = r.next_count("vertex count")
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
    ne = r.next_count("element count")
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


# -- the format-string poly2d writer -------------------------------------
#
# The writer `polyvem.mesh.write_mesh` replaced: the integer lines by one
# format string, a format per loop size.  The digit-column writer must write
# the same bytes.


def write_mesh_by_format(mesh, path):
    """Write a poly2d file with %-formatting, a line format per loop size."""
    t = mesh.shapes
    sizes = np.diff(t.loop_starts)
    counts = np.diff(t.facet_loops)
    nel, nloops = len(counts), len(sizes)
    loop_line = np.arange(nloops) + np.repeat(np.arange(1, nel + 1), counts)
    loop_at = loop_line + t.loop_starts[:-1]
    count_at = np.arange(nel) + t.facet_loops[:-1] + t.loop_starts[t.facet_loops[:-1]]
    numbers = np.empty(nel + nloops + len(t.loop_ids), dtype=np.intp)
    is_id = np.ones(len(numbers), dtype=bool)
    is_id[loop_at] = is_id[count_at] = False
    numbers[loop_at], numbers[count_at], numbers[is_id] = sizes, counts, t.loop_ids
    line_sizes = np.full(nel + nloops, -1)
    line_sizes[loop_line] = sizes
    formats = {s: "%d" + " %d" * s + "\n" for s in np.unique(line_sizes).tolist()}  # -1: "%d\n"
    with open(path, "w") as fh:
        fh.write("poly2d 1\n%d\n" % mesh.num_vertices)
        fh.write(("%.17g %.17g\n" * mesh.num_vertices) % tuple(mesh.vertices.ravel().tolist()))
        fh.write("%d\n" % mesh.num_elements)
        fh.write("".join(map(formats.__getitem__, line_sizes.tolist()))
                 % tuple(numbers.tolist()))
