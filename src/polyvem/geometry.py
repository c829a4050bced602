"""Planar polygon and polyhedral surface geometry.

A facet is a polygon described by an outer loop and optional hole loops, all
indexing into a shared coordinate array.  Outer loops are stored
counterclockwise and holes clockwise; with that convention the material
region lies to the left of every boundary walk, so the outward normal of any
boundary edge (hole edges included) is the walk tangent rotated by -90
degrees.  Collinear vertices along an edge are legal and are how hanging
nodes enter the element shapes.

Facets live in a `FacetTable`: loop vertex ids over one coordinate pool,
with every facet's area, centroid and diameter.  Its constructor is the one
checked path, for a mesh and a lone `Facet` (a view of one row) alike: it
checks and measures the loops and hands the first row it rejects to a
scalar explainer, which raises that row's error.  The points of every loop
are gathered once from the transposed pool into one array, a block of
coordinate planes (2, L, m) per loop length, so the edge terms and lengths
come from one elementwise pass over all loops, and per length only the
reductions remain: the checks and the diameters (each vertex pair once)
reduce down the loop position in one vectorized pass per position, and the
measures' sums add as ndarray.sum adds one loop's terms.
`fan_accepts` proves, a class at a time, where ear clipping would cut a
hole-free loop into the fan from its last vertex, so only the loops it
rejects are ear-clipped.
"""

import warnings
from functools import cache, cached_property

import numpy as np

from .errors import (
    InvalidOrientation,
    InvariantViolation,
    NonPlanarFace,
    OpenSurface,
    TriangulationFailure,
)


class OrientationWarning(UserWarning):
    """Issued when a loop arrives with the wrong winding and gets reversed."""


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise ValueError("%s must be finite" % what)


def _next(a):
    """The loop successor of every entry: a[1:] then a[0] (np.roll(a, -1)
    along the first axis, without its per-call overhead)."""
    return np.concatenate((a[1:], a[:1]))


def signed_area(pts):
    """Shoelace signed area of a closed loop given as an (n, 2) array."""
    nxt = _next(pts)
    return 0.5 * float((pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]).sum())


def _ranges(counts):
    """Owner index and offset within the owner for counts[i] slots each."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


# The loop kernels take the points of m loops of one length L as pts (2, L,
# m): coordinate, loop position, loop, with ahead (2, L, m) the point after
# each in its loop.  A reduction over the loop position then runs down the
# outer axis of each plane, one vectorized pass per position, where a
# reduction over a short inner axis pays per loop.  `loop_terms` is
# elementwise, so the loops of every length can share one call.


def loop_terms(pts, ahead):
    """Twice the signed area and six times the first moments (integrals of
    x and of y) that each edge pts -> ahead adds to its loop's, (3, ...)."""
    (x, y), (xn, yn) = pts, ahead
    terms = np.empty((3,) + x.shape)
    cr, moments = terms[0], terms[1:]
    np.multiply(x, yn, out=cr)
    cr -= xn * y
    np.multiply(pts + ahead, cr, out=moments)
    return terms


def loop_measures(terms):
    """Signed areas and first moments of m loops of one length from their
    `loop_terms` (3, L, m): three (m,) arrays.

    Each sum rounds as ndarray.sum of the loop's terms alone, which adds
    fewer than 8 terms one by one to 0.0 and more pairwise: a short loop's
    are added down the loop position, a long loop's summed along the rows
    of a contiguous (m, L) array.  np.add.reduceat over a flat array does
    neither.
    """
    if len(terms[0]) < 8:
        s = 0.0 + terms[:, 0]
        for t in terms.transpose(1, 0, 2)[1:]:
            s += t
    else:
        s = np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)
    return 0.5 * s[0], s[1] / 6.0, s[2] / 6.0


def loop_defects(pts, lens, area):
    """Which of m loops of one length L >= 3 `checked_loop` rejects: their
    points (2, L, m), edge lengths (L, m) and signed areas.  A repeated
    consecutive vertex is an edge of length 0, flagged with the short ones."""
    scale = np.maximum((pts.max(axis=1) - pts.min(axis=1)).max(axis=0), 0.0)
    return (
        (scale == 0.0)
        | (lens <= 1e-14 * scale).any(axis=0)
        | (np.abs(area) <= 1e-14 * scale * scale)
    )


@cache
def _vertex_pairs(n):
    """Every pair (i, j), i > j, of n loop positions, as two arrays."""
    r = np.arange(n)
    pairs = np.nonzero(r[:, None] > r)
    for p in pairs:
        p.flags.writeable = False
    return pairs


def vertex_diameters(pts):
    """Largest pairwise vertex distance of m facets with V vertices each,
    pts (2, V, m).  Each pair is taken once: (a - b)^2 = (b - a)^2, and the
    maximum is exact in any order."""
    i, j = _vertex_pairs(pts.shape[1])
    d = pts[:, i] - pts[:, j]
    d *= d
    return np.sqrt((d[0] + d[1]).max(axis=0, initial=0.0))


def checked_loop(ids, coords):
    """The points and signed area of a closed loop of vertex ids, or the
    error of its first defect: fewer than 3 vertices, a repeated
    consecutive vertex, coordinates that are not finite, a zero-length
    edge, then no enclosed area (no winding)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size < 3:
        raise InvariantViolation("a loop needs at least 3 vertices")
    if (ids == _next(ids)).any():
        raise InvariantViolation("repeated consecutive vertex in loop")
    pts = coords[ids]
    _require_finite(pts, "loop coordinates")
    seg = _next(pts) - pts
    lens = np.hypot(seg[:, 0], seg[:, 1])
    scale = float(max((pts.max(axis=0) - pts.min(axis=0)).max(), 0.0))
    if scale == 0.0 or (lens <= 1e-14 * scale).any():
        raise InvariantViolation("zero-length edge in loop")
    area = signed_area(pts)
    if abs(area) <= 1e-14 * scale * scale:
        raise InvalidOrientation("loop encloses no area; winding undefined")
    return pts, area


def _warn_reversed(hole, stacklevel=2):
    warnings.warn("hole loop was counterclockwise; reversing" if hole
                  else "outer loop was clockwise; reversing", OrientationWarning,
                  stacklevel=stacklevel)


def explain_facet(coords, loops):
    """The explainer of a lone `Facet`: each loop passes `checked_loop`,
    reversed with a warning and checked again if wound the wrong way; then
    the area must be positive and each hole's first vertex inside the outer
    loop.  Raises the first error, else returns (area, centroid, diameter)."""
    pts = []
    for i, ids in enumerate(loops):
        p, area = checked_loop(ids, coords)
        if (area > 0.0) if i else not area > 0.0:
            _warn_reversed(i > 0)
            p, area = checked_loop(np.asarray(ids)[::-1], coords)
        pts.append(p)

    def measures(p):  # of one loop, p (L, 2), as a stack of one
        terms = loop_terms(p.T[:, :, None], _next(p).T[:, :, None])
        return (float(m[0]) for m in loop_measures(terms))

    # clockwise holes contribute negatively, added in order
    area, sx, sy = measures(pts[0])
    for hp in pts[1:]:
        ha, hx, hy = measures(hp)
        area, sx, sy = area + ha, sx + hx, sy + hy
    if area <= 0.0:
        raise InvariantViolation("facet area must be positive")
    for hp in pts[1:]:
        if not point_in_loop(hp[0], pts[0]):
            raise InvariantViolation("hole loop lies outside the outer loop")
    diameter = float(vertex_diameters(np.concatenate(pts).T[:, :, None])[0])
    return area, np.array([sx / area, sy / area]), diameter


def point_in_loop(p, pts):
    """Winding-number test of p against the closed loop through pts, (n, 2);
    boundary points are unreliable."""
    x, y = float(p[0]), float(p[1])
    nxt = _next(pts)
    x0, y0 = pts[:, 0], pts[:, 1]
    x1, y1 = nxt[:, 0], nxt[:, 1]
    side = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (side > 0)
    dn = (y0 > y) & (y1 <= y) & (side < 0)
    return int(up.sum()) - int(dn.sum()) != 0


class Facet:
    """Polygon with optional holes; the basic 2d element shape.

    Parameters
    ----------
    coords : (n, 2) array
        Coordinate pool, typically shared with the owning mesh.
    outer : sequence of int
        Outer boundary loop.  Reversed (with a warning) if clockwise.
    holes : sequence of sequences of int, optional
        Hole loops.  Reversed (with a warning) if counterclockwise.

    A facet is a view of one row of a FacetTable: the constructor builds
    a one-row table, checked as a mesh's is, with `explain_facet` as its
    explainer, and `FacetTable.facet` views a row of a table built before.
    `outer` is the counterclockwise id array and `holes` the clockwise
    ones; the diameter is the largest pairwise vertex distance over all
    loops, and the local frame used for scaled monomials is (centroid,
    diameter).
    """

    def __init__(self, coords, outer, holes=()):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        n, loops = len(coords), [np.asarray(loop, dtype=np.intp) for loop in [outer, *holes]]
        ids = np.concatenate([loop.ravel() for loop in loops])
        if (any(loop.ndim != 1 for loop in loops) or not ((-n <= ids) & (ids < n)).all()
                or not np.isfinite(coords[ids]).all()):
            explain_facet(coords, loops)  # raises before any arithmetic on them
        table = FacetTable(coords, np.where(ids < 0, ids + n, ids), list(map(len, loops)),
                           [len(loops)], lambda e, hole: _warn_reversed(hole, 5),
                           lambda e, _: explain_facet(coords, loops))
        self._view(table, 0)

    def _view(self, table, e):
        ls, fl = table.loop_starts, table.facet_loops
        loops = [table.loop_ids[ls[i]:ls[i + 1]] for i in range(fl[e], fl[e + 1])]
        self.coords, self.outer, self.holes = table.coords, loops[0], loops[1:]
        self.area, self.diameter = float(table.areas[e]), float(table.diameters[e])
        self.centroid = table.centroids[e].copy()

    def loops(self):
        return [self.outer] + self.holes

    @property
    def frame(self):
        """(xc, yc, h): the scaled-monomial frame of this facet."""
        return (float(self.centroid[0]), float(self.centroid[1]), self.diameter)

    @cached_property
    def triangles(self):
        """This facet's `triangulate` cover, computed once (read-only)."""
        tris = triangulate(self)
        tris.flags.writeable = False
        return tris

    def contains(self, p):
        """True when p lies in the material region (outer minus holes)."""
        if not point_in_loop(p, self.coords[self.outer]):
            return False
        return not any(point_in_loop(p, self.coords[h]) for h in self.holes)


class FacetTable:
    """Facets over one coordinate pool, as flat arrays.

    `loop_ids` holds the vertex ids of every loop, facet by facet, outer
    loops counterclockwise and holes clockwise: loop i is
    loop_ids[loop_starts[i]:loop_starts[i + 1]], and facet e owns loops
    facet_loops[e] to facet_loops[e + 1] - 1, its outer loop first, so its
    boundary walk is loop_ids[slot_starts[e]:slot_starts[e + 1]].

    The constructor orients, checks and measures the loops as given (`ids`
    flat, their `sizes`, the loop `counts` of the facets) with the bits of
    a facet-by-facet pass, and as that pass would: each facet before the
    first special one calls warn(facet, hole) per loop it reverses, and a
    special one (a check rejects it, or a scalar check would reverse its
    loop once more) goes to explain(facet, loops as given), which warns and
    raises as that facet alone does, or returns its (area, centroid,
    diameter)."""

    def __init__(self, coords, ids, sizes, counts, warn, explain):
        nv = len(coords)
        sizes, counts = np.asarray(sizes, dtype=np.intp), np.asarray(counts, dtype=np.intp)
        loop_starts = np.concatenate(([0], np.cumsum(sizes)))
        facet_loops = np.concatenate(([0], np.cumsum(counts)))
        first = facet_loops[:-1]
        owner = np.repeat(np.arange(len(counts)), counts)
        hole = np.ones(len(sizes), dtype=bool)
        hole[first] = False
        bad = sizes < 3
        # an id out of range makes its loop bad, and reads vertex 0 meanwhile
        oriented = ids.copy()
        outside = (ids < 0) | (ids >= nv)
        if outside.any():
            bad[np.repeat(np.arange(len(sizes)), sizes)[outside]] = True
            oriented[outside] = 0
        planes = np.ascontiguousarray(coords.T)
        # the loops of each length L >= 3, and their slots as one block of
        # `order`, position-major (L, m): the loops of one length are views
        blocks, order, start = [], [np.zeros(0, dtype=np.intp)], 0
        for size in (np.flatnonzero(np.bincount(sizes, minlength=3)[3:]) + 3).tolist():
            rows = np.flatnonzero(sizes == size)
            order.append((loop_starts[rows] + np.arange(size)[:, None]).ravel())
            blocks.append((rows, size, slice(start, start + size * len(rows))))
            start += size * len(rows)
        order = np.concatenate(order)
        measures = np.zeros((3, len(sizes)))
        diameters = np.zeros(len(counts))

        def measure():
            """Measure and check every loop of 3 or more slots as `oriented`
            gives it: its measures and its facet's diameter are written,
            its defects returned.  Only the sums go a length at a time."""
            pts = planes.take(oriented[order], axis=1)
            ahead = np.empty_like(pts)
            for rows, size, at in blocks:
                p, q = (v[:, at].reshape(2, size, -1) for v in (pts, ahead))
                q[:, :-1], q[:, -1] = p[:, 1:], p[:, 0]
            terms = loop_terms(pts, ahead)
            seg = np.subtract(ahead, pts, out=ahead)
            lens = np.hypot(seg[0], seg[1])
            defects = np.zeros(len(sizes), dtype=bool)
            for rows, size, at in blocks:
                p = pts[:, at].reshape(2, size, -1)
                measures[:, rows] = la = loop_measures(terms[:, at].reshape(3, size, -1))
                defects[rows] = loop_defects(p, lens[at].reshape(size, -1), la[0])
                # a facet with holes is measured again below, over its whole walk
                diameters[owner[rows]] = vertex_diameters(p)
            return defects

        defects = measure()
        a, sx, sy = measures
        flip = np.where(hole, a > 0, a < 0)
        if flip.any():
            loop, at = _ranges(np.where(flip, sizes, 0))
            oriented[loop_starts[loop] + at] = oriented[loop_starts[loop + 1] - 1 - at]
            defects = measure()  # with the same bits for the loops not flipped
        # a loop the scalar check would reverse once more is explained
        bad |= defects | ((a > 0) == hole)

        area, mx, my = a[first], sx[first], sy[first]
        special = set(owner[bad].tolist())
        slot_starts = loop_starts[facet_loops]
        if counts.max(initial=1) > 1:  # some facets have holes
            for j in range(1, counts.max()):  # holes add up in order
                e = np.flatnonzero(counts > j)
                area[e] += a[first[e] + j]
                mx[e] += sx[first[e] + j]
                my[e] += sy[first[e] + j]
            for h in np.flatnonzero(hole & ~bad & ~bad[first[owner]]).tolist():
                outer = oriented[loop_starts[first[owner[h]]]:loop_starts[first[owner[h]] + 1]]
                if not point_in_loop(coords[oriented[loop_starts[h]]], coords[outer]):
                    special.add(int(owner[h]))
            holed = np.flatnonzero(counts > 1)
            nvert = np.diff(slot_starts)[holed]
            for size in np.flatnonzero(np.bincount(nvert)).tolist():
                rows = holed[nvert == size]
                walks = oriented[slot_starts[rows] + np.arange(size)[:, None]]
                diameters[rows] = vertex_diameters(planes.take(walks, axis=1))
        special.update(np.flatnonzero(area <= 0.0).tolist())
        with np.errstate(divide="ignore", invalid="ignore"):  # special rows are explained
            centroids = np.column_stack((mx / area, my / area))

        is_special = np.zeros(len(counts), dtype=bool)
        is_special[list(special)] = True
        flips = np.flatnonzero(flip & ~is_special[owner])
        done = 0
        for e in sorted(special):
            stop = int(np.searchsorted(owner[flips], e))
            for i in flips[done:stop].tolist():
                warn(owner[i], hole[i])
            done = stop
            loops = [ids[loop_starts[i]:loop_starts[i + 1]].tolist()
                     for i in range(facet_loops[e], facet_loops[e + 1])]
            area[e], centroids[e], diameters[e] = explain(e, loops)
        for i in flips[done:].tolist():
            warn(owner[i], hole[i])
        self._set(coords, oriented, loop_starts, facet_loops, area, centroids, diameters)

    def _set(self, coords, loop_ids, loop_starts, facet_loops, areas, centroids, diameters):
        self.coords = coords
        self.loop_ids = loop_ids
        self.loop_starts = loop_starts
        self.facet_loops = facet_loops
        self.slot_starts = loop_starts[facet_loops]
        self.areas = areas
        self.centroids = centroids
        self.diameters = diameters

    @classmethod
    def from_facets(cls, facets):
        """The table stacking the rows that facets view; facets over
        distinct pools get their pools stacked, with their ids shifted to
        match."""
        pools, offsets = [], {}
        for f in facets:
            if id(f.coords) not in offsets:
                offsets[id(f.coords)] = sum(len(p) for p in pools)
                pools.append(f.coords)
        ids = [loop + offsets[id(f.coords)] for f in facets for loop in f.loops()]
        table = cls.__new__(cls)
        table._set(
            np.concatenate(pools),
            np.concatenate(ids),
            np.cumsum([0] + [len(i) for i in ids]),
            np.cumsum([0] + [1 + len(f.holes) for f in facets]),
            np.array([f.area for f in facets]),
            np.array([f.centroid for f in facets]),
            np.array([f.diameter for f in facets]),
        )
        return table

    def __len__(self):
        return len(self.areas)

    def walks(self, ids, size):
        """Boundary walks of facets `ids` of `size` vertices each, (len(ids),
        size) vertex ids."""
        return self.loop_ids[self.slot_starts[ids, None] + np.arange(size)]

    def slot_facets(self):
        """The facet of every entry of `loop_ids`."""
        return np.repeat(np.arange(len(self)), np.diff(self.slot_starts))

    def next_slots(self):
        """The entry of `loop_ids` that follows each one in its loop."""
        nxt = np.arange(1, len(self.loop_ids) + 1)
        nxt[self.loop_starts[1:] - 1] = self.loop_starts[:-1]
        return nxt

    def loop_sizes(self, e):
        return np.diff(self.loop_starts[self.facet_loops[e] : self.facet_loops[e + 1] + 1])

    def facet(self, e):
        """Facet e, a view of this table's row, not checked again."""
        facet = Facet.__new__(Facet)
        facet._view(self, e)
        return facet


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _coincide(a, b, tol):
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def _in_triangle_closed(a, b, c, p, eps):
    """Point in (or on) the ccw triangle abc, with slack eps on the crosses."""
    if _cross(b - a, p - a) < -eps:
        return False
    if _cross(c - b, p - b) < -eps:
        return False
    if _cross(a - c, p - c) < -eps:
        return False
    return True


def _segments_block(a, b, c, d, eps, ptol):
    """True when open segments ab and cd cross or overlap.

    Endpoint-on-endpoint contact (within ptol) does not block; an endpoint
    resting on the other segment's interior does.  eps is the slack for the
    cross products, which scale like length squared.
    """
    d1 = _cross(d - c, a - c)
    d2 = _cross(d - c, b - c)
    d3 = _cross(b - a, c - a)
    d4 = _cross(b - a, d - a)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    # collinear overlap
    if abs(d1) <= eps and abs(d2) <= eps and abs(d3) <= eps and abs(d4) <= eps:
        t = b - a
        tb = float(np.dot(t, t))
        tc = float(np.dot(c - a, t))
        td = float(np.dot(d - a, t))
        lo, hi = min(tc, td), max(tc, td)
        return min(tb, hi) - max(0.0, lo) > eps
    # touching: one endpoint strictly inside the other segment
    for p, u, v, du in ((a, c, d, d1), (b, c, d, d2), (c, a, b, d3), (d, a, b, d4)):
        if abs(du) <= eps:
            w = v - u
            s = float(np.dot(p - u, w))
            if eps < s < float(np.dot(w, w)) - eps:
                if not (_coincide(p, u, ptol) or _coincide(p, v, ptol)):
                    return True
    return False


def _bridge_holes(facet):
    """Splice every hole into the outer loop along a visible diagonal.

    Returns a single closed ccw walk (a list of vertex ids, with the bridge
    vertices repeated).  Hole processing order and diagonal choice are
    deterministic: holes sorted by leftmost coordinate, diagonals picked by
    shortest length with lowest vertex ids breaking ties.
    """
    coords = facet.coords
    poly = facet.outer.tolist()
    eps = 1e-12 * facet.diameter ** 2
    ptol = 1e-12 * facet.diameter

    def hole_key(hl):
        pts = coords[hl]
        j = int(np.lexsort((hl, pts[:, 1], pts[:, 0]))[0])
        return (pts[j, 0], pts[j, 1], int(hl[j]))

    remaining = sorted(facet.holes, key=hole_key)
    while remaining:
        hole = remaining.pop(0)
        hids = hole.tolist()
        cands = []
        for oi, ov in enumerate(poly):
            for hi, hv in enumerate(hids):
                d2 = float(np.sum((coords[ov] - coords[hv]) ** 2))
                cands.append((d2, ov, hv, oi, hi))
        cands.sort()
        spliced = None
        for d2, ov, hv, oi, hi in cands:
            a = coords[ov]
            b = coords[hv]
            if _diagonal_clear(a, b, poly, [hids] + [h.tolist() for h in remaining],
                               coords, eps, ptol):
                mid = 0.5 * (a + b)
                if not point_in_loop(mid, coords[facet.outer]):
                    continue
                if any(point_in_loop(mid, coords[h]) for h in facet.holes):
                    continue
                rot = hids[hi:] + hids[:hi]
                spliced = poly[: oi + 1] + rot + [rot[0], poly[oi]] + poly[oi + 1 :]
                break
        if spliced is None:
            raise TriangulationFailure("no visible diagonal found for hole")
        poly = spliced
    return poly


def _diagonal_clear(a, b, poly, hole_lists, coords, eps, ptol):
    """True when the open segment ab crosses no boundary edge."""
    chains = [poly] + hole_lists
    for chain in chains:
        n = len(chain)
        for j in range(n):
            c = coords[chain[j]]
            d = coords[chain[(j + 1) % n]]
            # skip edges that merely share an endpoint with the diagonal
            if (
                _coincide(c, a, ptol)
                or _coincide(c, b, ptol)
                or _coincide(d, a, ptol)
                or _coincide(d, b, ptol)
            ):
                continue
            if _segments_block(a, b, c, d, eps, ptol):
                return False
    return True


def _ear_clip(poly, coords, total_area, diam):
    """Ear clipping of a simple ccw walk (bridge duplicates allowed).

    Collinear corners are removed without emitting the zero-area triangle,
    which is what keeps hanging-node polygons clean.  Triangles below the
    degeneracy floor (1e-14 of the facet area) never come out.
    """
    eps_area = 1e-14 * max(total_area, np.finfo(float).tiny)
    eps_cross = 2.0 * eps_area
    ctol = 1e-13 * diam
    tris = []
    poly = list(poly)
    while len(poly) >= 3:
        n = len(poly)
        if n == 3:
            a, b, c = (coords[i] for i in poly)
            if _cross(b - a, c - a) > eps_cross:
                tris.append(tuple(poly))
            break
        clipped = False
        for i in range(n):
            ia = poly[(i - 1) % n]
            ib = poly[i]
            ic = poly[(i + 1) % n]
            a = coords[ia]
            b = coords[ib]
            c = coords[ic]
            cr = _cross(b - a, c - a)
            if cr <= eps_cross:
                if cr >= -eps_cross:
                    if _coincide(a, c, ctol):
                        # spike (bridge walked out and back); drop it whole
                        poly.pop(i)
                        m = len(poly)
                        poly.pop(i % m)
                        clipped = True
                        break
                    if float(np.dot(b - a, c - b)) > 0.0:
                        # straight run: hanging node, no triangle to emit
                        poly.pop(i)
                        clipped = True
                        break
                continue
            blocked = False
            for j in range(n):
                if j == i or j == (i - 1) % n or j == (i + 1) % n:
                    continue
                p = coords[poly[j]]
                if _coincide(p, a, ctol) or _coincide(p, b, ctol) or _coincide(p, c, ctol):
                    continue
                if _in_triangle_closed(a, b, c, p, eps_cross):
                    blocked = True
                    break
            if blocked:
                continue
            tris.append((ia, ib, ic))
            poly.pop(i)
            clipped = True
            break
        if not clipped:
            raise TriangulationFailure(
                "no clippable ear; boundary may self-intersect"
            )
    return tris


def triangulate(facet):
    """Triangulate a facet into ccw vertex-id triples covering it exactly.

    Holes are first bridged into the outer loop by visible diagonals, then
    the combined walk is ear-clipped.  The triangle areas are checked to sum
    to the facet area; a mismatch raises TriangulationFailure rather than
    returning a silently wrong cover.
    """
    if facet.holes:
        walk = _bridge_holes(facet)
    else:
        walk = facet.outer.tolist()
    tris = _ear_clip(walk, facet.coords, facet.area, facet.diameter)
    cover = 0.0
    for (i, j, k) in tris:
        a, b, c = facet.coords[i], facet.coords[j], facet.coords[k]
        cover += 0.5 * _cross(b - a, c - a)
    if abs(cover - facet.area) > 1e-9 * facet.area:
        raise TriangulationFailure(
            "triangle areas sum to %.17g, facet area is %.17g" % (cover, facet.area)
        )
    return np.asarray(tris, dtype=np.intp)


def fan_table(n):
    """Loop positions of the fan from the last vertex of an n-gon: (n-1,
    j, j+1) for j < n-3, then (n-3, n-2, n-1), the order and corner
    order in which `_ear_clip` emits them when every first ear it tries
    is clippable."""
    j = np.arange(n - 3)
    fan = np.column_stack((np.full(n - 3, n - 1), j, j + 1))
    return np.vstack((fan, [[n - 3, n - 2, n - 1]])).astype(np.intp)


def fan_accepts(pts, area, diameter):
    """Where `triangulate` provably returns the `fan_table` cover: m
    hole-free ccw loops of one length, pts (m, n, 2), with their facets'
    areas and diameters.

    While the walk is v_j .. v_{n-1}, `_ear_clip` first tries the ear
    (v_{n-1}, v_j, v_{j+1}).  The fan is its output when each such ear
    passes `_ear_clip`'s own tests, with the same operations and slack:
    the cross product above eps_cross, and no remaining vertex other than
    its corners in the closed triangle, unless it coincides with a corner.
    The last triangle must clear eps_cross too, and the triangle areas
    must pass `triangulate`'s cover check.
    """
    m, n = pts.shape[:2]
    eps = 2.0 * (1e-14 * np.maximum(area, np.finfo(float).tiny))[:, None]
    ctol = (1e-13 * diameter)[:, None]
    a, b, c = (pts[:, fan_table(n)[:, i]] for i in range(3))
    cr = _cross_last(b - a, c - a)
    ok = ~(cr[:, :-1] <= eps).any(axis=1) & (cr[:, -1] > eps[:, 0])

    def coincide(p, q):
        return (np.abs(p[..., 0] - q[..., 0]) <= ctol) & (np.abs(p[..., 1] - q[..., 1]) <= ctol)

    for j in range(n - 3):
        p = pts[:, j + 2 : n - 1]
        ta, tb, tc = a[:, j, None], b[:, j, None], c[:, j, None]
        inside = (
            ~(_cross_last(tb - ta, p - ta) < -eps)
            & ~(_cross_last(tc - tb, p - tb) < -eps)
            & ~(_cross_last(ta - tc, p - tc) < -eps)
        )
        corner = coincide(p, ta) | coincide(p, tb) | coincide(p, tc)
        ok &= ~(inside & ~corner).any(axis=1)
    cover = np.zeros(m)
    for t in range(n - 2):  # triangle by triangle, as triangulate adds them
        cover += 0.5 * cr[:, t]
    return ok & ~(np.abs(cover - area) > 1e-9 * area)


def _cross_last(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def face_frame(coords, outer_ids, tol=1e-10):
    """Orthonormal in-plane frame of a planar 3d face.

    Returns (origin, u, v, normal) with normal following the loop winding by
    the right-hand rule, so the (u, v) projection of the walk runs
    counterclockwise.  NonPlanarFace if any vertex is farther from the plane
    than tol times the face diameter.
    """
    pts = np.asarray(coords, dtype=float)[np.asarray(outer_ids, dtype=np.intp)]
    _require_finite(pts, "face coordinates")
    origin = pts.mean(axis=0)
    q = pts - origin
    nrm = np.sum(np.cross(q, np.roll(q, -1, axis=0)), axis=0)
    nn = float(np.linalg.norm(nrm))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    diam = float(np.sqrt(np.max(d2)))
    if nn <= 1e-14 * diam * diam or diam == 0.0:
        raise NonPlanarFace("face loop encloses no area")
    nrm = nrm / nn
    dev = float(np.max(np.abs(q @ nrm)))
    if dev > tol * diam:
        raise NonPlanarFace("vertices deviate from the face plane by %g" % dev)
    e = q[1] - q[0]
    u = e - float(np.dot(e, nrm)) * nrm
    u = u / float(np.linalg.norm(u))
    v = np.cross(nrm, u)
    return origin, u, v, nrm


class Polyhedron:
    """Watertight polyhedral surface with planar polygonal faces.

    Parameters
    ----------
    coords : (n, 3) array
    faces : sequence
        Each face is either a flat sequence of vertex ids (no holes) or a
        pair (outer, holes) with holes a sequence of loops.  Faces must wind
        so the right-hand-rule normal points out of the solid.

    Every undirected edge has to be walked exactly twice, in opposite
    directions, otherwise the surface is open and construction fails.
    Volume, centroid and diameter are computed on first access through the
    divergence theorem using planar face quadrature.
    """

    def __init__(self, coords, faces):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("coords must be an (n, 3) array")
        _require_finite(coords, "polyhedron coordinates")
        norm_faces = []
        for f in faces:
            if len(f) == 2 and hasattr(f[0], "__len__"):
                # (outer, holes) pair; a flat 2-vertex loop would be invalid anyway
                outer = [int(i) for i in f[0]]
                holes = [[int(i) for i in h] for h in f[1]]
            else:
                outer = [int(i) for i in f]
                holes = []
            norm_faces.append((outer, holes))
        self.coords = coords
        self.faces = norm_faces
        self._check_closed()

    def _check_closed(self):
        balance = {}
        for outer, holes in self.faces:
            for loop in [outer] + holes:
                n = len(loop)
                if n < 3:
                    raise InvariantViolation("face loop needs at least 3 vertices")
                for j in range(n):
                    a, b = loop[j], loop[(j + 1) % n]
                    if a == b:
                        raise InvariantViolation("repeated consecutive vertex in face")
                    key = (min(a, b), max(a, b))
                    cnt, bal = balance.get(key, (0, 0))
                    balance[key] = (cnt + 1, bal + (1 if a < b else -1))
        for key, (cnt, bal) in balance.items():
            if cnt != 2 or bal != 0:
                raise OpenSurface(
                    "edge %s walked %d times (direction balance %d)" % (key, cnt, bal)
                )

    @cached_property
    def _measures(self):
        from .quadrature import planar_face_rule

        vol = 0.0
        mom = np.zeros(3)
        for outer, holes in self.faces:
            _, _, _, nrm = face_frame(self.coords, outer)
            rule = planar_face_rule(self.coords, outer, holes, 2)
            pts = rule.points
            w = rule.weights
            vol += nrm[0] * float(np.sum(w * pts[:, 0]))
            mom += 0.5 * nrm * np.array(
                [
                    float(np.sum(w * pts[:, 0] ** 2)),
                    float(np.sum(w * pts[:, 1] ** 2)),
                    float(np.sum(w * pts[:, 2] ** 2)),
                ]
            )
        if vol <= 0.0:
            raise InvalidOrientation("polyhedron volume is not positive; faces must wind outward")
        used = sorted({i for f in self.faces for loop in [f[0]] + f[1] for i in loop})
        pts = self.coords[used]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        diam = float(np.sqrt(np.max(d2)))
        return vol, mom / vol, diam

    volume = property(lambda self: self._measures[0])
    centroid = property(lambda self: self._measures[1])
    diameter = property(lambda self: self._measures[2])
