"""Planar polygon and polyhedral surface geometry.

A facet is a polygon described by an outer loop and optional hole loops, all
indexing into a shared coordinate array.  Outer loops are stored
counterclockwise and holes clockwise; with that convention the material
region lies to the left of every boundary walk, so the outward normal of any
boundary edge (hole edges included) is the walk tangent rotated by -90
degrees.  Collinear vertices along an edge are legal and are how hanging
nodes enter the element shapes.

Many facets over one coordinate pool live in a `FacetTable`: flat arrays of
loop vertex ids and per-facet measures, computed a loop-length class at a
time by the `loop_*` functions, which round every row as the lone `Loop`
and `Facet` constructors round it.  `fan_accepts` proves, a class at a
time, where ear clipping would cut a hole-free loop into the fan from its
last vertex, so only the loops it rejects are ear-clipped.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

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


def loop_moments(pts):
    """Signed area and first moments (integral of x, of y) of one loop."""
    nxt = _next(pts)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = nxt[:, 0], nxt[:, 1]
    cr = x * yn - xn * y
    a = 0.5 * float(cr.sum())
    sx = float(((x + xn) * cr).sum()) / 6.0
    sy = float(((y + yn) * cr).sum()) / 6.0
    return a, sx, sy


def _next_column(a):
    """The loop successor of every entry of a stack of loops (axis 1)."""
    return np.concatenate((a[:, 1:], a[:, :1]), axis=1)


def loop_measures(pts):
    """`loop_moments` of m loops of one length, pts (m, L, 2): signed
    areas and first moments, three (m,) arrays.

    A row sum of a contiguous (m, L) array rounds as ndarray.sum of that
    row alone; np.add.reduceat over a flat array does not.
    """
    nxt = _next_column(pts)
    x, y = pts[..., 0], pts[..., 1]
    xn, yn = nxt[..., 0], nxt[..., 1]
    cr = x * yn - xn * y
    a = 0.5 * cr.sum(axis=1)
    sx = ((x + xn) * cr).sum(axis=1) / 6.0
    sy = ((y + yn) * cr).sum(axis=1) / 6.0
    return a, sx, sy


def loop_defects(ids, pts, area):
    """Which of m loops of one length the `Loop` constructor rejects: ids
    (m, L) and their points (m, L, 2), with their signed areas."""
    if ids.shape[1] < 3:
        return np.ones(len(ids), dtype=bool)
    seg = _next_column(pts) - pts
    lens = np.hypot(seg[..., 0], seg[..., 1])
    scale = np.maximum((pts.max(axis=1) - pts.min(axis=1)).max(axis=1), 0.0)
    return (
        (ids == _next_column(ids)).any(axis=1)
        | (scale == 0.0)
        | (lens <= (1e-14 * scale)[:, None]).any(axis=1)
        | (np.abs(area) <= 1e-14 * scale * scale)
    )


def vertex_diameters(pts):
    """Largest pairwise vertex distance of m facets with V vertices each,
    pts (m, V, 2), as `Facet` computes its diameter."""
    d2 = ((pts[:, :, None, :] - pts[:, None, :, :]) ** 2).sum(axis=3)
    return np.sqrt(d2.reshape(len(pts), -1).max(axis=1))


class Loop:
    """Closed vertex loop over a shared coordinate array.

    Orientation is derived from the shoelace sign and cached.  Degenerate
    loops (fewer than 3 vertices, repeated consecutive vertices, zero-length
    edges, vanishing signed area) are rejected at construction.
    """

    def __init__(self, ids, coords):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size < 3:
            raise InvariantViolation("a loop needs at least 3 vertices")
        if (ids == _next(ids)).any():
            raise InvariantViolation("repeated consecutive vertex in loop")
        coords = np.asarray(coords, dtype=float)
        pts = coords[ids]
        _require_finite(pts, "loop coordinates")
        seg = _next(pts) - pts
        lens = np.hypot(seg[:, 0], seg[:, 1])
        scale = float(max((pts.max(axis=0) - pts.min(axis=0)).max(), 0.0))
        if scale == 0.0 or (lens <= 1e-14 * scale).any():
            raise InvariantViolation("zero-length edge in loop")
        self.ids = ids
        self.coords = coords
        self.signed_area = signed_area(pts)
        if abs(self.signed_area) <= 1e-14 * scale * scale:
            raise InvalidOrientation("loop encloses no area; winding undefined")

    @classmethod
    def _checked(cls, ids, coords, signed_area):
        """A loop whose checks have run elsewhere (see FacetTable)."""
        loop = cls.__new__(cls)
        loop.ids, loop.coords, loop.signed_area = ids, coords, signed_area
        return loop

    @property
    def orientation(self):
        return "ccw" if self.signed_area > 0.0 else "cw"

    def points(self):
        return self.coords[self.ids]

    def reversed(self):
        return Loop(self.ids[::-1], self.coords)

    def __len__(self):
        return int(self.ids.size)


def point_in_loop(p, loop):
    """Winding-number containment test; boundary points are unreliable."""
    pts = loop.points()
    x, y = float(p[0]), float(p[1])
    nxt = _next(pts)
    x0, y0 = pts[:, 0], pts[:, 1]
    x1, y1 = nxt[:, 0], nxt[:, 1]
    side = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (side > 0)
    dn = (y0 > y) & (y1 <= y) & (side < 0)
    return int(up.sum()) - int(dn.sum()) != 0


@dataclass
class EdgeRef:
    """One traversal edge of a facet boundary, with its outward normal."""

    v0: int
    v1: int
    p0: np.ndarray
    p1: np.ndarray
    length: float
    tangent: np.ndarray
    normal: np.ndarray
    loop_index: int = 0
    edge_index: int = 0


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

    Area, centroid and diameter are computed once at construction; the
    boundary edges, perimeter and triangulation once, on first use.  The
    diameter is the largest pairwise vertex distance over all loops, and the
    local frame used for scaled monomials is (centroid, diameter).
    """

    def __init__(self, coords, outer, holes=()):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        loop = Loop(outer, coords)
        if loop.orientation == "cw":
            warnings.warn(
                "outer loop was clockwise; reversing", OrientationWarning, stacklevel=2
            )
            loop = loop.reversed()
        hole_loops = []
        for h in holes:
            hl = Loop(h, coords)
            if hl.orientation == "ccw":
                warnings.warn(
                    "hole loop was counterclockwise; reversing",
                    OrientationWarning,
                    stacklevel=2,
                )
                hl = hl.reversed()
            hole_loops.append(hl)

        loop_pts = [l.points() for l in [loop] + hole_loops]
        area, sx, sy = loop_moments(loop_pts[0])
        for hp in loop_pts[1:]:
            ha, hx, hy = loop_moments(hp)
            area += ha  # clockwise holes contribute negatively
            sx += hx
            sy += hy
        if area <= 0.0:
            raise InvariantViolation("facet area must be positive")
        for hp in loop_pts[1:]:
            if not point_in_loop(hp[0], loop):
                raise InvariantViolation("hole loop lies outside the outer loop")

        self.coords = coords
        self.outer = loop
        self.holes = hole_loops
        self.area = area
        self.centroid = np.array([sx / area, sy / area])
        pts = np.concatenate(loop_pts)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        self.diameter = float(np.sqrt(d2.max()))

    @classmethod
    def _checked(cls, coords, loops, area, centroid, diameter):
        """A facet whose checks and measures come from elsewhere (see
        FacetTable)."""
        facet = cls.__new__(cls)
        facet.coords, facet.outer, facet.holes = coords, loops[0], loops[1:]
        facet.area, facet.centroid, facet.diameter = area, centroid, diameter
        return facet

    def loops(self):
        return [self.outer] + self.holes

    @property
    def frame(self):
        """(xc, yc, h): the scaled-monomial frame of this facet."""
        return (float(self.centroid[0]), float(self.centroid[1]), self.diameter)

    @property
    def num_vertices(self):
        return sum(len(l) for l in self.loops())

    def vertex_ids(self):
        """All boundary vertex ids, outer loop first, then holes."""
        return np.concatenate([l.ids for l in self.loops()])

    @cached_property
    def perimeter(self):
        # the lengths of boundary_edges(), summed in their order, without
        # building the edges
        lengths = []
        for loop in self.loops():
            pts = loop.points()
            d = _next(pts) - pts
            lengths.extend(np.hypot(d[:, 0], d[:, 1]).tolist())
        return sum(lengths)

    @cached_property
    def triangles(self):
        """This facet's `triangulate` cover, computed once (read-only)."""
        tris = triangulate(self)
        tris.flags.writeable = False
        return tris

    def boundary_edges(self):
        """Traversal edges of every loop, outward normals included."""
        return self._edges

    @cached_property
    def _edges(self):
        edges = []
        count = 0
        for li, loop in enumerate(self.loops()):
            ids = loop.ids
            pts = loop.points()
            n = len(ids)
            for j in range(n):
                p0 = pts[j]
                p1 = pts[(j + 1) % n]
                d = p1 - p0
                length = float(np.hypot(d[0], d[1]))
                t = d / length
                nrm = np.array([t[1], -t[0]])
                edges.append(
                    EdgeRef(int(ids[j]), int(ids[(j + 1) % n]), p0, p1, length, t, nrm,
                            loop_index=li, edge_index=count)
                )
                count += 1
        return tuple(edges)

    def contains(self, p):
        """True when p lies in the material region (outer minus holes)."""
        if not point_in_loop(p, self.outer):
            return False
        return not any(point_in_loop(p, h) for h in self.holes)


class FacetTable:
    """Facets over one coordinate pool, as flat arrays.

    `loop_ids` holds the vertex ids of every loop, facet by facet, outer
    loops counterclockwise and holes clockwise: loop i is
    loop_ids[loop_starts[i]:loop_starts[i + 1]], and facet e owns loops
    facet_loops[e] to facet_loops[e + 1] - 1, its outer loop first, so its
    boundary walk is loop_ids[slot_starts[e]:slot_starts[e + 1]].  The
    measures are those the lone `Loop` and `Facet` constructors compute;
    the table trusts them, as whoever built it ran the checks.
    """

    def __init__(self, coords, loop_ids, loop_starts, facet_loops, loop_areas,
                 areas, centroids, diameters):
        self.coords = coords
        self.loop_ids = loop_ids
        self.loop_starts = loop_starts
        self.facet_loops = facet_loops
        self.slot_starts = loop_starts[facet_loops]
        self.loop_areas = loop_areas
        self.areas = areas
        self.centroids = centroids
        self.diameters = diameters

    @classmethod
    def from_facets(cls, facets):
        """The table of lone facets; facets over distinct pools get their
        pools stacked, with their ids shifted to match."""
        pools, offsets = [], {}
        for f in facets:
            if id(f.coords) not in offsets:
                offsets[id(f.coords)] = sum(len(p) for p in pools)
                pools.append(f.coords)
        loops = [(l, offsets[id(f.coords)], len(f.coords)) for f in facets for l in f.loops()]
        ids = [np.where(l.ids < 0, l.ids + n, l.ids) + off for l, off, n in loops]
        return cls(
            np.concatenate(pools),
            np.concatenate(ids),
            np.cumsum([0] + [len(i) for i in ids]),
            np.cumsum([0] + [1 + len(f.holes) for f in facets]),
            np.array([l.signed_area for l, _, _ in loops]),
            np.array([f.area for f in facets]),
            np.array([f.centroid for f in facets]),
            np.array([f.diameter for f in facets]),
        )

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
        """Facet e as a lone object, its loops viewing `loop_ids`."""
        loops = [
            Loop._checked(self.loop_ids[self.loop_starts[i]:self.loop_starts[i + 1]],
                          self.coords, float(self.loop_areas[i]))
            for i in range(self.facet_loops[e], self.facet_loops[e + 1])
        ]
        return Facet._checked(self.coords, loops, float(self.areas[e]),
                              self.centroids[e].copy(), float(self.diameters[e]))


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
    poly = [int(i) for i in facet.outer.ids]
    eps = 1e-12 * facet.diameter ** 2
    ptol = 1e-12 * facet.diameter

    def hole_key(hl):
        pts = hl.points()
        j = int(np.lexsort((hl.ids, pts[:, 1], pts[:, 0]))[0])
        return (pts[j, 0], pts[j, 1], int(hl.ids[j]))

    remaining = sorted(facet.holes, key=hole_key)
    while remaining:
        hole = remaining.pop(0)
        hids = [int(i) for i in hole.ids]
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
            if _diagonal_clear(a, b, poly, [hids] + [list(map(int, h.ids)) for h in remaining],
                               coords, eps, ptol):
                mid = 0.5 * (a + b)
                if not point_in_loop(mid, facet.outer):
                    continue
                if any(point_in_loop(mid, h) for h in facet.holes):
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
        walk = [int(i) for i in facet.outer.ids]
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
        self._measures = None

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

    def _face_rule(self, face, degree):
        from .quadrature import planar_face_rule

        outer, holes = face
        return planar_face_rule(self.coords, outer, holes, degree)

    def _compute_measures(self):
        vol = 0.0
        mom = np.zeros(3)
        for face in self.faces:
            _, _, _, nrm = face_frame(self.coords, face[0])
            rule = self._face_rule(face, 2)
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
        self._measures = (vol, mom / vol, diam)

    @property
    def volume(self):
        if self._measures is None:
            self._compute_measures()
        return self._measures[0]

    @property
    def centroid(self):
        if self._measures is None:
            self._compute_measures()
        return self._measures[1]

    @property
    def diameter(self):
        if self._measures is None:
            self._compute_measures()
        return self._measures[2]
