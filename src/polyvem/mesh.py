"""Polygonal meshes: container, text I/O, generators, cutting, merging.

A mesh is a shared vertex table plus elements given as loops of vertex
indices (an outer loop and optional hole loops).  Conformity is strict at
the segment level: every edge segment appears in exactly one element
(domain boundary) or two with opposite directions.  Hanging nodes are
ordinary collinear vertices listed by both incident elements, so the
invariant survives cutting and merging unchanged; a T-junction whose
vertex is missing from the long side is rejected.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCut,
    InvariantViolation,
    NoCommonBoundary,
    OverlapDetected,
    ParseError,
)
from .geometry import Facet, OrientationWarning, signed_area
from .monomials import basis_size
from .quadrature import gauss_lobatto_1d

DUPLICATE_TOL = 1e-12
SNAP_TOL = 1e-9
MERGE_TOL = 1e-9


def _normalize_element(entry):
    # accept a flat id list or an (outer, holes) pair
    if (
        len(entry) == 2
        and hasattr(entry[0], "__len__")
        and len(entry[0]) > 0
        and hasattr(entry[1], "__len__")
        and (len(entry[1]) == 0 or hasattr(entry[1][0], "__len__"))
    ):
        outer, holes = entry
        return list(map(int, outer)), [list(map(int, h)) for h in holes]
    return list(map(int, entry)), []


def _ranges(counts):
    """Owner index and offset within the owner for counts[i] slots each."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


class _VertexGrid:
    """Uniform grid hash over a point table.

    Cells are about the mean point spacing, so on a spread-out mesh each
    holds a few points.  ``candidates`` pairs query boxes with the points
    in the cells the boxes meet, a run of boxes at a time, so the work
    grows with the number of near pairs, not with boxes times points, and
    the temporaries stay bounded even where points crowd into few cells.
    """

    CHUNK = 16384  # pairs (and box-cell slots) per yielded run of boxes

    def __init__(self, points):
        self.lo = points.min(axis=0)
        self.hi = points.max(axis=0)
        extent = self.hi - self.lo
        n = len(points)
        # the second term keeps cells small when the points lie on a line;
        # coincident points get a single cell of any size
        self.cell = max(
            float(np.sqrt(extent[0] * extent[1] / n)), float(extent.max()) / n
        ) or 1.0
        self.shape = np.floor(extent / self.cell).astype(np.intp) + 1
        key = self._key(self._cells(points))
        self.order = np.argsort(key, kind="stable")
        counts = np.bincount(key, minlength=self.shape[0] * self.shape[1])
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        # points in cells [0, i) x [0, j): the pair count of any cell range
        self.table = np.zeros(self.shape + 1, dtype=np.intp)
        self.table[1:, 1:] = counts.reshape(self.shape).cumsum(0).cumsum(1)

    def _cells(self, pts):
        ij = np.floor((pts - self.lo) / self.cell).astype(np.intp)
        return np.clip(ij, 0, self.shape - 1)

    def _key(self, ij):
        return ij[:, 0] * self.shape[1] + ij[:, 1]

    def candidates(self, box_lo, box_hi):
        """Yield (box ids, point ids) pairs, boxes in order, run by run.

        Every point inside a closed box is paired with it; so are some
        points near it, which the caller's exact test rejects.
        """
        c0, c1 = self._cells(box_lo), self._cells(box_hi)
        span = c1 - c0 + 1
        meets = np.all(box_hi >= self.lo, axis=1) & np.all(box_lo <= self.hi, axis=1)
        ncells = np.where(meets, span[:, 0] * span[:, 1], 0)
        t = self.table
        npairs = np.where(meets, (
            t[c1[:, 0] + 1, c1[:, 1] + 1] - t[c0[:, 0], c1[:, 1] + 1]
            - t[c1[:, 0] + 1, c0[:, 1]] + t[c0[:, 0], c0[:, 1]]
        ), 0)
        done = np.cumsum(ncells + npairs)
        start = 0
        while start < len(ncells):
            before = done[start - 1] if start else 0
            stop = max(int(np.searchsorted(done, before + self.CHUNK, "right")), start + 1)
            box, off = _ranges(ncells[start:stop])
            box += start
            ij = c0[box] + np.column_stack((off // span[box, 1], off % span[box, 1]))
            key = self._key(ij)
            first = self.bounds[key]
            pair, off = _ranges(self.bounds[key + 1] - first)
            yield box[pair], self.order[first[pair] + off]
            start = stop


class PolyMesh:
    """Conforming polygonal mesh over one vertex table."""

    def __init__(self, vertices, elements):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (N, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        self.vertices = vertices
        lo, hi = vertices.min(axis=0), vertices.max(axis=0)
        self.diameter = float(np.hypot(*(hi - lo)))
        self._grid = _VertexGrid(vertices)
        self._check_duplicates()
        self.elements = []
        self.facets = []
        for eid, entry in enumerate(elements):
            outer, holes = _normalize_element(entry)
            outer, holes = self._fix_orientation(eid, outer, holes)
            self.elements.append((outer, holes))
            try:
                self.facets.append(Facet(vertices, outer, holes))
            except Exception as err:
                raise InvariantViolation("element %d: %s" % (eid, err))
        self._build_edge_table()
        self._check_conformity()
        self.area = float(sum(f.area for f in self.facets))
        # order k -> (dof map, elements), filled by polyvem.system
        self.discretisations = {}

    # -- construction helpers -------------------------------------------

    def _check_duplicates(self):
        # report the pair a scan in (x, y) order meets first: the lowest
        # sort rank for the first vertex, then for the second
        v = self.vertices
        if len(v) < 2:
            return
        tol = DUPLICATE_TOL * (self.diameter or 1.0)
        order = np.lexsort((v[:, 1], v[:, 0]))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        sv = v[order]
        for ri, j in self._grid.candidates(sv - 2.0 * tol, sv + 2.0 * tol):
            later = rank[j] > ri
            i, j = order[ri[later]], j[later]
            d = v[j] - v[i]
            hit = np.nonzero(np.hypot(d[:, 0], d[:, 1]) <= tol)[0]
            if hit.size:
                first = hit[np.lexsort((rank[j[hit]], rank[i[hit]]))[0]]
                raise InvariantViolation(
                    "vertices %d and %d coincide" % (i[first], j[first])
                )

    def _fix_orientation(self, eid, outer, holes):
        if signed_area(self.vertices[outer]) < 0:
            warnings.warn(
                "element %d: outer loop was clockwise, reversing" % eid,
                OrientationWarning,
            )
            outer = outer[::-1]
        fixed_holes = []
        for h in holes:
            if signed_area(self.vertices[h]) > 0:
                warnings.warn(
                    "element %d: hole loop was counter-clockwise, reversing" % eid,
                    OrientationWarning,
                )
                h = h[::-1]
            fixed_holes.append(h)
        return outer, fixed_holes

    def _element_segments(self, eid):
        outer, holes = self.elements[eid]
        for loop in [outer] + holes:
            n = len(loop)
            for i in range(n):
                yield loop[i], loop[(i + 1) % n]

    def _build_edge_table(self):
        incidence = {}
        for eid in range(len(self.elements)):
            for u, v in self._element_segments(eid):
                key = (u, v) if u < v else (v, u)
                incidence.setdefault(key, []).append((eid, 1 if u < v else -1))
        self.edge_keys = sorted(incidence)
        self.edge_index = {key: i for i, key in enumerate(self.edge_keys)}
        self.edge_elements = [incidence[key] for key in self.edge_keys]
        self.boundary_edge_ids = [
            i for i, inc in enumerate(self.edge_elements) if len(inc) == 1
        ]

    def _check_conformity(self):
        for key, inc in zip(self.edge_keys, self.edge_elements):
            if len(inc) > 2:
                raise InvariantViolation(
                    "segment %s used by elements %s"
                    % (key, sorted(e for e, _ in inc))
                )
            if len(inc) == 2 and inc[0][1] + inc[1][1] != 0:
                raise InvariantViolation(
                    "segment %s traversed twice in the same direction "
                    "(elements %d and %d)" % (key, inc[0][0], inc[1][0])
                )
        # a vertex strictly inside any segment means a T-junction whose
        # hanging vertex was not inserted on the long side; segments are
        # visited in edge-table order and the lowest vertex id is reported
        tol = DUPLICATE_TOL * (self.diameter or 1.0)
        v = self.vertices
        keys = np.array(self.edge_keys, dtype=np.intp).reshape(-1, 2)
        a, b = v[keys[:, 0]], v[keys[:, 1]]
        boxes = np.minimum(a, b) - 2.0 * tol, np.maximum(a, b) + 2.0 * tol
        for s, j in self._grid.candidates(*boxes):
            e = b[s] - a[s]
            L = np.hypot(e[:, 0], e[:, 1])
            rel = v[j] - a[s]
            t = (rel[:, 0] * e[:, 0] + rel[:, 1] * e[:, 1]) / (L * L)
            perp = np.abs(rel[:, 0] * e[:, 1] - rel[:, 1] * e[:, 0]) / L
            inside = (perp <= tol) & (t * L > tol) & ((1.0 - t) * L > tol)
            inside &= (j != keys[s, 0]) & (j != keys[s, 1])
            bad = np.nonzero(inside)[0]
            if bad.size:
                first = bad[np.lexsort((j[bad], s[bad]))[0]]
                key = self.edge_keys[s[first]]
                raise InvariantViolation(
                    "vertex %d lies inside segment %s of element %d"
                    % (j[first], key, self.edge_elements[s[first]][0][0])
                )

    # -- queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def num_edges(self):
        return len(self.edge_keys)

    def boundary_vertex_ids(self):
        ids = set()
        for i in self.boundary_edge_ids:
            ids.update(self.edge_keys[i])
        return sorted(ids)


@dataclass
class CutLine:
    """Straight line a*x + b*y = c, stored normalized (a^2 + b^2 = 1)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = float(np.hypot(self.a, self.b))
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("line normal must be nonzero and finite")
        self.a, self.b, self.c = self.a / n, self.b / n, self.c / n

    def signed_distance(self, points):
        points = np.asarray(points, dtype=float)
        return points @ np.array([self.a, self.b]) - self.c


# -- text format ---------------------------------------------------------


def write_mesh(mesh, path):
    """Write a mesh in the poly2d text format (round-trips exactly)."""
    with open(path, "w") as fh:
        fh.write("poly2d 1\n")
        fh.write("%d\n" % mesh.num_vertices)
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g\n" % (x, y))
        fh.write("%d\n" % mesh.num_elements)
        for outer, holes in mesh.elements:
            fh.write("%d\n" % (1 + len(holes)))
            for loop in [outer] + holes:
                fh.write(" ".join([str(len(loop))] + [str(i) for i in loop]) + "\n")


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


def read_mesh(path):
    """Read a poly2d file; parse errors carry the offending line number."""
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


# -- generators ----------------------------------------------------------


def gen_structured(kind, n):
    """Structured unit-square meshes: quads, triangles, distortedQuads."""
    if n < 1:
        raise ValueError("divisions must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    if kind == "distortedQuads":
        # smooth fixed perturbation; the sine factors vanish on the
        # boundary so only interior vertices move
        h = 1.0 / n
        bump = 0.1 * h * np.sin(2 * np.pi * verts[:, 0]) * np.sin(2 * np.pi * verts[:, 1])
        verts = verts + bump[:, None]

    elements = []
    for iy in range(n):
        for ix in range(n):
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v11, v01 = vid(ix + 1, iy + 1), vid(ix, iy + 1)
            if kind == "triangles":
                elements.append([v00, v10, v11])
                elements.append([v00, v11, v01])
            elif kind in ("quads", "distortedQuads"):
                elements.append([v00, v10, v11, v01])
            else:
                raise ValueError("unknown mesh kind %r" % kind)
    return PolyMesh(verts, elements)


# -- cutting -------------------------------------------------------------


def _split_loop(loop, side, crossing):
    """Split one CCW loop along the line; None means untouched.

    side maps vertex id to -1/0/+1; crossing(u, v) returns the id of the
    intersection vertex on segment (u, v).  Exactly two entry/exit events
    are supported; anything else is reported as a degenerate cut.
    """
    n = len(loop)
    s = [side[v] for v in loop]
    if all(x >= 0 for x in s) or all(x <= 0 for x in s):
        return None
    # classify on-line vertices by the sides of their nonzero neighbours
    vertex_events = set()
    for i in range(n):
        if s[i] != 0 or s[i - 1] == 0:
            continue
        j = i
        run = 1
        while s[(j + 1) % n] == 0:
            j = (j + 1) % n
            run += 1
        before, after = s[i - 1], s[(j + 1) % n]
        if before * after < 0:
            if run > 1:
                raise DegenerateCut(
                    "cut runs along an edge between vertices %d and %d"
                    % (loop[i], loop[j])
                )
            vertex_events.add(i)
    aug = []
    events = []
    for i in range(n):
        aug.append(loop[i])
        if i in vertex_events:
            events.append(len(aug) - 1)
        u, v = loop[i], loop[(i + 1) % n]
        if side[u] * side[v] < 0:
            aug.append(crossing(u, v))
            events.append(len(aug) - 1)
    if len(events) != 2:
        raise DegenerateCut(
            "cut meets the element boundary %d times, need exactly 2"
            % len(events)
        )
    i, j = events
    piece1 = aug[i : j + 1]
    piece2 = aug[j:] + aug[: i + 1]
    if len(piece1) < 3 or len(piece2) < 3:
        raise DegenerateCut("cut produces a zero-area sliver")
    return piece1, piece2


def cut_mesh(mesh, line, snap_tol=None):
    """Split every element crossed by the line into two polygons.

    Vertices closer to the line than the snap tolerance are treated as
    lying on it (with a warning), so the cut passes through them instead
    of creating slivers.  Crossing vertices on shared segments are created
    once, which keeps the result conforming.  Total area is preserved.
    """
    if not isinstance(line, CutLine):
        line = CutLine(*line)
    if snap_tol is None:
        snap_tol = SNAP_TOL * mesh.diameter
    d = line.signed_distance(mesh.vertices)
    snapped = np.abs(d) < snap_tol
    if np.any(snapped):
        warnings.warn(
            "cut line snaps to %d existing vertices" % int(np.sum(snapped))
        )
    d = np.where(snapped, 0.0, d)
    side = np.sign(d).astype(int)

    new_vertices = [v for v in mesh.vertices]
    registry = {}

    def crossing(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in registry:
            lo, hi = key
            t = d[lo] / (d[lo] - d[hi])
            p = mesh.vertices[lo] + t * (mesh.vertices[hi] - mesh.vertices[lo])
            registry[key] = len(new_vertices)
            new_vertices.append(p)
        return registry[key]

    new_elements = []
    changed = False
    for eid, (outer, holes) in enumerate(mesh.elements):
        outer_sides = side[outer]
        touched = not (np.all(outer_sides >= 0) or np.all(outer_sides <= 0))
        if holes and touched:
            raise DegenerateCut("element %d has holes and meets the cut line" % eid)
        if holes or not touched:
            new_elements.append((list(outer), [list(h) for h in holes]))
            continue
        result = _split_loop(list(outer), side, crossing)
        if result is None:
            new_elements.append((list(outer), []))
            continue
        changed = True
        new_elements.append((result[0], []))
        new_elements.append((result[1], []))
    if not changed:
        return mesh
    out = PolyMesh(np.array(new_vertices), new_elements)
    if abs(out.area - mesh.area) > 1e-12 * mesh.area:
        raise InvariantViolation(
            "cut changed the total area by %g" % abs(out.area - mesh.area)
        )
    return out


# -- merging -------------------------------------------------------------


def _point_segment_distance(p, a, b):
    e = b - a
    L2 = float(e @ e)
    t = float(np.clip((p - a) @ e / L2, 0.0, 1.0))
    return float(np.hypot(*(a + t * e - p)))


def _facet_box_pairs(mesh, other):
    """(facet of mesh, vertex of other) pairs with the vertex inside the
    facet's closed bounding box, the only pairs Facet.contains accepts."""
    if not mesh.facets:
        return
    ids = [f.outer.ids for f in mesh.facets]
    starts = np.cumsum([0] + [len(i) for i in ids[:-1]])
    pts = mesh.vertices[np.concatenate(ids)]
    lo = np.minimum.reduceat(pts, starts)
    hi = np.maximum.reduceat(pts, starts)
    for f, v in other._grid.candidates(lo, hi):
        p = other.vertices[v]
        inside = np.all((lo[f] <= p) & (p <= hi[f]), axis=1)
        yield from zip(f[inside].tolist(), v[inside].tolist())


def _near_segments(keys, candidates, coords, tol):
    """Map each segment key to the candidate ids near it: every candidate
    within tol of the segment, and a few more."""
    near = {key: [] for key in keys}
    if not keys or not candidates:
        return near
    keys = sorted(keys)
    ends = coords[np.array(keys)]
    cand = np.array(candidates)
    grid = _VertexGrid(coords[cand])
    lo, hi = ends.min(axis=1) - 2.0 * tol, ends.max(axis=1) + 2.0 * tol
    for s, c in grid.candidates(lo, hi):
        for si, ci in zip(s.tolist(), cand[c].tolist()):
            near[keys[si]].append(ci)
    return near


def merge_meshes(a, b, tol=None):
    """Glue two meshes along a shared straight boundary, adding hanging
    nodes where one side's boundary vertices subdivide the other's edges.

    Raises NoCommonBoundary when no boundary segment ends up shared and
    OverlapDetected when a vertex of one mesh lies strictly inside the
    other.
    """
    if tol is None:
        tol = MERGE_TOL * max(a.diameter, b.diameter)

    a_boundary = a.boundary_vertex_ids()
    b_boundary = b.boundary_vertex_ids()

    # unify coincident boundary vertices, b ids remapped onto a ids; the
    # target is the lowest a boundary id within tol
    targets = {}
    on_a_boundary = np.zeros(a.num_vertices, dtype=bool)
    on_a_boundary[a_boundary] = True
    pb = b.vertices[b_boundary]
    for q, va in a._grid.candidates(pb - 2.0 * tol, pb + 2.0 * tol):
        q, va = q[on_a_boundary[va]], va[on_a_boundary[va]]
        d = a.vertices[va] - pb[q]
        near = np.hypot(d[:, 0], d[:, 1]) <= tol
        for qi, vi in zip(q[near].tolist(), va[near].tolist()):
            vb = b_boundary[qi]
            targets[vb] = min(vi, targets.get(vb, vi))
    vertices = [v for v in a.vertices]
    remap = {}
    for vb in range(b.num_vertices):
        target = targets.get(vb)
        if target is None:
            remap[vb] = len(vertices)
            vertices.append(b.vertices[vb])
        else:
            remap[vb] = target
    vertices = np.array(vertices)

    # overlap check: any vertex of one mesh strictly interior to an
    # element of the other one; only facets whose closed bounding box
    # holds the vertex can contain it
    def strictly_inside(f, p):
        if not f.contains(p):
            return False
        dist = min(
            _point_segment_distance(p, e.p0, e.p1)
            for e in f.boundary_edges()
        )
        return dist > tol

    for mesh, other, message in (
        (a, b, "vertex of the second mesh is inside the first"),
        (b, a, "vertex of the first mesh is inside the second"),
    ):
        for fid, vid in _facet_box_pairs(mesh, other):
            if strictly_inside(mesh.facets[fid], other.vertices[vid]):
                raise OverlapDetected(message)

    # hanging-node insertion: other-side vertices strictly inside a
    # boundary segment subdivide it
    def subdividers(seg_a, seg_b, candidates, coords):
        pa, pb = coords[seg_a], coords[seg_b]
        e = pb - pa
        L = float(np.hypot(*e))
        found = []
        for cid in candidates:
            p = coords[cid]
            if cid in (seg_a, seg_b):
                continue
            t = float((p - pa) @ e) / (L * L)
            perp = abs(float((p - pa)[0] * e[1] - (p - pa)[1] * e[0])) / L
            if perp <= tol and t * L > tol and (1.0 - t) * L > tol:
                found.append((t, cid))
        return [cid for _, cid in sorted(found)]

    b_boundary_mapped = sorted({remap[v] for v in b_boundary})

    def insert_hanging(loops_elements, boundary_keys, candidates):
        near = _near_segments(boundary_keys, candidates, vertices, tol)
        inserted_any = False
        new_elems = []
        for outer, holes in loops_elements:
            def process(loop):
                nonlocal inserted_any
                out = []
                n = len(loop)
                for i in range(n):
                    u, v = loop[i], loop[(i + 1) % n]
                    out.append(u)
                    key = (u, v) if u < v else (v, u)
                    if key not in boundary_keys:
                        continue
                    subs = subdividers(u, v, near[key], vertices)
                    if subs:
                        inserted_any = True
                        out.extend(subs)
                return out
            new_elems.append((process(outer), [process(h) for h in holes]))
        return new_elems, inserted_any

    a_elements = [(list(o), [list(h) for h in hs]) for o, hs in a.elements]
    b_elements = [
        ([remap[i] for i in o], [[remap[i] for i in h] for h in hs])
        for o, hs in b.elements
    ]
    a_bkeys = {a.edge_keys[i] for i in a.boundary_edge_ids}
    b_bkeys = set()
    for i in b.boundary_edge_ids:
        u, v = b.edge_keys[i]
        u, v = remap[u], remap[v]
        b_bkeys.add((u, v) if u < v else (v, u))

    a_elements, ins_a = insert_hanging(a_elements, a_bkeys, b_boundary_mapped)
    b_elements, ins_b = insert_hanging(b_elements, b_bkeys, a_boundary)

    unified = sum(1 for vb, target in remap.items() if target < a.num_vertices)
    if unified + int(ins_a) + int(ins_b) == 0:
        raise NoCommonBoundary("the meshes share no boundary vertices or edges")

    merged = PolyMesh(vertices, a_elements + b_elements)

    # the glue must produce at least one interior segment joining the two
    # sides, otherwise the meshes only touch at isolated points
    na = len(a_elements)
    shared = 0
    for inc in merged.edge_elements:
        if len(inc) == 2:
            eids = sorted(e for e, _ in inc)
            if eids[0] < na <= eids[1]:
                shared += 1
    if shared == 0:
        raise NoCommonBoundary("the meshes touch only at isolated vertices")
    expected = a.area + b.area
    if abs(merged.area - expected) > 1e-12 * expected:
        raise InvariantViolation("merge changed the total area")
    return merged


# -- global dof numbering ------------------------------------------------


class GlobalDofMap:
    """Numbering shared by all elements: vertices, then canonical-edge
    interior nodes, then per-element moments."""

    def __init__(self, mesh, k):
        # keeps no reference to the mesh, which holds its dof maps: no cycle
        self.k = k
        nv, ne, nel = mesh.num_vertices, mesh.num_edges, mesh.num_elements
        npe = k - 1
        nm = basis_size(k - 2)
        self.num_vertex_dofs = nv
        self.num_edge_dofs = ne * npe
        self.num_moment_dofs = nel * nm
        self.num_dofs = nv + ne * npe + nel * nm
        self.moment_offset = nv + ne * npe

        t_full, _ = gauss_lobatto_1d(k + 1)
        points = np.full((self.num_dofs, 2), np.nan)
        points[:nv] = mesh.vertices
        for ei, (lo, hi) in enumerate(mesh.edge_keys):
            plo, phi = mesh.vertices[lo], mesh.vertices[hi]
            for m in range(1, k):
                points[nv + ei * npe + (m - 1)] = plo + t_full[m] * (phi - plo)
        self.dof_points = points

        self.element_maps = []
        for eid in range(nel):
            gmap = []
            outer, holes = mesh.elements[eid]
            walk = []
            for loop in [outer] + holes:
                n = len(loop)
                walk.extend((loop[i], loop[(i + 1) % n]) for i in range(n))
            for u, _ in walk:
                gmap.append(u)
            for u, v in walk:
                key = (u, v) if u < v else (v, u)
                base = nv + mesh.edge_index[key] * npe
                if u < v:
                    gmap.extend(base + (j - 1) for j in range(1, k))
                else:
                    gmap.extend(base + (k - 1 - j) for j in range(1, k))
            gmap.extend(self.moment_offset + eid * nm + a for a in range(nm))
            self.element_maps.append(np.array(gmap, dtype=np.intp))

        bset = set(mesh.boundary_vertex_ids())
        bdofs = sorted(bset)
        for ei in mesh.boundary_edge_ids:
            base = nv + ei * npe
            bdofs.extend(base + j for j in range(npe))
        self.boundary_dof_ids = np.array(sorted(bdofs), dtype=np.intp)


def build_global_dofs(mesh, k):
    if k < 1:
        raise ValueError("order must be >= 1")
    return GlobalDofMap(mesh, k)
