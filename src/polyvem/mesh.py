"""Polygonal meshes: container, text I/O, generators, cutting, merging.

A mesh is a shared vertex table plus elements given as loops of vertex
indices (an outer loop and optional hole loops).  Conformity is strict at
the segment level: every edge segment appears in exactly one element
(domain boundary) or two with opposite directions.  Hanging nodes are
ordinary collinear vertices listed by both incident elements, so the
invariant survives cutting and merging unchanged; a T-junction whose
vertex is missing from the long side is rejected.

The elements are stored as arrays, a `FacetTable`: loop vertex ids, with
the areas, centroids and diameters of the elements.  The loops are
oriented, checked and measured a loop-length class at a time, with the
bits, warnings and errors of an element-by-element build; the edge table
and the dof numbering are computed from the same boundary walks.  The
poly2d reader, the writer and the cut work on the same flat loop arrays:
the reader checks the lines in bulk and hands its ids, loop sizes and
loops per element to the build, the writer formats them in one pass, and
a cut splits only the loops the line crosses and copies the rest as
slices.  `PolyMesh.elements`, one list pair per element, is made only on
request.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .errors import (
    DegenerateCut,
    InvariantViolation,
    NoCommonBoundary,
    OverlapDetected,
    ParseError,
)
from .geometry import (
    Facet,
    FacetTable,
    Loop,
    OrientationWarning,
    loop_defects,
    loop_measures,
    point_in_loop,
    signed_area,
    vertex_diameters,
)
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


# elements as flat arrays: the vertex ids of every loop, the loop sizes
# and the loops of each element
_Loops = namedtuple("_Loops", "ids sizes counts")


def _flat_loops(elements):
    """Vertex ids of every loop, flat, with the loop sizes and the loops per
    element, and the error that normalising the next entry raised, if one
    did: the entries before it are still checked first."""
    if isinstance(elements, _Loops):
        return (*elements, None)
    if isinstance(elements, np.ndarray) and elements.ndim == 2 and elements.dtype.kind in "iu":
        m, size = elements.shape
        return elements.astype(np.intp).ravel(), np.full(m, size), np.ones(m, np.intp), None
    ids, sizes, counts, error = [], [], [], None
    try:
        for entry in elements:
            outer, holes = _normalize_element(entry)
            for loop in [outer] + holes:
                ids.extend(loop)
                sizes.append(len(loop))
            counts.append(1 + len(holes))
    except Exception as err:
        error = err
    as_ids = lambda a: np.array(a, dtype=np.intp)
    return as_ids(ids), as_ids(sizes), as_ids(counts), error


def _warn_flip(eid, hole):
    if hole:
        warnings.warn(
            "element %d: hole loop was counter-clockwise, reversing" % eid,
            OrientationWarning,
        )
    else:
        warnings.warn(
            "element %d: outer loop was clockwise, reversing" % eid, OrientationWarning
        )


class PolyMesh:
    """Conforming polygonal mesh over one vertex table.

    The elements are `shapes`, a FacetTable over `vertices`, built and
    checked a loop-length class at a time; `elements` and `facets` are
    made from it on request.  The edge table is `edge_ends`, the sorted
    (lo, hi) vertex pairs, with `slot_edges`, the edge of every slot of the
    boundary walks.
    """

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
        ids, sizes, counts, error = _flat_loops(elements)
        self.shapes = self._checked_shapes(ids, sizes, counts)
        if error is not None:
            raise error
        self._build_edges()
        self.area = float(sum(self.shapes.areas.tolist()))  # element by element
        # order k -> (dof map, elements, groups), filled by polyvem.system
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

    def _checked_shapes(self, ids, sizes, counts):
        """Orient, check and measure the loops, a loop-length class at a
        time, as an element-by-element pass would: every element up to the
        first bad one warns of its reversed loops, then that one is built
        alone, so it warns and raises as it would on its own."""
        v, nv = self.vertices, len(self.vertices)
        loop_starts = np.concatenate(([0], np.cumsum(sizes)))
        facet_loops = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(len(counts)), counts)
        hole = np.ones(len(sizes), dtype=bool)
        hole[facet_loops[:-1]] = False
        oriented = ids.copy()
        flip, bad = np.zeros(len(sizes), dtype=bool), np.zeros(len(sizes), dtype=bool)
        a, sx, sy = np.zeros(len(sizes)), np.zeros(len(sizes)), np.zeros(len(sizes))
        for size in np.unique(sizes):
            rows = np.flatnonzero(sizes == size)
            if size < 3:
                bad[rows] = True
                continue
            slots = loop_starts[rows, None] + np.arange(size)
            lids = ids[slots]
            outside = ((lids < 0) | (lids >= nv)).any(axis=1)
            lids[outside] = 0
            pts = v[lids]
            la, lx, ly = loop_measures(pts)
            fl = np.where(hole[rows], la > 0, la < 0)
            lids[fl], pts[fl] = lids[fl, ::-1], pts[fl, ::-1]
            la[fl], lx[fl], ly[fl] = loop_measures(pts[fl])
            # a loop the lone Facet would reverse once more is built alone
            wrong = np.where(hole[rows], la > 0, ~(la > 0))
            bad[rows] = outside | wrong | loop_defects(lids, pts, la)
            flip[rows], oriented[slots] = fl, lids
            a[rows], sx[rows], sy[rows] = la, lx, ly

        first = facet_loops[:-1]
        area, mx, my = a[first], sx[first], sy[first]
        for j in range(1, counts.max(initial=1)):  # holes add up in order
            e = np.flatnonzero(counts > j)
            area[e] += a[first[e] + j]
            mx[e] += sx[first[e] + j]
            my[e] += sy[first[e] + j]
        special = set(owner[bad].tolist()) | set(np.flatnonzero(area <= 0.0).tolist())
        for h in np.flatnonzero(hole & ~bad & ~bad[first[owner]]).tolist():
            outer = oriented[loop_starts[first[owner[h]]]:loop_starts[first[owner[h]] + 1]]
            if not point_in_loop(v[oriented[loop_starts[h]]], Loop._checked(outer, v, 0.0)):
                special.add(int(owner[h]))

        slot_starts = loop_starts[facet_loops]
        nvert = np.diff(slot_starts)
        diameters = np.zeros(len(counts))
        for size in np.unique(nvert[nvert > 0]):  # no loop, no diameter
            rows = np.flatnonzero(nvert == size)
            walks = oriented[slot_starts[rows, None] + np.arange(size)]
            diameters[rows] = vertex_diameters(v[np.where((walks >= 0) & (walks < nv), walks, 0)])
        with np.errstate(divide="ignore", invalid="ignore"):  # bad elements raise below
            centroids = np.column_stack((mx / area, my / area))

        flips = np.flatnonzero(flip & ~np.isin(owner, list(special)))
        done = 0
        for e in sorted(special):
            stop = int(np.searchsorted(owner[flips], e))
            for i in flips[done:stop].tolist():
                _warn_flip(owner[i], hole[i])
            done = stop
            loops = [ids[loop_starts[i]:loop_starts[i + 1]].tolist()
                     for i in range(facet_loops[e], facet_loops[e + 1])]
            f = self._lone_element(e, loops)
            area[e], centroids[e], diameters[e] = f.area, f.centroid, f.diameter
        for i in flips[done:].tolist():
            _warn_flip(owner[i], hole[i])
        return FacetTable(v, oriented, loop_starts, facet_loops, a, area, centroids, diameters)

    def _lone_element(self, eid, loops):
        """Element eid built on its own, as an element-by-element pass
        builds it: its vertex ids checked, warnings, then the Facet, whose
        errors name the element."""
        nv = len(self.vertices)
        for loop in loops:
            if not loop:
                raise InvariantViolation("element %d: empty loop" % eid)
            outside = [i for i in loop if not 0 <= i < nv]
            if outside:
                raise InvariantViolation(
                    "element %d: vertex id %d out of range [0, %d)" % (eid, outside[0], nv)
                )
        for i, loop in enumerate(loops):
            s = signed_area(self.vertices[loop])
            if (s > 0) if i else (s < 0):
                _warn_flip(eid, i > 0)
                loops[i] = loop[::-1]
        try:
            return Facet(self.vertices, loops[0], loops[1:])
        except Exception as err:
            raise InvariantViolation("element %d: %s" % (eid, err))

    def _build_edges(self):
        """The edge table from the boundary walks, then its checks: a
        segment used by more than two elements or twice in one direction,
        then a vertex strictly inside a segment (a T-junction whose
        hanging vertex was not inserted on the long side)."""
        table = self.shapes
        u = table.loop_ids
        nxt = np.arange(1, len(u) + 1)
        nxt[table.loop_starts[1:] - 1] = table.loop_starts[:-1]
        w = u[nxt]
        lo, hi = np.minimum(u, w), np.maximum(u, w)
        base = lo.min(initial=0)
        code = (lo - base) * (hi.max(initial=0) - base + 1) + (hi - base)
        _, first, self.slot_edges, count = np.unique(
            code, return_index=True, return_inverse=True, return_counts=True
        )
        self.slot_forward = u < w
        self.edge_ends = np.column_stack((lo[first], hi[first]))
        self.boundary_edge_ids = np.flatnonzero(count == 1)
        owner = table.slot_facets()

        balance = np.bincount(self.slot_edges, np.where(self.slot_forward, 1.0, -1.0),
                              len(first))
        bad = np.flatnonzero((count > 2) | ((count == 2) & (balance != 0)))
        if bad.size:
            i = bad[0]
            key = tuple(self.edge_ends[i].tolist())
            eids = owner[self.slot_edges == i].tolist()
            if count[i] > 2:
                raise InvariantViolation(
                    "segment %s used by elements %s" % (key, sorted(eids))
                )
            raise InvariantViolation(
                "segment %s traversed twice in the same direction "
                "(elements %d and %d)" % (key, eids[0], eids[1])
            )
        # segments are visited in edge-table order and the lowest vertex
        # id is reported
        tol = DUPLICATE_TOL * (self.diameter or 1.0)
        v = self.vertices
        keys = self.edge_ends
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
                i = bad[np.lexsort((j[bad], s[bad]))[0]]
                raise InvariantViolation(
                    "vertex %d lies inside segment %s of element %d"
                    % (j[i], tuple(keys[s[i]].tolist()), owner[first[s[i]]])
                )

    # -- queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.shapes)

    @property
    def num_edges(self):
        return len(self.edge_ends)

    @property
    def elements(self):
        """(outer, holes) vertex id lists of every element, oriented, made
        afresh on each access."""
        t = self.shapes
        loops = np.split(t.loop_ids, t.loop_starts[1:-1])
        loops = [l.tolist() for l in loops]
        return [(loops[a], loops[a + 1:b])
                for a, b in zip(t.facet_loops[:-1].tolist(), t.facet_loops[1:].tolist())]

    @cached_property
    def facets(self):
        """Every element as a lone Facet, made on first access."""
        return [self.shapes.facet(e) for e in range(self.num_elements)]

    @cached_property
    def edge_keys(self):
        return list(map(tuple, self.edge_ends.tolist()))

    @cached_property
    def edge_elements(self):
        """(element, +1 or -1 for the walk direction lo -> hi or back) of
        every use of each edge, in element and walk order."""
        order = np.argsort(self.slot_edges, kind="stable")
        owner = self.shapes.slot_facets()
        uses = list(zip(owner[order].tolist(), np.where(self.slot_forward, 1, -1)[order].tolist()))
        bounds = np.cumsum(np.bincount(self.slot_edges, minlength=self.num_edges)).tolist()
        return [uses[a:b] for a, b in zip([0] + bounds[:-1], bounds)]

    def boundary_vertex_ids(self):
        return np.unique(self.edge_ends[self.boundary_edge_ids]).tolist()


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
    """Write a mesh in the poly2d text format (round-trips exactly).

    The text is formatted from the loop arrays in one pass: a line per
    element with its loop count, then a line per loop with its size and
    vertex ids, each line of a loop size sharing one format."""
    t = mesh.shapes
    sizes = np.diff(t.loop_starts)
    counts = np.diff(t.facet_loops)
    nel, nloops = len(counts), len(sizes)
    # the lines and numbers in file order: an element's loop count, then a
    # line per loop, its size and ids
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


def _convert(kind, tokens):
    """The tokens converted by kind up to the first one it rejects, and
    that one's index, or None when it takes them all."""
    try:
        return list(map(kind, tokens)), None
    except ValueError:
        values = []
        for token in tokens:
            try:
                values.append(kind(token))
            except ValueError:
                return values, len(values)


def read_mesh(path):
    """Read a poly2d file; parse errors carry the offending line number.

    The file is read once.  The loop count lines alone fix which line is
    what, so they are walked first; then the vertex lines and the loop
    lines are split and converted in bulk with Python's own float and int,
    and checked vectorized.  The error raised is that of the first bad
    line, with the checks of one line in the order of a line-by-line
    reader (token count, tokens, announced count, id range), and the end
    of the file last.
    """
    with open(path) as fh:
        text = fh.read()
    raw = text.split("\n")
    if "#" in text:
        raw = [line.split("#", 1)[0] for line in raw]
    stripped = list(map(str.strip, raw))
    lines = list(filter(None, stripped))  # blank lines and comments go
    end = len(lines)

    def fail(message, pos):
        # the content line at pos, or the last one for the end of the file
        numbered = [n for n, line in enumerate(stripped, start=1) if line]
        return ParseError(message, numbered[min(pos, end - 1)] if end else 0)

    def eof(what):
        return fail("unexpected end of file, expected %s" % what, end)

    def count(pos, what):
        if pos >= end:
            raise eof(what)
        try:
            return int(lines[pos])
        except ValueError:
            raise fail("expected %s, got %r" % (what, lines[pos]), pos)

    if not end:
        raise eof("header")
    if lines[0].split() != ["poly2d", "1"]:
        raise fail("not a poly2d version 1 file", 0)
    nv = count(1, "vertex count")
    verts = np.empty((nv, 2))
    parts = list(map(str.split, lines[2:2 + nv]))
    ntok = np.fromiter(map(len, parts), np.intp, len(parts))
    short = np.flatnonzero(ntok != 2)
    two = int(short[0]) if short.size else len(parts)  # lines before have two tokens
    coords, bad = _convert(float, list(chain.from_iterable(parts[:two])))
    if bad is not None:
        raise fail("bad coordinate %r" % lines[2 + bad // 2], 2 + bad // 2)
    if two < len(parts):
        raise fail("expected two coordinates", 2 + two)
    if 2 + nv > end:
        raise eof("vertex %d" % (end - 2))
    verts[:] = np.reshape(coords, (nv, 2))

    # the loop count lines, element by element, up to the first bad one
    first = 3 + nv
    ne = count(first - 1, "element count")
    heads, nloops, stop = [], [], None
    pos = first
    for e in range(ne):
        if pos >= end:
            stop = "unexpected end of file, expected loop count of element %d" % e
            break
        try:
            k = int(lines[pos])
        except ValueError:
            stop = "expected loop count of element %d, got %r" % (e, lines[pos])
            break
        if k < 1:
            stop = "element %d has no loops" % e
            break
        heads.append(pos)
        nloops.append(k)
        pos += 1 + k
        if pos > end:
            stop = "unexpected end of file, expected loop %d of element %d" % (
                end - heads[-1] - 1, e)
            break
    limit = min(pos, end)

    # the loop lines before it, in bulk
    is_loop = np.ones(limit - first, dtype=bool)
    is_loop[np.array(heads, dtype=np.intp) - first] = False
    at = np.flatnonzero(is_loop) + first
    texts = list(compress(lines[first:limit], is_loop.tolist()))
    parts = list(map(str.split, texts))
    ntok = np.fromiter(map(len, parts), np.intp, len(parts))
    starts = np.cumsum(ntok) - ntok
    values, bad = _convert(int, list(chain.from_iterable(parts)))
    # lines before `parsed` hold ints only
    parsed = len(parts)
    if bad is not None:
        parsed = int(np.searchsorted(starts, bad, "right")) - 1
        values = values[:starts[parsed]]
    try:
        numbers = np.array(values, dtype=np.intp)
    except OverflowError:  # beyond any id range, and any token count
        big = max(nv, len(values)) + 1
        numbers = np.array([min(max(v, -1), big) for v in values], dtype=np.intp)
    token_line = np.repeat(np.arange(parsed), ntok[:parsed])
    is_id = np.ones(len(numbers), dtype=bool)
    is_id[starts[:parsed]] = False
    wrong = numbers[starts[:parsed]] != ntok[:parsed] - 1
    outside = np.zeros(parsed, dtype=bool)
    outside[token_line[is_id & ((numbers < 0) | (numbers >= nv))]] = True
    flagged = np.flatnonzero(wrong | outside)
    j = int(flagged[0]) if flagged.size else parsed
    if j < len(parts):
        if j == parsed:
            raise fail("bad loop line %r" % texts[j], at[j])
        if wrong[j]:
            raise fail("loop announces %d ids but has %d"
                       % (values[starts[j]], ntok[j] - 1), at[j])
        raise fail("vertex id out of range", at[j])
    if stop is not None:
        raise fail(stop, pos)
    if pos != end:
        raise fail("trailing content", pos)
    return PolyMesh(verts, _Loops(numbers[is_id], ntok - 1, np.array(nloops, dtype=np.intp)))


# -- generators ----------------------------------------------------------


def gen_structured(kind, n):
    """Structured unit-square meshes: quads, triangles, distortedQuads."""
    if n < 1:
        raise ValueError("divisions must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    if kind == "distortedQuads":
        # smooth fixed perturbation; the sine factors vanish on the
        # boundary so only interior vertices move
        h = 1.0 / n
        bump = 0.1 * h * np.sin(2 * np.pi * verts[:, 0]) * np.sin(2 * np.pi * verts[:, 1])
        verts = verts + bump[:, None]

    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()  # row by row
    v10, v11, v01 = v00 + 1, v00 + n + 2, v00 + n + 1
    if kind == "triangles":
        elements = np.column_stack((v00, v10, v11, v00, v11, v01)).reshape(-1, 3)
    elif kind in ("quads", "distortedQuads"):
        elements = np.column_stack((v00, v10, v11, v01))
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

    registry = {}  # segment -> id of its crossing vertex

    def crossing(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in registry:
            registry[key] = mesh.num_vertices + len(registry)
        return registry[key]

    # an element meets the line when its outer loop has vertices on both
    # sides; only those are split, in element order, and the runs of
    # elements between them are copied as slices of the loop arrays
    table = mesh.shapes
    ls, fl = table.loop_starts, table.facet_loops
    touched = np.zeros(len(table), dtype=bool)
    if len(ls) > 1:
        sides = side[table.loop_ids]
        touched = (np.minimum.reduceat(sides, ls[:-1])[fl[:-1]] < 0) & (
            np.maximum.reduceat(sides, ls[:-1])[fl[:-1]] > 0
        )
    sizes, counts = np.diff(ls), np.diff(fl)
    side = side.tolist()  # _split_loop reads it a vertex at a time
    ids, loop_sizes, loop_counts = [], [], []
    done = 0  # elements copied or split so far
    for eid in np.flatnonzero(touched).tolist():
        if counts[eid] > 1:
            raise DegenerateCut("element %d has holes and meets the cut line" % eid)
        i = fl[eid]
        pieces = _split_loop(table.loop_ids[ls[i]:ls[i + 1]].tolist(), side, crossing)
        ids += [table.loop_ids[ls[fl[done]]:ls[i]], *pieces]
        loop_sizes += [sizes[fl[done]:i], list(map(len, pieces))]
        loop_counts += [counts[done:eid], [1, 1]]
        done = eid + 1
    if not done:
        return mesh
    ids.append(table.loop_ids[ls[fl[done]]:])
    loop_sizes.append(sizes[fl[done]:])
    loop_counts.append(counts[done:])
    lo, hi = np.array(list(registry), dtype=np.intp).reshape(-1, 2).T  # in id order
    t = d[lo] / (d[lo] - d[hi])
    a, b = mesh.vertices[lo], mesh.vertices[hi]
    flat = lambda parts: np.concatenate(parts).astype(np.intp)
    out = PolyMesh(np.concatenate((mesh.vertices, a + t[:, None] * (b - a))),
                   _Loops(flat(ids), flat(loop_sizes), flat(loop_counts)))
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
    table = mesh.shapes
    if not len(table):
        return
    outer = table.facet_loops[:-1]
    ids = np.concatenate([table.loop_ids[table.loop_starts[i]:table.loop_starts[i + 1]]
                          for i in outer.tolist()])
    starts = np.cumsum(np.diff(table.loop_starts)[outer]) - np.diff(table.loop_starts)[outer]
    pts = mesh.vertices[ids]
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
        facets = {}
        for fid, vid in _facet_box_pairs(mesh, other):
            if fid not in facets:
                facets[fid] = mesh.shapes.facet(fid)
            if strictly_inside(facets[fid], other.vertices[vid]):
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
    owner = merged.shapes.slot_facets()
    first = np.full(merged.num_edges, merged.num_elements)
    last = np.full(merged.num_edges, -1)
    np.minimum.at(first, merged.slot_edges, owner)
    np.maximum.at(last, merged.slot_edges, owner)
    shared = np.count_nonzero((first < na) & (na <= last))
    if shared == 0:
        raise NoCommonBoundary("the meshes touch only at isolated vertices")
    expected = a.area + b.area
    if abs(merged.area - expected) > 1e-12 * expected:
        raise InvariantViolation("merge changed the total area")
    return merged


# -- global dof numbering ------------------------------------------------


class GlobalDofMap:
    """Numbering shared by all elements: vertices, then canonical-edge
    interior nodes, then per-element moments.

    Element e's dofs are map_ids[map_starts[e]:map_starts[e + 1]]: its
    vertices in walk order, the k-1 nodes of each walk edge in walk
    direction, then its moments.
    """

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
        plo, phi = (mesh.vertices[mesh.edge_ends[:, i], None] for i in (0, 1))
        nodes = plo + t_full[1:k, None] * (phi - plo)
        points[nv : self.moment_offset] = nodes.reshape(-1, 2)
        self.dof_points = points

        table = mesh.shapes
        nvert = np.diff(table.slot_starts)
        self.map_starts = np.concatenate(([0], np.cumsum(nvert * k + nm)))
        owner = table.slot_facets()
        local = np.arange(len(owner)) - table.slot_starts[owner]  # walk position
        ids = np.empty(self.map_starts[-1], dtype=np.intp)
        ids[self.map_starts[owner] + local] = table.loop_ids
        j = np.arange(npe)
        at = self.map_starts[owner] + nvert[owner] + npe * local
        ids[at[:, None] + j] = (
            nv + npe * mesh.slot_edges[:, None]
            + np.where(mesh.slot_forward[:, None], j, npe - 1 - j)
        )
        ids[(self.map_starts[1:] - nm)[:, None] + np.arange(nm)] = (
            self.moment_offset + nm * np.arange(nel)[:, None] + np.arange(nm)
        )
        self.map_ids = ids

        edges = mesh.boundary_edge_ids
        self.boundary_dof_ids = np.unique(np.concatenate((
            mesh.edge_ends[edges].ravel(), (nv + npe * edges[:, None] + j).ravel()
        ))).astype(np.intp)

    @cached_property
    def element_maps(self):
        """Each element's dofs, as views of map_ids."""
        return np.split(self.map_ids, self.map_starts[1:-1])

    def maps(self, ids):
        """The dofs of elements with equally many, one row each."""
        size = self.map_starts[ids[0] + 1] - self.map_starts[ids[0]]
        return self.map_ids[self.map_starts[ids, None] + np.arange(size)]


def build_global_dofs(mesh, k):
    if k < 1:
        raise ValueError("order must be >= 1")
    return GlobalDofMap(mesh, k)
