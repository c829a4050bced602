"""Polygonal meshes: container, text I/O, generators, cutting, merging.

A mesh is a shared vertex table plus elements given as loops of vertex
indices (an outer loop and optional hole loops).  Conformity is strict at
the segment level: every edge segment appears in exactly one element
(domain boundary) or two with opposite directions.  Hanging nodes are
ordinary collinear vertices listed by both incident elements, so the
invariant survives cutting and merging unchanged; a T-junction whose
vertex is missing from the long side is rejected.

The elements are a `FacetTable`, built by its checked constructor with
the bits, warnings and errors of an element-by-element build (the element
explainer `PolyMesh._explain` names the element in them); the edge table
and the dof numbering come from the same boundary walks.  The duplicate
and T-junction checks query a uniform grid over the vertices: its prefix
counts pass over every box whose cells hold only the box's own vertices,
and it pairs each other box with the points of the cells it meets, one
run of points per x-row of cells.  The T-junction scan drops each
segment's own ends before its exact test, and the duplicate scan ranks
the vertices only to name a pair it found.  The reader, the writer, the
cut and the merge work on the same flat loop arrays.  The reader converts
an ASCII file in one bulk pass (np.fromstring for the numbers, the element
heads found from the token counts of the lines), once a numpy pass has put
any comments and blanks in the writer's layout; only a file that pass
rejects is read a line at a time, which names its first bad line.  The
writer formats the integer lines digit column by digit column, a cut
splits only the loops the line crosses and copies the rest as slices,
and a merge tests overlap in vectorized passes over box pairs and splices
its hanging nodes into the boundary walks in one scatter.
`PolyMesh.elements` and `PolyMesh.facets`, per-element objects, are made
only on request; no command walks the facets.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateCut,
    InvariantViolation,
    NoCommonBoundary,
    OverlapDetected,
    ParseError,
)
from .geometry import FacetTable, OrientationWarning, _ranges, explain_facet, signed_area
from .monomials import basis_size
from .quadrature import gauss_lobatto_1d

DUPLICATE_TOL = 1e-12
SNAP_TOL = 1e-9
MERGE_TOL = 1e-9
_LARGEST = np.finfo(float).max


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


class _VertexGrid:
    """Uniform grid hash over a point table, points (2, n): x, then y.

    Cells are about the mean point spacing, so on a spread-out mesh each
    holds a few points.  ``candidates`` pairs query boxes with the points
    in the cells the boxes meet, a run of boxes at a time, so the work
    grows with the number of near pairs, not with boxes times points, and
    the temporaries stay bounded even where points crowd into few cells.
    The points are kept sorted by cell, x-row by x-row, so the cells a box
    meets in one x-row hold one contiguous run of them.
    """

    CHUNK = 16384  # pairs (and box rows) per yielded run of boxes

    def __init__(self, points):
        self.points = points
        self.lo = points.min(axis=1, keepdims=True)
        self.hi = points.max(axis=1, keepdims=True)
        # a range past the float range counts as the largest float, and the
        # points whose offset overflows fall in the last cell
        with np.errstate(over="ignore"):
            extent = np.minimum((self.hi - self.lo)[:, 0], _LARGEST)
            self.diameter = min(float(np.hypot(*extent)), _LARGEST)
        n = points.shape[1]
        # the second term keeps cells small when the points lie on a line;
        # coincident points get a single cell of any size.  The area per
        # point is not formed as extent[0] * extent[1], which overflows
        # for coordinates near 1e155
        self.cell = max(
            float(np.sqrt(extent[0] / n) * np.sqrt(extent[1])), float(extent.max()) / n
        ) or 1.0
        self.shape = np.floor(extent / self.cell).astype(np.intp) + 1
        key = self._key(self._cells(points))
        self.order = np.argsort(key, kind="stable")
        counts = np.bincount(key, minlength=self.shape[0] * self.shape[1])
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        # points in cells [0, i) x [0, j), flat with rows of shape[1] + 1:
        # the pair count of any cell range
        table = np.zeros(self.shape + 1, dtype=np.intp)
        table[1:, 1:] = counts.reshape(self.shape).cumsum(0).cumsum(1)
        self.table = table.ravel()

    def _cells(self, pts):
        """The (x-row, y-column) cells of points pts (2, m), clipped to the
        grid (truncation rounds as floor once clipped at 0)."""
        with np.errstate(over="ignore"):
            x = (pts - self.lo) / self.cell
        np.minimum(np.maximum(x, 0.0, out=x), self.shape[:, None] - 1, out=x)
        return x.astype(np.intp)

    def _key(self, ij):
        return ij[0] * self.shape[1] + ij[1]

    def candidates(self, box_lo, box_hi, own=0):
        """Yield (box ids, point ids) pairs, boxes in order, run by run, for
        boxes with corners box_lo and box_hi, (2, m) each.

        Every point inside a closed box is paired with it; so are some
        points near it, which the caller's exact test rejects.  A box whose
        cells hold no more than `own` points, the points of its own that
        the caller knows lie inside it, yields none, and a run yields only
        when some box of it does.
        """
        c0, c1 = self._cells(box_lo), self._cells(box_hi)
        t, w = self.table, self.shape[1] + 1
        x0, x1, y1 = c0[0] * w, c1[0] * w + w, c1[1] + 1
        npairs = t.take(x1 + y1) - t.take(x0 + y1) - t.take(x1 + c0[1]) + t.take(x0 + c0[1])
        busy = npairs > own
        if not own:  # a box holding points of its own meets the grid
            busy &= ((box_hi >= self.lo) & (box_lo <= self.hi)).all(axis=0)
        busy = np.flatnonzero(busy)
        rows = c1[0].take(busy) - c0[0].take(busy) + 1
        done = np.cumsum(rows + npairs.take(busy))
        start = 0
        while start < len(busy):
            before = done[start - 1] if start else 0
            stop = max(int(np.searchsorted(done, before + self.CHUNK, "right")), start + 1)
            box, row = _ranges(rows[start:stop])
            box = busy.take(box + start)
            # the cells of one x-row of a box: a key range, one run of points
            key = self._key((c0[0, box] + row, c0[1, box]))
            first = self.bounds[key]
            pair, off = _ranges(self.bounds[key + (c1[1, box] - c0[1, box] + 1)] - first)
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
    warnings.warn("element %d: %s" % (eid, "hole loop was counter-clockwise, reversing" if hole
                                       else "outer loop was clockwise, reversing"),
                  OrientationWarning)


class PolyMesh:
    """Conforming polygonal mesh over one vertex table, which must not be
    empty.

    The elements are `shapes`, a FacetTable over `vertices`; `elements` and
    `facets` are made from it on request.  The edge table is `edge_ends`,
    the sorted (lo, hi) vertex pairs, with `slot_edges`, the edge of every
    slot of the boundary walks.
    """

    def __init__(self, vertices, elements):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (N, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        if not len(vertices):
            raise ValueError("vertex table is empty: a mesh needs vertices")
        self.vertices = vertices
        self._grid = _VertexGrid(np.ascontiguousarray(vertices.T))
        self.diameter = self._grid.diameter
        self._check_duplicates()
        ids, sizes, counts, error = _flat_loops(elements)
        self.shapes = FacetTable(vertices, ids, sizes, counts, _warn_flip, self._explain)
        if error is not None:
            raise error
        self._build_edges()
        self.area = float(sum(self.shapes.areas.tolist()))  # element by element
        # order k -> (dof map, element groups), filled by polyvem.system
        self.discretisations = {}

    # -- construction helpers -------------------------------------------

    def _check_duplicates(self):
        v = self._grid.points
        if v.shape[1] < 2:
            return
        tol = DUPLICATE_TOL * (self.diameter or 1.0)
        hits = []
        for i, j in self._grid.candidates(v - 2.0 * tol, v + 2.0 * tol, own=1):
            # the box of either vertex of a close pair holds the other
            later = j > i
            i, j = i[later], j[later]
            d = v.take(j, axis=1) - v.take(i, axis=1)
            near = np.hypot(d[0], d[1]) <= tol
            hits.append((i[near], j[near]))
        if not hits:
            return
        i, j = map(np.concatenate, zip(*hits))
        if i.size:
            # report the pair a scan in (x, y) order meets first: the lowest
            # sort rank for the first vertex, then for the second
            order = np.lexsort((v[1], v[0]))
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            lo, hi = np.minimum(rank[i], rank[j]), np.maximum(rank[i], rank[j])
            first = np.lexsort((hi, lo))[0]
            raise InvariantViolation(
                "vertices %d and %d coincide" % (order[lo[first]], order[hi[first]])
            )

    def _explain(self, eid, loops):
        """The explainer of the element table: element eid checked alone,
        as an element-by-element pass checks it: its vertex ids, warnings,
        then `explain_facet`, whose errors name the element."""
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
            return explain_facet(self.vertices, loops)
        except Exception as err:
            raise InvariantViolation("element %d: %s" % (eid, err))

    def _build_edges(self):
        """The edge table from the boundary walks, then its checks: a
        segment used by more than two elements or twice in one direction,
        then a vertex strictly inside a segment (a T-junction whose
        hanging vertex was not inserted on the long side)."""
        table = self.shapes
        u = table.loop_ids
        w = u[table.next_slots()]
        lo, hi = np.minimum(u, w), np.maximum(u, w)
        # the ids are in range once the table is built, so this code sorts
        # as the (lo, hi) pairs do
        code = lo * self.num_vertices + hi
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
        v = self._grid.points
        ends_lo, ends_hi = lo[first], hi[first]
        a, b = v.take(ends_lo, axis=1), v.take(ends_hi, axis=1)
        boxes = np.minimum(a, b) - 2.0 * tol, np.maximum(a, b) + 2.0 * tol
        for s, j in self._grid.candidates(*boxes, own=2):
            # a segment's own ends are candidates of its box, never inside it
            own = (j == ends_lo[s]) | (j == ends_hi[s])
            s, j = s[~own], j[~own]
            if not s.size:
                continue
            e = b[:, s] - a[:, s]
            L = np.hypot(e[0], e[1])
            rel = v.take(j, axis=1) - a[:, s]
            t = (rel[0] * e[0] + rel[1] * e[1]) / (L * L)
            perp = np.abs(rel[0] * e[1] - rel[1] * e[0]) / L
            inside = np.flatnonzero((perp <= tol) & (t * L > tol) & ((1.0 - t) * L > tol))
            if inside.size:
                i = inside[np.lexsort((j[inside], s[inside]))[0]]
                raise InvariantViolation(
                    "vertex %d lies inside segment %s of element %d"
                    % (j[i], tuple(self.edge_ends[s[i]].tolist()), owner[first[s[i]]])
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
        return np.unique(self.edge_ends[self.boundary_edge_ids])


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
        if not np.isfinite(self.c / n):
            raise ValueError("line offset must be finite, got %r" % self.c)
        self.a, self.b, self.c = self.a / n, self.b / n, self.c / n


# -- text format ---------------------------------------------------------


def _decimal_text(numbers, ends):
    """Numbers >= 0 in decimal, each followed by its byte of `ends`, as one
    string: the digits of every number are computed column by column, a
    leading zero becomes a 0 byte, and the 0 bytes are dropped."""
    top = int(numbers.max(initial=0))
    width = len(str(top))
    chars = np.zeros((len(numbers), width + 1), dtype=np.uint8)
    chars[:, width] = ends
    q = numbers.astype(np.min_scalar_type(top))
    for p in range(width - 1, -1, -1):
        rest = q // 10
        digit = q - rest * 10
        digit += ord("0")
        if p < width - 1:
            digit *= q > 0
        chars[:, p] = digit
        q = rest
    flat = chars.ravel()
    return flat[flat != 0].tobytes().decode()


def write_mesh(mesh, path):
    """Write a mesh in the poly2d text format (round-trips exactly).

    The integer lines are formatted from the loop arrays in bulk: the
    numbers in file order (a line per element with its loop count, then a
    line per loop with its size and vertex ids), each followed by a space
    or, ending its line, a newline."""
    t = mesh.shapes
    sizes = np.diff(t.loop_starts)
    counts = np.diff(t.facet_loops)
    nel, nloops = len(counts), len(sizes)
    # where the numbers go in file order: an element's loop count, then a
    # line per loop, its size and ids
    loop_at = np.arange(nloops) + np.repeat(np.arange(1, nel + 1), counts) + t.loop_starts[:-1]
    count_at = np.arange(nel) + t.facet_loops[:-1] + t.loop_starts[t.facet_loops[:-1]]
    numbers = np.empty(nel + nloops + len(t.loop_ids), dtype=np.intp)
    is_id = np.ones(len(numbers), dtype=bool)
    is_id[loop_at] = is_id[count_at] = False
    numbers[loop_at], numbers[count_at], numbers[is_id] = sizes, counts, t.loop_ids
    ends = np.full(len(numbers), ord(" "), dtype=np.uint8)
    ends[count_at] = ends[loop_at + sizes] = ord("\n")
    with open(path, "w") as fh:
        fh.write("poly2d 1\n%d\n" % mesh.num_vertices)
        fh.write(("%.17g %.17g\n" * mesh.num_vertices) % tuple(mesh.vertices.ravel().tolist()))
        fh.write("%d\n" % mesh.num_elements)
        fh.write(_decimal_text(numbers, ends))


def _parsed_in_bulk(data):
    """(vertices, loops) of a valid file in the layout `write_mesh` writes,
    as ASCII bytes, converted in bulk, or None for any other bytes.

    The layout: the header line "poly2d 1", then ASCII decimal numbers,
    unsigned integers but for the vertex lines' floats, one space between
    two numbers of a line and a newline after each line, none of them
    blank.  np.fromstring converts such a token as Python's float and int
    do, or raises, except that it saturates an int out of range, which the
    range and count checks below then reject.  The element heads are the
    lines of one token; they must chain by their loop counts, and every
    other line must announce its own length.
    """
    if not (data.startswith(b"poly2d 1\n") and data.endswith(b"\n")):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((b == ord(" ")) | (b == ord("\n")))  # one after every token
    if (np.diff(seps) == 1).any():  # extra spaces, or a blank line
        return None
    nl = np.flatnonzero(b.take(seps) == ord("\n"))
    ntok = np.diff(nl, prepend=-1)  # tokens per line
    lf = seps[nl]  # where each line ends
    if len(lf) < 3 or not data[lf[0] + 1:lf[1]].isdigit():
        return None
    nv = int(data[lf[0] + 1:lf[1]])
    if len(lf) < 3 + nv:
        return None
    at, ne_at = lf[1] + 1, lf[1 + nv] + 1  # the vertex lines, the element count
    if (data[at:ne_at].translate(None, b"0123456789.-+eE \n")
            or data[ne_at:].translate(None, b"0123456789 \n")):
        return None
    if (ntok[2:2 + nv] != 2).any() or ntok[2 + nv] != 1:
        return None
    lt = ntok[3 + nv:]  # tokens per element line
    try:
        coords = np.fromstring(data[at:ne_at], dtype=float, sep=" ")
        numbers = np.fromstring(data[ne_at:], dtype=np.intp, sep=" ")
    except ValueError:
        return None
    if len(coords) != 2 * nv or len(numbers) != 1 + lt.sum():
        return None
    first = np.cumsum(lt) - lt + 1  # in numbers, of every element line
    heads = np.flatnonzero(lt == 1)
    nloops = numbers[first[heads]]
    if len(heads) != numbers[0] or not ((nloops >= 1) & (nloops <= len(lt))).all():
        return None
    # the first head opens the element lines, each element's loop lines run
    # up to the next head, and the last element's up to the end
    if np.any(np.concatenate(([0], heads + 1 + nloops)) != np.append(heads, len(lt))):
        return None
    loops = lt != 1
    is_id = np.ones(len(numbers), dtype=bool)
    is_id[0] = is_id[first] = False
    ids, sizes = numbers[is_id], lt[loops] - 1
    if (numbers[first[loops]] != sizes).any() or (ids >= nv).any():
        return None
    return coords.reshape(nv, 2), _Loops(ids, sizes, nloops)


_BLANK = np.array([chr(c).isspace() for c in range(128)])  # what str.split splits at


def _normalised(data):
    """ASCII poly2d bytes in the layout `write_mesh` writes, with the
    content lines and tokens that `_read_by_lines` takes from them: a final
    newline added, each `#` comment blanked up to the end of its line, each
    run of blanks made one newline if it holds one and one space if not,
    and a leading run dropped."""
    b = np.frombuffer(data + b"\n", dtype=np.uint8)
    blank = _BLANK.take(b)
    newlines = np.flatnonzero(b == ord("\n"))
    if b"#" in data:
        at = np.flatnonzero(b == ord("#"))
        end = newlines.take(np.searchsorted(newlines, at))
        first = np.flatnonzero(np.diff(end, prepend=-1))  # the first # of its line
        owner, off = _ranges(end[first] - at[first])
        blank[at[first][owner] + off] = True
    # runs of blanks alternate with runs of the rest, and a blank ends it
    starts = np.flatnonzero(np.diff(blank, prepend=not blank[0]))
    is_run = blank.take(starts)
    runs, ends = starts[is_run], np.append(starts[1:], len(b))[is_run]
    out = b.copy()
    out[runs] = np.where(newlines.take(np.searchsorted(newlines, runs)) < ends,
                         ord("\n"), ord(" "))
    keep = ~blank
    keep[runs] = runs > 0
    return out[keep].tobytes()


def _read_by_lines(text):
    """(vertices, elements) of any text, read a line at a time, or the
    ParseError of its first bad line.

    A `#` starts a comment, blank lines go, and each line is split and
    converted with Python's float and int; the end of the file is reported
    at its last content line.
    """
    lines = [(n, line) for n, line in enumerate(
        (raw.split("#", 1)[0].strip() for raw in text.split("\n")), start=1) if line]
    rest = iter(lines)

    def take(what):
        for line in rest:
            return line
        raise ParseError("unexpected end of file, expected %s" % what,
                         lines[-1][0] if lines else 0)

    def integer(what, least=float("-inf")):
        n, line = take(what)
        try:
            if (value := int(line)) >= least:
                return n, value
        except ValueError:
            pass
        raise ParseError("expected %s, got %r" % (what, line), n)

    n, header = take("header")
    if header.split() != ["poly2d", "1"]:
        raise ParseError("not a poly2d version 1 file", n)
    nv = integer("vertex count", 0)[1]
    vertices = []  # grown line by line: a count is no bound on the file
    for i in range(nv):
        n, line = take("vertex %d" % i)
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected two coordinates", n)
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError("bad coordinate %r" % line, n) from None
    elements = []
    for e in range(integer("element count", 0)[1]):
        n, nloops = integer("loop count of element %d" % e)
        if nloops < 1:
            raise ParseError("element %d has no loops" % e, n)
        loops = []
        for j in range(nloops):
            n, line = take("loop %d of element %d" % (j, e))
            try:
                size, *ids = map(int, line.split())
            except ValueError:
                raise ParseError("bad loop line %r" % line, n) from None
            if len(ids) != size:
                raise ParseError("loop announces %d ids but has %d" % (size, len(ids)), n)
            if not all(0 <= i < nv for i in ids):
                raise ParseError("vertex id out of range", n)
            loops.append(ids)
        elements.append((loops[0], loops[1:]))
    for n, _ in rest:
        raise ParseError("trailing content", n)
    return np.array(vertices, dtype=float).reshape(nv, 2), elements


def read_mesh(path):
    """Read a poly2d file; parse errors carry the offending line number.

    The text, read once, is converted by `_parsed_in_bulk` as it stands
    or, failing that, as `_normalised` lays it out where that differs.
    Only what the bulk parse rejects goes to `_read_by_lines`, which alone
    raises the error of the first bad line: a bad file, non-ASCII text,
    or a number that Python's int or float reads but the bulk alphabet
    does not (+3, 1_0, infinity).
    """
    with open(path) as fh:
        text = fh.read()
    data = text.encode()
    parsed = text.isascii() and (_parsed_in_bulk(data) or (
        (laid_out := _normalised(data)) != data and _parsed_in_bulk(laid_out)))
    return PolyMesh(*(parsed or _read_by_lines(text)))


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
    d = mesh.vertices @ np.array([line.a, line.b]) - line.c  # signed distances
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


def _holds_vertex_of(mesh, other, tol):
    """Whether a vertex of `other` lies strictly inside an element of mesh:
    in its material region, by the winding numbers of `point_in_loop` (the
    outer loop's nonzero, every hole's zero), and farther than tol from
    each of its boundary segments.  Only the pairs whose vertex lies in the
    element's closed outer-loop box are tested, a run of pairs at a time,
    each against every slot of the element's boundary walk."""
    t = mesh.shapes
    if not len(t):
        return False
    v, ls = t.coords, t.loop_starts
    loop = np.repeat(np.arange(len(ls) - 1), np.diff(ls))  # of every slot
    hole = np.ones(len(ls) - 1, dtype=bool)
    hole[t.facet_loops[:-1]] = False
    nxt = t.next_slots()
    pts = v[t.loop_ids]
    lo = np.minimum.reduceat(pts, ls[:-1])[t.facet_loops[:-1]]
    hi = np.maximum.reduceat(pts, ls[:-1])[t.facet_loops[:-1]]
    for f, j in other._grid.candidates(lo.T, hi.T):
        p = other.vertices[j]
        inbox = np.all((lo[f] <= p) & (p <= hi[f]), axis=1)
        if not inbox.any():
            continue
        f, p = f[inbox], p[inbox]
        pair, off = _ranges(np.diff(t.slot_starts)[f])
        s = t.slot_starts[f][pair] + off
        p, p0, p1 = p[pair], v[t.loop_ids[s]], v[t.loop_ids[nxt[s]]]
        (x, y), (x0, y0), (x1, y1) = p.T, p0.T, p1.T
        side = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
        crossings = ((y0 <= y) & (y1 > y) & (side > 0)).astype(np.intp) - (
            (y0 > y) & (y1 <= y) & (side < 0))
        # every pair's walk starts a loop, and its loops run in order
        runs = np.flatnonzero(s == ls[loop[s]])
        winding = np.add.reduceat(crossings, runs)
        outside = np.zeros(len(f), dtype=bool)
        outside[pair[runs[np.where(hole[loop[s[runs]]], winding != 0, winding == 0)]]] = True
        e = p1 - p0
        t_near = np.clip(np.vecdot(p - p0, e) / np.vecdot(e, e), 0.0, 1.0)
        d = p0 + t_near[:, None] * e - p
        dist = np.minimum.reduceat(np.hypot(d[:, 0], d[:, 1]), np.flatnonzero(off == 0))
        if np.any(~outside & (dist > tol)):
            return True
    return False


def _hanging(u, w, candidates, coords, tol):
    """(segment, vertex) of every candidate vertex strictly inside a segment
    u[i] -> w[i]: within tol of its line and farther than tol from both
    ends.  Sorted by segment, then along it from u by (t, id)."""
    none = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    if not len(u) or not len(candidates):
        return none
    pa, pb = coords[u], coords[w]
    grid = _VertexGrid(coords[candidates].T)
    runs = list(grid.candidates(np.minimum(pa, pb).T - 2.0 * tol,
                                np.maximum(pa, pb).T + 2.0 * tol))
    if not runs:
        return none
    seg, c = map(np.concatenate, zip(*runs))
    c = candidates[c]
    e = pb[seg] - pa[seg]
    rel = coords[c] - pa[seg]
    with np.errstate(divide="ignore", invalid="ignore"):  # a segment glued to a point
        L = np.hypot(e[:, 0], e[:, 1])
        t = np.vecdot(rel, e) / (L * L)
        perp = np.abs(rel[:, 0] * e[:, 1] - rel[:, 1] * e[:, 0]) / L
        inside = (perp <= tol) & (t * L > tol) & ((1.0 - t) * L > tol)
    inside &= (c != u[seg]) & (c != w[seg])
    seg, c, t = seg[inside], c[inside], t[inside]
    order = np.lexsort((c, t, seg))
    return seg[order], c[order]


def _spliced(table, ids, slots, hanging):
    """`_Loops` of the table's loops over vertex ids `ids` (its loop_ids or a
    renumbering of them), with hanging[i] inserted after slot slots[i];
    slots ascend, and the vertices of one slot come in walk order."""
    extra = np.bincount(slots, minlength=len(ids))
    before = np.concatenate(([0], np.cumsum(extra)))  # hanging vertices before each slot
    out = np.empty(len(ids) + len(hanging), dtype=np.intp)
    out[np.arange(len(ids)) + before[:-1]] = ids
    out[slots + 1 + np.arange(len(hanging))] = hanging
    starts = table.loop_starts + before[table.loop_starts]
    return _Loops(out, np.diff(starts), np.diff(table.facet_loops))


def merge_meshes(a, b, tol=None):
    """Glue two meshes along a shared straight boundary, adding hanging
    nodes where one side's boundary vertices subdivide the other's edges.

    Every b boundary vertex within tol of a boundary vertex of a becomes
    the lowest such a vertex; b's other vertices follow a's.  Both meshes'
    boundary segments are found from their edge tables, the other side's
    boundary vertices inside them are spliced into each walk in one pass,
    and the merged mesh is built from the loop arrays.

    Raises ValueError for a tol that is not a finite number >= 0,
    OverlapDetected when a vertex of one mesh lies strictly inside the
    other, and NoCommonBoundary when no boundary segment ends up shared.
    """
    if tol is None:
        tol = MERGE_TOL * max(a.diameter, b.diameter)
    elif not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError("merge tolerance must be a finite number >= 0, got %r" % tol)

    na = a.num_vertices
    a_boundary, b_boundary = a.boundary_vertex_ids(), b.boundary_vertex_ids()
    on_a_boundary = np.zeros(na, dtype=bool)
    on_a_boundary[a_boundary] = True
    target = np.full(b.num_vertices, na)  # na: no a vertex within tol
    pb = b.vertices[b_boundary]
    for q, j in a._grid.candidates(pb.T - 2.0 * tol, pb.T + 2.0 * tol):
        q, j = q[on_a_boundary[j]], j[on_a_boundary[j]]
        d = a.vertices[j] - pb[q]
        near = np.hypot(d[:, 0], d[:, 1]) <= tol
        np.minimum.at(target, b_boundary[q[near]], j[near])
    fresh = target == na
    remap = np.where(fresh, na + np.cumsum(fresh) - 1, target)
    vertices = np.concatenate((a.vertices, b.vertices[fresh]))

    for mesh, other, message in (
        (a, b, "vertex of the second mesh is inside the first"),
        (b, a, "vertex of the first mesh is inside the second"),
    ):
        if _holds_vertex_of(mesh, other, tol):
            raise OverlapDetected(message)

    # the other side's boundary vertices strictly inside a boundary segment
    # subdivide it
    loops, inserted = [], False
    for mesh, ids, candidates in (
        (a, a.shapes.loop_ids, np.unique(remap[b_boundary])),
        (b, remap[b.shapes.loop_ids], a_boundary),
    ):
        slots = np.flatnonzero(np.isin(mesh.slot_edges, mesh.boundary_edge_ids))
        ends = ids[mesh.shapes.next_slots()[slots]]
        seg, hanging = _hanging(ids[slots], ends, candidates, vertices, tol)
        loops.append(_spliced(mesh.shapes, ids, slots[seg], hanging))
        inserted |= len(hanging) > 0
    if fresh.all() and not inserted:
        raise NoCommonBoundary("the meshes share no boundary vertices or edges")

    merged = PolyMesh(vertices, _Loops(*map(np.concatenate, zip(*loops))))

    # the glue must produce at least one interior segment joining the two
    # sides, otherwise the meshes only touch at isolated points
    owner = merged.shapes.slot_facets()
    first = np.full(merged.num_edges, merged.num_elements)
    last = np.full(merged.num_edges, -1)
    np.minimum.at(first, merged.slot_edges, owner)
    np.maximum.at(last, merged.slot_edges, owner)
    shared = np.count_nonzero((first < a.num_elements) & (a.num_elements <= last))
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
