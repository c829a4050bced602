"""The array-native mesh build, dof map and fan against per-element
references.

`reference_build` and `reference_dofs` are the element-by-element
construction the arrays replaced: one scalar `ReferenceFacet` per element
with the mesh orientation fixed first, a dict-built edge table, all-pairs T-junction
scans and a per-element walk for the dof maps.  The array path must agree
with them bit for bit, in its outputs, its warnings and its failures.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import geometry, localmat
from polyvem.errors import DegenerateCut, InvariantViolation, NoCommonBoundary, OverlapDetected
from polyvem.geometry import (
    Facet,
    OrientationWarning,
    fan_accepts,
    fan_table,
    signed_area,
    triangulate,
)
from polyvem.mesh import (
    DUPLICATE_TOL,
    MERGE_TOL,
    CutLine,
    PolyMesh,
    _normalize_element,
    _VertexGrid,
    build_global_dofs,
    cut_mesh,
    gen_structured,
    merge_meshes,
    write_mesh,
)
from polyvem.monomials import basis_size
from polyvem.quadrature import gauss_lobatto_1d
from polyvem.system import assemble, discretisation

from conftest import ReferenceFacet, boundary_edges, random_star


# -- the per-element reference -------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # an overflowing element is rejected
def reference_build(vertices, elements):
    """Elements, facets and edge table as the element-by-element build made
    them, raising what it raised.  The vertex table checks are shared."""
    vertices = np.asarray(vertices, dtype=float)
    PolyMesh(vertices, [])
    out, facets = [], []
    for eid, entry in enumerate(elements):
        outer, holes = _normalize_element(entry)
        for loop in [outer] + holes:
            if not loop:
                raise InvariantViolation("element %d: empty loop" % eid)
            for i in loop:
                if not 0 <= i < len(vertices):
                    raise InvariantViolation("element %d: vertex id %d out of range [0, %d)"
                                             % (eid, i, len(vertices)))
        if signed_area(vertices[outer]) < 0:
            warnings.warn("element %d: outer loop was clockwise, reversing" % eid,
                          OrientationWarning)
            outer = outer[::-1]
        fixed = []
        for h in holes:
            if signed_area(vertices[h]) > 0:
                warnings.warn("element %d: hole loop was counter-clockwise, reversing" % eid,
                              OrientationWarning)
                h = h[::-1]
            fixed.append(h)
        out.append((outer, fixed))
        try:
            facets.append(ReferenceFacet(vertices, outer, fixed))
        except Exception as err:
            raise InvariantViolation("element %d: %s" % (eid, err))
    incidence = {}
    for eid, (outer, holes) in enumerate(out):
        for loop in [outer] + holes:
            for u, v in zip(loop, loop[1:] + loop[:1]):
                key = (u, v) if u < v else (v, u)
                incidence.setdefault(key, []).append((eid, 1 if u < v else -1))
    keys = sorted(incidence)
    uses = [incidence[key] for key in keys]
    for key, inc in zip(keys, uses):
        if len(inc) > 2:
            raise InvariantViolation(
                "segment %s used by elements %s" % (key, sorted(e for e, _ in inc)))
        if len(inc) == 2 and inc[0][1] + inc[1][1] != 0:
            raise InvariantViolation(
                "segment %s traversed twice in the same direction "
                "(elements %d and %d)" % (key, inc[0][0], inc[1][0]))
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    tol = DUPLICATE_TOL * (float(np.hypot(*(hi - lo))) or 1.0)
    for key, inc in zip(keys, uses):
        a, b = vertices[key[0]], vertices[key[1]]
        e = b - a
        L = np.hypot(e[0], e[1])
        rel = vertices - a
        t = (rel[:, 0] * e[0] + rel[:, 1] * e[1]) / (L * L)
        perp = np.abs(rel[:, 0] * e[1] - rel[:, 1] * e[0]) / L
        inside = (perp <= tol) & (t * L > tol) & ((1.0 - t) * L > tol)
        inside[list(key)] = False
        if inside.any():
            raise InvariantViolation("vertex %d lies inside segment %s of element %d"
                                     % (np.flatnonzero(inside)[0], key, inc[0][0]))
    return {
        "elements": out,
        "facets": facets,
        "edge_keys": keys,
        "edge_elements": uses,
        "boundary_edge_ids": [i for i, inc in enumerate(uses) if len(inc) == 1],
    }


def reference_merge(a, b, tol=None):
    """The merge as the object code made it, raising what it raised: b's
    boundary vertices unified onto the lowest a boundary vertex within tol,
    an overlap test per (facet, vertex) pair through Facet.contains and
    the facet's boundary edges, then hanging nodes inserted loop by loop
    and edge by edge.  Its grid prefilters only skipped pairs that the
    exact tests reject, so here every pair in a closed box is tested."""
    if tol is None:
        tol = MERGE_TOL * max(a.diameter, b.diameter)

    a_boundary = a.boundary_vertex_ids().tolist()
    b_boundary = b.boundary_vertex_ids().tolist()
    targets = {}
    for vb in b_boundary:
        d = a.vertices[a_boundary] - b.vertices[vb]
        near = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) <= tol)
        if near.size:
            targets[vb] = a_boundary[near[0]]
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

    def point_segment_distance(p, a, b):
        e = b - a
        L2 = float(e @ e)
        t = float(np.clip((p - a) @ e / L2, 0.0, 1.0))
        return float(np.hypot(*(a + t * e - p)))

    def strictly_inside(f, p):
        if not f.contains(p):
            return False
        return min(point_segment_distance(p, e.p0, e.p1) for e in boundary_edges(f)) > tol

    for mesh, other, message in (
        (a, b, "vertex of the second mesh is inside the first"),
        (b, a, "vertex of the first mesh is inside the second"),
    ):
        for f in mesh.facets:
            pts = f.coords[f.outer]
            inbox = np.all((pts.min(axis=0) <= other.vertices)
                           & (other.vertices <= pts.max(axis=0)), axis=1)
            if any(strictly_inside(f, p) for p in other.vertices[inbox]):
                raise OverlapDetected(message)

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

    def insert_hanging(loops_elements, boundary_keys, candidates):
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
                    subs = subdividers(u, v, candidates, vertices)
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

    a_elements, ins_a = insert_hanging(a_elements, a_bkeys, sorted({remap[v] for v in b_boundary}))
    b_elements, ins_b = insert_hanging(b_elements, b_bkeys, a_boundary)

    unified = sum(1 for vb, target in remap.items() if target < a.num_vertices)
    if unified + int(ins_a) + int(ins_b) == 0:
        raise NoCommonBoundary("the meshes share no boundary vertices or edges")

    merged = PolyMesh(vertices, a_elements + b_elements)
    na = len(a_elements)
    touching = [{e for e, _ in uses} for uses in merged.edge_elements]
    if not any(min(eids) < na <= max(eids) for eids in touching):
        raise NoCommonBoundary("the meshes touch only at isolated vertices")
    expected = a.area + b.area
    if abs(merged.area - expected) > 1e-12 * expected:
        raise InvariantViolation("merge changed the total area")
    return merged


def reference_dofs(vertices, ref, k):
    """(element maps, dof points, boundary dofs) of the per-element walk."""
    nv, keys, nel = len(vertices), ref["edge_keys"], len(ref["elements"])
    npe, nm = k - 1, basis_size(k - 2)
    index = {key: i for i, key in enumerate(keys)}
    mo = nv + len(keys) * npe
    t, _ = gauss_lobatto_1d(k + 1)
    points = np.full((mo + nel * nm, 2), np.nan)
    points[:nv] = vertices
    for ei, (lo, hi) in enumerate(keys):
        for m in range(1, k):
            points[nv + ei * npe + (m - 1)] = vertices[lo] + t[m] * (vertices[hi] - vertices[lo])
    maps = []
    for eid, (outer, holes) in enumerate(ref["elements"]):
        walk = [(loop[i], loop[(i + 1) % len(loop)]) for loop in [outer] + holes
                for i in range(len(loop))]
        gmap = [u for u, _ in walk]
        for u, v in walk:
            base = nv + index[(min(u, v), max(u, v))] * npe
            gmap += [base + j for j in range(npe)] if u < v else [base + npe - 1 - j
                                                                  for j in range(npe)]
        maps.append(gmap + [mo + eid * nm + a for a in range(nm)])
    bdofs = sorted({v for i in ref["boundary_edge_ids"] for v in keys[i]})
    bdofs += [nv + i * npe + j for i in ref["boundary_edge_ids"] for j in range(npe)]
    return maps, points, sorted(bdofs)


def outcome(build, vertices, elements):
    """(result or None, (type, message) of the error or None, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = build(vertices, elements), None
        except Exception as err:
            result, error = None, (type(err), str(err))
    return result, error, [(w.category, str(w.message)) for w in caught]


# -- meshes --------------------------------------------------------------


def quads_on(x0, x1, y0, y1, cells, rng):
    """cells x cells quads on a rectangle, interior vertices jittered."""
    X, Y = np.meshgrid(np.linspace(x0, x1, cells + 1), np.linspace(y0, y1, cells + 1))
    verts = np.column_stack([X.ravel(), Y.ravel()])
    inner = np.zeros((cells + 1, cells + 1), dtype=bool)
    inner[1:-1, 1:-1] = True
    step = np.array([(x1 - x0) / cells, (y1 - y0) / cells])
    verts[inner.ravel()] += rng.uniform(-0.15, 0.15, size=(inner.sum(), 2)) * step
    return PolyMesh(verts, [[v, v + 1, v + cells + 2, v + cells + 1]
                            for v in (j * (cells + 1) + i for j in range(cells)
                                      for i in range(cells))])


def ring():
    """A 3x3 square with a unit square hole."""
    verts = np.array([[0.0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [1, 2], [2, 2], [2, 1]])
    return PolyMesh(verts, [([0, 1, 2, 3], [[4, 5, 6, 7]])])


def ring_mesh(rng):
    """The ring, its hole filled by a 2x2 block: hanging nodes on the hole
    loop."""
    return merge_meshes(ring(), quads_on(1.0, 2.0, 1.0, 2.0, 2, rng))


def random_cuts(mesh, rng, count):
    """The mesh cut by count random lines, skipping the degenerate cuts."""
    for _ in range(count):
        theta = rng.uniform(0.0, np.pi)
        p = rng.uniform(0.2, 0.8, size=2)
        line = CutLine(np.cos(theta), np.sin(theta), np.cos(theta) * p[0] + np.sin(theta) * p[1])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mesh = cut_mesh(mesh, line)
        except DegenerateCut:
            pass
    return mesh


@st.composite
def meshes(draw):
    """distortedQuads, cut by random lines or merged with a finer or coarser
    neighbour (hanging nodes), or a holed ring."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plain", "cut", "merged", "ring"]))
    if kind == "ring":
        return ring_mesh(rng)
    n = draw(st.integers(2, 5))
    m = gen_structured("distortedQuads", n)
    if kind == "merged":
        return merge_meshes(m, quads_on(1.0, 1.0 + rng.uniform(0.3, 1.0), 0.0, 1.0,
                                        draw(st.sampled_from([n - 1, n + 1, 2 * n])), rng))
    return random_cuts(m, rng, draw(st.integers(0, 2 if kind == "cut" else 0)))


def tables(mesh, rng, flip_share):
    """Editable vertex and element tables of a mesh, with a share of its
    loops given the wrong way round."""
    elements = []
    for outer, holes in mesh.elements:
        loops = [loop[::-1] if rng.uniform() < flip_share else loop for loop in [outer] + holes]
        elements.append((loops[0], loops[1:]) if holes else loops[0])
    return mesh.vertices.copy(), elements


# -- the array build equals the per-element reference --------------------


@given(meshes(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0]))
@settings(max_examples=40, deadline=None)
def test_array_build_equals_element_reference(mesh, seed, flip_share):
    verts, elements = tables(mesh, np.random.default_rng(seed), flip_share)
    got, error, caught = outcome(PolyMesh, verts, elements)
    ref, ref_error, ref_caught = outcome(reference_build, verts, elements)
    assert error is None and ref_error is None, (error, ref_error)
    assert caught == ref_caught
    assert got.elements == ref["elements"]
    assert got.edge_keys == ref["edge_keys"]
    assert got.edge_elements == ref["edge_elements"]
    assert got.boundary_edge_ids.tolist() == ref["boundary_edge_ids"]
    for f, g in zip(got.facets, ref["facets"]):
        for name in ("area", "centroid", "diameter"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name
    assert got.area == float(sum(f.area for f in ref["facets"]))
    for k in (1, 2, 3):
        dofs = build_global_dofs(got, k)
        maps, points, bdofs = reference_dofs(verts, ref, k)
        assert [m.tolist() for m in dofs.element_maps] == maps
        assert np.array_equal(dofs.dof_points, points, equal_nan=True)
        assert dofs.boundary_dof_ids.tolist() == bdofs
        # a group's perimeter adds its edges up as Facet.perimeter does
        for ids, group in discretisation(got, k)[1]:
            assert np.array_equal(group.perimeter, [ref["facets"][e].perimeter for e in ids])


# -- the array merge equals the object merge -------------------------------


def lshape_mesh():
    verts = np.array([[0.0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    return PolyMesh(verts, [[0, 1, 2, 3, 4, 5]])


@st.composite
def merge_pairs(draw):
    """(a, b, tol): distortedQuads, plain or cut, with a finer or coarser
    neighbour on one of its sides, snapped within tol or exactly on it, or
    a disjoint, corner-touching, overlapping or nested one; a ring with a block in
    its hole; the L-shape with a block in its notch.  Either order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["side", "side", "ring", "notch", "disjoint", "corner",
                                 "overlap", "nested"]))
    if kind in ("ring", "notch"):
        a = ring() if kind == "ring" else lshape_mesh()
        b = quads_on(1.0, 2.0, 1.0, 2.0, draw(st.integers(1, 4)), rng)
    else:
        n = draw(st.integers(2, 6))
        a = random_cuts(gen_structured("distortedQuads", n), rng, draw(st.integers(0, 2)))
        cells = draw(st.sampled_from([max(n - 1, 1), n + 1, 2 * n, 3 * n]))
        w, gap = rng.uniform(0.3, 1.0), draw(st.sampled_from([0.0, 2e-13, 3e-10]))
        box = {
            "disjoint": (2.0, 3.0, 0.0, 1.0),
            "corner": (1.0, 2.0, 1.0, 2.0),
            "overlap": (rng.uniform(0.3, 0.9), 1.5, rng.uniform(-0.5, 0.5), 1.2),
            "nested": (0.4, 0.45, 0.55, 0.6),
            "side": draw(st.sampled_from([
                (1.0 + gap, 1.0 + gap + w, 0.0, 1.0),
                (-gap - w, -gap, 0.0, 1.0),
                (0.0, 1.0, 1.0 + gap, 1.0 + gap + w),
                (0.0, 1.0, -gap - w, -gap),
            ])),
        }[kind]
        b = quads_on(*box, cells, rng)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, draw(st.sampled_from([None, None, 0.0, 1e-6]))


def poly2d_bytes(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.poly2d"
        write_mesh(mesh, path)
        return path.read_bytes()


@given(merge_pairs())
@settings(max_examples=60, deadline=None)
def test_array_merge_equals_object_merge(pair):
    a, b, tol = pair
    got, error, caught = outcome(lambda a, b: merge_meshes(a, b, tol), a, b)
    ref, ref_error, ref_caught = outcome(lambda a, b: reference_merge(a, b, tol), a, b)
    assert error == ref_error
    assert caught == ref_caught
    if error is None:
        assert poly2d_bytes(got) == poly2d_bytes(ref)


# -- a defect fails as in the per-element reference -----------------------


def inject(kind, verts, elements, eid, rng):
    """One defect in element eid (a hole-free quad-like loop); new vertices
    go at the end of the table."""
    loop = list(elements[eid]) if not isinstance(elements[eid], tuple) else list(elements[eid][0])
    n = len(verts)
    i = int(rng.integers(len(loop)))
    a, b = verts[loop[i]], verts[loop[(i + 1) % len(loop)]]
    extra = []
    if kind == "repeated vertex":
        loop.insert(i, loop[i])
    elif kind == "zero-length edge":
        loop.insert(i + 1, loop[i] - n)  # numpy's other index of the vertex: out of range
    elif kind == "collinear loop":
        loop = [loop[i], loop[(i + 1) % len(loop)], n]
        extra = [2.0 * b - a]
    elif kind == "counter-clockwise hole":
        c = verts[loop].mean(axis=0)
        extra = [c + 0.1 * (verts[loop[j]] - c) for j in range(len(loop))]
        loop = (loop, [list(range(n, n + len(loop)))])
    elif kind == "hole outside":
        c = verts[loop].mean(axis=0) + 10.0 + rng.uniform()
        extra = [c, c + [0.0, 0.1], c + [0.1, 0.0]]
        loop = (loop, [[n, n + 1, n + 2]])
    elif kind == "segment used three times":
        elements.append([loop[(i + 1) % len(loop)], loop[i], n])
        extra = [0.5 * (a + b) + rng.uniform(-0.1, 0.1, 2)]
    elif kind == "T-junction":
        loop.insert(i + 1, n)
        extra = [0.5 * (a + b)]
    if kind != "segment used three times":
        elements[eid] = loop
    return np.vstack([verts] + extra) if extra else verts


DEFECTS = [
    "repeated vertex",
    "zero-length edge",
    "collinear loop",
    "counter-clockwise hole",
    "hole outside",
    "segment used three times",
    "T-junction",
]


@given(
    st.integers(2, 5),
    st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_defect_fails_as_element_reference(n, kinds, seed, flip_share):
    # a defect in each of a few random elements, among loops given the
    # wrong way round: the first failing element is the one reported, and
    # only the elements up to it warn
    rng = np.random.default_rng(seed)
    verts, elements = tables(gen_structured("distortedQuads", n), rng, flip_share)
    for kind, eid in zip(kinds, rng.choice(n * n, size=len(kinds), replace=False).tolist()):
        verts = inject(kind, verts, elements, eid, rng)
    _, error, caught = outcome(PolyMesh, verts, elements)
    _, ref_error, ref_caught = outcome(reference_build, verts, elements)
    assert error == ref_error
    assert caught == ref_caught


def test_out_of_range_id_raises_after_earlier_warnings():
    verts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]])
    elements = [[0, 3, 2, 1], [1, 4, 5, 2], ([1, 4, 9, 2], []), [5, 4, 1, 2]]
    _, error, caught = outcome(PolyMesh, verts, elements)
    _, ref_error, ref_caught = outcome(reference_build, verts, elements)
    assert error == ref_error and error[0] is InvariantViolation
    assert caught == ref_caught and len(caught) == 1


def test_hanging_vertex_near_a_segment_end_fails_as_element_reference():
    # the T-junction scan drops a segment's own ends before its exact test;
    # a hanging vertex a few tol along the segment from one end is still
    # inside it, and one within tol of that end coincides with it, which
    # the duplicate check reports before any element warns
    for along, expected, warned in ((3.0, "vertex 6 lies inside segment (1, 2) of element 1", 1),
                                    (0.5, "vertices 1 and 6 coincide", 0)):
        verts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [0, 0]])
        verts[6] = [1.0, along * DUPLICATE_TOL * np.hypot(2.0, 1.0)]
        elements = [[0, 1, 6, 2, 3], [1, 2, 5, 4]]  # the second clockwise
        _, error, caught = outcome(PolyMesh, verts, elements)
        _, ref_error, ref_caught = outcome(reference_build, verts, elements)
        assert error == ref_error == (InvariantViolation, expected)
        assert caught == ref_caught and len(caught) == warned


@pytest.mark.parametrize("scale, centred", [
    *(pytest.param(scale, False, id="%g" % scale) for scale in (1e100, 1e103, 1e104, 1e155, 1e160)),
    pytest.param(0.95e308, True, id="centred-9.5e+307"),
])
def test_overflowing_measures_fail_as_element_reference(scale, centred):
    # coordinates so large that an element's area, centroid or diameter
    # overflows (its centroid from 1e103 on, here element 2 first, its area
    # from about 1e154): the first such element is rejected, as the
    # element-by-element reference rejects it, with no numpy warning and
    # no orientation warning for an area that is not a number; at 1e100
    # every measure is finite and the mesh builds.  Centred on 0 at
    # 0.95e308, the vertex range itself is past the float range
    rng = np.random.default_rng(7)
    verts, elements = tables(gen_structured("distortedQuads", 4), rng, 0.3)
    verts = (2.0 * verts - 1.0) * scale if centred else verts * scale
    got, error, caught = outcome(PolyMesh, verts, elements)
    _, ref_error, ref_caught = outcome(reference_build, verts, elements)
    assert error == ref_error and caught == ref_caught
    assert all(category is OrientationWarning for category, _ in caught)
    if scale == 1e100:
        assert error is None and np.isfinite(got.shapes.centroids).all()
    else:
        first = 2 if scale == 1e103 else 0
        assert error == (InvariantViolation, "element %d: facet area, centroid or "
                         "diameter is not finite" % first)


def test_vertex_grid_of_huge_coordinates_keeps_its_cells():
    # the cell size is not formed from the product of the extents, which
    # overflows at 1e160 and left one cell, so that the duplicate scan of
    # distortedQuads:64 tested every pair (3.4 s)
    points = np.ascontiguousarray(gen_structured("distortedQuads", 64).vertices.T)
    shape = _VertexGrid(points).shape
    assert shape.tolist() == _VertexGrid(points * 1e160).shape.tolist()
    assert shape.prod() > 1000
    with pytest.raises(InvariantViolation, match="^element 0: .* not finite"):
        PolyMesh(points.T * 1e160, gen_structured("distortedQuads", 64).elements)


# -- the fan ---------------------------------------------------------------


@st.composite
def polygons(draw):
    """Convex, star-shaped and hanging-node polygons as lone facets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 10))
    kind = draw(st.sampled_from(["convex", "star", "hanging"]))
    if kind == "convex":
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        pts = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.1, 10.0)
        pts += rng.uniform(-5.0, 5.0, 2)
    else:
        pts, _ = random_star(rng, n)
    ids = list(range(n))
    if kind == "hanging":
        e = int(rng.integers(n))
        t = float(rng.uniform(0.2, 0.8))
        pts = np.vstack([pts, (1.0 - t) * pts[e] + t * pts[(e + 1) % n]])
        ids.insert(e + 1, n)
    if signed_area(pts[ids]) <= 0.0:
        ids = ids[::-1]
    shift = int(rng.integers(len(ids)))
    return Facet(pts, ids[shift:] + ids[:shift])


@given(polygons())
@settings(max_examples=300, deadline=None)
def test_fan_equals_triangulate_where_accepted(facet):
    ids = facet.outer
    accepted = fan_accepts(facet.coords[ids][None], np.array([facet.area]),
                           np.array([facet.diameter]))[0]
    if accepted:
        assert np.array_equal(ids[fan_table(len(ids))], triangulate(facet))


def test_fan_accepts_every_convex_polygon_and_no_degenerate_fan():
    rng = np.random.default_rng(5)
    for n in range(3, 12):
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, (50, n)), axis=1)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        area = np.array([signed_area(p) for p in pts])
        keep = area > 1e-3
        assert fan_accepts(pts[keep], area[keep], np.full(keep.sum(), 2.0)).all()
    # a hanging node next to the fan's apex leaves a zero-area ear
    square = np.array([[[0.0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]]])
    assert not fan_accepts(square[:, [1, 2, 3, 4, 0]], np.array([1.0]), np.array([2.0 ** 0.5]))[0]


def counting_triangulate(monkeypatch):
    calls = []

    def counting(facet):
        calls.append(facet)
        return triangulate(facet)

    monkeypatch.setattr(geometry, "triangulate", counting)
    monkeypatch.setattr(localmat, "triangulate", counting)
    return calls


def fan_rejects(mesh):
    """Hole-free elements whose loops repeat no vertex that the fan test
    rejects."""
    out = 0
    for f in mesh.facets:
        ids = f.outer
        if not f.holes and len(set(ids.tolist())) == len(ids):
            out += not fan_accepts(f.coords[ids][None], np.array([f.area]),
                                   np.array([f.diameter]))[0]
    return out


def test_load_free_assemble_ear_clips_only_what_the_fan_rejects(monkeypatch):
    calls = counting_triangulate(monkeypatch)
    assemble(gen_structured("distortedQuads", 8), 2)
    assert calls == []
    rng = np.random.default_rng(3)
    cut = cut_mesh(gen_structured("distortedQuads", 8), CutLine(1.0, -0.31, 0.4))
    # hanging nodes on the top edges: next to the fan's apex, the last vertex
    merged = merge_meshes(gen_structured("distortedQuads", 4),
                          quads_on(0.0, 1.0, 1.0, 1.5, 6, rng))
    for mesh in (cut, merged):
        calls.clear()
        assemble(mesh, 2)
        assert len(calls) == fan_rejects(mesh)
    assert len(calls) > 0


def test_element_pairs_index_like_a_list():
    mesh = gen_structured("distortedQuads", 3)
    assemble(mesh, 2, lambda x, y: np.ones_like(x))
    groups = discretisation(mesh, 2)[1]
    assert sum(len(ids) for ids, _ in groups) == 9
    # each group computed D, G, B, both energy projectors, the stiffness, H
    # and the moment projector once for all its members
    assert [group.cache.compute_count for _, group in groups] == [8] * len(groups)
