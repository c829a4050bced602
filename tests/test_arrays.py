"""The array-native mesh build, dof map and fan against per-element
references.

`reference_build` and `reference_dofs` are the element-by-element
construction the arrays replaced: one Facet per element with the mesh
orientation fixed first, a dict-built edge table, all-pairs T-junction
scans and a per-element walk for the dof maps.  The array path must agree
with them bit for bit, in its outputs, its warnings and its failures.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import geometry, localmat
from polyvem.errors import DegenerateCut, InvariantViolation
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
    CutLine,
    PolyMesh,
    _normalize_element,
    build_global_dofs,
    cut_mesh,
    gen_structured,
    merge_meshes,
)
from polyvem.monomials import basis_size
from polyvem.quadrature import gauss_lobatto_1d
from polyvem.system import assemble, discretisation

from conftest import random_star


# -- the per-element reference -------------------------------------------


def reference_build(vertices, elements):
    """Elements, facets and edge table as the element-by-element build made
    them, raising what it raised.  The vertex table checks are shared."""
    vertices = np.asarray(vertices, dtype=float)
    PolyMesh(vertices, [])
    out, facets = [], []
    for eid, entry in enumerate(elements):
        outer, holes = _normalize_element(entry)
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
            facets.append(Facet(vertices, outer, fixed))
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


def ring_mesh(rng):
    """A square with a square hole, the hole filled by a 2x2 block: hanging
    nodes on the hole loop."""
    verts = np.array([[0.0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [1, 2], [2, 2], [2, 1]])
    ring = PolyMesh(verts, [([0, 1, 2, 3], [[4, 5, 6, 7]])])
    return merge_meshes(ring, quads_on(1.0, 2.0, 1.0, 2.0, 2, rng))


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
    for _ in range(draw(st.integers(0, 2 if kind == "cut" else 0))):
        theta = rng.uniform(0.0, np.pi)
        p = rng.uniform(0.2, 0.8, size=2)
        line = CutLine(np.cos(theta), np.sin(theta), np.cos(theta) * p[0] + np.sin(theta) * p[1])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                m = cut_mesh(m, line)
        except DegenerateCut:
            pass
    return m


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
        for name in ("area", "centroid", "diameter", "perimeter"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name
    assert got.area == float(sum(f.area for f in ref["facets"]))
    for k in (1, 2, 3):
        dofs = build_global_dofs(got, k)
        maps, points, bdofs = reference_dofs(verts, ref, k)
        assert [m.tolist() for m in dofs.element_maps] == maps
        assert np.array_equal(dofs.dof_points, points, equal_nan=True)
        assert dofs.boundary_dof_ids.tolist() == bdofs
        # a group's perimeter adds its edges up as Facet.perimeter does
        for ids, group in discretisation(got, k)[2]:
            assert np.array_equal(group.perimeter, [ref["facets"][e].perimeter for e in ids])


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
        loop.insert(i + 1, loop[i] - n)  # another id of the same vertex
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
    assert error == ref_error and error[0] is IndexError
    assert caught == ref_caught and len(caught) == 1


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
    ids = facet.outer.ids
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
        ids = f.outer.ids
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
    sys_ = assemble(gen_structured("distortedQuads", 3), 2, lambda x, y: np.ones_like(x))
    pairs = sys_.caches
    assert len(pairs) == len(list(pairs)) == 9
    assert pairs[-1] is pairs[8] and pairs[2:4] == [pairs[2], pairs[3]]
    # the group computed D, G, B, both energy projectors, the stiffness, H
    # and the moment projector once for every member
    assert [cache.compute_count for _, cache in pairs] == [8] * 9
