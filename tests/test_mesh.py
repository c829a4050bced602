"""Mesh container, text format, generators, cutting and merging."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem.errors import (
    DegenerateCut,
    InvariantViolation,
    NoCommonBoundary,
    OverlapDetected,
    ParseError,
)
from polyvem import cli
from polyvem import mesh as mesh_module
from polyvem.geometry import OrientationWarning
from polyvem.localmat import Element
from polyvem.mesh import (
    DUPLICATE_TOL,
    _Loops,
    CutLine,
    PolyMesh,
    build_global_dofs,
    cut_mesh,
    gen_structured,
    merge_meshes,
    read_mesh,
    write_mesh,
)
from polyvem.vemspace import build_layout

from conftest import lone_group


def unit_square_mesh():
    return PolyMesh(np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1]]), [[0, 1, 2, 3]])


def jittered_quads(x0, x1, y0, y1, cells, seed):
    """cells x cells quads on a rectangle, interior vertices moved by up to
    0.15 of a cell with a seeded generator."""
    X, Y = np.meshgrid(np.linspace(x0, x1, cells + 1), np.linspace(y0, y1, cells + 1))
    verts = np.column_stack([X.ravel(), Y.ravel()])
    interior = np.zeros((cells + 1, cells + 1), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior = interior.ravel()
    step = np.array([(x1 - x0) / cells, (y1 - y0) / cells])
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-0.15, 0.15, size=(interior.sum(), 2)) * step
    corners = (j * (cells + 1) + i for j in range(cells) for i in range(cells))
    return PolyMesh(verts, [[v, v + 1, v + cells + 2, v + cells + 1] for v in corners])


def poly2d_sha256(mesh, tmp_path):
    path = tmp_path / "mesh.poly2d"
    write_mesh(mesh, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def holed_mesh():
    # one square with a square hole, the hole filled by a second element
    verts = np.array(
        [
            [0.0, 0.0], [1, 0], [1, 1], [0, 1],
            [0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75],
        ]
    )
    return PolyMesh(verts, [([0, 1, 2, 3], [[7, 6, 5, 4]]), [4, 5, 6, 7]])


# -- container -----------------------------------------------------------


def test_single_square_counts():
    m = unit_square_mesh()
    assert m.num_vertices == 4
    assert m.num_elements == 1
    assert m.num_edges == 4
    assert len(m.boundary_edge_ids) == 4
    assert m.area == pytest.approx(1.0, abs=1e-15)


def test_edge_table_is_sorted_and_shared():
    m = gen_structured("quads", 2)
    assert m.edge_keys == sorted(m.edge_keys)
    interior = [inc for inc in m.edge_elements if len(inc) == 2]
    assert len(interior) == 4
    assert len(m.boundary_edge_ids) == 8
    for inc in interior:
        assert inc[0][1] + inc[1][1] == 0


def test_clockwise_element_corrected_with_warning():
    verts = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1]])
    with pytest.warns(OrientationWarning):
        m = PolyMesh(verts, [[0, 3, 2, 1]])
    assert m.elements[0][0] == [1, 2, 3, 0]
    assert m.facets[0].area == pytest.approx(1.0)


def test_duplicate_vertices_rejected():
    verts = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1], [1.0 + 1e-15, 0.0]])
    with pytest.raises(InvariantViolation, match="coincide"):
        PolyMesh(verts, [[0, 1, 2, 3]])


def test_t_junction_without_vertex_rejected():
    # right side is refined; the left square does not list the midpoint
    verts = np.array(
        [[0.0, 0.0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 0.5], [2, 1], [1, 0.5]]
    )
    elements = [[0, 1, 2, 3], [1, 4, 5, 7], [7, 5, 6, 2]]
    with pytest.raises(InvariantViolation, match="inside segment"):
        PolyMesh(verts, elements)


def test_same_direction_sharing_rejected():
    verts = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(InvariantViolation):
        PolyMesh(verts, [[0, 1, 2, 3], [0, 1, 2, 3]])


def loops_of(elements):
    """The flat loop arrays that read_mesh and cut_mesh hand to PolyMesh."""
    loops = [loop for outer, holes in elements for loop in [outer] + holes]
    return _Loops(
        np.array([i for loop in loops for i in loop], dtype=np.intp),
        np.array([len(loop) for loop in loops], dtype=np.intp),
        np.array([1 + len(holes) for _, holes in elements], dtype=np.intp),
    )


@pytest.mark.parametrize("path", ["list", "array"])
@pytest.mark.parametrize(
    "loops, message",
    [
        (([4, 5, 6], []), "element 1: vertex id 4 out of range \\[0, 4\\)$"),
        (([-4, -3, -2, -1], []), "element 1: vertex id -4 out of range \\[0, 4\\)$"),
        (([0, 1, 2], [[3, 2, -1]]), "element 1: vertex id -1 out of range"),
        (([], []), "element 1: empty loop$"),
        (([0, 1, 2], [[]]), "element 1: empty loop$"),
    ],
    ids=["too-high", "negative", "negative-in-hole", "empty-outer", "empty-hole"],
)
def test_bad_vertex_ids_and_empty_loops_rejected(path, loops, message):
    # element 0 is fine; element 1 names what is wrong with it, where numpy
    # indexing would wrap a negative id and fail on a high one
    verts = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1]])
    elements = [([0, 1, 2], []), loops]
    with pytest.raises(InvariantViolation, match=message):
        PolyMesh(verts, elements if path == "list" else loops_of(elements))


def test_empty_loop_in_file_exits_1(tmp_path, capsys):
    p = tmp_path / "empty.poly2d"
    p.write_text("poly2d 1\n3\n0 0\n1 0\n0 1\n1\n1\n0\n")
    with pytest.raises(InvariantViolation, match="element 0: empty loop"):
        read_mesh(p)
    assert cli.main(["mesh", "info", str(p)]) == 1
    assert capsys.readouterr().err == "error: element 0: empty loop\n"


def test_empty_vertex_table_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="vertex table is empty"):
        PolyMesh(np.zeros((0, 2)), [])
    p = tmp_path / "nothing.poly2d"
    p.write_text("poly2d 1\n0\n0\n")
    assert cli.main(["mesh", "info", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: vertex table is empty: a mesh needs vertices\n" % p)


def test_mesh_without_elements_reads_but_does_not_solve(tmp_path, capsys):
    p = tmp_path / "bare.poly2d"
    p.write_text("poly2d 1\n3\n0 0\n1 0\n0 1\n0\n")
    assert read_mesh(p).num_elements == 0
    assert cli.main(["solve", "--mesh", str(p)]) == 1
    assert capsys.readouterr().err == "error: mesh has no elements\n"


def test_holed_mesh_is_conforming():
    m = holed_mesh()
    assert m.area == pytest.approx(1.0, abs=1e-14)
    assert len(m.boundary_edge_ids) == 4
    inner = [inc for inc in m.edge_elements if len(inc) == 2]
    assert len(inner) == 4


# -- validation against the all-pairs scans --------------------------------


def scan_duplicates(v, tol):
    """Reference: walk every pair that shares an x column, in (x, y) order."""
    order = np.lexsort((v[:, 1], v[:, 0]))
    sv = v[order]
    for i in range(len(sv)):
        j = i + 1
        while j < len(sv) and sv[j, 0] - sv[i, 0] <= tol:
            if np.hypot(*(sv[j] - sv[i])) <= tol:
                return "vertices %d and %d coincide" % (order[i], order[j])
            j += 1
    return None


def scan_t_junctions(v, elements, tol):
    """Reference: test every vertex against every segment, in key order."""
    incidence = {}
    for eid, loop in enumerate(elements):
        for u, w in zip(loop, loop[1:] + loop[:1]):
            incidence.setdefault((min(u, w), max(u, w)), []).append(eid)
    for key in sorted(incidence):
        a, b = v[key[0]], v[key[1]]
        e = b - a
        L = np.hypot(*e)
        rel = v - a
        t = (rel @ e) / (L * L)
        perp = np.abs(rel[:, 0] * e[1] - rel[:, 1] * e[0]) / L
        inside = (perp <= tol) & (t * L > tol) & ((1.0 - t) * L > tol)
        inside[list(key)] = False
        bad = np.nonzero(inside)[0]
        if bad.size:
            return "vertex %d lies inside segment %s of element %d" % (
                bad[0], key, incidence[key][0])
    return None


def renumbered(verts, elements, rng):
    """The same mesh with its vertex ids shuffled."""
    perm = rng.permutation(len(verts))
    out = np.empty_like(verts)
    out[perm] = verts
    return out, [[int(perm[i]) for i in loop] for loop in elements]


def tables(mesh):
    """Editable copies of a hole-free mesh's vertex and element tables."""
    return mesh.vertices.copy(), [list(outer) for outer, _ in mesh.elements]


def build_in_runs(verts, elements, chunk):
    """PolyMesh with the grid hash yielding candidates in runs of about
    chunk pairs, so a defect can sit in any run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module._VertexGrid, "CHUNK", chunk)
        return PolyMesh(verts, elements)


RUN_SIZES = st.sampled_from([1, 5, 64, mesh_module._VertexGrid.CHUNK])


@given(
    st.integers(2, 9),
    st.integers(1, 4),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
    RUN_SIZES,
)
@settings(max_examples=40, deadline=None)
def test_duplicate_found_after_renumbering(n, copies, shift, seed, chunk):
    rng = np.random.default_rng(seed)
    verts, elements = tables(gen_structured("distortedQuads", n))
    # copies of random vertices, each moved by at most a few ulps
    src = rng.integers(len(verts), size=copies)
    extra = verts[src] + shift * 1e-16 * rng.uniform(-1.0, 1.0, size=(copies, 2))
    verts, elements = renumbered(np.vstack([verts, extra]), elements, rng)
    tol = DUPLICATE_TOL * np.hypot(*np.ptp(verts, axis=0))
    with pytest.raises(InvariantViolation, match="coincide") as err:
        build_in_runs(verts, elements, chunk)
    assert str(err.value) == scan_duplicates(verts, tol)


@given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 2**32 - 1), RUN_SIZES)
@settings(max_examples=40, deadline=None)
def test_t_junction_found_after_renumbering(n, count, seed, chunk):
    rng = np.random.default_rng(seed)
    m = gen_structured("distortedQuads", n)
    verts, elements = tables(m)
    interior = [i for i, inc in enumerate(m.edge_elements) if len(inc) == 2]
    extra = []
    for i in rng.choice(interior, size=min(count, len(interior)), replace=False):
        u, w = m.edge_keys[i]
        # the midpoint goes into one side only: a T-junction
        eid = m.edge_elements[i][rng.integers(2)][0]
        loop = elements[eid]
        at = next(j for j in range(len(loop)) if {loop[j - 1], loop[j]} == {u, w})
        loop.insert(at, len(verts) + len(extra))
        extra.append(0.5 * (verts[u] + verts[w]))
    verts, elements = renumbered(np.vstack([verts] + extra), elements, rng)
    tol = DUPLICATE_TOL * np.hypot(*np.ptp(verts, axis=0))
    with pytest.raises(InvariantViolation, match="inside segment") as err:
        build_in_runs(verts, elements, chunk)
    assert str(err.value) == scan_t_junctions(verts, elements, tol)


@given(
    st.integers(1, 12),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, 1e3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_quads_with_aligned_columns_build(n, scale, offset, seed):
    # every column of vertices shares one x coordinate exactly
    verts, elements = tables(gen_structured("quads", n))
    verts, elements = renumbered(verts * scale + offset, elements, np.random.default_rng(seed))
    m = PolyMesh(verts, elements)
    assert m.num_edges == 2 * n * (n + 1)
    assert len(m.boundary_edge_ids) == 4 * n


# -- text format ---------------------------------------------------------


def test_round_trip(tmp_path):
    m = gen_structured("distortedQuads", 3)
    p = tmp_path / "m.poly2d"
    write_mesh(m, p)
    m2 = read_mesh(p)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.elements == m2.elements


def test_round_trip_with_holes(tmp_path):
    m = holed_mesh()
    p = tmp_path / "holed.poly2d"
    write_mesh(m, p)
    m2 = read_mesh(p)
    assert m2.elements == m.elements
    assert m2.area == pytest.approx(1.0, abs=1e-14)


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "c.poly2d"
    p.write_text(
        "# a mesh\npoly2d 1\n\n4\n0 0\n1 0  # corner\n1 1\n0 1\n1\n1\n4 0 1 2 3\n"
    )
    m = read_mesh(p)
    assert m.num_vertices == 4 and m.num_elements == 1


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("nope 1\n4\n", "not a poly2d"),
        ("poly2d 1\n2\n0 0\n", "unexpected end"),
        ("poly2d 1\n1\n0 0 0\n", "two coordinates"),
        ("poly2d 1\n4\n0 0\n1 0\n1 1\n0 1\n1\n1\n4 0 1 2 9\n", "out of range"),
        ("poly2d 1\n4\n0 0\n1 0\n1 1\n0 1\n1\n1\n4 0 1 2\n", "announces"),
    ]
    for text, match in cases:
        p = tmp_path / "bad.poly2d"
        p.write_text(text)
        with pytest.raises(ParseError, match=match) as exc:
            read_mesh(p)
        assert "line" in str(exc.value)


# -- generators ----------------------------------------------------------


@pytest.mark.parametrize("kind,cells", [("quads", 1), ("triangles", 2), ("distortedQuads", 1)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_generator_counts_and_area(kind, cells, n):
    m = gen_structured(kind, n)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_elements == cells * n * n
    assert m.area == pytest.approx(1.0, abs=1e-12)


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_structured("quads", 0)
    with pytest.raises(ValueError):
        gen_structured("hexagons", 2)


def test_distorted_mesh_reproducible(tmp_path):
    pa, pb = tmp_path / "a.poly2d", tmp_path / "b.poly2d"
    write_mesh(gen_structured("distortedQuads", 4), pa)
    write_mesh(gen_structured("distortedQuads", 4), pb)
    ha = hashlib.sha256(pa.read_bytes()).hexdigest()
    hb = hashlib.sha256(pb.read_bytes()).hexdigest()
    assert ha == hb


def test_distorted_mesh_moves_interior_only():
    plain = gen_structured("quads", 4)
    bent = gen_structured("distortedQuads", 4)
    moved = np.hypot(*(plain.vertices - bent.vertices).T)
    on_boundary = (
        (plain.vertices[:, 0] == 0) | (plain.vertices[:, 0] == 1)
        | (plain.vertices[:, 1] == 0) | (plain.vertices[:, 1] == 1)
    )
    assert np.all(moved[on_boundary] < 1e-15)
    # the sine factors also vanish on the midlines; everywhere else the
    # perturbation is strictly nonzero
    v = plain.vertices
    active = ~on_boundary & (v[:, 0] != 0.5) & (v[:, 1] != 0.5)
    assert np.all(moved[active] > 1e-4)
    assert np.any(moved > 1e-3)


# -- cutting -------------------------------------------------------------


def test_cut_line_normalized():
    ln = CutLine(3.0, 4.0, 5.0)
    assert (ln.a, ln.b, ln.c) == (0.6, 0.8, 1.0)
    with pytest.raises(ValueError):
        CutLine(0.0, 0.0, 1.0)


def test_cut_single_square_in_half():
    m = cut_mesh(unit_square_mesh(), CutLine(1.0, 0.0, 0.5))
    assert m.num_elements == 2
    for f in m.facets:
        assert f.area == pytest.approx(0.5, rel=1e-14)
    assert m.num_vertices == 6


def test_cut_oblique_conserves_area():
    base = gen_structured("distortedQuads", 4)
    m = cut_mesh(base, CutLine(1.0, -0.31, 0.4))
    assert m.area == pytest.approx(base.area, rel=1e-12)
    assert all(f.area > 0 for f in m.facets)
    assert m.num_elements > base.num_elements


def test_cut_through_grid_vertices_snaps():
    base = gen_structured("quads", 2)
    with pytest.warns(UserWarning, match="snaps"):
        m = cut_mesh(base, CutLine(1.0, -1.0, 0.0))
    # the two diagonal cells split, the off-diagonal ones only graze
    assert m.num_elements == 6
    assert m.area == pytest.approx(1.0, rel=1e-13)
    assert m.num_vertices == base.num_vertices


def test_cut_missing_domain_returns_same_mesh():
    base = gen_structured("quads", 2)
    assert cut_mesh(base, CutLine(1.0, 0.0, 5.0)) is base


def test_cut_along_existing_edges_leaves_mesh_alone():
    base = gen_structured("quads", 2)
    with pytest.warns(UserWarning, match="snaps"):
        m = cut_mesh(base, CutLine(1.0, 0.0, 0.5))
    assert m is base


def test_cut_shared_edge_crossing_stays_conforming():
    verts = np.array([[0.0, 0.0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]])
    base = PolyMesh(verts, [[0, 1, 4, 5], [1, 2, 3, 4]])
    m = cut_mesh(base, CutLine(-0.2, 1.0, 0.3))
    # the crossing vertex on the shared edge x=1 is created exactly once
    assert m.num_elements == 4
    assert m.num_vertices == 6 + 3
    assert m.area == pytest.approx(2.0, rel=1e-13)


def test_cut_grazing_lshape_notch_is_degenerate():
    verts = np.array([[0.0, 0.0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    base = PolyMesh(verts, [[0, 1, 2, 3, 4, 5]])
    with pytest.raises(DegenerateCut, match="along an edge"):
        with pytest.warns(UserWarning, match="snaps"):
            cut_mesh(base, CutLine(0.0, 1.0, 1.0))


def test_cut_multi_chord_is_degenerate():
    verts = np.array(
        [[0.0, 0.0], [5, 0], [5, 3], [4, 3], [4, 1], [1, 1], [1, 3], [0, 3]]
    )
    base = PolyMesh(verts, [[0, 1, 2, 3, 4, 5, 6, 7]])
    with pytest.raises(DegenerateCut, match="need exactly 2"):
        cut_mesh(base, CutLine(0.0, 1.0, 2.0))


def test_cut_through_holed_element_is_degenerate():
    with pytest.raises(DegenerateCut, match="holes"):
        cut_mesh(holed_mesh(), CutLine(1.0, 0.0, 0.5))


def test_cut_random_lines_conserve_area():
    rng = np.random.default_rng(11)
    base = gen_structured("distortedQuads", 3)
    done = 0
    while done < 8:
        a, b = rng.standard_normal(2)
        c = rng.uniform(0.2, 0.8)
        try:
            m = cut_mesh(base, CutLine(a, b, c))
        except DegenerateCut:
            continue
        assert m.area == pytest.approx(base.area, rel=1e-12)
        done += 1


# -- merging -------------------------------------------------------------


def test_merge_matching_squares():
    left = unit_square_mesh()
    right = PolyMesh(np.array([[1.0, 0], [2, 0], [2, 1], [1, 1]]), [[0, 1, 2, 3]])
    m = merge_meshes(left, right)
    assert m.num_vertices == 6
    assert m.num_elements == 2
    assert m.area == pytest.approx(2.0, rel=1e-14)


def test_merge_nearly_matching_vertices_snap():
    left = unit_square_mesh()
    right = PolyMesh(
        np.array([[1.0 + 1e-12, 0], [2, 0], [2, 1], [1.0 + 1e-12, 1]]),
        [[0, 1, 2, 3]],
    )
    m = merge_meshes(left, right)
    assert m.num_vertices == 6


def test_merge_inserts_hanging_node():
    left = unit_square_mesh()
    right = PolyMesh(
        np.array([[1.0, 0], [2, 0], [2, 0.5], [1, 0.5], [2, 1], [1, 1]]),
        [[0, 1, 2, 3], [3, 2, 4, 5]],
    )
    m = merge_meshes(left, right)
    assert m.num_elements == 3
    # the left square picked up the midpoint of its right edge
    assert len(m.elements[0][0]) == 5
    assert m.area == pytest.approx(2.0, rel=1e-13)


def test_merge_disjoint_rejected():
    left = unit_square_mesh()
    far = PolyMesh(np.array([[5.0, 0], [6, 0], [6, 1], [5, 1]]), [[0, 1, 2, 3]])
    with pytest.raises(NoCommonBoundary):
        merge_meshes(left, far)


def test_merge_corner_touch_rejected():
    left = unit_square_mesh()
    corner = PolyMesh(np.array([[1.0, 1], [2, 1], [2, 2], [1, 2]]), [[0, 1, 2, 3]])
    with pytest.raises(NoCommonBoundary, match="isolated"):
        merge_meshes(left, corner)


def test_merge_overlap_rejected():
    left = unit_square_mesh()
    shifted = PolyMesh(
        np.array([[0.5, 0.25], [1.5, 0.25], [1.5, 0.75], [0.5, 0.75]]),
        [[0, 1, 2, 3]],
    )
    with pytest.raises(OverlapDetected):
        merge_meshes(left, shifted)


def test_merge_unifies_onto_lowest_first_mesh_id():
    # b's vertex is within tol of a's vertices 2 and 3; it becomes vertex 2,
    # which leaves vertex 3 inside b's glued segment (1, 2)
    a = PolyMesh(
        np.array([[0.0, 0], [1, 0], [1, 0.5 + 1e-10], [1, 0.5], [1, 1], [0, 1]]),
        [[0, 1, 3, 2, 4, 5]],
    )
    b = PolyMesh(
        np.array([[1.0, 0], [2, 0], [2, 1], [1, 1], [1, 0.5 + 0.5e-10]]),
        [[0, 1, 2, 3, 4]],
    )
    with pytest.raises(InvariantViolation, match=r"vertex 3 lies inside segment \(1, 2\)"):
        merge_meshes(a, b)


def lshape_mesh():
    verts = np.array([[0.0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    return PolyMesh(verts, [[0, 1, 2, 3, 4, 5]])


def test_merge_vertex_in_lshape_body_overlaps():
    # only the tip (0.1, 0.1) lies inside the L, near its box's corner
    wedge = PolyMesh(np.array([[-1.0, -1], [0.5, -1], [0.1, 0.1]]), [[0, 1, 2]])
    with pytest.raises(OverlapDetected, match="second mesh is inside the first"):
        merge_meshes(lshape_mesh(), wedge)


def test_merge_vertex_in_lshape_notch_is_no_overlap():
    # the 2x2 block fills the notch; its centre (1.5, 1.5) lies inside the
    # L's bounding box but outside the L
    notch = gen_structured("quads", 2)
    notch = PolyMesh(notch.vertices + 1.0, [outer for outer, _ in notch.elements])
    m = merge_meshes(lshape_mesh(), notch)
    assert m.num_elements == 5
    assert len(m.elements[0][0]) == 8  # two hanging nodes on the L
    assert m.area == pytest.approx(4.0, rel=1e-14)


def test_merge_vertex_in_hole_is_no_overlap():
    # a square with a square hole, the hole then filled by a 2x2 block
    # whose centre lies inside the hole
    verts = np.array([[0.0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [1, 2], [2, 2], [2, 1]])
    ring = PolyMesh(verts, [([0, 1, 2, 3], [[4, 5, 6, 7]])])
    block = gen_structured("quads", 2)
    block = PolyMesh(block.vertices + 1.0, [outer for outer, _ in block.elements])
    m = merge_meshes(ring, block)
    assert m.num_elements == 5
    assert len(m.elements[0][1][0]) == 8  # hanging nodes on the hole loop
    assert m.area == pytest.approx(9.0, rel=1e-14)


# poly2d digests of the pipelines below, recorded before the validation and
# merge moved to the grid hash; the rewrite must keep every byte
CUT_CHAIN_SHA256 = "29c143937ced26325c69142edec1e61839d554652e92259e756432ccd858641e"
MERGE_SHA256 = "a353cf80c3f23282420180761f9e875ee3707753c15d7532b0548a31bee79c37"


def test_cut_chain_output_is_pinned(tmp_path):
    m = gen_structured("distortedQuads", 32)
    for line in [(1.0, 0.35, 0.5123), (-0.3, 1.0, 0.2871), (0.8, 0.6, 0.9137)]:
        m = cut_mesh(m, CutLine(*line))
    assert (m.num_vertices, m.num_elements) == (1223, 1155)
    assert poly2d_sha256(m, tmp_path) == CUT_CHAIN_SHA256


def test_merge_output_is_pinned(tmp_path):
    neighbour = jittered_quads(1.0, 1.75, 0.0, 1.0, 10, seed=2024)
    m = merge_meshes(gen_structured("distortedQuads", 16), neighbour)
    assert (m.num_vertices, m.num_elements) == (407, 356)
    assert poly2d_sha256(m, tmp_path) == MERGE_SHA256


def test_merge_then_cut_pipeline_keeps_area():
    left = unit_square_mesh()
    right = PolyMesh(np.array([[1.0, 0], [2, 0], [2, 1], [1, 1]]), [[0, 1, 2, 3]])
    m = merge_meshes(left, right)
    m = cut_mesh(m, CutLine(0.3, 1.0, 0.62))
    assert m.area == pytest.approx(2.0, rel=1e-12)


# -- global dofs ---------------------------------------------------------


@pytest.mark.parametrize("k,total", [(1, 9), (2, 25), (3, 45)])
def test_global_dof_counts_quads(k, total):
    gd = build_global_dofs(gen_structured("quads", 2), k)
    assert gd.num_dofs == total


def test_global_dof_count_matches_local_layout():
    verts = np.array([[0.0, 0.0], [1.4, 0.1], [1.9, 1.0], [0.9, 1.8], [-0.2, 1.0]])
    m = PolyMesh(verts, [[0, 1, 2, 3, 4]])
    gd = build_global_dofs(m, 3)
    assert gd.num_dofs == 18
    assert len(gd.element_maps[0]) == build_layout(m.facets[0], 3).num_dofs


def test_element_maps_agree_with_layout_points():
    # the global point of every vertex/edge dof must coincide with the
    # point the element layout reports locally, shared edges included
    for kind in ("quads", "distortedQuads"):
        m = gen_structured(kind, 2)
        for k in (2, 3):
            gd = build_global_dofs(m, k)
            for eid, f in enumerate(m.facets):
                el = Element(f, k)
                gmap = gd.element_maps[eid]
                assert len(gmap) == el.layout.num_dofs
                local = lone_group(f, k).dof_points[0]
                mo = el.layout.moment_offset
                assert np.allclose(gd.dof_points[gmap[:mo]], local, atol=1e-13)


def test_shared_edge_dofs_single_counted():
    m = gen_structured("quads", 2)
    gd = build_global_dofs(m, 3)
    seen = {}
    for eid in range(m.num_elements):
        for g in gd.element_maps[eid]:
            seen.setdefault(int(g), 0)
            seen[int(g)] += 1
    assert set(seen) == set(range(gd.num_dofs))
    interior_edges = [i for i, inc in enumerate(m.edge_elements) if len(inc) == 2]
    assert len(interior_edges) == 4
    shared = sum(1 for g, c in seen.items() if c == 2)
    # 5 shared vertices appear in up to 4 elements; count only edge dofs
    edge_shared = [
        g
        for g, c in seen.items()
        if c == 2 and gd.num_vertex_dofs <= g < gd.moment_offset
    ]
    assert len(edge_shared) == len(interior_edges) * 2


def test_boundary_dofs_on_unit_square():
    m = gen_structured("quads", 2)
    gd = build_global_dofs(m, 2)
    pts = gd.dof_points[gd.boundary_dof_ids]
    assert len(gd.boundary_dof_ids) == 16
    on_edge = (
        np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 1)
        | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 1)
    )
    assert np.all(on_edge)
    assert np.all(gd.boundary_dof_ids < gd.moment_offset)


def test_moment_dofs_never_on_boundary():
    gd = build_global_dofs(gen_structured("quads", 2), 3)
    assert np.all(np.isnan(gd.dof_points[gd.moment_offset :]))
