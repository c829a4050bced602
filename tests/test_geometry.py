import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem.errors import (
    InvalidOrientation,
    InvariantViolation,
    NonPlanarFace,
    OpenSurface,
)
from polyvem.geometry import (
    Facet,
    OrientationWarning,
    Polyhedron,
    face_frame,
    loop_defects,
    loop_measures,
    point_in_loop,
    signed_area,
    triangulate,
    vertex_diameters,
)

from conftest import (
    ReferenceFacet,
    boundary_edges,
    broadcast_loop_defects,
    broadcast_vertex_diameters,
    hanging_square,
    lshape,
    pentagon,
    perimeter,
    random_facet,
    row_loop_measures,
    square_with_hole,
    unit_square,
)


def tri_area(a, b, c):
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


class TestFacetMeasures:
    def test_unit_square(self):
        f = unit_square()
        assert abs(f.area - 1.0) < 1e-14
        assert np.allclose(f.centroid, [0.5, 0.5], atol=1e-14)
        assert abs(f.diameter - math.sqrt(2.0)) < 1e-14

    def test_square_with_central_hole(self):
        # unit square, centered hole of half the side: area 1 - 1/4
        f = square_with_hole(1.0, 0.5)
        assert abs(f.area - 0.75) < 1e-14
        assert np.allclose(f.centroid, [0.5, 0.5], atol=1e-14)
        assert abs(perimeter(f) - 6.0) < 1e-13

    def test_lshape(self):
        f = lshape()
        assert abs(f.area - 3.0) < 1e-13
        # two rectangles: 2x1 at (1, 0.5) and 1x1 at (0.5, 1.5)
        cx = (2.0 * 1.0 + 1.0 * 0.5) / 3.0
        cy = (2.0 * 0.5 + 1.0 * 1.5) / 3.0
        assert np.allclose(f.centroid, [cx, cy], atol=1e-13)

    def test_diameter_spans_all_loops(self):
        f = square_with_hole(1.0, 0.5)
        pts = np.concatenate([f.coords[l] for l in f.loops()])
        d = max(
            np.linalg.norm(p - q) for p in pts for q in pts
        )
        assert abs(f.diameter - d) < 1e-14

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_facet(rng, "plain")
            th = rng.uniform(0.0, 2.0 * np.pi)
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            shift = rng.uniform(-5.0, 5.0, 2)
            g = Facet(f.coords @ R.T + shift, f.outer)
            assert abs(g.area - f.area) < 1e-12 * f.area
            assert abs(g.diameter - f.diameter) < 1e-12 * f.diameter
            assert np.allclose(g.centroid, R @ f.centroid + shift, atol=1e-12)

    def test_scaling_scales_area_quadratically(self):
        f = pentagon()
        g = Facet(3.0 * f.coords, f.outer)
        assert abs(g.area - 9.0 * f.area) < 1e-12 * g.area
        assert abs(g.diameter - 3.0 * f.diameter) < 1e-12 * g.diameter


class TestFacetValidation:
    def test_clockwise_outer_corrected_with_warning(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.warns(OrientationWarning):
            f = Facet(pts, [0, 3, 2, 1])
        assert signed_area(f.coords[f.outer]) > 0.0
        assert f.area > 0

    def test_ccw_hole_corrected_with_warning(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.25, 0.25], [0.75, 0.25],
             [0.75, 0.75], [0.25, 0.75]],
            dtype=float,
        )
        with pytest.warns(OrientationWarning):
            f = Facet(pts, [0, 1, 2, 3], [[4, 5, 6, 7]])  # hole counterclockwise
        assert signed_area(f.coords[f.holes[0]]) < 0.0
        assert abs(f.area - 0.75) < 1e-14

    def test_repeated_vertex_rejected(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(InvariantViolation):
            Facet(pts, [0, 1, 1, 2, 3])

    def test_zero_length_edge_rejected(self):
        pts = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(InvariantViolation):
            Facet(pts, [0, 1, 2, 3, 4])

    def test_too_few_vertices_rejected(self):
        pts = np.array([[0, 0], [1, 0]], dtype=float)
        with pytest.raises(InvariantViolation):
            Facet(pts, [0, 1])

    def test_degenerate_loop_rejected(self):
        pts = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
        with pytest.raises(InvalidOrientation):
            Facet(pts, [0, 1, 2])

    def test_hole_outside_rejected(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [3, 1], [3, 0]],
            dtype=float,
        )
        with pytest.raises(InvariantViolation):
            Facet(pts, [0, 1, 2, 3], [[4, 5, 6, 7]])

    def test_nonfinite_coordinates_rejected(self):
        pts = np.array([[0, 0], [1, 0], [np.nan, 1]], dtype=float)
        with pytest.raises(ValueError):
            Facet(pts, [0, 1, 2])


FACET_DEFECTS = [
    None,
    "clockwise outer",
    "counterclockwise hole",
    "negative id",
    "repeated vertex",
    "zero-length edge",
    "two vertices",
    "collinear loop",
    "hole outside",
    "hole wider than the outer loop",
    "not finite",
    "id out of range",
]


@st.composite
def facet_inputs(draw):
    """(coords, outer, holes) of a random plain, hanging-node or holed
    loop set, with one defect or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_facet(rng, draw(st.sampled_from(["plain", "hanging", "hole"])))
    coords, outer, holes = f.coords.copy(), f.outer.tolist(), [h.tolist() for h in f.holes]
    n, i = len(coords), int(rng.integers(len(outer)))
    a, b = coords[outer[i]], coords[outer[(i + 1) % len(outer)]]
    defect = draw(st.sampled_from(FACET_DEFECTS))
    if defect == "clockwise outer":
        outer = outer[::-1]
    elif defect == "counterclockwise hole":
        holes = [h[::-1] for h in holes] or [[n, n + 1, n + 2]]
        c = coords[outer].mean(axis=0)
        coords = np.vstack([coords, c + 0.01 * np.array([[0, 0], [1, 0], [0, 1]])])
    elif defect == "negative id":
        outer[i] -= n
    elif defect == "repeated vertex":
        outer.insert(i, outer[i])
    elif defect == "zero-length edge":
        coords = np.vstack([coords, coords[outer[i]]])
        outer.insert(i + 1, n)
    elif defect == "two vertices":
        outer = outer[:2]
    elif defect == "collinear loop":
        coords = np.vstack([coords, 2.0 * b - a])
        outer = [outer[i], outer[(i + 1) % len(outer)], n]
    elif defect == "hole outside":
        c = coords.max(axis=0) + 1.0
        coords = np.vstack([coords, c, c + [0.0, 0.1], c + [0.1, 0.0]])
        holes = holes + [[n, n + 1, n + 2]]
    elif defect == "hole wider than the outer loop":
        c = coords[outer].mean(axis=0)
        coords = np.vstack([coords, c + 3.0 * (coords[outer] - c)])
        holes = [list(range(n + len(outer) - 1, n - 1, -1))]
    elif defect == "not finite":
        coords[outer[i]] = [np.nan, np.inf][int(rng.integers(2))]
    elif defect == "id out of range":
        outer[i] = n + int(rng.integers(3))
    return coords, outer, holes


def built(cls, coords, outer, holes):
    """(facet or None, (type, message) of its error, its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            facet, error = cls(coords, outer, holes), None
        except Exception as err:
            facet, error = None, (type(err), str(err))
    return facet, error, [(w.category, str(w.message)) for w in caught]


@given(facet_inputs())
@settings(max_examples=300, deadline=None)
def test_facet_equals_scalar_reference(inputs):
    # the checked one-row table against the loop-by-loop construction:
    # the same error and warnings, else bitwise the same measures and the
    # same oriented loops (negative ids wrapped)
    got, error, caught = built(Facet, *inputs)
    ref, ref_error, ref_caught = built(ReferenceFacet, *inputs)
    assert error == ref_error
    assert caught == ref_caught
    if error is None:
        assert got.area == ref.area and got.diameter == ref.diameter
        assert got.centroid.tobytes() == ref.centroid.tobytes()
        n = len(inputs[0])
        for mine, theirs in zip(got.loops(), ref.loops(), strict=True):
            assert mine.tolist() == np.where(theirs < 0, theirs + n, theirs).tolist()


class TestContainmentAndNormals:
    def test_point_in_loop(self):
        f = unit_square()
        assert point_in_loop([0.5, 0.5], f.coords[f.outer])
        assert not point_in_loop([1.5, 0.5], f.coords[f.outer])

    def test_contains_respects_holes(self):
        f = square_with_hole(1.0, 0.5)
        assert f.contains([0.1, 0.1])
        assert not f.contains([0.5, 0.5])  # inside the hole
        assert not f.contains([1.5, 0.5])

    def test_unit_square_edge_normals(self):
        f = unit_square()
        normals = [e.normal for e in boundary_edges(f)]
        expected = [[0, -1], [1, 0], [0, 1], [-1, 0]]
        for n, e in zip(normals, expected):
            assert np.allclose(n, e, atol=1e-14)

    def test_hole_edge_normals_point_out_of_material(self):
        f = square_with_hole(1.0, 0.5)
        for e in boundary_edges(f):
            mid = 0.5 * (e.p0 + e.p1)
            eps = 1e-6
            assert not f.contains(mid + eps * e.normal)
            assert f.contains(mid - eps * e.normal)

    def test_edge_lengths_and_tangents(self):
        f = unit_square()
        for e in boundary_edges(f):
            assert abs(e.length - 1.0) < 1e-14
            assert abs(np.linalg.norm(e.tangent) - 1.0) < 1e-14
            assert abs(float(np.dot(e.tangent, e.normal))) < 1e-14


class TestTriangulation:
    def test_pentagon(self):
        f = pentagon()
        tris = triangulate(f)
        assert len(tris) == 3
        total = sum(tri_area(*(f.coords[i] for i in t)) for t in tris)
        assert abs(total - f.area) < 1e-13
        for t in tris:
            assert tri_area(*(f.coords[i] for i in t)) > 0

    def test_square_with_hole(self):
        f = square_with_hole(1.0, 0.5)
        tris = triangulate(f)
        assert len(tris) >= 8
        total = sum(tri_area(*(f.coords[i] for i in t)) for t in tris)
        assert abs(total - 0.75) < 1e-13
        for t in tris:
            a = tri_area(*(f.coords[i] for i in t))
            assert a > 1e-14 * f.area

    def test_lshape_triangles_stay_inside(self):
        f = lshape()
        tris = triangulate(f)
        total = 0.0
        for t in tris:
            pts = f.coords[list(t)]
            total += tri_area(*pts)
            assert f.contains(pts.mean(axis=0))
        assert abs(total - 3.0) < 1e-12

    def test_hanging_node_dropped(self):
        f = hanging_square()
        tris = triangulate(f)
        total = sum(tri_area(*(f.coords[i] for i in t)) for t in tris)
        assert abs(total - 1.0) < 1e-13
        for t in tris:
            assert tri_area(*(f.coords[i] for i in t)) > 1e-14

    def test_randomized_cover(self):
        rng = np.random.default_rng(11)
        for kind in ("plain", "hanging", "hole"):
            for _ in range(40):
                f = random_facet(rng, kind)
                tris = triangulate(f)
                total = 0.0
                for t in tris:
                    pts = f.coords[list(t)]
                    a = tri_area(*pts)
                    assert a > 0
                    assert f.contains(pts.mean(axis=0))
                    total += a
                assert abs(total - f.area) < 1e-12 * f.area


CUBE_COORDS = np.array(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
    dtype=float,
)
CUBE_FACES = [
    [0, 3, 2, 1],
    [4, 5, 6, 7],
    [0, 1, 5, 4],
    [1, 2, 6, 5],
    [2, 3, 7, 6],
    [3, 0, 4, 7],
]


class TestPolyhedron:
    def test_unit_cube(self):
        p = Polyhedron(CUBE_COORDS, CUBE_FACES)
        assert abs(p.volume - 1.0) < 1e-13
        assert np.allclose(p.centroid, [0.5, 0.5, 0.5], atol=1e-13)
        assert abs(p.diameter - math.sqrt(3.0)) < 1e-13

    def test_translated_cube(self):
        p = Polyhedron(CUBE_COORDS + np.array([5.0, -2.0, 3.0]), CUBE_FACES)
        assert abs(p.volume - 1.0) < 1e-13
        assert np.allclose(p.centroid, [5.5, -1.5, 3.5], atol=1e-12)

    def test_box(self):
        scale = np.array([2.0, 3.0, 0.5])
        p = Polyhedron(CUBE_COORDS * scale, CUBE_FACES)
        assert abs(p.volume - 3.0) < 1e-12

    def test_unit_tetrahedron(self):
        coords = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
        p = Polyhedron(coords, faces)
        assert abs(p.volume - 1.0 / 6.0) < 1e-13
        assert np.allclose(p.centroid, [0.25, 0.25, 0.25], atol=1e-13)

    def test_open_surface_rejected(self):
        with pytest.raises(OpenSurface):
            Polyhedron(CUBE_COORDS, CUBE_FACES[:-1])

    def test_single_flipped_face_rejected(self):
        faces = [list(f) for f in CUBE_FACES]
        faces[2] = faces[2][::-1]
        with pytest.raises(OpenSurface):
            Polyhedron(CUBE_COORDS, faces)

    def test_inward_orientation_rejected(self):
        faces = [list(reversed(f)) for f in CUBE_FACES]
        p = Polyhedron(CUBE_COORDS, faces)
        with pytest.raises(InvalidOrientation):
            p.volume

    def test_nonplanar_face_rejected(self):
        coords = CUBE_COORDS.copy()
        coords[6] += np.array([0.0, 0.0, 0.3])  # bend the top face
        p = Polyhedron(coords, CUBE_FACES)
        with pytest.raises(NonPlanarFace):
            p.volume


class TestFaceFrame:
    def test_tilted_triangle_frame(self):
        coords = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        origin, u, v, n = face_frame(coords, [0, 1, 2])
        for a in (u, v, n):
            assert abs(np.linalg.norm(a) - 1.0) < 1e-14
        assert abs(float(np.dot(u, v))) < 1e-14
        assert abs(float(np.dot(u, n))) < 1e-14
        assert np.allclose(np.cross(u, v), n, atol=1e-14)

    def test_nonplanar_rejected(self):
        coords = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0.4], [0, 1, 0]], dtype=float
        )
        with pytest.raises(NonPlanarFace):
            face_frame(coords, [0, 1, 2, 3])


# -- the loop kernels against their row-wise formulas --------------------


def loop_stack(rng, size, m, scale):
    """m loops of `size` ids and points (m, size, 2) at the given scale,
    each plain or with one of the defects and near-defects of a mesh: a
    repeated vertex, a vertex on the line of its neighbours, every vertex
    on one line, or every vertex on one point."""
    pts = (rng.uniform(-1.0, 1.0, (m, size, 2)) + rng.uniform(-5.0, 5.0, 2)) * scale
    ids = np.arange(m * size).reshape(m, size)
    for row, kind in zip(range(m), rng.integers(5, size=m).tolist()):
        j = int(rng.integers(size))
        if kind == 1:
            pts[row, j], ids[row, j] = pts[row, j - 1], ids[row, j - 1]
        elif kind == 2:
            pts[row, j] = 0.5 * (pts[row, j - 1] + pts[row, (j + 1) % size])
        elif kind == 3:
            t = rng.uniform(0.0, 1.0, size)[:, None]
            pts[row] = (1.0 - t) * pts[row, 0] + t * pts[row, 1]
        elif kind == 4:
            pts[row] = pts[row, 0]
    return ids, pts


@given(st.integers(3, 12), st.integers(1, 8), st.integers(-6, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_loop_kernels_equal_the_row_formulas_bitwise(size, m, exponent, seed):
    ids, pts = loop_stack(np.random.default_rng(seed), size, m, 10.0 ** exponent)
    planes = np.ascontiguousarray(pts.transpose(2, 1, 0))
    want = row_loop_measures(pts)
    got = loop_measures(planes)
    for have, expected in zip(got, want):
        assert have.tobytes() == expected.tobytes()
    defects = loop_defects(np.ascontiguousarray(ids.T), planes, want[0])
    assert np.array_equal(defects, broadcast_loop_defects(ids, pts, want[0]))
    assert vertex_diameters(planes).tobytes() == broadcast_vertex_diameters(pts).tobytes()
