import math

import numpy as np
import pytest

from polyvem.errors import (
    InvalidOrientation,
    InvariantViolation,
    NonPlanarFace,
    OpenSurface,
)
from polyvem.geometry import (
    Facet,
    Loop,
    OrientationWarning,
    Polyhedron,
    face_frame,
    point_in_loop,
    triangulate,
)

from conftest import (
    hanging_square,
    lshape,
    pentagon,
    random_facet,
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
        assert abs(f.perimeter - 6.0) < 1e-13

    def test_lshape(self):
        f = lshape()
        assert abs(f.area - 3.0) < 1e-13
        # two rectangles: 2x1 at (1, 0.5) and 1x1 at (0.5, 1.5)
        cx = (2.0 * 1.0 + 1.0 * 0.5) / 3.0
        cy = (2.0 * 0.5 + 1.0 * 1.5) / 3.0
        assert np.allclose(f.centroid, [cx, cy], atol=1e-13)

    def test_diameter_spans_all_loops(self):
        f = square_with_hole(1.0, 0.5)
        pts = np.concatenate([l.points() for l in f.loops()])
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
            g = Facet(f.coords @ R.T + shift, list(f.outer.ids))
            assert abs(g.area - f.area) < 1e-12 * f.area
            assert abs(g.diameter - f.diameter) < 1e-12 * f.diameter
            assert np.allclose(g.centroid, R @ f.centroid + shift, atol=1e-12)

    def test_scaling_scales_area_quadratically(self):
        f = pentagon()
        g = Facet(3.0 * f.coords, list(f.outer.ids))
        assert abs(g.area - 9.0 * f.area) < 1e-12 * g.area
        assert abs(g.diameter - 3.0 * f.diameter) < 1e-12 * g.diameter


class TestFacetValidation:
    def test_clockwise_outer_corrected_with_warning(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.warns(OrientationWarning):
            f = Facet(pts, [0, 3, 2, 1])
        assert f.outer.orientation == "ccw"
        assert f.area > 0

    def test_ccw_hole_corrected_with_warning(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.25, 0.25], [0.75, 0.25],
             [0.75, 0.75], [0.25, 0.75]],
            dtype=float,
        )
        with pytest.warns(OrientationWarning):
            f = Facet(pts, [0, 1, 2, 3], [[4, 5, 6, 7]])  # hole counterclockwise
        assert f.holes[0].orientation == "cw"
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
            Loop([0, 1, 2], pts)


class TestContainmentAndNormals:
    def test_point_in_loop(self):
        f = unit_square()
        assert point_in_loop([0.5, 0.5], f.outer)
        assert not point_in_loop([1.5, 0.5], f.outer)

    def test_contains_respects_holes(self):
        f = square_with_hole(1.0, 0.5)
        assert f.contains([0.1, 0.1])
        assert not f.contains([0.5, 0.5])  # inside the hole
        assert not f.contains([1.5, 0.5])

    def test_unit_square_edge_normals(self):
        f = unit_square()
        normals = [e.normal for e in f.boundary_edges()]
        expected = [[0, -1], [1, 0], [0, 1], [-1, 0]]
        for n, e in zip(normals, expected):
            assert np.allclose(n, e, atol=1e-14)

    def test_hole_edge_normals_point_out_of_material(self):
        f = square_with_hole(1.0, 0.5)
        for e in f.boundary_edges():
            mid = 0.5 * (e.p0 + e.p1)
            eps = 1e-6
            assert not f.contains(mid + eps * e.normal)
            assert f.contains(mid - eps * e.normal)

    def test_edge_lengths_and_tangents(self):
        f = unit_square()
        for e in f.boundary_edges():
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
