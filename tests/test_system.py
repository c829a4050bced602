"""Assembly, boundary conditions, the CG solver and error norms."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from polyvem.errors import SingularG
from polyvem.localmat import Element, ElementMatrixCache, MatrixTag, find_or_compute
from polyvem.mesh import PolyMesh, CutLine, build_global_dofs, cut_mesh, gen_structured
from polyvem.system import (
    SOLVERS,
    apply_dirichlet,
    assemble,
    error_norms,
    interpolate_dofs,
    jacobi_cg,
    register_solver,
    solve,
)


def pentagon_mesh():
    verts = np.array([[0.0, 0.0], [1.4, 0.1], [1.9, 1.0], [0.9, 1.8], [-0.2, 1.0]])
    return PolyMesh(verts, [[0, 1, 2, 3, 4]])


# -- assembly ------------------------------------------------------------


def test_single_element_scatter_matches_local_matrix():
    mesh = pentagon_mesh()
    for k in (1, 2):
        sys_ = assemble(mesh, k)
        el = Element(mesh.facets[0], k)
        cache = ElementMatrixCache()
        K = find_or_compute(cache, el, MatrixTag.STIFFNESS)
        K = 0.5 * (K + K.T)
        g = sys_.dofmap.element_maps[0]
        A = sys_.A.toarray()
        assert np.allclose(A[np.ix_(g, g)], K, atol=1e-14 * np.max(np.abs(K)))
        if k == 1:
            # vertex dofs coincide with vertex ids, so this one really is
            # the identity scatter
            assert np.allclose(A, K, atol=1e-14 * np.max(np.abs(K)))


def test_assembled_matrix_symmetric():
    mesh = gen_structured("distortedQuads", 3)
    for k in (1, 2):
        A = assemble(mesh, k).A
        assert (A - A.T).nnz == 0 or np.max(np.abs((A - A.T).data)) < 1e-15


def test_zero_source_gives_zero_rhs():
    mesh = gen_structured("quads", 2)
    assert np.all(assemble(mesh, 2).b == 0.0)
    b = assemble(mesh, 2, lambda x, y: np.zeros_like(x)).b
    assert np.all(b == 0.0)


def test_row_sums_vanish_before_bcs():
    # constants lie in the kernel of the assembled operator
    for k in (1, 2):
        mesh = gen_structured("quads", 2)
        sys_ = assemble(mesh, k)
        ones = interpolate_dofs(mesh, k, lambda x, y: np.ones_like(x))
        r = sys_.A @ ones
        assert np.max(np.abs(r)) < 1e-11 * np.max(np.abs(sys_.A.data))


def test_assembly_element_order_is_bitwise_irrelevant():
    verts = gen_structured("quads", 3).vertices
    elements = gen_structured("quads", 3).elements
    m1 = PolyMesh(verts, elements)
    m2 = PolyMesh(verts, list(reversed(elements)))
    A1 = assemble(m1, 1).A
    A2 = assemble(m2, 1).A
    assert np.array_equal(A1.indptr, A2.indptr)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.data, A2.data)


def test_element_errors_carry_element_id():
    # k below 1 fails inside the element machinery for every element
    with pytest.raises(ValueError):
        assemble(gen_structured("quads", 1), 0)


def test_error_norms_name_the_failing_element():
    # unit square plus a 1 x 1e-4 sliver on top: the sliver's projector
    # Gram matrix is singular at k = 3, also when nothing was assembled
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [1, 1 + 1e-4], [0, 1 + 1e-4]], dtype=float
    )
    mesh = PolyMesh(verts, [[0, 1, 2, 3], [3, 2, 4, 5]])
    u = lambda x, y: x
    grad = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    x = np.zeros(build_global_dofs(mesh, 3).num_dofs)
    with pytest.raises(SingularG, match="^element 1: "):
        error_norms(mesh, 3, x, u, grad)
    with pytest.raises(SingularG, match="^element 1: "):
        assemble(mesh, 3)


def test_dropped_mesh_freed_without_cycle_collector():
    # the mesh keeps its dof map and elements; none of them may point back
    # at it, or every level of a refinement study outlives its use
    u = lambda x, y: x * y
    grad = lambda x, y: (y, x)
    mesh = gen_structured("distortedQuads", 3)
    gc.disable()
    try:
        sys_ = assemble(mesh, 2, lambda x, y: np.zeros_like(x))
        error_norms(mesh, 2, np.zeros(sys_.num_dofs), u, grad)
        interpolate_dofs(mesh, 2, u)
        ref = weakref.ref(mesh)
        del sys_, mesh
        assert ref() is None
    finally:
        gc.enable()


def test_error_norms_reuse_assembled_elements():
    mesh = gen_structured("distortedQuads", 2)
    sys_ = assemble(mesh, 2, lambda x, y: np.ones_like(x))
    counts = [cache.compute_count for _, cache in sys_.caches]
    u = lambda x, y: x
    grad = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    error_norms(mesh, 2, np.zeros(sys_.num_dofs), u, grad)
    interpolate_dofs(mesh, 2, u)
    assert [cache.compute_count for _, cache in sys_.caches] == counts
    assert assemble(mesh, 2).dofmap is sys_.dofmap


# -- boundary conditions -------------------------------------------------


def test_dirichlet_samples_dof_points():
    mesh = gen_structured("quads", 2)
    sys_ = assemble(mesh, 2)
    apply_dirichlet(sys_, lambda x, y: x + 2.0 * y)
    pts = sys_.dofmap.dof_points[sys_.constrained_ids]
    assert np.allclose(sys_.constrained_values, pts[:, 0] + 2.0 * pts[:, 1])


def test_all_boundary_element_returns_samples():
    mesh = pentagon_mesh()
    sys_ = assemble(mesh, 1)
    apply_dirichlet(sys_, lambda x, y: 3.0 * x - y)
    x, rep = solve(sys_)
    expected = 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    assert np.allclose(x, expected, atol=1e-14)
    assert rep.converged and rep.iterations == 0


def test_homogeneous_bc_keeps_free_rhs():
    mesh = gen_structured("quads", 2)
    f = lambda x, y: np.ones_like(x)
    sys_ = assemble(mesh, 1, f)
    b_before = sys_.b.copy()
    apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
    free = sys_.free_ids()
    x, _ = solve(sys_)
    # with g = 0 the reduced rhs is untouched samples of b
    A_ff = sys_.A[free][:, free]
    assert np.allclose(A_ff @ x[free], b_before[free], atol=1e-11)


# -- solver --------------------------------------------------------------


def test_cg_identity_converges_in_one_iteration():
    A = sp.identity(7, format="csr")
    b = np.arange(1.0, 8.0)
    x, it, res, ok = jacobi_cg(A, b, 1e-12, 100)
    assert ok and it == 1
    assert np.allclose(x, b)


def test_cg_zero_rhs_takes_no_iterations():
    A = sp.identity(4, format="csr")
    x, it, res, ok = jacobi_cg(A, np.zeros(4), 1e-12, 100)
    assert ok and it == 0 and np.all(x == 0.0)


def test_cg_reports_nonconvergence():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, it, res, ok = jacobi_cg(A, b, 1e-16, 1)
    assert not ok and it == 1 and res > 1e-16


def test_solver_registry():
    def fake(A, b, tol, maxiter):
        return np.zeros_like(b), 0, 0.0, True

    register_solver("fake-direct", fake)
    try:
        with pytest.raises(ValueError):
            register_solver("fake-direct", fake)
        mesh = gen_structured("quads", 2)
        sys_ = assemble(mesh, 1)
        apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
        x, rep = solve(sys_, method="fake-direct")
        assert rep.method == "fake-direct"
    finally:
        SOLVERS.pop("fake-direct", None)
    with pytest.raises(ValueError):
        solve(assemble(gen_structured("quads", 1), 1), method="missing")


def test_solve_within_iteration_budget():
    mesh = gen_structured("distortedQuads", 4)
    for k in (1, 2, 3):
        sys_ = assemble(mesh, k, lambda x, y: np.ones_like(x))
        apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
        x, rep = solve(sys_)
        assert rep.converged
        assert rep.iterations <= 10 * sys_.num_dofs
        assert rep.residual <= 1e-12


# -- patch tests ---------------------------------------------------------


PATCH_CASES = {
    1: (
        lambda x, y: 2.0 + x - 3.0 * y,
        lambda x, y: np.zeros_like(x),
    ),
    2: (
        lambda x, y: x * x - y + 2.0 * x * y,
        lambda x, y: -2.0 * np.ones_like(x),
    ),
    3: (
        lambda x, y: x**3 + y**3 + x * y - x * x,
        lambda x, y: -6.0 * x - 6.0 * y + 2.0,
    ),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quads", "distortedQuads"])
def test_patch_exactness(k, kind):
    u, f = PATCH_CASES[k]
    mesh = gen_structured(kind, 3)
    sys_ = assemble(mesh, k, f)
    apply_dirichlet(sys_, u)
    x, rep = solve(sys_)
    xi = interpolate_dofs(mesh, k, u)
    assert rep.converged
    err = np.max(np.abs(x - xi)) / np.max(np.abs(xi))
    assert err < 1e-9


def test_patch_on_cut_mesh_with_hanging_nodes():
    base = gen_structured("quads", 3)
    mesh = cut_mesh(base, CutLine(1.0, -0.31, 0.4))
    u, f = PATCH_CASES[2]
    sys_ = assemble(mesh, 2, f)
    apply_dirichlet(sys_, u)
    x, _ = solve(sys_)
    xi = interpolate_dofs(mesh, 2, u)
    assert np.max(np.abs(x - xi)) / np.max(np.abs(xi)) < 1e-9


# -- error norms ---------------------------------------------------------


def test_interpolant_of_space_polynomial_has_tiny_error():
    for k in (1, 2, 3):
        u, _ = PATCH_CASES[k]
        if k == 1:
            grad = lambda x, y: (np.ones_like(x), -3.0 * np.ones_like(x))
        elif k == 2:
            grad = lambda x, y: (2 * x + 2 * y, 2 * x - 1.0)
        else:
            grad = lambda x, y: (3 * x**2 + y - 2 * x, 3 * y**2 + x)
        mesh = gen_structured("distortedQuads", 3)
        xi = interpolate_dofs(mesh, k, u)
        el2, eh1 = error_norms(mesh, k, xi, u, grad)
        assert el2 < 1e-10 and eh1 < 1e-10


def test_zero_solution_reports_function_norm():
    mesh = gen_structured("quads", 4)
    u = lambda x, y: np.ones_like(x)
    grad = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    el2, eh1 = error_norms(mesh, 1, np.zeros(25), u, grad)
    assert el2 == pytest.approx(1.0, rel=1e-12)
    assert eh1 == pytest.approx(0.0, abs=1e-13)


def test_error_decreases_under_refinement():
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    errs = []
    for n in (4, 8):
        mesh = gen_structured("quads", n)
        sys_ = assemble(mesh, 1, f)
        apply_dirichlet(sys_, u)
        x, _ = solve(sys_)
        errs.append(error_norms(mesh, 1, x, u, grad))
    assert errs[1][0] < 0.35 * errs[0][0]
    assert errs[1][1] < 0.6 * errs[0][1]
