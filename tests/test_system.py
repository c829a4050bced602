"""Assembly, boundary conditions, the CG solver and error norms."""

import gc
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyvem import localmat, system
from polyvem.errors import DegenerateCut, InvariantViolation, PolyVemError, SingularG, SingularH
from polyvem.localmat import Element, ElementMatrixCache, MatrixTag, find_or_compute
from polyvem.monomials import basis_size
from polyvem.mesh import (
    PolyMesh,
    CutLine,
    build_global_dofs,
    cut_mesh,
    gen_structured,
    merge_meshes,
)
from polyvem.system import (
    Condensed,
    _level_sets,
    _moment_blocks,
    _reduce_triplets,
    apply_dirichlet,
    assemble,
    discretisation,
    error_norms,
    interpolate_dofs,
    jacobi_cg,
    solve,
)
from conftest import LevelFactorByLists
from test_acceptance import holed_mesh
from test_arrays import quads_on


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


def reduce_by_full_sort(rows, cols, vals):
    """The triplet reduction `_reduce_triplets` replaced: one lexsort on
    (row, col, value), then a sum per (row, col) pair."""
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    fresh = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
    starts = np.flatnonzero(fresh)
    return rows[starts], cols[starts], np.add.reduceat(vals, starts)


NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                         -0x0008000000000000]).view(float)


@st.composite
def triplets(draw):
    """(n, rows, cols, values): few pairs, so most are shared; values with
    ties, signed zeros, infinities and NaNs of any payload."""
    n = draw(st.integers(1, 7))
    size = draw(st.integers(1, 80))
    index = st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
    values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e300, np.inf, -np.inf,
                                       *NAN_PAYLOADS])
                      | st.floats(allow_nan=True, allow_infinity=True),
                      min_size=size, max_size=size)
    return n, draw(index), draw(index), draw(values)


def two_value_runs(a, b):
    # key 0 gets a then b, key 1 gets b then a: runs of two, left unsorted
    return 2, [0, 0, 1, 1], [0, 0, 0, 0], [a, b, b, a]


@given(triplets())
@example(two_value_runs(*NAN_PAYLOADS[1:]))
@example(two_value_runs(NAN_PAYLOADS[1], 1.0))
@example(two_value_runs(-0.0, 0.0))
@example(two_value_runs(np.inf, -np.inf))
@settings(max_examples=200, deadline=None)
def test_triplet_reduction_equals_full_sort(case):
    n, rows, cols, vals = case
    rows, cols, vals = np.array(rows), np.array(cols), np.array(vals, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        keys, sums = _reduce_triplets(rows * n + cols, vals)
        want_rows, want_cols, want_sums = reduce_by_full_sort(rows, cols, vals)
    assert np.array_equal(keys // n, want_rows) and np.array_equal(keys % n, want_cols)
    assert sums.view(np.int64).tolist() == want_sums.view(np.int64).tolist()


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


def strip_mesh(order):
    # the unit square and, stacked on top of it, two 1-wide slivers: at
    # k = 2 the 1e-3 one fails only its mass matrix H, the 3e-5 one fails
    # its Gram matrix G as well; all three are one group of quads
    ys = [0.0, 1.0, 1.0 + 1e-3, 1.0 + 1e-3 + 3e-5]
    verts = np.array([[x, y] for y in ys for x in (0.0, 1.0)])
    strips = [[2 * i, 2 * i + 1, 2 * i + 3, 2 * i + 2] for i in range(3)]
    return PolyMesh(verts, [strips[i] for i in order])


def test_batched_failure_names_lowest_element_first_failure():
    f = lambda x, y: np.ones_like(x)
    # element 1 fails H (needed only by the load), element 2 fails G: an
    # element-by-element pass meets element 1's SingularH first
    mesh = strip_mesh([0, 1, 2])
    with pytest.raises(SingularH, match="^element 1: "):
        assemble(mesh, 2, f)
    # without a load H is never needed
    with pytest.raises(SingularG, match="^element 2: "):
        assemble(strip_mesh([0, 1, 2]), 2)
    # element 1 fails both: G comes first within an element
    with pytest.raises(SingularG, match="^element 1: "):
        assemble(strip_mesh([0, 2, 1]), 2, f)
    # a lower failing id in a later group wins too: the groups here are
    # the quads {0, 2} (2 fails G) and the thin triangle {1} (fails H)
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [1, 1 + 3e-5], [0, 1 + 3e-5], [0.5, -1e-3]]
    )
    mesh = PolyMesh(verts, [[0, 1, 2, 3], [0, 6, 1], [3, 2, 4, 5]])
    with pytest.raises(SingularH, match="^element 1: "):
        assemble(mesh, 2, f)


def test_batched_solve_error_traced_to_its_element(monkeypatch):
    # with the condition test out of the way, LAPACK's own singularity
    # report of one member fails the stacked solve of the whole group;
    # the fake solve below reports it for numerically singular members
    real_solve = np.linalg.solve

    def solve(a, b):
        if (np.linalg.cond(a) > 1e12).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(localmat, "COND_LIMIT", np.inf)
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(
        SingularG, match="^element 2: projector Gram matrix is singular: Singular matrix$"
    ):
        assemble(strip_mesh([0, 1, 2]), 2)


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
    groups = discretisation(mesh, 2)[1]
    counts = [group.cache.compute_count for _, group in groups]
    u = lambda x, y: x
    grad = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    error_norms(mesh, 2, np.zeros(sys_.num_dofs), u, grad)
    interpolate_dofs(mesh, 2, u)
    assert [group.cache.compute_count for _, group in groups] == counts
    assert assemble(mesh, 2).dofmap is sys_.dofmap



@pytest.mark.parametrize("k, load", [(1, True), (2, False), (2, True), (3, True)])
def test_assembly_keeps_only_what_later_stages_read(k, load):
    # the error norms and solve --out read PI_GRAD_STAR, an assembly of the
    # same mesh again STIFFNESS and PI_ZERO_STAR (which only a load at
    # k >= 2 computes); D, B, G, H and PI_GRAD go, with the masses
    mesh = gen_structured("distortedQuads", 3)
    assemble(mesh, k, (lambda x, y: np.ones_like(x)) if load else None)
    kept = {MatrixTag.PI_GRAD_STAR, MatrixTag.STIFFNESS}
    if load and k >= 2:
        kept.add(MatrixTag.PI_ZERO_STAR)
    for _, group in discretisation(mesh, k)[1]:
        assert {tag for tag in MatrixTag if tag in group.cache} == kept
        assert group._mass is None


def test_group_geometry_does_not_outlive_assembly():
    # the stacked boundary geometry goes with the masses, and comes back
    # with the same bits when a second assembly needs it for H
    mesh = capped_meshes()["merged"]
    f = lambda x, y: np.sin(3.0 * x) * y
    first = assemble(mesh, 2, f)
    for _, group in discretisation(mesh, 2)[1]:
        assert not set(localmat._GEOMETRY) & set(vars(group))
    second = assemble(mesh, 2, f)
    for a, b in zip((first.A.data, first.A.indices, first.A.indptr, first.b),
                    (second.A.data, second.A.indices, second.A.indptr, second.b)):
        assert a.tobytes() == b.tobytes()


def test_mesh_without_elements_cannot_be_assembled():
    mesh = PolyMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [])
    assert (mesh.num_elements, mesh.num_edges, mesh.area) == (0, 0, 0.0)
    with pytest.raises(InvariantViolation, match="^mesh has no elements$"):
        assemble(mesh, 1)


def capped_meshes():
    rng = np.random.default_rng(5)
    merged = merge_meshes(gen_structured("distortedQuads", 4), quads_on(1.0, 1.5, 0.0, 1.0, 5, rng))
    return {"distortedQuads:8": gen_structured("distortedQuads", 8), "holed": holed_mesh(),
            "merged": merged}


@pytest.mark.parametrize("name", ["distortedQuads:8", "holed", "merged"])
def test_group_cap_changes_no_bit(name, monkeypatch):
    # a member's matrices have the same bits in a group of any size, and
    # assembly sums in an order that does not depend on the groups
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    runs = []
    for cap in (localmat.GROUP_CAP, 3):
        monkeypatch.setattr(localmat, "GROUP_CAP", cap)
        mesh = capped_meshes()[name]
        sys_ = apply_dirichlet(assemble(mesh, 3, lambda x, y: 2 * np.pi**2 * u(x, y)), u)
        x, rep = solve(sys_)
        groups = discretisation(mesh, 3)[1]
        assert max(len(ids) for ids, _ in groups) <= cap
        assert [ids[0] for ids, _ in groups] == sorted(ids[0] for ids, _ in groups)
        runs.append((len(groups), sys_.A.data, sys_.A.indices, sys_.A.indptr, sys_.b, x,
                     rep.iterations, np.array(error_norms(mesh, 3, x, u, grad))))
    (uncapped, *first), (capped, *second) = runs
    assert capped > uncapped or name == "holed"
    for a, b in zip(first, second):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


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


@pytest.mark.parametrize(
    "A",
    [
        sp.csr_matrix((2, 2)),
        sp.csr_matrix(np.diag([1.0, -1.0])),
        sp.csr_matrix(np.array([[4.0, 1.0], [1.0, np.nan]])),
    ],
    ids=["zero", "indefinite", "nan"],
)
def test_cg_stops_on_breakdown(A):
    # p.Ap is 0, 0 and NaN in the first iteration
    x, it, res, ok = jacobi_cg(A, np.array([1.0, 1.0]), 1e-12, 100)
    assert not ok and it == 0 and res == 1.0
    assert np.all(np.isfinite(x))


class CountingOperator:
    """A matrix that counts its products; its other attributes are A's."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __getattr__(self, name):
        return getattr(self.A, name)

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def hat_cycle(A, width):
    """The two-level cycle for the 1d Laplacian A over linear hats centred
    every `width` nodes, built as `Condensed` builds its own."""
    i = np.arange(A.shape[0])
    P = sp.csr_matrix(np.maximum(0.0, 1.0 - np.abs(i[:, None] - i[width - 1 :: width]) / width))
    AP, Pt = A @ P, P.T.tocsr()
    return system._two_level(A, P, Pt, AP, system.LevelFactor(Pt @ AP))


@pytest.mark.parametrize(
    "two_level, tol, products",
    [(False, 1e-13, 103), (True, 5e-14, 45)],
    ids=["jacobi", "two-level"],
)
def test_cg_restarts_from_the_true_residual(two_level, tol, products):
    # the recurrence residual meets tol once while b - A x does not: one
    # product more checks it, CG restarts from it, and one more at the
    # real stop.  With the exact coarse solve b - A x levels off at about
    # 9e-14, so that case needs a tol below it.  The two-level cycle makes
    # one product more before each step (the last is a stop) and forms
    # A P once.
    n = 100
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    b = np.random.default_rng(0).standard_normal(n)
    op = CountingOperator(A)
    precondition = hat_cycle(op, 4) if two_level else None
    x, it, res, ok = jacobi_cg(op, b, tol, 10 * n, precondition)
    assert ok and op.products == (2 * it + 3 if two_level else it + 2) == products
    assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= tol


def test_benchmark_tracer_resolves_every_name(monkeypatch):
    # perfbench/tracing.py wraps library functions by name; one it cannot
    # find is skipped and its per-layer metrics read absent, silently
    from pathlib import Path

    import polyvem.cli  # noqa: F401  (imports every traced module)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()


def test_solve_within_iteration_budget():
    mesh = gen_structured("distortedQuads", 4)
    for k in (1, 2, 3):
        sys_ = assemble(mesh, k, lambda x, y: np.ones_like(x))
        apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
        x, rep = solve(sys_)
        assert rep.converged
        assert rep.iterations <= 10 * sys_.num_dofs
        assert rep.residual <= 1e-12


def test_converged_means_true_residual_meets_tol():
    # the report is of the whole reduced system, moments included, not of
    # the condensed one CG runs on: it must match b_f - A_ff x_f formed here
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    sys_ = assemble(gen_structured("distortedQuads", 32), 3, lambda x, y: 2 * np.pi**2 * u(x, y))
    apply_dirichlet(sys_, u)
    x, rep = solve(sys_, tol=1e-12)
    free, fixed = sys_.free_ids(), sys_.constrained_ids
    b_f = sys_.b[free] - sys_.A[free][:, fixed] @ sys_.constrained_values
    true = np.linalg.norm(b_f - sys_.A[free][:, free] @ x[free]) / np.linalg.norm(b_f)
    assert rep.converged
    assert true <= 1e-12
    assert rep.residual == pytest.approx(true, rel=1e-9)


# -- static condensation of the moment dofs ------------------------------


def sine_problem(mesh, k):
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    sys_ = assemble(mesh, k, lambda x, y: 2 * np.pi**2 * u(x, y))
    return apply_dirichlet(sys_, u)


def uncondensed(sys_):
    """x from jacobi_cg on the whole reduced system A_ff, moments included."""
    free, fixed = sys_.free_ids(), sys_.constrained_ids
    rhs = sys_.b[free] - sys_.A[free][:, fixed] @ sys_.constrained_values
    x = np.zeros(sys_.num_dofs)
    x[fixed] = sys_.constrained_values
    x[free], _, _, ok = jacobi_cg(sys_.A[free][:, free], rhs, 1e-12, 10 * len(free))
    assert ok
    return x


def max_rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


CONDENSATION_MESHES = {
    "distortedQuads": lambda: gen_structured("distortedQuads", 8),
    "holed": holed_mesh,
    "cut": lambda: cut_mesh(gen_structured("quads", 3), CutLine(1.0, -0.31, 0.4)),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONDENSATION_MESHES))
def test_condensed_solve_matches_uncondensed_cg(name, k):
    sys_ = sine_problem(CONDENSATION_MESHES[name](), k)
    x, rep = solve(sys_)
    assert rep.converged and rep.residual <= 1e-12
    assert max_rel_diff(x, uncondensed(sys_)) <= 1e-10


def test_repeated_dirichlet_solves_reuse_the_condensed_operator(monkeypatch):
    # one operator, one preconditioner and one coarse factor serve every
    # solve on the constrained set
    mesh = gen_structured("distortedQuads", 8)
    sys_ = assemble(mesh, 3)
    builds, build = [], system.LevelFactor.__init__
    monkeypatch.setattr(system.LevelFactor, "__init__",
                        lambda self, A: builds.append(build(self, A)))
    operators, preconditioners, built = [], [], []
    for g in (lambda x, y: x * y - y**3, lambda x, y: np.exp(x) * np.cos(y)):
        before = len(builds)
        x, rep = solve(apply_dirichlet(sys_, g))
        built.append(len(builds) - before)
        operators.append(sys_.condensed)
        preconditioners.append(sys_.condensed.precondition)
        fresh, _ = solve(apply_dirichlet(assemble(mesh, 3), g))
        assert rep.converged and np.array_equal(x, fresh)
    assert operators[0] is operators[1]
    assert preconditioners[0] is preconditioners[1]
    assert built == [1, 0]


def test_replacing_the_operator_rebuilds_the_condensed_operator():
    # the condensed operator is of A itself: a new A on the same
    # constrained set solved with the old one stalls at residual 1
    sys_ = sine_problem(gen_structured("distortedQuads", 4), 2)
    solve(sys_)
    first = sys_.condensed
    sys_.A = (2.0 * sys_.A).tocsr()
    x, rep = solve(sys_)
    fresh = sine_problem(gen_structured("distortedQuads", 4), 2)
    fresh.A = (2.0 * fresh.A).tocsr()
    y, _ = solve(fresh)
    assert sys_.condensed is not first and sys_.condensed.A is sys_.A
    assert rep.converged and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n, most", [(2, 22), (32, 23)])
def test_condensed_setup_builds_few_sparse_matrices(n, most, monkeypatch):
    # each scipy sparse object costs format checks and index-dtype probes
    # whatever its size: a fixed cost of the set-up that host speed cannot
    # move, so a change that adds constructions fails here without timing
    from scipy.sparse._base import _spbase

    sys_ = sine_problem(gen_structured("distortedQuads", n), 2)
    built, init = [], _spbase.__init__
    monkeypatch.setattr(_spbase, "__init__",
                        lambda self, *a, **kw: built.append(init(self, *a, **kw)))
    Condensed(sys_)
    monkeypatch.undo()
    assert len(built) <= most


def test_constraining_a_moment_dof_rebuilds_the_condensed_operator():
    sys_ = sine_problem(gen_structured("distortedQuads", 8), 3)
    solve(sys_)
    first = sys_.condensed
    moment = sys_.dofmap.moment_offset + 3 * 5 + 1  # one of element 5's three
    sys_.constrained_ids = np.append(sys_.constrained_ids, moment)
    sys_.constrained_values = np.append(sys_.constrained_values, 0.3)
    x, rep = solve(sys_)
    assert sys_.condensed is not first
    assert rep.converged and x[moment] == 0.3
    assert max_rel_diff(x, uncondensed(sys_)) <= 1e-10


def scattered_moment_blocks(A, mo, nel, nm):
    """The moment blocks as `Condensed` took them before `_moment_blocks`:
    A's moment rows and columns sliced, then scattered by position."""
    A_mm = A[mo:, mo:].tocoo()
    owner, local = np.repeat(np.arange(nel), nm), np.tile(np.arange(nm), nel)
    blocks = np.zeros((nel, nm, nm))
    blocks[owner[A_mm.row], local[A_mm.row], local[A_mm.col]] = A_mm.data
    return blocks


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("edit", ["none", "zeroed", "unsorted"])
def test_moment_blocks_read_as_the_slice_scatters(k, edit):
    # read off the row ends, also where entries are missing (a zeroed lil
    # entry is dropped) or the indices are not sorted
    sys_ = sine_problem(gen_structured("distortedQuads", 4), k)
    A, mo, nm = sys_.A, sys_.dofmap.moment_offset, basis_size(k - 2)
    rng = np.random.default_rng(k)
    if edit == "zeroed":
        A = A.tolil()
        rows = mo + rng.choice(A.shape[0] - mo, 6, replace=False)
        A[rows, rng.integers(0, A.shape[1], 6)] = 0.0
        A[rows[:2], rows[:2]] = 0.0
        A = A.tocsr()
    elif edit == "unsorted":
        A = A.copy()
        for r in range(A.shape[0]):
            span = slice(A.indptr[r], A.indptr[r + 1])
            flip = rng.permutation(span.stop - span.start)
            A.indices[span], A.data[span] = A.indices[span][flip], A.data[span][flip]
        A.has_sorted_indices = False
    nel = sys_.mesh.num_elements
    got = _moment_blocks(A, mo, nel, nm)
    assert got.tobytes() == scattered_moment_blocks(A, mo, nel, nm).tobytes()


def test_singular_moment_block_reports_nonconvergence():
    sys_ = sine_problem(gen_structured("distortedQuads", 4), 3)
    A = sys_.A.tolil()
    block = sys_.dofmap.moment_offset + 3 * 2 + np.arange(3)  # element 2's moments
    A[block[:, None], block] = 0.0
    sys_.A = A.tocsr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, rep = solve(sys_)
    assert not rep.converged


def assemble_cut(mesh, k, f=None):
    """assemble(mesh, k, f) of a cut mesh, or the draw rejected: a cut may
    leave a sliver that no space of order k can use, and assembly then
    raises an error that names it."""
    try:
        return assemble(mesh, k, f)
    except PolyVemError as err:
        assert re.match(r"element \d+: ", str(err)), err
        assume(False)


# a*x + b*y = c 1e-7 from the middle vertex (0.5, 0.5) of distortedQuads:2
SLIVER_LINE = (1.0, 0.3, 0.65 + 1e-7)


def test_sliver_cuts_fail_naming_their_element():
    # the cut of `test_coarse_factor_solves_the_coarse_problem` at n = 3,
    # seed = 8601: cond(H) of element 6 is about 4e12
    rng = np.random.default_rng(8601)
    line = CutLine(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 0.8))
    mesh = cut_mesh(gen_structured("distortedQuads", 3), line)
    with pytest.raises(SingularH, match="^element 6: "):
        assemble(mesh, 3, lambda x, y: np.ones_like(x))
    # without a load only G is tested, and fails
    mesh = cut_mesh(gen_structured("distortedQuads", 2), CutLine(*SLIVER_LINE))
    with pytest.raises(SingularG, match="^element 6: "):
        assemble(mesh, 2)


@given(
    st.integers(2, 6),
    st.sampled_from([2, 3]),
    st.booleans(),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.2, 0.8)),
)
@example(2, 2, True, (0.0, 1.0, 1.0), SLIVER_LINE)
@settings(max_examples=30, deadline=None)
def test_coarse_space_interpolates_linears_exactly(n, k, cut, coeffs, line):
    mesh = gen_structured("distortedQuads", n)
    if cut:
        assume(line[0] ** 2 + line[1] ** 2 > 1e-2)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a snapping cut is still a mesh
                mesh = cut_mesh(mesh, CutLine(*line))
        except DegenerateCut:
            assume(False)
    # unconstrained, P maps every vertex onto every skeleton dof
    sys_ = assemble_cut(mesh, k) if cut else assemble(mesh, k)
    P = Condensed(sys_).P
    points = sys_.dofmap.dof_points[: sys_.dofmap.moment_offset]
    u = coeffs[0] + coeffs[1] * points[:, 0] + coeffs[2] * points[:, 1]
    assert np.allclose(P @ u[: mesh.num_vertices], u, rtol=0.0, atol=1e-12)
    # with boundary values, its free rows and columns
    apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
    free = sys_.free_ids()
    inner = free[free < sys_.dofmap.moment_offset]
    P_free = Condensed(sys_).P
    assert (P_free != P[inner][:, inner[inner < mesh.num_vertices]]).nnz == 0


def components(A):
    """The number of connected components of A's graph."""
    reach = (A.toarray() != 0) | np.eye(A.shape[0], dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            return len({row.tobytes() for row in reach})
        reach = wider


def constrained_set(kind, n, k, seed):
    """The solve with a unit load on distortedQuads:n at order k, every
    boundary value 0, as `kind` makes it: "cut" by a line drawn from
    seed, "merged" with a finer column of quads along x = 1 (hanging
    nodes), "two components" with the middle column of vertices held too,
    or "no free vertex" with every vertex held; with the generator, whose
    draws go on from the cut's."""
    rng = np.random.default_rng(seed)
    mesh = gen_structured("distortedQuads", n)
    if kind == "cut":
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a snapping cut is still a mesh
                mesh = cut_mesh(mesh, CutLine(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 0.8)))
        except DegenerateCut:
            assume(False)
    elif kind == "merged":  # hanging nodes along x = 1
        mesh = merge_meshes(mesh, quads_on(1.0, 1.5, 0.0, 1.0, n + 1, rng))
    f = lambda x, y: np.ones_like(x)
    sys_ = assemble_cut(mesh, k, f) if kind == "cut" else assemble(mesh, k, f)
    apply_dirichlet(sys_, lambda x, y: np.zeros_like(x))
    if kind == "two components":  # the middle column of vertices held too
        middle = n // 2 + (n + 1) * np.arange(n + 1)
        sys_.constrained_ids = np.union1d(sys_.constrained_ids, middle)
        sys_.constrained_values = np.zeros(len(sys_.constrained_ids))
    elif kind == "no free vertex":
        sys_.constrained_ids = np.union1d(sys_.constrained_ids, np.arange(mesh.num_vertices))
        sys_.constrained_values = np.zeros(len(sys_.constrained_ids))
    return sys_, rng


@pytest.mark.parametrize("kind", ["cut", "merged", "two components", "no free vertex"])
@given(st.integers(2, 6), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
@example(3, 3, 8601)  # the cut leaves a sliver: its H is singular
@example(5, 3, 31)  # CG meets its target on S, the recovered moments miss tol
# cuts whose solve misses tol = 1e-12 within twice the rounding floor
@example(5, 3, 831303)
@example(5, 3, 643667599)
@example(4, 3, 1322537447)
@example(5, 3, 633211230)
@example(6, 3, 3218031636)
@example(4, 3, 2391259022)
@settings(max_examples=10, deadline=None)
def test_coarse_factor_solves_the_coarse_problem(kind, n, k, seed):
    assume(kind != "two components" or n >= 4)
    sys_, rng = constrained_set(kind, n, k, seed)
    c = Condensed(sys_)
    Ac, factor = (c.P.T @ (c.S @ c.P)).tocsr(), c.coarse
    if kind in ("two components", "no free vertex"):
        assert components(Ac) == (2 if kind == "two components" else 0)
    b = rng.standard_normal(Ac.shape[0])
    y = factor.solve(b)
    assert y.shape == b.shape
    assert np.linalg.norm(Ac @ y - b) <= 1e-12 * np.linalg.norm(b)
    x, rep = solve(sys_)
    assert rep.converged or rep.reason == "at the floor"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["cut", "merged", "two components", "no free vertex", "holed"])
def test_two_level_cycle_is_symmetric_positive_definite(kind, k):
    # B, the cycle as one matrix, formed column by column: CG needs one
    # fixed SPD operator, which the l1 smoother makes it for OMEGA < 2
    sys_ = sine_problem(holed_mesh(), k) if kind == "holed" else constrained_set(kind, 5, k, 31)[0]
    c = Condensed(sys_)
    B = np.column_stack([c.precondition(e).copy() for e in np.eye(c.S.shape[0])])
    assert np.abs(B - B.T).max() <= 1e-13 * np.abs(B).max()
    assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0.0


def level_sets_by_queue(A):
    """Breadth-first levels of A's graph, one unknown at a time: each
    component from its lowest unknown, each level sorted."""
    n, levels, seen = A.shape[0], [], set()
    for seed in range(n):
        if seed in seen:
            continue
        seen.add(seed)
        frontier = [seed]
        while frontier:
            levels.append(sorted(frontier))
            frontier = {j for i in frontier for j in A.indices[A.indptr[i] : A.indptr[i + 1]]}
            frontier = frontier - seen
            seen |= frontier
    return levels


@given(st.integers(0, 30), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_level_sets_are_breadth_first_levels(n, density, seed):
    A = sp.random(n, n, density=density, random_state=np.random.default_rng(seed), format="csr")
    A = (A + A.T).tocsr()
    order, bounds = _level_sets(A.indptr, A.indices)
    levels = [order[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]
    assert levels == level_sets_by_queue(A)


FACTOR_MESHES = {
    "distortedQuads": lambda: gen_structured("distortedQuads", 16),
    "holed": holed_mesh,
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(FACTOR_MESHES))
def test_coarse_factor_blocks_merge_level_sets_within_the_bound(name, k):
    c = Condensed(sine_problem(FACTOR_MESHES[name](), k))
    Ac, factor = (c.P.T @ (c.S @ c.P)).tocsr(), c.coarse
    N = Ac.shape[0]
    _, levels = _level_sets(Ac.indptr, Ac.indices)
    # the blocks tile the level-set order, each a run of whole level sets
    starts = [s.start for s in factor.blocks]
    assert starts[0] == 0 and factor.blocks[-1].stop == N
    assert [s.stop for s in factor.blocks[:-1]] == starts[1:]
    assert set(starts) <= set(levels.tolist())
    if name == "distortedQuads":
        assert len(factor.blocks) < len(levels) - 1
    # in block order Ac couples only the same or adjacent blocks
    block = np.empty(N, dtype=np.intp)
    for i, s in enumerate(factor.blocks):
        block[factor.order[s]] = i
    coo = Ac.tocoo()
    assert np.all(np.abs(block[coo.row] - block[coo.col]) <= 1)
    assert factor.widest == np.diff(levels).max()
    assert max(s.stop - s.start for s in factor.blocks) <= factor.widest
    assert factor.nbytes <= 16 * factor.widest * N  # 2 W N doubles


def test_coarse_factor_solves_share_no_state():
    factors, rhs = [], []
    rng = np.random.default_rng(3)
    for mesh in (gen_structured("distortedQuads", 8), holed_mesh()):
        c = Condensed(sine_problem(mesh, 3))
        factors.append(c.coarse)
        rhs.append(rng.standard_normal(c.P.shape[1]))
    fa, fb = factors
    a, b = rhs
    kept = a.copy()
    first = fa.solve(a)
    assert np.array_equal(a, kept)
    assert not np.shares_memory(first, fa.work)
    answer = first.copy()
    again = fa.solve(a)
    fa.solve(rng.standard_normal(len(a)))
    assert first.tobytes() == answer.tobytes() == again.tobytes()
    alone = fb.solve(b).tobytes()
    for _ in range(2):  # the two factors used alternately
        assert fa.solve(a).tobytes() == answer.tobytes()
        assert fb.solve(b).tobytes() == alone


def coarse_operator(case):
    """P^T S P as `Condensed` forms it for its coarse factor, or, for
    "singular", a path's graph Laplacian, whose last pivot is exactly 0."""
    if case == "singular":
        return sp.diags([-np.ones(4), [1.0, 2.0, 2.0, 2.0, 1.0], -np.ones(4)], [-1, 0, 1],
                        format="csr")
    mesh = holed_mesh() if case == "holed" else gen_structured("distortedQuads", 16)
    sys_ = sine_problem(mesh, 3 if case == "k=3" else 2)
    if case == "two components":  # the middle column of vertices held too
        held = 8 + 17 * np.arange(17)
    elif case == "no free vertex":
        held = np.arange(mesh.num_vertices)
    if case in ("two components", "no free vertex"):
        sys_.constrained_ids = np.union1d(sys_.constrained_ids, held)
        sys_.constrained_values = np.zeros(len(sys_.constrained_ids))
    c = Condensed(sys_)
    return c.P.T.tocsr() @ (c.S @ c.P)


@pytest.mark.parametrize("case", ["k=2", "k=3", "holed", "two components", "no free vertex",
                                  "singular"])
def test_coarse_factor_keeps_the_rows_of_the_list_build(case):
    Ac = coarse_operator(case)
    factor, oracle = system.LevelFactor(Ac), LevelFactorByLists(Ac)
    rows = [row for row, _, _ in factor.backward][::-1]
    assert [(r.shape, r.tobytes()) for r in rows] == [(r.shape, r.tobytes()) for r in oracle.rows]
    assert (factor.blocks, factor.widest, factor.nbytes) == (oracle.blocks, oracle.widest,
                                                              oracle.nbytes)
    b = np.random.default_rng(5).standard_normal(Ac.shape[0])
    x = factor.solve(b)
    assert x.tobytes() == oracle.solve(b).tobytes()
    assert np.isnan(x).any() == (case == "singular")
    assert (not rows) == (case == "no free vertex")


@pytest.mark.parametrize("name", sorted(FACTOR_MESHES))
def test_two_level_cycle_takes_any_exact_coarse_solver(name):
    # the coarse solver is one constructor argument: the list-built factor
    # solves to the bits of `LevelFactor`, so the cycle and CG do too
    sys_ = sine_problem(FACTOR_MESHES[name](), 3)
    ours, oracle = Condensed(sys_), Condensed(sys_, coarse=LevelFactorByLists)
    assert isinstance(oracle.coarse, LevelFactorByLists)
    r = np.random.default_rng(7).standard_normal(ours.S.shape[0])
    assert ours.precondition(r).tobytes() == oracle.precondition(r).tobytes()
    x, it, res, ok = jacobi_cg(ours.S, r, 1e-12, 1000, ours.precondition)
    y, *again = jacobi_cg(oracle.S, r, 1e-12, 1000, oracle.precondition)
    assert ok and x.tobytes() == y.tobytes() and again == [it, res, ok]


@pytest.mark.parametrize("reason", ["at the floor", "maxiter", "breakdown", "recovery"])
def test_failed_solve_reports_its_floor_and_reason(reason, monkeypatch):
    x, rep = solve(sine_problem(gen_structured("distortedQuads", 4), 2))
    assert rep.converged and rep.reason == "met" and rep.floor is None
    sys_ = sine_problem(gen_structured("distortedQuads", 4), 2)
    tol, maxiter = 1e-12, None
    if reason == "at the floor":
        tol = 1e-17  # below what x rounded to double can meet
    elif reason == "maxiter":
        maxiter = 2
    elif reason == "recovery":  # a solver on S that claims a zero x meets tol
        fake = lambda S, rhs, *_: (np.zeros(len(rhs)), 1, 0.0, True)
        monkeypatch.setitem(system.SOLVERS, "jacobi_cg", fake)
    else:  # element 2's moment block zero: its inverse is NaN
        A = sys_.A.tolil()
        block = sys_.dofmap.moment_offset + 2
        A[block, block] = 0.0
        sys_.A = A.tocsr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, rep = solve(sys_, tol=tol, maxiter=maxiter)
    assert not rep.converged and rep.reason == reason
    if reason == "breakdown":
        assert np.isnan(rep.floor)
    else:
        assert 0.0 < rep.floor < 1e-13
        assert (rep.residual <= 2.0 * rep.floor) == (reason == "at the floor")


def test_recovery_retry_continues_from_the_first_run(monkeypatch):
    # a cut case: CG meets its target on S in 16 iterations, the recovered
    # moments miss tol, and the retry starts from that x
    rng = np.random.default_rng(1938)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = cut_mesh(gen_structured("distortedQuads", 5),
                        CutLine(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 0.8)))
    sys_ = apply_dirichlet(assemble(mesh, 3, lambda x, y: np.ones_like(x)),
                           lambda x, y: np.zeros_like(x))
    runs = []

    def recording(S, rhs, tol, maxiter, precondition, x0):
        runs.append((x0, jacobi_cg(S, rhs, tol, maxiter, precondition, x0)))
        return runs[-1][1]

    monkeypatch.setitem(system.SOLVERS, "jacobi_cg", recording)
    x, rep = solve(sys_)
    assert rep.converged and rep.reason == "met"
    assert [out[1] for _, out in runs] == [16, 1] and rep.iterations == 17
    assert runs[0][0] is None and np.array_equal(runs[1][0], runs[0][1][0])


def test_cg_from_a_start_vector_matches_a_run_from_zero():
    # from its own answer CG stops at once; from zero it is bitwise a run
    # without x0
    n = 50
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    b = np.random.default_rng(2).standard_normal(n)
    x, it, res, ok = jacobi_cg(A, b, 1e-12, 10 * n)
    again = jacobi_cg(A, b, 1e-12, 10 * n, None, x)
    assert ok and again[1] == 1 and again[3] and again[2] <= 1e-12
    zero = jacobi_cg(A, b, 1e-12, 10 * n, None, np.zeros(n))
    assert zero[0].tobytes() == x.tobytes() and zero[1:] == (it, res, ok)


@pytest.mark.parametrize("tol, maxiter", [(np.nan, None), (-1.0, None), (np.inf, None), (1, 0)])
def test_solve_rejects_a_tolerance_or_cap_out_of_range(tol, maxiter):
    sys_ = sine_problem(gen_structured("distortedQuads", 2), 2)
    with pytest.raises(ValueError, match="must be"):
        solve(sys_, tol=tol, maxiter=maxiter)


@pytest.mark.parametrize("k", [2, 3])
def test_two_level_cg_terminates_within_the_unknowns(k):
    # with an exact coarse solve the preconditioner is one SPD operator,
    # so CG on S ends within as many iterations as S has unknowns
    sys_ = sine_problem(holed_mesh(), k)
    x, rep = solve(sys_)
    assert rep.converged and rep.iterations <= sys_.condensed.S.shape[0]


def test_two_level_iterations_do_not_grow_with_refinement():
    iterations = {}
    for n in (8, 32):
        x, rep = solve(sine_problem(gen_structured("distortedQuads", n), 3))
        assert rep.converged
        iterations[n] = rep.iterations
    assert iterations[32] <= 1.5 * iterations[8]
    assert max(iterations.values()) <= 10


@pytest.mark.parametrize("n", [4, 8])
def test_solve_at_high_degree_stops_when_it_can_go_no_further(n):
    # at k = 6 the attainable accuracy on S is above tol = 1e-12: CG's
    # restarts from the true residual stop gaining, and the solve stops
    # there instead of running to maxiter (15,690 iterations at n = 8)
    x, rep = solve(sine_problem(gen_structured("distortedQuads", n), 6))
    assert rep.iterations <= 100 and rep.reason != "maxiter"


def test_cg_stops_when_a_restart_gains_nothing():
    # a tol below what b - A x can reach: the second restart's true
    # residual is not below half of the first's
    n = 100
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    b = np.random.default_rng(0).standard_normal(n)
    x, it, res, ok = jacobi_cg(A, b, 1e-18, 10 * n, hat_cycle(A, 4))
    assert ok is None and it < 10 * n
    assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b) > 1e-18


@pytest.mark.parametrize("case", ["distortedQuads", "holed", "moment held"])
def test_lifting_reads_only_the_constrained_columns(case):
    # b - A_c g, with A_c = A[constrained].T, is bitwise b - A x_g with x_g
    # zero off the constrained dofs: A is symmetric to the bit, and A_c
    # sums the same terms in the same order
    mesh = holed_mesh() if case == "holed" else gen_structured("distortedQuads", 8)
    sys_ = sine_problem(mesh, 3)
    if case == "moment held":
        sys_.constrained_ids = np.append(sys_.constrained_ids, sys_.dofmap.moment_offset + 7)
        sys_.constrained_values = np.append(sys_.constrained_values, 0.3)
    A_c = Condensed(sys_).A_c
    fixed = np.zeros(sys_.num_dofs)
    fixed[sys_.constrained_ids] = sys_.constrained_values
    lifted = sys_.b - A_c @ sys_.constrained_values
    assert lifted.tobytes() == (sys_.b - sys_.A @ fixed).tobytes()


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
