"""Global assembly, Dirichlet elimination, iterative solve, error norms.

Assembly accumulates element triplets through one lexicographic sort and a
grouped reduction, so the matrix is bit-identical no matter how elements
are ordered or parallelized upstream.  Dirichlet conditions are applied by
symmetric elimination: constrained columns move to the right-hand side and
the reduced operator stays SPD, which is what the preconditioned CG
relies on.  The moment dofs couple only within their element, so `solve`
condenses them out block by block: CG runs on their Schur complement.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PolyVemError
from .localmat import (
    Element,
    ElementMatrixCache,
    MatrixTag,
    find_or_compute,
    group_elements,
    load_vector,
    sample,
)
from .mesh import build_global_dofs
from .monomials import basis_size


@dataclass
class SolveReport:
    iterations: int
    residual: float
    elapsed: float
    converged: bool
    method: str = "jacobi_cg"


class SparseSystem:
    """Assembled operator plus everything needed to reduce and expand."""

    def __init__(self, A, b, dofmap, mesh, k, caches):
        self.A = A
        self.b = b
        self.dofmap = dofmap
        self.mesh = mesh
        self.k = k
        self.caches = caches
        self.constrained_ids = None
        self.constrained_values = None
        self.condensed = None  # (constrained_ids bytes, `_condensed` operators)

    @property
    def num_dofs(self):
        return self.dofmap.num_dofs

    def free_ids(self):
        if self.constrained_ids is None:
            return np.arange(self.num_dofs)
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.constrained_ids] = False
        return np.flatnonzero(mask)


def discretisation(mesh, k):
    """Dof map, per-element (Element, ElementMatrixCache) pairs and element
    groups at order k.

    Built once and kept on the mesh, so assembly, the load vector, the error
    norms, the interpolant and the CLI share every element's projectors.
    The groups are `localmat.group_elements` (ids, ElementGroup) pairs.
    """
    if k not in mesh.discretisations:
        dofmap = build_global_dofs(mesh, k)
        elements = [(Element(f, k), ElementMatrixCache()) for f in mesh.facets]
        mesh.discretisations[k] = (dofmap, elements, group_elements(elements))
    return mesh.discretisations[k]


def _each_group(groups, work):
    """[work(ids, group) for every group], or the error of the first element
    that fails.

    A failing group is run again as groups of one, in element id order, so
    the error raised is the one an element-by-element pass meets first:
    the lowest failing id, the first failure within that element, and the
    element id in the message.
    """
    results, failed = [], []
    for ids, group in groups:
        try:
            results.append(work(ids, group))
        except (PolyVemError, np.linalg.LinAlgError) as err:
            failed.append((ids, group, err))
    if failed:
        singles = [pair for ids, group, _ in failed for pair in zip(ids, group.split())]
        for eid, one in sorted(singles, key=lambda pair: pair[0]):
            try:
                work(np.array([eid]), one)
            except PolyVemError as err:
                # a bad polygon in a big mesh is identifiable by its id
                raise type(err)("element %d: %s" % (eid, err))
        raise failed[0][2]
    return results


def _maps(dofmap, ids):
    return np.array([dofmap.element_maps[i] for i in ids])


def assemble(mesh, k, f=None):
    """Assemble the global stiffness matrix and load vector.

    Element failures are re-raised with the element id prepended.
    """
    dofmap, elements, groups = discretisation(mesh, k)
    n = dofmap.num_dofs

    def work(ids, group):
        K = find_or_compute(group.cache, group, MatrixTag.STIFFNESS)
        be = None if f is None else load_vector(group, f, group.cache)
        return ids, _maps(dofmap, ids), K, be

    rows, cols, vals, owners, targets, loads = [], [], [], [], [], []
    for ids, g, K, be in _each_group(groups, work):
        K = 0.5 * (K + np.swapaxes(K, 1, 2))
        m = g.shape[1]
        rows.append(np.repeat(g, m, axis=1).ravel())
        cols.append(np.tile(g, (1, m)).ravel())
        vals.append(K.ravel())
        if f is not None:
            owners.append(np.repeat(ids, m))
            targets.append(g.ravel())
            loads.append(be.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # deterministic accumulation: sort triplets completely, then reduce
    # each (row, col) group; element order cannot change the result
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    fresh = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
    starts = np.flatnonzero(fresh)
    summed = np.add.reduceat(vals, starts)
    A = sp.csr_matrix(
        (summed, (rows[starts], cols[starts])), shape=(n, n)
    )
    b = np.zeros(n)
    if f is not None:
        # the load adds up element by element in id order
        order = np.argsort(np.concatenate(owners), kind="stable")
        np.add.at(b, np.concatenate(targets)[order], np.concatenate(loads)[order])
    return SparseSystem(A, b, dofmap, mesh, k, elements)


def apply_dirichlet(system, g):
    """Constrain every boundary dof to g sampled at its dof point."""
    ids = system.dofmap.boundary_dof_ids
    pts = system.dofmap.dof_points[ids]
    system.constrained_ids = ids
    system.constrained_values = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    return system


def jacobi_cg(A, b, tol, maxiter):
    """Conjugate gradients with diagonal preconditioning.

    Returns (x, iterations, relative residual, converged).  The test and
    the residual are of the true ||b - A x|| / ||b||: a recurrence residual
    under tol restarts CG from the true one unless that meets tol too.  A
    zero right hand side is solved in zero iterations.  A breakdown, where
    p.Ap is not positive or not finite (A is not SPD, or holds a NaN),
    stops at once: converged=False, with the iterations and the recurrence
    residual from before it.
    """
    n = len(b)
    x = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    if n == 0 or bnorm == 0.0:
        return x, 0, 0.0, True
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    residual = float(np.linalg.norm(r)) / bnorm
    for it in range(1, maxiter + 1):
        q = A @ p
        pq = float(p @ q)
        if not 0.0 < pq < np.inf:
            return x, it - 1, residual, False
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        residual = float(np.linalg.norm(r)) / bnorm
        if residual <= tol or it == maxiter:
            r = b - A @ x
            residual = float(np.linalg.norm(r)) / bnorm
            if residual <= tol:
                return x, it, residual, True
            p[:] = 0.0  # the next direction is the preconditioned r alone
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, maxiter, residual, False


SOLVERS = {"jacobi_cg": jacobi_cg}


def register_solver(name, fn, overwrite=False):
    if name in SOLVERS and not overwrite:
        raise ValueError("solver %r already registered" % name)
    SOLVERS[name] = fn


def _condensed(system):
    """(S, A_bm, M, A_bm M) that condense the moment dofs m out of the free
    dofs b + m, kept on the system for its constrained set (A stays fixed).

    M = A_mm^-1 is one batched inverse of the (elements, nm, nm) diagonal
    blocks; a constrained moment's row and column are the identity's there
    and zero in M.  A singular or non-finite block makes M NaN: CG breaks down.
    """
    ids = system.constrained_ids
    key = np.asarray([] if ids is None else ids, dtype=np.intp).tobytes()
    if system.condensed is None or system.condensed[0] != key:
        free, mo, n = system.free_ids(), system.dofmap.moment_offset, system.num_dofs
        nel, nm = system.mesh.num_elements, basis_size(system.k - 2)
        moments = np.arange(n - mo).reshape(nel, nm)
        owner, local = np.repeat(np.arange(nel), nm), np.tile(np.arange(nm), nel)
        A_mm = system.A[mo:, mo:].tocoo()
        blocks = np.zeros((nel, nm, nm))
        blocks[owner[A_mm.row], local[A_mm.row], local[A_mm.col]] = A_mm.data
        keep = np.isin(moments + mo, free)
        both = keep[:, :, None] & keep[:, None, :]
        try:
            inv = np.linalg.inv(np.where(both, blocks, np.eye(nm))) * both
        except np.linalg.LinAlgError:
            inv = np.full(blocks.shape, np.nan)
        rows, cols = np.repeat(moments, nm, axis=1), np.tile(moments, (1, nm))
        M = sp.csr_matrix((inv.ravel(), (rows.ravel(), cols.ravel())), shape=(n - mo,) * 2)
        inner = free[free < mo]
        A_bm = system.A[inner][:, mo:]
        A_bm_M = A_bm @ M
        S = system.A[inner][:, inner] - A_bm_M @ A_bm.T
        system.condensed = (key, S, A_bm, M, A_bm_M)
    return system.condensed[1:]


def solve(system, tol=1e-12, maxiter=None, method="jacobi_cg"):
    """Solve the (reduced) system; boundary values are re-inserted.

    The solver runs on the Schur complement S of `_condensed`, so the
    report's iterations are on S, with tol rescaled so that its residual
    and `converged` are of the whole reduced system after the moments are
    recovered: ||rhs_f - A_ff x_f|| / ||rhs_f|| <= tol.  Non-convergence
    is reported through the flag on the returned report, not as an
    exception.
    """
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise ValueError("unknown solver %r" % method)
    S, A_bm, M, A_bm_M = _condensed(system)
    free, mo = system.free_ids(), system.dofmap.moment_offset
    inner = free[free < mo]
    fixed = np.zeros(system.num_dofs)
    if system.constrained_ids is not None:
        fixed[system.constrained_ids] = system.constrained_values
    # products with the full A over vectors zero on the constrained (or the
    # free) dofs round like the A_fc and A_ff slices: rhs_f = r[free]
    r = system.b - system.A @ fixed
    bnorm = float(np.linalg.norm(r[free]))
    rhs = r[inner] - A_bm_M @ r[mo:]
    if maxiter is None:
        maxiter = max(10 * len(free), 1)
    scaled_tol = tol * bnorm / (float(np.linalg.norm(rhs)) or 1.0)
    x = np.zeros(system.num_dofs)
    start = time.perf_counter()
    x[inner], iterations, _, _ = solver(S, rhs, scaled_tol, maxiter)
    elapsed = time.perf_counter() - start
    x[mo:] = M @ (r[mo:] - A_bm.T @ x[inner])
    residual = float(np.linalg.norm((r - system.A @ x)[free])) / (bnorm or 1.0)
    return x + fixed, SolveReport(iterations, residual, elapsed, residual <= tol, method)


def interpolate_dofs(mesh, k, u):
    """Dof vector of the interpolant of a smooth function u(x, y).

    Point dofs sample u; moment dofs average u against the scaled
    monomials with a quadrature well beyond the space's own degree.
    """
    dofmap, _, groups = discretisation(mesh, k)
    x = np.zeros(dofmap.num_dofs)
    pts = dofmap.dof_points[: dofmap.moment_offset]
    x[: dofmap.moment_offset] = u(pts[:, 0], pts[:, 1])

    def work(ids, group):
        rule = group.rule(2 * k + 2)
        uv = sample(u, rule.points)
        nm, mo = group.layout.num_moment_dofs, group.layout.moment_offset
        V = group.values(2 * k + 2)[..., :nm]
        moments = (V * (rule.weights * uv)[..., None]).sum(axis=1)
        x[_maps(dofmap, ids)[:, mo:]] = moments / group.area[:, None]

    if k >= 2:
        _each_group(groups, work)
    return x


def error_norms(mesh, k, solution, u_exact, grad_exact):
    """Absolute L2 and H1-seminorm errors of the projected solution.

    The discrete function is replaced element-wise by its energy
    projection onto polynomials, which is the computable representative.
    """
    dofmap, elements, groups = discretisation(mesh, k)
    squares = np.empty((len(elements), 2))

    def work(ids, group):
        PiS = find_or_compute(group.cache, group, MatrixTag.PI_GRAD_STAR)
        rule = group.rule(2 * k + 2)
        coeff = PiS @ solution[_maps(dofmap, ids)][..., None]
        xq, yq = rule.points.reshape(-1, 2).T
        w = rule.weights.ravel()
        uh = (group.values(2 * k + 2) @ coeff).ravel()
        du = uh - np.asarray(u_exact(xq, yq), dtype=float)
        gx, gy = group.basis.grad(rule.points, group.frame)
        gex, gey = grad_exact(xq, yq)
        dgx = (gx @ coeff).ravel() - np.asarray(gex, dtype=float)
        dgy = (gy @ coeff).ravel() - np.asarray(gey, dtype=float)
        squares[ids, 0] = (w * du * du).reshape(len(ids), -1).sum(axis=1)
        squares[ids, 1] = (w * (dgx * dgx + dgy * dgy)).reshape(len(ids), -1).sum(axis=1)

    _each_group(groups, work)
    err_l2 = err_h1 = 0.0
    for l2, h1 in squares.tolist():  # in element order, one by one
        err_l2 += l2
        err_h1 += h1
    return float(np.sqrt(err_l2)), float(np.sqrt(err_h1))
