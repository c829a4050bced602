"""Global assembly, Dirichlet elimination, iterative solve, error norms.

Assembly accumulates element triplets through one lexicographic sort and a
grouped reduction, so the matrix is bit-identical no matter how elements
are ordered or parallelized upstream.  Dirichlet conditions are applied by
symmetric elimination: constrained columns move to the right-hand side and
the reduced operator stays SPD, which is what the preconditioned CG
relies on.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PolyVemError
from .localmat import (
    Element,
    ElementMatrixCache,
    MatrixTag,
    find_or_compute,
    load_vector,
)
from .mesh import build_global_dofs


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

    @property
    def num_dofs(self):
        return self.dofmap.num_dofs

    def free_ids(self):
        if self.constrained_ids is None:
            return np.arange(self.num_dofs)
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.constrained_ids] = False
        return np.flatnonzero(mask)


@contextmanager
def _element_errors(eid):
    # a bad polygon in a big mesh is identifiable by its id
    try:
        yield
    except PolyVemError as err:
        raise type(err)("element %d: %s" % (eid, err))


def discretisation(mesh, k):
    """Dof map and per-element (Element, ElementMatrixCache) pairs at order k.

    Built once and kept on the mesh, so assembly, the load vector, the error
    norms, the interpolant and the CLI share every element's projectors.
    """
    if k not in mesh.discretisations:
        dofmap = build_global_dofs(mesh, k)
        elements = [(Element(f, k), ElementMatrixCache()) for f in mesh.facets]
        mesh.discretisations[k] = (dofmap, elements)
    return mesh.discretisations[k]


def assemble(mesh, k, f=None):
    """Assemble the global stiffness matrix and load vector.

    Element failures are re-raised with the element id prepended.
    """
    dofmap, elements = discretisation(mesh, k)
    n = dofmap.num_dofs
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for eid, (element, cache) in enumerate(elements):
        with _element_errors(eid):
            K = find_or_compute(cache, element, MatrixTag.STIFFNESS)
            if f is not None:
                be = load_vector(element, f, cache)
        K = 0.5 * (K + K.T)
        g = dofmap.element_maps[eid]
        m = len(g)
        rows.append(np.repeat(g, m))
        cols.append(np.tile(g, m))
        vals.append(K.ravel())
        if f is not None:
            np.add.at(b, g, be)
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

    Returns (x, iterations, relative residual, converged).  A zero right
    hand side is solved exactly in zero iterations.
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
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        residual = float(np.linalg.norm(r)) / bnorm
        if residual <= tol:
            return x, it, residual, True
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


def solve(system, tol=1e-12, maxiter=None, method="jacobi_cg"):
    """Solve the (reduced) system; boundary values are re-inserted.

    Non-convergence is reported through the flag on the returned report,
    not as an exception.
    """
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise ValueError("unknown solver %r" % method)
    free = system.free_ids()
    rhs = system.b[free]
    A_ff = system.A[free][:, free]
    if system.constrained_ids is not None and len(system.constrained_ids):
        A_fc = system.A[free][:, system.constrained_ids]
        rhs = rhs - A_fc @ system.constrained_values
    if maxiter is None:
        maxiter = max(10 * len(rhs), 1)
    start = time.perf_counter()
    x_f, iterations, residual, converged = solver(A_ff, rhs, tol, maxiter)
    elapsed = time.perf_counter() - start
    x = np.zeros(system.num_dofs)
    x[free] = x_f
    if system.constrained_ids is not None:
        x[system.constrained_ids] = system.constrained_values
    return x, SolveReport(iterations, residual, elapsed, converged, method)


def interpolate_dofs(mesh, k, u):
    """Dof vector of the interpolant of a smooth function u(x, y).

    Point dofs sample u; moment dofs average u against the scaled
    monomials with a quadrature well beyond the space's own degree.
    """
    dofmap, elements = discretisation(mesh, k)
    x = np.zeros(dofmap.num_dofs)
    pts = dofmap.dof_points[: dofmap.moment_offset]
    x[: dofmap.moment_offset] = u(pts[:, 0], pts[:, 1])
    if k >= 2:
        for eid, (element, _) in enumerate(elements):
            with _element_errors(eid):
                rule = element.rule(2 * k + 2)
            V = element.basis.eval(rule.points, element.frame)
            uv = np.asarray(u(rule.points[:, 0], rule.points[:, 1]), dtype=float)
            g = dofmap.element_maps[eid]
            nm = element.layout.num_moment_dofs
            moments = (V[:, :nm] * (rule.weights * uv)[:, None]).sum(axis=0)
            x[g[element.layout.moment_offset :]] = moments / element.facet.area
    return x


def error_norms(mesh, k, solution, u_exact, grad_exact):
    """Absolute L2 and H1-seminorm errors of the projected solution.

    The discrete function is replaced element-wise by its energy
    projection onto polynomials, which is the computable representative.
    """
    dofmap, elements = discretisation(mesh, k)
    err_l2 = 0.0
    err_h1 = 0.0
    for eid, (element, cache) in enumerate(elements):
        with _element_errors(eid):
            PiS = find_or_compute(cache, element, MatrixTag.PI_GRAD_STAR)
            rule = element.rule(2 * k + 2)
        coeff = PiS @ solution[dofmap.element_maps[eid]]
        xq, yq = rule.points[:, 0], rule.points[:, 1]
        V = element.basis.eval(rule.points, element.frame)
        uh = V @ coeff
        du = uh - np.asarray(u_exact(xq, yq), dtype=float)
        err_l2 += float(np.sum(rule.weights * du * du))
        gx, gy = element.basis.grad(rule.points, element.frame)
        gex, gey = grad_exact(xq, yq)
        dgx = gx @ coeff - np.asarray(gex, dtype=float)
        dgy = gy @ coeff - np.asarray(gey, dtype=float)
        err_h1 += float(np.sum(rule.weights * (dgx * dgx + dgy * dgy)))
    return float(np.sqrt(err_l2)), float(np.sqrt(err_h1))
