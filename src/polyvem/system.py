"""Global assembly, Dirichlet elimination, iterative solve, error norms.

Assembly accumulates element triplets through one stable sort of their
keys row * n + col, a sort of the values of every key with more than one
(the keys of one run length at once, as the rows of an array) and a
grouped reduction, so the matrix is bit-identical no matter how elements
are ordered or parallelized upstream; the sorted keys are already in CSR
order, so the matrix is built from them directly.  Keys and values are
written into two arrays allocated once, and freed as they are sorted.
Assembly keeps on the mesh's element groups only what later stages read
(the energy projector coefficients, the stiffness, the moment projector
and the degree 2k + 2 rules and basis values); the rest of each group's
element data goes as soon as its stiffness and load are done, so only
one group's intermediates, at most `localmat.GROUP_CAP` members, are
alive at a time.  Dirichlet conditions are applied by symmetric
elimination: constrained columns move to the right-hand side and the
reduced operator stays SPD, which is what the preconditioned CG relies
on.  The moment dofs couple only within their element, so `solve`
condenses them out block by block: CG runs on their Schur complement,
preconditioned by its diagonal plus a coarse correction on the vertices,
both set up once per constrained set with the condensed operator.  The
coarse problem is solved exactly, by a block LDL^T factor of it in
level-set order, made once per constrained set: consecutive level sets
are merged into blocks no wider than the widest one, W, so the factor
keeps at most 2 W N entries for N coarse unknowns, and it solves over
views of a work vector of its own, so one factor serves one solve at a
time.  A solve that misses the tolerance reports the rounding floor and
the reason it stopped.  scipy.sparse is imported by the first assembly
or matrix built (`_sparse`), not with the module, so mesh tooling never
loads it.
The error norms read the gradient of each element's projection off the
basis value table that its value uses, through a constant table of
monomial derivatives.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, PolyVemError
from .localmat import MatrixTag, find_or_compute, group_facets, load_vector, sample
from .mesh import build_global_dofs
from .monomials import basis_size, derivative_tables
from .quadrature import gauss_lobatto_1d


def _sparse():
    """scipy.sparse, imported at the first call.  The import costs about
    0.15 s and 22 MB of RSS over numpy alone, most of it scipy's array-API
    shim (scipy._lib.array_api_compat.numpy), which walks dir(numpy) and so
    loads numpy.f2py and numpy.testing; deferring it keeps that off every
    process that never builds a matrix, such as the mesh and quad
    commands."""
    import scipy.sparse

    return scipy.sparse


def _csr(*args, **kwargs):
    """scipy.sparse.csr_matrix(*args, **kwargs)."""
    return _sparse().csr_matrix(*args, **kwargs)


@dataclass
class SolveReport:
    """What `solve` did.  converged means residual <= tol; reason says why
    the solve stopped:

    - "met": residual <= tol;
    - "at the floor": it missed tol but is within twice the rounding
      floor eps ||A_ff| |x_f| + |rhs_f|| / ||rhs_f||, below which no
      x rounded to double can take the residual;
    - "breakdown": CG stopped on a p.Ap that is not positive and finite;
    - "maxiter": CG ran out of iterations;
    - "recovery": CG met tol on the condensed system, but the residual of
      the whole system, moments recovered, misses it by more, also after
      one retry with a tighter target (see `solve`).

    floor is computed only when the residual misses tol, and None when it
    meets it.
    """

    iterations: int
    residual: float
    elapsed: float
    converged: bool
    floor: float | None = None
    reason: str = "met"


class SparseSystem:
    """Assembled operator plus everything needed to reduce and expand."""

    def __init__(self, A, b, dofmap, mesh, k):
        self.A = A
        self.b = b
        self.dofmap = dofmap
        self.mesh = mesh
        self.k = k
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
    """(dof map, element groups) at order k.

    Built once and kept on the mesh, so assembly, the load vector, the error
    norms, the interpolant and the CLI share every element's projectors.
    The groups are `localmat.group_facets` (ids, ElementGroup) pairs, each
    group a slice of the mesh's FacetTable with the stacked matrices of its
    members in its cache.  A mesh without elements has none to discretise.
    """
    if not mesh.num_elements:
        raise InvariantViolation("mesh has no elements")
    if k not in mesh.discretisations:
        mesh.discretisations[k] = (build_global_dofs(mesh, k), group_facets(mesh.shapes, k))
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


def _reduce_triplets(keys, vals):
    """The distinct keys in order, each with the sum of its values taken
    in ascending order (ties in input order), so the order of the triplets
    cannot change a bit of the result.  One stable sort groups the keys;
    then the runs of each length L >= 2 have their values sorted as the
    rows of one (runs, L) array.  Passed with no other reference, the
    unsorted arrays are freed as their sorted copies are made."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    lengths = np.diff(np.r_[starts, len(keys)])
    for length in (np.flatnonzero(np.bincount(lengths)[2:]) + 2).tolist():
        rows = starts[lengths == length][:, None] + np.arange(length)
        vals[rows] = np.sort(vals[rows], axis=1, kind="stable")
    return keys[starts], np.add.reduceat(vals, starts)


def _triplet_keys(maps, n):
    """row * n + col of every member's (dofs, dofs) block, member-major,
    for each (members, dofs) array of dof maps in turn, in one array."""
    keys = np.empty(sum(g.size * g.shape[1] for g in maps), dtype=np.int64)
    at = 0
    for g in maps:
        block = keys[at : at + g.size * g.shape[1]].reshape(g.shape + g.shape[1:])
        np.multiply(g[:, :, None], n, out=block)
        block += g[:, None, :]
        at += block.size
    return keys


def _triplet_values(stiffness):
    """The symmetric parts (K + K^T) / 2 of stacked element matrices, in
    the order of `_triplet_keys`, in one array."""
    vals = np.empty(sum(K.size for K in stiffness))
    at = 0
    for K in stiffness:
        block = vals[at : at + K.size].reshape(K.shape)
        np.add(K, np.swapaxes(K, 1, 2), out=block)
        block *= 0.5
        at += K.size
    return vals


# element data that no stage after assembly reads: the error norms and the
# VTK export read PI_GRAD_STAR, an assembly of the same mesh again
# STIFFNESS and PI_ZERO_STAR
_ASSEMBLY_ONLY = (MatrixTag.D, MatrixTag.B, MatrixTag.G, MatrixTag.H, MatrixTag.PI_GRAD)


def assemble(mesh, k, f=None):
    """Assemble the global stiffness matrix and load vector.

    Each group drops its assembly-only matrices (`_ASSEMBLY_ONLY`) and its
    masses once its stiffness and load are done.  Element failures are
    re-raised with the element id prepended.
    """
    _sparse()  # imported before the triplets exist, so it adds nothing to their peak
    dofmap, groups = discretisation(mesh, k)
    n = dofmap.num_dofs

    def work(ids, group):
        K = find_or_compute(group.cache, group, MatrixTag.STIFFNESS)
        be = None if f is None else load_vector(group, f, group.cache)
        group.discard(*_ASSEMBLY_ONLY)
        return ids, dofmap.maps(ids), K, be

    ids, maps, stiffness, loads = zip(*_each_group(groups, work))
    # the arrays go to _reduce_triplets with no other reference, so the
    # unsorted ones are freed once sorted
    keys, summed = _reduce_triplets(_triplet_keys(maps, n), _triplet_values(stiffness))
    # the keys are the sorted distinct row * n + col: CSR order already
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    A = _csr((summed, keys % n, indptr), shape=(n, n))
    A.has_canonical_format = True
    b = np.zeros(n)
    if f is not None:
        # the load adds up element by element in id order
        owners = np.concatenate([np.repeat(e, g.shape[1]) for e, g in zip(ids, maps)])
        order = np.argsort(owners, kind="stable")
        targets = np.concatenate([g.ravel() for g in maps])
        np.add.at(b, targets[order], np.concatenate([be.ravel() for be in loads])[order])
    return SparseSystem(A, b, dofmap, mesh, k)


def apply_dirichlet(system, g):
    """Constrain every boundary dof to g sampled at its dof point."""
    ids = system.dofmap.boundary_dof_ids
    pts = system.dofmap.dof_points[ids]
    system.constrained_ids = ids
    system.constrained_values = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    return system


def jacobi_cg(A, b, tol, maxiter, coarse=None, x0=None, diag=None):
    """Conjugate gradients with diagonal preconditioning, plus a coarse
    correction when `coarse` is given.

    Returns (x, iterations, relative residual, converged).  CG starts from
    x0 if given, else from zero.  The test and the residual are of the
    true ||b - A x|| / ||b||: a recurrence residual under tol restarts CG
    from the true one unless that meets tol too.  A zero right hand side
    is solved in zero iterations.  A breakdown, where p.Ap is not positive
    or not finite (A is not SPD, or holds a NaN), stops at once:
    converged=False, with the iterations and the recurrence residual from
    before it.

    coarse = (P, Ac) adds P Ac^-1 P^T r to the preconditioned residual,
    with Ac = P^T A P given as its `LevelFactor` (or as a matrix, which is
    factored here).  A third entry, P^T as a CSR matrix, is applied in
    place of scipy's P.T, a CSC view that is slower to apply.  The coarse
    solve is exact, so the preconditioner is one fixed SPD operator and CG
    keeps its finite termination.  diag, if given, is A's diagonal with
    its zeros replaced by ones, which saves reading it again.
    """
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    bnorm = math.sqrt(b @ b)
    if n == 0 or bnorm == 0.0:
        return np.zeros(n), 0, 0.0, True
    if diag is None:
        diag = A.diagonal().copy()
        diag[diag == 0.0] = 1.0
    if coarse is not None:
        P, Ac = coarse[:2]
        Pt = coarse[2] if len(coarse) > 2 else P.T
        factor = Ac if isinstance(Ac, LevelFactor) else LevelFactor(Ac)
    z = np.empty(n)

    def precondition(r):
        np.divide(r, diag, out=z)
        if coarse is not None:
            np.add(z, P @ factor.solve(Pt @ r), out=z)

    r = b.copy() if x0 is None else b - A @ x
    precondition(r)
    p = z.copy()
    rz = float(r @ z)
    residual = math.sqrt(r @ r) / bnorm
    for it in range(1, maxiter + 1):
        q = A @ p
        pq = float(p @ q)
        if not 0.0 < pq < np.inf:
            return x, it - 1, residual, False
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        residual = math.sqrt(r @ r) / bnorm
        if residual <= tol or it == maxiter:
            r = b - A @ x
            residual = math.sqrt(r @ r) / bnorm
            if residual <= tol:
                return x, it, residual, True
            p[:] = 0.0  # the next direction is the preconditioned r alone
        precondition(r)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    return x, maxiter, residual, False


def _level_sets(indptr, indices):
    """(order, bounds): the unknowns of a CSR graph level by level.

    A breadth-first search seeded at the lowest unnumbered unknown of each
    connected component; each level is the ascending unnumbered
    neighbours of the one before, and level i is order[bounds[i]:
    bounds[i + 1]].  An edge then joins only the same or adjacent levels
    (George and Liu 1981, ch. 4).
    """
    n = len(indptr) - 1
    seen = np.zeros(n, dtype=bool)
    order, bounds = [np.empty(0, dtype=np.intp)], [0]
    frontier = order[0]
    while bounds[-1] < n:
        if not len(frontier):  # the next connected component
            frontier = np.flatnonzero(~seen)[:1]
        seen[frontier] = True
        order.append(frontier)
        bounds.append(bounds[-1] + len(frontier))
        starts, counts = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
        near = np.zeros(n, dtype=bool)
        near[indices[np.arange(len(shift)) + shift]] = True
        frontier = np.flatnonzero(near & ~seen)
    return np.concatenate(order), np.asarray(bounds)


class LevelFactor:
    """Exact block LDL^T factor of a sparse SPD matrix A in level-set order.

    Ordered by `_level_sets` of its own graph, A is block tridiagonal in
    its level sets.  Consecutive level sets are merged into blocks, each
    taking the next level while it stays at most as wide as the widest
    level set W: a coarser partition of the same order, still block
    tridiagonal, because a level set couples only its neighbours.  With
    diagonal blocks A_i and, below them, C_i coupling block i to block
    i - 1, the factor keeps Dinv_i = (A_i - E_i C_i^T)^-1 and E_i =
    C_i Dinv_{i-1}, built from blocks assigned out of the CSR entries, so
    A is never dense.  Only the head of block i, its first level set,
    meets block i - 1, so C_i and E_i are kept as their head rows.  For
    blocks of widths w_i <= W that is at most sum w_i^2 + w_i w_{i-1}
    <= 2 W N entries for N unknowns, the bound the unmerged level sets
    have too.  A singular or non-finite block makes the factor NaN.

    `solve` is one forward and one backward sweep, one small dense product
    per block each, over (block, view, view) triples bound at build time
    to a work vector the factor owns.  One factor therefore serves one
    solve at a time; each solve returns a new array.

    `blocks` holds the slices of the blocks in level-set order, `widest`
    is W and `nbytes` the bytes of the blocks kept.
    """

    def __init__(self, A):
        A = _csr(A)
        if not A.has_canonical_format:  # one entry per (row, col)
            A = A.copy()
            A.sum_duplicates()
        self.order, levels = _level_sets(A.indptr, A.indices)
        self.widest = int(np.diff(levels).max(initial=0))
        bounds = [0]
        for start, end in zip(levels[:-1].tolist(), levels[1:].tolist()):
            if end - bounds[-1] > self.widest:  # level start:end opens a block
                bounds.append(start)
        bounds = np.asarray(bounds + levels[-1:].tolist() if len(levels) > 1 else levels)
        widths = np.diff(bounds)
        heads = levels[np.searchsorted(levels, bounds[:-1]) + 1] - bounds[:-1]
        position = np.empty(len(self.order), dtype=np.intp)
        position[self.order] = np.arange(len(self.order))
        rows = position[np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))]
        cols = position[A.indices]
        block = np.repeat(np.arange(len(widths)), widths)  # of each position
        local = np.arange(len(block)) - bounds[block]  # within its block
        br, bc = block[rows], block[cols]

        def gather(pick, sizes):
            """The blocks (br, bc) that `pick` selects, one per row block,
            sizes[i] entries each, flat and row-major."""
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            flat = np.zeros(offsets[-1])
            at = offsets[br[pick]] + local[rows[pick]] * widths[bc[pick]] + local[cols[pick]]
            flat[at] = A.data[pick]
            return [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]

        diagonal = gather(bc == br, widths**2)
        below = gather(bc == br - 1, heads * np.r_[0, widths[:-1]])  # head rows
        Dinv, E = [], []
        for i, (w, h) in enumerate(zip(widths.tolist(), heads.tolist())):
            D = diagonal[i].reshape(w, w)
            if i:
                C = below[i].reshape(h, widths[i - 1])
                E.append(C @ Dinv[-1])
                D[:h, :h] -= E[-1] @ C.T
            try:
                Dinv.append(np.linalg.inv(D))
            except np.linalg.LinAlgError:  # singular or not finite
                Dinv.append(np.full(D.shape, np.nan))
        # the backward sweep's row of block i, [Dinv_i, -E_{i+1}^T], and
        # -E_i as a view of the row above it
        backward = [np.hstack([d, -e.T]) for d, e in zip(Dinv, E)] + Dinv[-1:]
        self.nbytes = sum(row.nbytes for row in backward)
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        self.position = position
        self.work = np.empty(len(self.order))
        views = [self.work[s] for s in self.blocks]
        ends = (bounds[1:-1] + heads[1:]).tolist()
        self.forward = [  # y_i -= E_i y_{i-1}, on the head of y_i
            (row[:, len(row) :].T, self.work[s.start : end], y_prev)
            for row, s, end, y_prev in zip(backward, self.blocks[1:], ends, views)
        ]
        spans = [self.work[s.start : end] for s, end in zip(self.blocks, ends)]
        self.backward = [  # x_i = Dinv_i y_i - E_{i+1}^T x_{i+1}
            (row, y, span) for row, y, span in zip(backward, views, spans + views[-1:])
        ][::-1]

    def solve(self, b):
        """A^-1 b, as a new array."""
        y = self.work
        np.take(b, self.order, out=y)
        for L, head, y_prev in self.forward:
            head += L @ y_prev
        for row, y_i, span in self.backward:
            y_i[:] = row @ span
        return y[self.position]


# perfbench/tracing.py times this entry as the solve on S (`system.cg`)
SOLVERS = {"jacobi_cg": jacobi_cg}


def _coarse_space(system, inner):
    """P, the linear interpolation from the free vertices onto the free
    skeleton dofs `inner` (sorted, so the free vertices lead it): the
    identity on vertices, (1 - t) u_lo + t u_hi at the Lobatto node t of
    edge (lo, hi).  None at k = 1, where every skeleton dof is a vertex."""
    k, nv = system.k, system.mesh.num_vertices
    if k == 1:
        return None
    t = gauss_lobatto_1d(k + 1)[0][1:k]
    ends = system.mesh.edge_ends
    on_edges = nv + np.arange(len(ends) * (k - 1))
    rows = np.concatenate([np.arange(nv), on_edges, on_edges])
    cols = np.concatenate([np.arange(nv), np.repeat(ends, k - 1, axis=0).T.ravel()])
    vals = np.concatenate([np.ones(nv), np.tile(1.0 - t, len(ends)), np.tile(t, len(ends))])
    where = np.full(system.dofmap.moment_offset, -1)
    where[inner] = np.arange(len(inner))
    rows, cols = where[rows], where[cols]
    keep = (rows >= 0) & (cols >= 0)
    shape = (len(inner), int(np.count_nonzero(inner < nv)))
    return _csr((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _condensed(system):
    """(S, A_mb, M, A_bm M, diag, P^T, coarse) that condense the moment
    dofs m out of the free dofs b + m, kept on the system for its
    constrained set (A stays fixed), with what every CG run on S reads:
    S's diagonal (zeros replaced by ones) and P^T.  The transposes A_mb =
    A_bm^T and P^T are CSR copies, which apply faster than scipy's CSC
    views.

    M = A_mm^-1 is one batched inverse of the (elements, nm, nm) diagonal
    blocks; a constrained moment's row and column are the identity's there
    and zero in M.  A singular or non-finite block makes M NaN: CG breaks
    down.  coarse is (P, the `LevelFactor` of P^T S P) for `jacobi_cg`,
    with P from `_coarse_space`, or None at k = 1.
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
        M = _csr((inv.ravel(), (rows.ravel(), cols.ravel())), shape=(n - mo,) * 2)
        inner = free[free < mo]
        A_inner = system.A[inner]
        A_bm = A_inner[:, mo:]
        A_bm_M = A_bm @ M
        A_mb = A_bm.T.tocsr()
        S = A_inner[:, inner] - A_bm_M @ A_mb
        diag = S.diagonal()
        diag[diag == 0.0] = 1.0
        P = _coarse_space(system, inner)
        Pt = None if P is None else P.T.tocsr()
        coarse = None if P is None else (P, LevelFactor(Pt @ (S @ P)))
        system.condensed = (key, S, A_mb, M, A_bm_M, diag, Pt, coarse)
    return system.condensed[1:]


def check_solve_args(tol, maxiter):
    """Raise ValueError unless tol is a finite number >= 0 and maxiter is
    None or at least 1."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("solver tolerance must be a finite number >= 0, got %r" % tol)
    if maxiter is not None and maxiter < 1:
        raise ValueError("maxiter must be >= 1, got %r" % maxiter)


def solve(system, tol=1e-12, maxiter=None):
    """Solve the (reduced) system; boundary values are re-inserted.

    The solver runs on the Schur complement S of `_condensed`, with its
    coarse space, so the report's iterations are on S, with tol rescaled
    so that its residual and `converged` are of the whole reduced system
    after the moments are recovered: ||rhs_f - A_ff x_f|| / ||rhs_f|| <=
    tol.  If CG meets its target on S but that residual misses tol by
    more than twice the rounding floor, CG runs once more from the first
    run's x, its target scaled by tol / 2 over the miss, within the
    iterations left;
    the report sums both runs.  Non-convergence is reported through the
    flag on the report, with the rounding floor and the reason.
    """
    check_solve_args(tol, maxiter)
    S, A_mb, M, A_bm_M, diag, Pt, coarse = _condensed(system)
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
    target = tol * bnorm / (float(np.linalg.norm(rhs)) or 1.0)
    coarse = None if coarse is None else coarse + (Pt,)
    x, x0, iterations, elapsed = np.zeros(system.num_dofs), None, 0, 0.0
    for retried in (False, True):
        start = time.perf_counter()
        x[inner], its, _, met = SOLVERS["jacobi_cg"](
            S, rhs, target, maxiter - iterations, coarse, x0, diag)
        elapsed += time.perf_counter() - start
        iterations += its
        x[mo:] = M @ (r[mo:] - A_mb @ x[inner])
        residual = float(np.linalg.norm((r - system.A @ x)[free])) / (bnorm or 1.0)
        report = SolveReport(iterations, residual, elapsed, residual <= tol)
        if report.converged:
            break
        spread = (abs(system.A) @ np.abs(x))[free] + np.abs(r[free])
        report.floor = float(np.finfo(float).eps * np.linalg.norm(spread)) / (bnorm or 1.0)
        if residual <= 2.0 * report.floor:
            report.reason = "at the floor"
        elif not met:
            report.reason = "breakdown" if iterations < maxiter else "maxiter"
        else:
            report.reason = "recovery"
        if report.reason != "recovery" or retried or iterations >= maxiter:
            break
        target *= 0.5 * tol / residual
        x0 = x[inner]
    return x + fixed, report


def interpolate_dofs(mesh, k, u):
    """Dof vector of the interpolant of a smooth function u(x, y).

    Point dofs sample u; moment dofs average u against the scaled
    monomials with a quadrature well beyond the space's own degree.
    """
    dofmap, groups = discretisation(mesh, k)
    x = np.zeros(dofmap.num_dofs)
    pts = dofmap.dof_points[: dofmap.moment_offset]
    x[: dofmap.moment_offset] = u(pts[:, 0], pts[:, 1])

    def work(ids, group):
        rule = group.rule(2 * k + 2)
        uv = sample(u, rule.points)
        nm, mo = group.layout.num_moment_dofs, group.layout.moment_offset
        V = group.values(2 * k + 2)[..., :nm]
        moments = (V * (rule.weights * uv)[..., None]).sum(axis=1)
        x[dofmap.maps(ids)[:, mo:]] = moments / group.area[:, None]

    if k >= 2:
        _each_group(groups, work)
    return x


def error_norms(mesh, k, solution, u_exact, grad_exact):
    """Absolute L2 and H1-seminorm errors of the projected solution.

    The discrete function is replaced element-wise by its energy
    projection onto polynomials, which is the computable representative.
    Its gradient is a polynomial of degree k - 1, whose coefficients come
    from a constant derivative table, so the values of the first
    basis_size(k - 1) monomials (the graded order puts them first) serve
    both norms.
    """
    dofmap, groups = discretisation(mesh, k)
    squares = np.empty((mesh.num_elements, 2))
    Dx, Dy = derivative_tables(k)
    low = basis_size(k - 1)

    def work(ids, group):
        PiS = find_or_compute(group.cache, group, MatrixTag.PI_GRAD_STAR)
        rule = group.rule(2 * k + 2)
        coeff = PiS @ solution[dofmap.maps(ids)][..., None]
        xq, yq = rule.points.reshape(-1, 2).T
        w = rule.weights.ravel()
        V = group.values(2 * k + 2)
        uh = (V @ coeff).ravel()
        du = uh - np.asarray(u_exact(xq, yq), dtype=float)
        h = group.frame[2][..., None]
        gex, gey = grad_exact(xq, yq)
        dgx = (V[..., :low] @ (Dx @ coeff / h)).ravel() - np.asarray(gex, dtype=float)
        dgy = (V[..., :low] @ (Dy @ coeff / h)).ravel() - np.asarray(gey, dtype=float)
        squares[ids, 0] = (w * du * du).reshape(len(ids), -1).sum(axis=1)
        squares[ids, 1] = (w * (dgx * dgx + dgy * dgy)).reshape(len(ids), -1).sum(axis=1)

    _each_group(groups, work)
    err_l2 = err_h1 = 0.0
    for l2, h1 in squares.tolist():  # in element order, one by one
        err_l2 += l2
        err_h1 += h1
    return float(np.sqrt(err_l2)), float(np.sqrt(err_h1))
