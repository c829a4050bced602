"""Element matrices: projectors, stiffness and the tag-keyed cache.

Everything here is computable from boundary traces and moment dofs alone.
The energy projector onto degree-k polynomials is obtained from a Gram
matrix of monomial gradients (row zero swapped for a boundary-average
constraint to pin the constant) and a right-hand side assembled by parts:
an edge term sampled at the Lobatto trace nodes plus a volume term that
reads moment dofs exactly.  The stiffness adds a plain dof-difference
penalty on the complement of the projector, which is enough for spectral
equivalence on shape-regular polygons.  The Gram matrix G, the monomial
mass matrix H and D's moment rows are read off the integrals of the
monomials of degree <= 2k, which the divergence theorem turns into edge
integrals (`_monomial_integrals`), so the stiffness uses no triangulated
rule: `polygon_rule` serves only the load, the error norms and the
interpolant, at degree 2k + 2.

Elements are computed in groups, in the style of Sutton's "virtual element
method in 50 lines of MATLAB": an `ElementGroup` slices like-shaped
elements out of a `FacetTable` and stacks their geometry, dof points and
quadrature rules along a leading member axis, and each matrix computation
yields the matrices of all members at once.  There is one arithmetic path,
as a lone element is the group of a one-row table; elementwise operations,
one BLAS or LAPACK call per member and scatters in the per-edge order
round as for a member alone, so a matrix has the same bits in any group.

H and G are checked against COND_LIMIT before use (`_ill_conditioned`),
with no inverse: H is symmetric to the bit, and G's first column is zero
below row 0 with a block K after it that is symmetric to the bit, so one
batched Cholesky of the members (of K for G) shifted by a multiple of
their norm proves the well-conditioned ones below COND_LIMIT / 100, and
only the others take an SVD, so each `SingularH`/`SingularG` decision is
the one `np.linalg.cond` makes.

Matrices are requested by tag through `find_or_compute`, which walks the
dependency graph and memoizes in one `ElementMatrixCache` per group (a
lone element's going into its own), so a stiffness request performs each
intermediate computation once.
"""

import enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import PolyVemError, SingularG, SingularH
from .geometry import FacetTable, fan_accepts, fan_table, triangulate
from .monomials import basis_index, laplacian_terms, shared_basis
from .quadrature import gauss_lobatto_1d, monomial_integrals, polygon_rule
from .vemspace import build_layout, walk_layout

COND_LIMIT = 1e12

# the most members a group holds: a group's matrices and their temporaries
# are stacked over its members, so the cap bounds them while one group is
# computed
GROUP_CAP = 256


class MatrixTag(enum.Enum):
    D = "dof-values-of-monomials"
    B = "projector-rhs"
    G = "projector-gram"
    H = "monomial-mass"
    PI_GRAD_STAR = "energy-projector-coefficients"
    PI_GRAD = "energy-projector-dof-form"
    PI_ZERO_STAR = "moment-projector-coefficients"
    STIFFNESS = "stiffness"


class Element:
    """One polygon at one order: its dof layout and monomial basis."""

    def __init__(self, facet, k):
        if k < 1:
            raise ValueError("order must be >= 1")
        self.facet, self.k, self.basis = facet, int(k), shared_basis(int(k))

    @cached_property
    def layout(self):
        return build_layout(self.facet, self.k)

    @property
    def frame(self):
        return self.facet.frame


class ElementMatrixCache:
    """Computed matrices keyed by tag: of one element, or of the members of
    a group, stacked member index first.

    compute_count tracks how many matrix evaluations actually ran, which
    lets callers verify that repeated requests hit the cache.  With member
    caches, one per member, a stored stack also gives each member cache
    that lacks the tag its own slice, counting one computation there; a
    tag that every member holds is stacked from them.
    """

    def __init__(self, members=None):
        self._store = {}
        self.compute_count = 0
        self.members = members

    def __contains__(self, tag):
        return tag in self._store or (
            self.members is not None and all(tag in c for c in self.members)
        )

    def get(self, tag):
        if tag not in self._store:
            self._store[tag] = np.stack([c.get(tag) for c in self.members])
        return self._store[tag]

    def put(self, tag, value):
        self._store[tag] = value
        self.compute_count += 1
        for cache, member_value in zip(self.members or (), value):
            if tag not in cache:
                cache.put(tag, member_value)

    def discard(self, *tags):
        """Forget the stored matrices of `tags`; compute_count stays."""
        for tag in tags:
            self._store.pop(tag, None)


# the stacked boundary geometry of an ElementGroup, made on first use
_GEOMETRY = ("vertices", "lengths", "perimeter", "normals", "edge_nodes", "dof_points")


class ElementGroup:
    """Elements of one order sliced from a FacetTable: facets `ids`, which
    share their loop lengths, triangle count and dof chains (see
    `group_facets`), with their triangles (members, T, 3) as vertex ids, or
    None for a lone facet triangulated when a rule needs it (its
    triangulation failed once, or its loops repeat a vertex).

    The boundary geometry and dof points (`_GEOMETRY`) are stacked along a
    leading member axis, made on first use and dropped by `discard`; frame
    entries are (members, 1) columns, which broadcast against stacked
    points.  Rules and basis values are built once per degree, masses once.
    """

    def __init__(self, table, ids, k, layout, triangles, cache):
        self.table, self.ids, self.triangles = table, ids, triangles
        self.k, self.basis, self.layout, self.cache = k, shared_basis(k), layout, cache
        self.size = len(ids)
        self.area = table.areas[ids]
        frame = np.column_stack((table.centroids[ids], table.diameters[ids]))
        self.frame = tuple(frame.T[:, :, None])
        self.chains = layout.chains
        self._rules, self._values, self._mass = {}, {}, None

    def __getattr__(self, name):
        # the stacked boundary geometry (`_GEOMETRY`), made on first use
        if name not in _GEOMETRY:
            raise AttributeError(name)
        v = self.table.coords[self.table.walks(self.ids, len(self.chains))]
        d = v[:, self.chains[:, -1]] - v  # each edge, to the next vertex of its loop
        lengths = np.hypot(d[..., 0], d[..., 1])
        tangent = d / lengths[..., None]
        t, _ = gauss_lobatto_1d(self.k + 1)
        nodes = v[:, :, None, :] + t[:, None] * d[:, :, None, :]
        self.__dict__.update(
            vertices=v, lengths=lengths, perimeter=sum(lengths.T),  # edge by edge
            normals=np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1), edge_nodes=nodes,
            dof_points=np.concatenate([v, nodes[:, :, 1:-1].reshape(self.size, -1, 2)], axis=1))
        return self.__dict__[name]

    def corners(self):
        """Triangle corners of every member, (members, triangles, 3, 2)."""
        if self.triangles is None:
            return self.table.coords[triangulate(self.table.facet(self.ids[0]))][None]
        return self.table.coords[self.triangles]

    def rule(self, degree):
        """Stacked polygon rule of this degree: points (members, n, 2)."""
        if degree not in self._rules:
            self._rules[degree] = polygon_rule(self.corners(), degree)
        return self._rules[degree]

    def values(self, degree):
        """Basis values at the points of rule(degree): (members, n, size)."""
        if degree not in self._values:
            self._values[degree] = self.basis.eval(self.rule(degree).points, self.frame)
        return self._values[degree]

    def mass(self):
        """Monomial mass matrices (members, size, size), unchecked, as D's
        moment rows read them too.  np.take keeps members outermost, so a
        group of one multiplies its matrices like a member."""
        if self._mass is None:
            I = _monomial_integrals(self, 2 * self.k)
            self._mass = np.take(I, _pair_tables(self.k)[0], axis=1)
        return self._mass

    def discard(self, *tags):
        """Forget the cached matrices of `tags`, and the masses and the
        stacked boundary geometry, which are built again on first use."""
        self.cache.discard(*tags)
        self._mass = None
        for name in _GEOMETRY:
            self.__dict__.pop(name, None)

    def split(self):
        """One group per member, in member order."""
        return [
            ElementGroup(self.table, self.ids[i : i + 1], self.k, self.layout,
                         None if self.triangles is None else self.triangles[i : i + 1],
                         ElementMatrixCache())
            for i in range(self.size)
        ]


def group_facets(table, k, caches=None):
    """(ids, ElementGroup) pairs covering the facets of a FacetTable at order
    k, each group's cache storing into `caches`, one per facet, if given.

    Members of a group share loop lengths and triangle count; the facets
    of one such shape are split in id order into runs of at most GROUP_CAP
    members, and groups come in order of their lowest facet id.  The keys,
    runs and fan masks are array operations over all facets.  A hole-free
    facet that `fan_accepts` gets the fan's triangles; only the others are
    triangulated.  A facet whose loops repeat a vertex (its dof
    chains differ), or whose triangulation fails, forms a group of its
    own; the failure then surfaces when that group's rules are built, in
    element order like any other element error.
    """
    nloops = np.diff(table.facet_loops)
    nvert = np.diff(table.slot_starts)
    count = np.full(len(table), -1)  # triangles, or -1 for a group of its own
    fan = np.zeros(len(table), dtype=bool)
    to_clip = []
    for size in np.unique(nvert).tolist():
        rows = np.flatnonzero(nvert == size)
        ids = np.sort(table.walks(rows, size), axis=1)
        distinct = ~(ids[:, 1:] == ids[:, :-1]).any(axis=1)
        plain = rows[distinct & (nloops[rows] == 1)]
        accepted = fan_accepts(table.coords[table.walks(plain, size)], table.areas[plain],
                               table.diameters[plain])
        fan[plain[accepted]] = True
        count[plain[accepted]] = size - 2
        to_clip += plain[~accepted].tolist() + rows[distinct & (nloops[rows] > 1)].tolist()
    # a label per (loop lengths, triangle count): a fan's is its vertex
    # count, another key's a number past those, and a facet of a group of
    # its own gets one past all of them
    label = np.where(fan, nvert, -1)
    keys = {((size,), size - 2): size for size in np.unique(nvert).tolist()}
    clipped = {}
    for e in sorted(to_clip):
        try:
            clipped[e] = triangulate(table.facet(e))
        except PolyVemError:
            continue
        count[e] = len(clipped[e])
        key = (tuple(table.loop_sizes(e).tolist()), len(clipped[e]))
        label[e] = keys.setdefault(key, int(nvert.max()) + 1 + len(keys))
    alone = label < 0
    label[alone] = label.max(initial=0) + 1 + np.arange(np.count_nonzero(alone))
    # the facets of each label in id order, split into runs of GROUP_CAP
    order = np.argsort(label, kind="stable")
    ordered = label[order]
    at = np.arange(len(order)) - np.searchsorted(ordered, ordered)  # place within its label
    starts = np.flatnonzero(at % GROUP_CAP == 0)
    bounds = np.r_[starts, len(order)]

    groups = []
    for r in np.argsort(order[starts]).tolist():  # by lowest facet id
        ids = order[bounds[r] : bounds[r + 1]]
        first, size = ids[0], nvert[ids[0]]
        walk = table.walks(ids, size)
        layout = walk_layout(walk[0], table.loop_sizes(first), k)
        triangles = None
        if count[first] >= 0:
            triangles = np.empty((len(ids), count[first], 3), dtype=np.intp)
            by_fan = fan[ids]
            if by_fan.any():
                triangles[by_fan] = walk[by_fan][:, fan_table(size)]
            for i in np.flatnonzero(~by_fan).tolist():
                triangles[i] = clipped[int(ids[i])]
        cache = ElementMatrixCache(None if caches is None else [caches[e] for e in ids.tolist()])
        groups.append((ids, ElementGroup(table, ids, k, layout, triangles, cache)))
    return groups


def _lone_group(element, cache):
    """A lone Element as the group of a one-row FacetTable, its matrices
    going into cache."""
    return group_facets(FacetTable.from_facets([element.facet]), element.k, [cache])[0][1]


def sample(fn, points):
    """fn(x, y) at stacked points, shaped like points[..., 0].

    fn gets 1-d coordinate arrays, as for a single point set.
    """
    flat = points.reshape(-1, 2)
    out = np.asarray(fn(flat[:, 0], flat[:, 1]), dtype=float)
    return np.broadcast_to(out, flat.shape[:1]).reshape(points.shape[:-1])


def _swap(M):
    return np.swapaxes(M, -1, -2)


def find_or_compute(cache, element, tag):
    """Matrix for `tag`, computing and caching any missing dependencies.

    `element` is an ElementGroup with its cache, which gives the stacked
    matrices of all members, or a lone Element with its cache, computed as
    a group of one whose cache has it as its member.
    """
    if tag in cache:
        return cache.get(tag)
    if isinstance(element, Element):
        group = _lone_group(element, cache)
        return find_or_compute(group.cache, group, tag)[0]
    deps, fn = _MATRICES[tag]
    for dep in deps:
        find_or_compute(cache, element, dep)
    value = fn(element, cache)
    cache.put(tag, value)
    return value


def _monomial_integrals(group, degree):
    """Integral over each member of every scaled monomial of degree <=
    `degree`: (members, basis_size(degree)), from its boundary edges."""
    return monomial_integrals(group.vertices, group.vertices[:, group.chains[:, -1]],
                              group.frame, degree)


@lru_cache(maxsize=None)
def _pair_tables(k):
    # for members a, b of the degree-k basis: the position of m_a m_b among
    # the monomials of degree <= 2k, then per variable the factor and the
    # position of the product of their scaled derivatives (0 if one is 0)
    ex, ey = np.array(shared_basis(k).exponents).T
    sx, sy = ex[:, None] + ex, ey[:, None] + ey
    fx, fy = ex[:, None] * ex, ey[:, None] * ey

    def index(px, py):
        return np.where((px >= 0) & (py >= 0), (px + py) * (px + py + 1) // 2 + py, 0)

    return index(sx, sy), fx, index(sx - 2, sy), fy, index(sx, sy - 2)


def _boundary_monomial_average(group):
    # average of each scaled monomial over the full boundary, holes
    # included, sampled with the k+1 point Lobatto rule per edge
    _, w = gauss_lobatto_1d(group.k + 1)
    nodes = group.edge_nodes
    vals = group.basis.eval(nodes.reshape(group.size, -1, 2), group.frame)
    per_edge = w @ vals.reshape(nodes.shape[:-1] + (group.basis.size,))
    total = sum(group.lengths[:, i, None] * per_edge[:, i] for i in range(per_edge.shape[1]))
    return total / group.perimeter[:, None]


def _compute_d(group, cache):
    layout, basis = group.layout, group.basis
    D = np.empty((group.size, layout.num_dofs, basis.size))
    D[:, : layout.moment_offset] = basis.eval(group.dof_points, group.frame)
    if layout.num_moment_dofs:
        mass = group.mass()[:, : layout.num_moment_dofs]
        D[:, layout.moment_offset :] = mass / group.area[:, None, None]
    return D


@lru_cache(maxsize=None)
def _mirror_pairs(n):
    # flat positions of the strict upper triangle of an (n, n) matrix and of
    # their mirror images, row 0's n - 1 pairs first
    i, j = np.triu_indices(n, 1)
    return i * n + j, j * n + i


def _ill_conditioned(M):
    """np.linalg.cond(M) > COND_LIMIT for each of the stacked matrices M,
    with an SVD only for the members that one shifted Cholesky does not
    clear.

    A member of either shape below is cleared, cond_2 <= L = COND_LIMIT /
    100, if its least eigenvalue, or that of its block K, is at least lam.
    One batched np.linalg.cholesky, which reads lower triangles only,
    proves that bound for all of them at once: where it succeeds on X - mu
    I with mu = 2 lam, X - mu I plus a perturbation of norm about n^2 u
    |M| is positive definite (Higham 2002, Thm 10.3), so lambda_min >= mu
    - n^2 u |M| > lam, as lam >= 1e-10 |M|_F.

    - Symmetric to the bit, as H is: cond_2 <= |M|_F / lambda_min, so lam
      = |M|_F / L, and X is M.
    - [[a, b^T], [0, K]] with K symmetric to the bit, as G is: M^-1 =
      [[1/a, -b^T K^-1 / a], [0, K^-1]], so |M^-1|_F^2 <= 1/a^2 + (|b|^2
      / a^2 + n - 1) / lambda_min(K)^2, and lam is where that meets
      (L / |M|_F)^2; X is M with 1 + mu for a, whose lower triangle is
      diag(1 + mu, K), and the zero column makes the multipliers of row
      0 zero, so K - mu I is factored as if alone.

    The margin of 100 covers the rounding of the SVD's own figure.  The
    other members (an entry not finite, |M|_F outside [2^-400, 2^400],
    where a square could over- or underflow, neither shape, or no lam) get
    np.linalg.cond, as every member does if the Cholesky raises, so each
    decision is the one np.linalg.cond makes.
    """
    limit, n = COND_LIMIT / 100, M.shape[-1]
    upper, lower = _mirror_pairs(n)
    flat = M.reshape(len(M), -1)
    mirrored = flat[:, upper] == flat[:, lower]
    k_symmetric = mirrored[:, n - 1 :].all(axis=1)
    symmetric = k_symmetric & mirrored[:, : n - 1].all(axis=1)
    a, b = M[:, 0, 0], M[:, 0, 1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.sqrt(np.einsum("mij,mij->m", M, M))  # not finite if an entry is not
        spare = (limit / norm) ** 2 - 1.0 / (a * a)
        lam = np.where(symmetric, norm / limit,
                       np.sqrt((np.einsum("mj,mj->m", b, b) / (a * a) + (n - 1)) / spare))
    g_shaped = k_symmetric & (flat[:, lower[: n - 1]] == 0.0).all(axis=1) & (spare > 0.0)
    clear = (symmetric | g_shaped) & (2.0**-400 <= norm) & (norm <= 2.0**400) & (lam < np.inf)
    mu = np.where(clear, 2.0 * lam, 0.0)
    S = M.copy()
    S[:, 0, 0] = np.where(symmetric, a, 1.0 + mu)
    S[~clear] = np.eye(n)
    S.reshape(len(S), -1)[:, :: n + 1] -= mu[:, None]
    try:
        np.linalg.cholesky(S)  # reads the lower triangle only
    except np.linalg.LinAlgError:  # some member is not cleared
        return np.linalg.cond(M) > COND_LIMIT
    out = np.zeros(len(M), dtype=bool)
    if not clear.all():
        out[~clear] = np.linalg.cond(M[~clear]) > COND_LIMIT
    return out


def _compute_h(group, cache):
    H = group.mass()
    if _ill_conditioned(H).any():
        raise SingularH(
            "monomial mass matrix is numerically singular; the element "
            "geometry is too degenerate for this order"
        )
    return H


def _compute_g(group, cache):
    I = _monomial_integrals(group, max(2 * group.k - 2, 0))
    _, fx, ix, fy, iy = _pair_tables(group.k)
    G = (fx * np.take(I, ix, 1) + fy * np.take(I, iy, 1)) / group.frame[2][..., None] ** 2
    G[:, 0, :] = _boundary_monomial_average(group)
    return G


def _compute_b(group, cache):
    k, layout, basis = group.k, group.layout, group.basis
    _, w = gauss_lobatto_1d(k + 1)
    nodes = group.edge_nodes
    shape = nodes.shape[:-1] + (basis.size,)
    gx, gy = basis.grad(nodes.reshape(group.size, -1, 2), group.frame)
    nx, ny = group.normals[..., 0, None, None], group.normals[..., 1, None, None]
    gn = gx.reshape(shape) * nx + gy.reshape(shape) * ny
    wl = w * group.lengths[..., None]
    # edge by edge, in walk order, as the trace nodes of one edge carry
    # distinct dofs: every dof adds up its edge terms in the per-edge order
    B = np.zeros((group.size, basis.size, layout.num_dofs))
    row0 = np.zeros((group.size, layout.num_dofs))
    for i, dofs in enumerate(group.chains):
        B[:, :, dofs] += _swap(wl[:, i, :, None] * gn[:, i])
        row0[:, dofs] += wl[:, i]
    if layout.num_moment_dofs:
        h = group.frame[2][:, 0]
        for s, m in enumerate(basis.members):
            for term in laplacian_terms(m, h):
                col = layout.moment_offset + basis_index(term.ex, term.ey)
                B[:, s, col] -= term.coeff * group.area
    B[:, 0, :] = row0 / group.perimeter[:, None]
    return B


def _compute_pi_grad_star(group, cache):
    G = cache.get(MatrixTag.G)
    B = cache.get(MatrixTag.B)
    if _ill_conditioned(G).any():
        raise SingularG("projector Gram matrix is numerically singular")
    try:
        return np.linalg.solve(G, B)
    except np.linalg.LinAlgError as err:
        raise SingularG("projector Gram matrix is singular: %s" % err)


def _compute_pi_grad(group, cache):
    return cache.get(MatrixTag.D) @ cache.get(MatrixTag.PI_GRAD_STAR)


def _compute_pi_zero_star(group, cache):
    layout = group.layout
    if group.k == 1:
        # no moments are available; project onto constants through the
        # vertex average, which is all the dofs can see
        n = layout.num_dofs
        return np.full((group.size, 1, n), 1.0 / n)
    nm = layout.num_moment_dofs
    Hm = cache.get(MatrixTag.H)[:, :nm, :nm]
    C = np.zeros((group.size, nm, layout.num_dofs))
    a = np.arange(nm)
    C[:, a, layout.moment_offset + a] = group.area[:, None]
    return np.linalg.solve(Hm, C)


def _compute_stiffness(group, cache):
    PiS = cache.get(MatrixTag.PI_GRAD_STAR)
    PiN = cache.get(MatrixTag.PI_GRAD)
    G_raw = cache.get(MatrixTag.G).copy()
    G_raw[:, 0, :] = 0.0
    K = _swap(PiS) @ G_raw @ PiS
    R = np.eye(group.layout.num_dofs) - PiN
    return K + _swap(R) @ R


# tag -> (tags it reads from the cache, fn(group, group_cache) -> stacked
# matrices of all members)
_MATRICES = {
    MatrixTag.D: ((), _compute_d),
    MatrixTag.H: ((), _compute_h),
    MatrixTag.G: ((), _compute_g),
    MatrixTag.B: ((), _compute_b),
    MatrixTag.PI_GRAD_STAR: ((MatrixTag.G, MatrixTag.B), _compute_pi_grad_star),
    MatrixTag.PI_GRAD: ((MatrixTag.D, MatrixTag.PI_GRAD_STAR), _compute_pi_grad),
    MatrixTag.PI_ZERO_STAR: ((MatrixTag.H,), _compute_pi_zero_star),
    MatrixTag.STIFFNESS: (
        (MatrixTag.G, MatrixTag.PI_GRAD_STAR, MatrixTag.PI_GRAD),
        _compute_stiffness,
    ),
}


def load_vector(element, f, cache=None):
    """Right-hand side contribution of a source term f, called as f(x, y).

    For k = 1 the element has no moments, so f is collapsed to its vertex
    average.  From k = 2 on, f is paired with the computable surrogate
    Pi0(phi) + (I - Pi0)(PiGrad(phi)): the first part reads moment dofs
    exactly and the second is orthogonal to low-order polynomials, so the
    load is exact whenever f has degree <= k-2 and keeps the L2 order
    k+1 for smooth sources, where the plain moment pairing stalls at
    order 2 when k = 2.

    `element` is a lone Element, with its cache if any, or an ElementGroup
    with its cache; a group gets one row per member.
    """
    if isinstance(element, Element):
        group = _lone_group(element, ElementMatrixCache() if cache is None else cache)
        return load_vector(group, f, group.cache)[0]
    group, layout = element, element.layout
    if group.k == 1:
        favg = np.mean(sample(f, group.vertices), axis=1)
        per_dof = favg * group.area / layout.num_dofs
        return np.repeat(per_dof[:, None], layout.num_dofs, axis=1)
    PiZ = find_or_compute(cache, group, MatrixTag.PI_ZERO_STAR)
    PiS = find_or_compute(cache, group, MatrixTag.PI_GRAD_STAR)
    H = find_or_compute(cache, group, MatrixTag.H)
    degree = 2 * group.k + 2
    rule = group.rule(degree)
    fv = sample(f, rule.points)
    # einsum adds each basis column's terms point by point, as a sum over
    # the points of their products does; it would sum a lone column pairwise
    mf = np.einsum("mpi,mp->mi", group.values(degree), rule.weights * fv)[..., None]
    nm = layout.num_moment_dofs
    low = np.linalg.solve(H[:, :nm, :nm], mf[:, :nm])
    return (_swap(PiZ) @ mf[:, :nm] + _swap(PiS) @ (mf - _swap(H[:, :nm, :]) @ low))[..., 0]
