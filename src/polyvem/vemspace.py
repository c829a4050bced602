"""Degrees of freedom of the local virtual space.

On a polygon the order-k space carries three dof families: values at the
boundary vertices, values at the k-1 interior Gauss-Lobatto nodes of every
edge, and scaled monomial moments up to degree k-2 averaged over the
element.  A member's boundary trace is a polynomial of degree k per edge,
pinned by the vertex and edge-node values, which is what makes boundary
integrals of virtual functions computable without knowing them inside.

Dof ordering: all vertex dofs in boundary-walk order (outer loop first,
then holes), then edge dofs edge by edge along the same walk (nodes in edge
direction), then moments in the graded monomial order.
"""

import numpy as np

from .monomials import basis_size


class LocalDofLayout:
    """Dof counts of one element at order k, and `chains`: row i holds the
    local dofs of the k+1 trace nodes of boundary edge i, in edge
    direction."""

    def __init__(self, k, chains):
        self.chains = chains
        self.num_vertex_dofs = len(chains)
        self.num_edge_dofs = len(chains) * (k - 1)
        self.num_moment_dofs = basis_size(k - 2)
        self.moment_offset = self.num_vertex_dofs + self.num_edge_dofs
        self.num_dofs = self.moment_offset + self.num_moment_dofs


def build_layout(facet, k):
    """Build the dof layout of a facet at order k (k >= 1).

    Edge i of the boundary walk runs from walk vertex i to the next vertex
    of its loop.  A vertex the walk passes twice has one dof, at its last
    walk position.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    ids = facet.vertex_ids().tolist()
    n = len(ids)
    last = {v: i for i, v in enumerate(ids)}
    position = np.array([last[v] for v in ids], dtype=np.intp)
    nxt, start = [], 0
    for loop in facet.loops():
        size = len(loop)
        nxt.extend(start + (np.arange(size) + 1) % size)
        start += size
    chains = np.empty((n, k + 1), dtype=np.intp)
    chains[:, 0] = position
    chains[:, 1:-1] = n + (k - 1) * np.arange(n)[:, None] + np.arange(k - 1)
    chains[:, -1] = position[nxt]
    return LocalDofLayout(k, chains)
