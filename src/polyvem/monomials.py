"""Scaled monomial algebra on a local element frame.

Basis members are powers of the centered, diameter-scaled coordinates
X = (x - xc)/h and Y = (y - yc)/h.  The ordering is graded: degree blocks
ascending, and inside a degree the x exponent decreases, so for k = 2 the
basis reads 1, X, Y, X^2, X*Y, Y^2.  Laplacians are kept symbolic, which
lets the projector right-hand side read moment dofs exactly, without
quadrature.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def basis_size(k):
    """Dimension of the polynomial space of degree <= k (0 for k < 0)."""
    if k < 0:
        return 0
    return (k + 1) * (k + 2) // 2


def basis_index(ex, ey):
    """Position of X^ex Y^ey in the graded ordering."""
    if ex < 0 or ey < 0:
        raise ValueError("exponents must be nonnegative")
    d = ex + ey
    return d * (d + 1) // 2 + ey


def basis_exponents(k):
    """Exponent pairs (ex, ey) for every member of the degree-k basis."""
    out = []
    for d in range(k + 1):
        for ey in range(d + 1):
            out.append((d - ey, ey))
    return out


@lru_cache(maxsize=None)
def derivative_tables(k):
    """(Dx, Dy), each (basis_size(k - 1), basis_size(k)): column a holds
    the coefficients of h d/dx and h d/dy of member a of the degree-k
    basis in the degree k - 1 basis, as d/dx X^ex Y^ey = (ex / h)
    X^(ex-1) Y^ey.  The entries are exponents, so the tables are exact."""
    tables = np.zeros((2, basis_size(k - 1), basis_size(k)))
    for col, (ex, ey) in enumerate(basis_exponents(k)):
        if ex:
            tables[0, basis_index(ex - 1, ey), col] = ex
        if ey:
            tables[1, basis_index(ex, ey - 1), col] = ey
    return tables[0], tables[1]


@dataclass(frozen=True)
class ScaledMonomial:
    """coeff * X^ex * Y^ey in the scaled frame of some element."""

    ex: int
    ey: int
    coeff: float = 1.0

    @property
    def degree(self):
        return self.ex + self.ey


def laplacian_terms(m, h):
    """Physical laplacian of m as a short list of scaled monomials.

    The two second derivatives each bring a 1/h^2 factor, absorbed into the
    returned coefficients.  At most two terms come back, both of degree
    m.degree - 2; harmonic-by-exponent members (1, X, Y, X*Y, ...) give [].
    """
    out = []
    c = m.coeff / (h * h)
    if m.ex >= 2:
        out.append(ScaledMonomial(m.ex - 2, m.ey, c * m.ex * (m.ex - 1)))
    if m.ey >= 2:
        out.append(ScaledMonomial(m.ex, m.ey - 2, c * m.ey * (m.ey - 1)))
    return out


class MonomialBasis:
    """The full scaled monomial basis of degree <= k, frame-agnostic.

    Evaluation helpers take the frame explicitly so one basis object can be
    reused across elements of the same order.
    """

    def __init__(self, k):
        if k < 0:
            raise ValueError("basis degree must be >= 0")
        self.k = k
        self.exponents = basis_exponents(k)
        self.members = [ScaledMonomial(ex, ey) for ex, ey in self.exponents]

    @property
    def size(self):
        return len(self.members)

    def _powers(self, points, frame):
        # X^0..X^k and Y^0..Y^k by repeated multiplication, power-major:
        # (2, k + 1, ..., npoints), so each power is one contiguous block
        xc, yc, h = frame
        pts, h = np.atleast_2d(np.asarray(points, dtype=float)), np.asarray(h)
        scaled = np.stack(np.broadcast_arrays((pts[..., 0] - xc) / h, (pts[..., 1] - yc) / h))
        table = np.empty((2, self.k + 1) + scaled.shape[1:])
        table[:, 0] = 1.0
        for e in range(1, self.k + 1):
            np.multiply(table[:, e - 1], scaled, out=table[:, e])
        return table

    def eval(self, points, frame):
        """Values at points, as an (npoints, size) matrix.

        Points may be stacked, (..., npoints, 2), with frame entries that
        broadcast against points[..., 0]; values are then (..., npoints,
        size).  Powers come from per-point tables built by repeated
        multiplication, so X^e carries up to e - 1 roundings; each member
        X^a Y^b is written straight into its column of the output.
        """
        px, py = self._powers(points, frame)
        out = np.empty(px.shape[1:] + (self.size,))
        for j, (a, b) in enumerate(self.exponents):
            np.multiply(px[a], py[b], out=out[..., j])
        return out

    def grad(self, points, frame):
        """Physical gradients at points: a pair of (npoints, size) matrices,
        stacked like `eval` for stacked points.  Member X^a Y^b has
        d/dx = (a / h) X^(a-1) Y^b, multiplied in that order."""
        px, py = self._powers(points, frame)
        h = np.asarray(frame[2])
        gx, gy = np.empty((2,) + px.shape[1:] + (self.size,))
        for j, (a, b) in enumerate(self.exponents):
            np.multiply(a / h, px[max(a - 1, 0)], out=gx[..., j])
            np.multiply(gx[..., j], py[b], out=gx[..., j])
            np.multiply(b / h, px[a], out=gy[..., j])
            np.multiply(gy[..., j], py[max(b - 1, 0)], out=gy[..., j])
        return gx, gy


@lru_cache(maxsize=None)
def shared_basis(k):
    """The MonomialBasis of degree k: frame-agnostic, so every element of
    order k, and every rule certified at degree k, shares one."""
    return MonomialBasis(k)
