"""Virtual element solver for the Poisson problem on polygonal meshes.

The package is layered bottom-up: geometry (facets, triangulation,
polyhedra), monomials (scaled basis algebra), quadrature (1d/polygon/face
rules, compression, the analytic oracle), vemspace (the local dof layout),
localmat (element matrices and projectors, cached by tag), mesh (storage,
file format, generators, cut/merge, global dofs), system (assembly, boundary
conditions, solver, error norms) and cli.
"""

__version__ = "0.1.0"

from .errors import PolyVemError

__all__ = ["PolyVemError", "__version__"]
