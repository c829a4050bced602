"""Exception types shared across the package."""


class PolyVemError(Exception):
    """Base class for every error raised by this package."""


class InvalidOrientation(PolyVemError):
    """A loop or face winding that cannot be fixed by reversing it."""


class InvariantViolation(PolyVemError):
    """A mesh or facet broke a structural rule (conformity, loops, areas)."""


class TriangulationFailure(PolyVemError):
    pass


class OpenSurface(PolyVemError):
    """Polyhedron surface is not watertight."""


class NonPlanarFace(PolyVemError):
    pass


class SingularG(PolyVemError):
    """Projector system matrix not invertible; element likely degenerate."""


class SingularH(PolyVemError):
    """Monomial mass matrix ill conditioned; element likely degenerate."""


class ParseError(PolyVemError):
    """Bad mesh file, with the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DegenerateCut(PolyVemError):
    pass


class NoCommonBoundary(PolyVemError):
    pass


class OverlapDetected(PolyVemError):
    pass
