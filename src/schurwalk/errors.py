"""Exception types shared across the package.

Only the classes a caller tells apart have a type of their own; every other
failure is a :class:`SchurWalkError` whose message says what went wrong.
"""


class SchurWalkError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SchurWalkError):
    """Malformed input text (edge lists, state specs, weight files)."""


class OddDegreeVertex(SchurWalkError):
    """Operation requires every vertex degree to be even."""


class OddEdgeCount(SchurWalkError):
    """Operation requires an even number of edges."""


class EigensolverFailure(SchurWalkError):
    """The dense eigensolver did not converge."""


class ZeroLaplacian(SchurWalkError):
    """Induced Laplacian has zero trace; the state carries no edge weight."""
