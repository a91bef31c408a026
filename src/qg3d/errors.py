"""Exception types shared across the package."""


class QG3DError(Exception):
    """Base class for all qg3d errors."""


class DomainError(QG3DError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(QG3DError, RuntimeError):
    """A series or quadrature failed to reach its accuracy target."""


class GeometryError(QG3DError, ValueError):
    """A profile or reconstructed surface is degenerate (non-positive radius,
    failed arc-chord comparability, ...)."""


class SolverError(QG3DError, RuntimeError):
    """A solver (eigensolve, power iteration, Newton) failed."""
