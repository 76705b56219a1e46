"""Exception types shared across the package."""


class TribipError(Exception):
    """Base class for all tribip errors."""


class DimensionError(TribipError, ValueError):
    """Vector or matrix dimensions do not match the problem."""


class ValidationError(TribipError, ValueError):
    """Data violates a structural invariant (signs, senses, shapes)."""


class ParseError(TribipError, ValueError):
    """An instance or front file is malformed."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class InfeasibleProblemError(TribipError):
    """The LP relaxation (or the problem itself) has no feasible point."""


class EnumerationLimitError(TribipError):
    """Instance is too large for brute-force enumeration."""


class NoRoundedSolutionError(TribipError):
    """Rounding the LB set produced no feasible integer solution."""


class InsufficientSolutionsError(TribipError):
    """Fewer than two distinct initial solutions, path relinking cannot pair."""
