"""Exceptions raised by the qde library."""


class QdeError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(QdeError):
    """Syntax error in an input expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RationalValueError(QdeError):
    """The requested value is rational, not a quadratic irrational."""


class FieldMismatchError(QdeError):
    """Operands live in different quadratic fields and cannot be compared."""


class DiscriminantBoundError(QdeError):
    """A discriminant exceeded the configured desk-scale bound."""

    def __init__(self, discriminant: int, bound: int):
        super().__init__(
            f"discriminant {discriminant} exceeds the desk-scale bound {bound}; "
            f"raise the bound to proceed"
        )
        self.discriminant = discriminant
        self.bound = bound


class InvariantError(QdeError):
    """An internal invariant was violated; this signals an implementation fault."""


class CurveDataError(QdeError):
    """One or more rows of a curve data file failed to parse or validate."""

    def __init__(self, problems: list[str]):
        super().__init__(
            "curve data rejected: " + "; ".join(problems[:5])
            + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
        )
        self.problems = problems
