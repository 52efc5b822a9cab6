"""Exception hierarchy shared by all modules."""


class TripleSystemError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedSize(TripleSystemError):
    """Vertex count outside the supported range 3..64."""


class VertexOutOfRange(TripleSystemError):
    pass


class DuplicateEdge(TripleSystemError):
    pass


class DegenerateEdge(TripleSystemError, ValueError):
    """An edge that is not three distinct vertices."""


class LinearityViolation(TripleSystemError):
    """Two edges share two or more vertices."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        shared = sorted(set(first) & set(second))
        super().__init__(f"edges {tuple(first)} and {tuple(second)} share {shared}")


class EmptyStack(TripleSystemError):
    pass


class ParseError(TripleSystemError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ConstructionError(TripleSystemError):
    """Base class for generator parameter errors."""


class DerangementViolation(ConstructionError):
    pass


class KTooSmall(ConstructionError):
    pass


class NoLongCycle(ConstructionError):
    pass


class BadSpecialEdges(ConstructionError):
    pass


class ColoringInfeasible(ConstructionError):
    """Raised only on internal inconsistency; valid parameters never trigger it."""


class DivisibilityViolation(ConstructionError):
    pass


class BadCycleLengths(ConstructionError):
    pass


class BadColorAssignment(ConstructionError):
    pass


class BadVariant(ConstructionError):
    pass


class InvalidLatinSquare(ConstructionError):
    pass


class RoleShapeMismatch(TripleSystemError):
    pass


class LimitExceeded(TripleSystemError):
    """Node or time budget exhausted before the search finished."""
