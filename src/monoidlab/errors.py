"""Exception types shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all monoidlab errors."""


class ParseError(WorkbenchError):
    """Malformed word or identity text; ``position`` is an index into the
    text the caller passed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class NonAssociativeError(WorkbenchError):
    """A multiplication table failed the associativity check."""

    def __init__(self, triple: tuple[int, int, int]):
        s, t, u = triple
        super().__init__(f"({s}*{t})*{u} != {s}*({t}*{u})")
        self.triple = triple


class BadIdentityError(WorkbenchError):
    """The declared identity element does not act as one."""


class BadZeroError(WorkbenchError):
    """The declared zero element does not absorb, or no zero exists."""


class DuplicateLabelsError(WorkbenchError):
    """Two elements of a monoid carry the same label."""


class NotStabilizedError(WorkbenchError):
    """The bounded congruence closure at the given bound is not certified."""


class EmptyGeneratorsError(WorkbenchError):
    """A presentation must declare at least one generator."""


class UnknownPresetError(WorkbenchError):
    """No built-in presentation with that name."""


class UnknownBasisError(WorkbenchError):
    """No built-in identity list with that name."""


class NotSubsetError(WorkbenchError):
    """Quotient maps require the target word set to be contained in the source."""


class HomomorphismViolationError(WorkbenchError):
    """A constructed map failed the homomorphism or surjectivity check."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(WorkbenchError):
    """A checker ran out of its evaluation or backtracking budget."""

    def __init__(self, message: str, spent: int, limit: int):
        super().__init__(message)
        self.spent = spent
        self.limit = limit
