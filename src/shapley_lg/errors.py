"""Exception types shared across the package."""

from __future__ import annotations

import contextlib
import enum


class ValidationKind(enum.Enum):
    """Which structural invariant a model failed."""

    NOT_SYMMETRIC = "NotSymmetric"
    NOT_PSD = "NotPSD"
    ZERO_OUTPUT_VARIANCE = "ZeroOutputVariance"
    DIMENSION_MISMATCH = "DimensionMismatch"
    NOT_FINITE = "NotFinite"


class ModelValidationError(ValueError):
    """Raised when model inputs violate a structural invariant."""

    def __init__(self, kind: ValidationKind, detail: str):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind


class DimensionCapError(RuntimeError):
    """Raised when enumerating subsets or orderings would pass a cap."""


class BudgetExceededError(RuntimeError):
    """Raised when a Monte Carlo configuration exceeds its evaluation budget."""


class FileFormatError(ValueError):
    """Raised when a model, report, distribution or expression file cannot be parsed."""


class ExpressionParseError(FileFormatError):
    """Parse failure in the arithmetic expression grammar, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@contextlib.contextmanager
def allocation():
    """Raise numpy's ``ValueError`` for an array past the address space as
    the ``MemoryError`` it is. Wrap only allocations: any other
    ``ValueError`` inside would be renamed too."""
    try:
        yield
    except ValueError as err:
        raise MemoryError(str(err)) from None
