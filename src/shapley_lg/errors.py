"""Exception types shared across the package."""

from __future__ import annotations

import enum


class ValidationKind(enum.Enum):
    """Which structural invariant a model failed."""

    NOT_SYMMETRIC = "NotSymmetric"
    NOT_PSD = "NotPSD"
    ZERO_OUTPUT_VARIANCE = "ZeroOutputVariance"
    DIMENSION_MISMATCH = "DimensionMismatch"
    NOT_FINITE = "NotFinite"
    DEPENDENT_BLOCKS = "DependentBlocks"
    NOT_ADDITIVE = "NotAdditive"


class ModelValidationError(ValueError):
    """Raised when model inputs violate a structural invariant."""

    def __init__(self, kind: ValidationKind, detail: str):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


class DimensionCapError(RuntimeError):
    """Raised when a request would enumerate a subset lattice beyond the supported size."""


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
