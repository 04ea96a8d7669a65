"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FamsplitError(Exception):
    """Base class for all domain errors raised by this package."""


class MatrixFormatError(FamsplitError):
    """Malformed or inconsistent cross-generalization matrix data."""


class InfeasibleSearchError(FamsplitError):
    """Split search cannot succeed for the given matrix/config."""


class PoolError(FamsplitError):
    """Sample pool is malformed or too small for the requested split."""


class PredictionError(FamsplitError):
    """Prediction set is incomplete or carries out-of-range scores."""


class ComparisonError(FamsplitError):
    """Metric vectors are malformed or cannot be compared (length mismatch, empty, all equal)."""
