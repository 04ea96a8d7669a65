"""Build malware-detection benchmark train/test splits of configurable difficulty.

The toolkit starts from a family-level cross-generalization matrix (recall of a
detector trained on one family when tested on another), searches for disjoint
train/test family sets whose cross recalls sit near a target threshold, and
materializes the abstract splits into concrete balanced sample manifests.
"""

__version__ = "0.1.0"

from famsplit.errors import (
    ComparisonError,
    FamsplitError,
    InfeasibleSearchError,
    MatrixFormatError,
    PoolError,
    PredictionError,
)

__all__ = [
    "ComparisonError",
    "FamsplitError",
    "InfeasibleSearchError",
    "MatrixFormatError",
    "PoolError",
    "PredictionError",
    "__version__",
]
