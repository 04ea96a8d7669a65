"""Rejected baseline split strategies: top-K / worst-K average-recall selection.

These exist to demonstrate their failure modes, not to build benchmarks:
top-K selections produce wildly uneven per-family recall, and worst-K
selections produce models that detect only the selected families.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from famsplit.errors import MatrixFormatError
from famsplit.matrix import CrossErrorMatrix
from famsplit.evaluate import Aggregation, surrogate_recalls


@dataclass(frozen=True)
class AblationReport:
    """Surrogate per-family recall for one selection, plus summary stats.

    Off-selected stats cover families outside the selection; they are None
    when the selection spans the whole matrix.
    """

    # Field order is the ablate report's key order.
    selected_families: tuple[str, ...]
    mean_off_selected: float | None
    std_off_selected: float | None
    self_recall_min: float
    per_family_recall: dict[str, float]


# Cells per block of rows whose off-diagonal _row_means copies at once, so the
# copy stays small next to the matrix.
_MEAN_BLOCK_CELLS = 16_384


def _row_means(m: CrossErrorMatrix) -> list[float]:
    """Each row's mean recall against the other families (diagonal excluded).

    Each row's mean is taken over its K - 1 contiguous off-diagonal values, a
    block of rows at a time.
    """
    means: list[float] = []
    block_rows = max(1, _MEAN_BLOCK_CELLS // m.k)
    for start in range(0, m.k, block_rows):
        block = m.values[start : start + block_rows]
        # Each row's off-diagonal: all but column start + its row in the block.
        off = ~np.eye(len(block), m.k, start, dtype=bool)
        means += block[off].reshape(len(block), m.k - 1).mean(axis=1).tolist()
    return means


def _ranked_indices(m: CrossErrorMatrix, descending: bool) -> list[int]:
    means = _row_means(m)
    sign = -1.0 if descending else 1.0
    return sorted(range(m.k), key=lambda t: (sign * means[t], t))


def _take(m: CrossErrorMatrix, order: list[int], k: int) -> list[str]:
    if not 1 <= k <= m.k:
        raise MatrixFormatError(f"k must be in [1, {m.k}], got {k}")
    return [m.families[t] for t in order[:k]]


def select_top_k(m: CrossErrorMatrix, k: int) -> list[str]:
    """The k families with the highest mean recall against other families."""
    return _take(m, _ranked_indices(m, descending=True), k)


def select_worst_k(m: CrossErrorMatrix, k: int) -> list[str]:
    """The k families with the lowest mean recall against other families."""
    return _take(m, _ranked_indices(m, descending=False), k)


def ablation_report(
    m: CrossErrorMatrix, selected: list[str] | tuple[str, ...], agg: Aggregation = "mean"
) -> AblationReport:
    """Surrogate recall of a model trained on `selected`, over every family."""
    if not selected:
        raise MatrixFormatError("selection must not be empty")
    chosen = set(selected)
    if len(chosen) != len(selected):
        repeated = next(f for i, f in enumerate(selected) if f in selected[:i])
        raise MatrixFormatError(f"selection repeats family {repeated!r}")
    per_family = surrogate_recalls(m, selected, m.families, agg)
    off = [recall for family, recall in per_family.items() if family not in chosen]
    own = [recall for family, recall in per_family.items() if family in chosen]
    return AblationReport(
        selected_families=tuple(selected),
        mean_off_selected=statistics.fmean(off) if off else None,
        std_off_selected=statistics.pstdev(off) if off else None,
        self_recall_min=min(own),
        per_family_recall=per_family,
    )


def selection_curve(
    m: CrossErrorMatrix,
    mode: str,
    ks: list[int] | tuple[int, ...],
    agg: Aggregation = "mean",
) -> list[tuple[int, float]]:
    """(k, mean surrogate recall over all families) points for a K sweep."""
    if mode not in ("top", "worst"):
        raise MatrixFormatError(f"mode must be 'top' or 'worst', got {mode!r}")
    order = _ranked_indices(m, descending=mode == "top")
    return [
        (k, statistics.fmean(surrogate_recalls(m, _take(m, order, k), m.families, agg).values()))
        for k in ks
    ]
