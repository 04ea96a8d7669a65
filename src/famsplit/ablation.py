"""Rejected baseline split strategies: top-K / worst-K average-recall selection.

These exist to demonstrate their failure modes, not to build benchmarks:
top-K selections produce wildly uneven per-family recall, and worst-K
selections produce models that detect only the selected families.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


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


def _ranked_indices(m: CrossErrorMatrix, descending: bool) -> list[int]:
    # Row means against the other families, which the matrix finds once.
    means = m._off_diagonal_means
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
