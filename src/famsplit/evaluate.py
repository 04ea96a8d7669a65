"""Scoring: surrogate recall from the matrix, and real prediction evaluation.

The surrogate treats a model trained on a set of families as an aggregate
(mean, max, or min) of the single-family matrix rows; it is what lets a
benchmark's difficulty be validated without training anything.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Literal

from famsplit.errors import MatrixFormatError, PredictionError
from famsplit.manifest import MaterializedSplit
from famsplit.matrix import CrossErrorMatrix
from famsplit.search import BenchmarkSet, SplitSpec

Aggregation = Literal["mean", "max", "min"]

_AGGREGATORS = {"mean": statistics.fmean, "max": max, "min": min}


@dataclass(frozen=True)
class PredictionSet:
    """Maliciousness scores per sample id; hard labels are 0/1 scores."""

    scores: dict[str, float]
    threshold: float = 0.5

    def __post_init__(self) -> None:
        for sample_id, score in self.scores.items():
            if not 0.0 <= score <= 1.0:
                raise PredictionError(f"score {score} for {sample_id!r} outside [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise PredictionError(f"threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class EvalResult:
    # Field order is the evaluate report's key order.
    overall_accuracy: float
    benign_accuracy: float
    malware_recall_mean: float
    per_family_recall: dict[str, float]


def surrogate_recall(
    m: CrossErrorMatrix,
    trained: Iterable[str],
    target: str,
    agg: Aggregation = "mean",
) -> float:
    """Aggregate of M[t][target] over the trained families."""
    if agg not in _AGGREGATORS:
        raise MatrixFormatError(f"unknown aggregation {agg!r}")
    col = m.index_of(target)
    rows = [m.index_of(t) for t in trained]
    if not rows:
        raise MatrixFormatError("trained set must not be empty")
    return float(_AGGREGATORS[agg](m.values[t, col] for t in rows))


@dataclass(frozen=True)
class SplitValidation:
    """Per-test-family surrogate recall of one split, with band violations."""

    # Field order is the key order of a split in validation.json.
    split_index: int
    epsilon_final: float
    mean_recall: float
    flagged_families: tuple[str, ...]
    per_family_recall: dict[str, float]


@dataclass(frozen=True)
class BenchmarkValidation:
    # Field order is the key order of a tier in validation.json.
    difficulty_label: str
    tau: float
    agg: Aggregation
    mean_recall: float
    total_flags: int
    splits: tuple[SplitValidation, ...]


def validate_split(
    m: CrossErrorMatrix, spec: SplitSpec, split_index: int, agg: Aggregation = "mean"
) -> SplitValidation:
    per_family = {
        v: surrogate_recall(m, spec.train_families, v, agg) for v in spec.test_families
    }
    lo = spec.tau - spec.epsilon_final
    hi = spec.tau + spec.epsilon_final
    flagged = tuple(v for v, r in per_family.items() if not lo <= r <= hi)
    return SplitValidation(
        split_index=split_index,
        epsilon_final=spec.epsilon_final,
        mean_recall=statistics.fmean(per_family.values()),
        flagged_families=flagged,
        per_family_recall=per_family,
    )


def validate_benchmark(
    m: CrossErrorMatrix, bench: BenchmarkSet, agg: Aggregation = "mean"
) -> BenchmarkValidation:
    """Surrogate-recall report per split; flags recalls outside the band."""
    splits = tuple(
        validate_split(m, spec, i, agg) for i, spec in enumerate(bench.splits)
    )
    return BenchmarkValidation(
        difficulty_label=bench.difficulty_label,
        tau=bench.config.tau,
        agg=agg,
        mean_recall=statistics.fmean(s.mean_recall for s in splits),
        total_flags=sum(len(s.flagged_families) for s in splits),
        splits=splits,
    )


def evaluate_predictions(ms: MaterializedSplit, preds: PredictionSet) -> EvalResult:
    """Score a materialized split's test records against a prediction set.

    A record counts as flagged malicious when its score is >= the threshold.
    Accuracy is raw accuracy; on these splits the classes are exactly
    balanced, so it coincides with balanced accuracy.
    """
    ids, families = ms.test.ids, ms.test.families
    scores, threshold = preds.scores, preds.threshold
    missing = [sample_id for sample_id in ids if sample_id not in scores]
    if missing:
        shown = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise PredictionError(f"missing predictions for {len(missing)} ids: {shown}{more}")
    flagged = [scores[sample_id] >= threshold for sample_id in ids]
    # Counters keep first-appearance order, which per_family_recall's keys
    # (and so the evaluate report's bytes) follow. Benign samples count under None.
    family_total = Counter(families)
    family_hit = Counter(compress(families, flagged))
    benign_total = family_total.pop(None)
    benign_correct = benign_total - family_hit.pop(None, 0)
    per_family = {family: family_hit[family] / total for family, total in family_total.items()}
    return EvalResult(
        overall_accuracy=(sum(family_hit.values()) + benign_correct) / len(ids),
        benign_accuracy=benign_correct / benign_total,
        malware_recall_mean=statistics.fmean(per_family.values()),
        per_family_recall=per_family,
    )


def load_predictions(path: str | Path, threshold: float = 0.5) -> PredictionSet:
    """Read a tab-separated "sample_id<TAB>score" file."""
    scores: dict[str, float] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise PredictionError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
        if parts[0] in scores:
            first = next(n for n, seen in enumerate(lines, start=1)
                         if seen.split("\t")[0] == parts[0])
            raise PredictionError(
                f"{path}: line {lineno}: duplicate sample id {parts[0]!r} (first on line {first})"
            )
        try:
            scores[parts[0]] = float(parts[1])
        except ValueError:
            raise PredictionError(f"{path}: line {lineno}: bad score {parts[1]!r}") from None
    return PredictionSet(scores=scores, threshold=threshold)
