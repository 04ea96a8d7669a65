"""Scoring: surrogate recall from the matrix, and real prediction evaluation.

The surrogate treats a model trained on a set of families as an aggregate
(mean, max, or min) of the single-family matrix rows; it is what lets a
benchmark's difficulty be validated without training anything.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence, get_args

import numpy as np

from famsplit.errors import MatrixFormatError, PredictionError
from famsplit.lines import text_runs
from famsplit.manifest import MaterializedSplit
from famsplit.matrix import CrossErrorMatrix
from famsplit.search import BenchmarkSet, SplitSpec

Aggregation = Literal["mean", "max", "min"]


@dataclass(frozen=True)
class PredictionSet:
    """Maliciousness scores per sample id; hard labels are 0/1 scores."""

    scores: dict[str, float]
    threshold: float = 0.5

    def __post_init__(self) -> None:
        scores = np.fromiter(self.scores.values(), dtype=float, count=len(self.scores))
        # min and max are NaN if any score is, so one comparison clears every
        # score; the masks are built only to name the first bad one.
        if scores.size and not 0.0 <= scores.min() <= scores.max() <= 1.0:
            # A NaN fails both comparisons, so it is out of range too.
            outside = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
            sample_id = next(islice(self.scores, int(outside[0]), None))
            score = self.scores[sample_id]
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


def surrogate_recalls(
    m: CrossErrorMatrix, trained: Iterable[str], targets: Sequence[str], agg: Aggregation = "mean"
) -> dict[str, float]:
    """Aggregate of M[t][v] over the trained families t, per target v, from one block.

    The mean is fsum / n, `statistics.fmean` bit for bit.
    """
    if agg not in get_args(Aggregation):
        raise MatrixFormatError(f"unknown aggregation {agg!r}")
    cols = [m.index_of(v) for v in targets]
    rows = [m.index_of(t) for t in trained]
    if not rows:
        raise MatrixFormatError("trained set must not be empty")
    block = m.values[np.ix_(rows, cols)]
    if agg == "mean":
        return dict(zip(targets, (math.fsum(col) / len(rows) for col in block.T.tolist())))
    return dict(zip(targets, (block.max(axis=0) if agg == "max" else block.min(axis=0)).tolist()))


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
    per_family = surrogate_recalls(m, spec.train_families, spec.test_families, agg)
    # The search's band test, |r - tau| <= epsilon, so no recall the search
    # would leave out passes.
    flagged = tuple(
        v for v, r in per_family.items() if not abs(r - spec.tau) <= spec.epsilon_final
    )
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


def validation_to_dict(report: BenchmarkValidation) -> dict:
    """JSON-ready form of a tier's validation report, a validation.json tier."""
    # Each field read as it is, not with asdict, which deep-copies every split's
    # recalls; json writes the tuples as lists.
    doc = {f.name: getattr(report, f.name) for f in fields(BenchmarkValidation)}
    doc["splits"] = [{f.name: getattr(s, f.name) for f in fields(SplitValidation)}
                     for s in report.splits]
    return doc


def evaluate_predictions(ms: MaterializedSplit, preds: PredictionSet) -> EvalResult:
    """Score a materialized split's test records against a prediction set.

    A record counts as flagged malicious when its score is >= the threshold.
    Accuracy is raw accuracy; on these splits the classes are exactly
    balanced, so it coincides with balanced accuracy.
    """
    scores, threshold = preds.scores, preds.threshold
    # counts() keeps first-appearance order, which per_family_recall's keys
    # (and so the evaluate report's bytes) follow. Benign records count under None.
    family_total = ms.test.counts()
    family_hit = dict.fromkeys(family_total, 0)
    try:
        for family, ids in ms.test.runs:
            values = np.fromiter(map(scores.__getitem__, ids), dtype=float, count=len(ids))
            family_hit[family] += int(np.count_nonzero(values >= threshold))
    except KeyError:
        missing = [sample_id for sample_id in ms.test.ids if sample_id not in scores]
        shown = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise PredictionError(
            f"missing predictions for {len(missing)} ids: {shown}{more}"
        ) from None
    benign_total = family_total.pop(None)
    benign_correct = benign_total - family_hit.pop(None)
    per_family = {family: family_hit[family] / total for family, total in family_total.items()}
    return EvalResult(
        overall_accuracy=(sum(family_hit.values()) + benign_correct) / len(ms.test),
        benign_accuracy=benign_correct / benign_total,
        malware_recall_mean=statistics.fmean(per_family.values()),
        per_family_recall=per_family,
    )


def _lines_of(windows: Iterable[str]) -> Iterator[str]:
    """The lines of text_runs' windows, without their "\n"."""
    return chain.from_iterable(text[:-1].split("\n") for text in windows)


def _read_score_lines(path: str | Path) -> dict[str, float]:
    """The scores of prediction file `path`, read one line at a time.

    The one reader that reports faults: each names its line number.
    """
    scores: dict[str, float] = {}
    with text_runs(Path(path), PredictionError) as windows:
        for lineno, line in enumerate(_lines_of(windows), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise PredictionError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
            if not parts[0]:
                raise PredictionError(f"{path}: line {lineno}: empty sample id")
            if parts[0] in scores:
                with text_runs(Path(path), PredictionError) as again:
                    first = next(n for n, seen in enumerate(_lines_of(again), start=1)
                                 if seen.split("\t")[0] == parts[0])
                raise PredictionError(
                    f"{path}: line {lineno}: duplicate sample id {parts[0]!r} (first on line {first})"
                )
            try:
                scores[parts[0]] = float(parts[1])
            except ValueError:
                raise PredictionError(f"{path}: line {lineno}: bad score {parts[1]!r}") from None
    return scores


# The bytes above "\n", which bytes.translate deletes to leave a chunk's control bytes.
_ABOVE_NEWLINE = bytes(range(ord("\n") + 1, 256))


def _scores_in_one_pass(path: str | Path) -> dict[str, float] | None:
    """The scores of a prediction file whose every line is a non-empty id, one
    tab and a score, each id once, read in one pass; None for any other file
    but one that `lines.text_runs` refuses.

    The text is taken a window of whole lines at a time (`lines.text_runs`),
    so neither the file's text nor its list of fields is ever held whole.
    """
    scores: dict[str, float] = {}
    lines = 0
    with text_runs(Path(path), PredictionError) as windows:
        for chunk in windows:
            # UTF-8 puts no byte below 0x80 inside another character, so the
            # bytes up to "\n" alternate tab, "\n" (ending on the chunk's last
            # "\n") exactly when each line holds one tab and no other control
            # byte up to "\n".
            breaks = chunk.encode("utf-8").translate(None, _ABOVE_NEWLINE)
            if (
                breaks != b"\t\n" * (len(breaks) // 2)
                or chunk.startswith("\t")
                or "\n\t" in chunk
            ):
                return None
            lines += len(breaks) // 2
            fields = chunk.replace("\t", "\n").split("\n")
            fields.pop()  # the empty text after the last "\n"
            pairs = iter(fields)  # id, score, id, score, ...
            try:
                scores.update(zip(pairs, map(float, pairs)))
            except ValueError:
                return None
            if len(scores) != lines:
                return None  # an id is repeated
    return scores


def load_predictions(path: str | Path, threshold: float = PredictionSet.threshold) -> PredictionSet:
    """Read a tab-separated "sample_id<TAB>score" file, whose lines end at "\n" only.

    A well-formed file is read in one pass; any other is read line by line,
    which names the first faulty line.
    """
    scores = _scores_in_one_pass(path)
    if scores is None:
        scores = _read_score_lines(path)
    return PredictionSet(scores=scores, threshold=threshold)
