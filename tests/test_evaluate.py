from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsplit import evaluate
from famsplit.errors import MatrixFormatError, PredictionError
from famsplit.evaluate import (
    EvalResult,
    PredictionSet,
    evaluate_predictions,
    load_predictions,
    surrogate_recalls,
    validate_benchmark,
    validate_split,
)
from famsplit.lines import RECORD_READ_BYTES
from famsplit.manifest import MaterializedSplit, SplitSide
from famsplit.search import SearchConfig, SplitSpec, generate_benchmark, search_split

from conftest import constant_matrix, make_matrix, traced, traced_peak
from test_surrogate import exact, reference_surrogate_recall


def test_surrogate_singleton_is_the_matrix_entry() -> None:
    m = make_matrix([[1.0, 0.3], [0.8, 1.0]])
    for agg in ("mean", "max", "min"):
        assert surrogate_recalls(m, ["fam00"], ["fam01"], agg) == {"fam01": pytest.approx(0.3)}


def test_surrogate_constant_matrix() -> None:
    m = constant_matrix(5, 0.45, diag=0.45)
    recalls = surrogate_recalls(m, list(m.families[:3]), m.families[3:])
    assert recalls == {"fam03": pytest.approx(0.45), "fam04": pytest.approx(0.45)}


def test_surrogate_two_element_aggregations() -> None:
    grid = [
        [1.0, 0.0, 0.2],
        [0.0, 1.0, 0.8],
        [0.0, 0.0, 1.0],
    ]
    m = make_matrix(grid, families=("a", "b", "c"))
    assert surrogate_recalls(m, ["a", "b"], ["c"], "mean") == {"c": pytest.approx(0.5)}
    assert surrogate_recalls(m, ["a", "b"], ["c"], "max") == {"c": pytest.approx(0.8)}
    assert surrogate_recalls(m, ["a", "b"], ["c"], "min") == {"c": pytest.approx(0.2)}


def test_surrogate_mean_is_exactly_rounded_and_a_negative_zero_is_held_as_zero() -> None:
    # Column 3 holds 0.7, 0.1, 0.1, 0.1: a left-to-right or pairwise sum
    # gives 0.24999999999999997, fsum / n gives 0.25. Column 4 is built with
    # -0.0 cells, which the matrix holds as +0.0, so no aggregate meets -0.0.
    grid = np.eye(5)
    grid[:3, 3] = [0.7, 0.1, 0.1]
    grid[3, 3] = 0.1
    grid[:4, 4] = [-0.0, 0.0, -0.0, -0.0]
    m = make_matrix(grid)
    assert not np.signbit(m.values).any()
    trained = m.families[:4]
    assert surrogate_recalls(m, trained, ["fam03"], "mean") == {"fam03": 0.25}
    extremes = {agg: surrogate_recalls(m, trained, ["fam04"], agg) for agg in ("max", "mean", "min")}
    assert {agg: [v.hex() for v in r.values()] for agg, r in extremes.items()} == {
        "max": ["0x0.0p+0"],
        "mean": ["0x0.0p+0"],
        "min": ["0x0.0p+0"],
    }


def test_surrogate_rejects_bad_inputs() -> None:
    m = constant_matrix(3, 0.5)
    with pytest.raises(MatrixFormatError, match="trained set must not be empty"):
        surrogate_recalls(m, [], ["fam00"])
    with pytest.raises(MatrixFormatError, match="unknown family 'ghost'"):
        surrogate_recalls(m, ["fam00"], ["fam01", "ghost"])
    with pytest.raises(MatrixFormatError, match="unknown family 'ghost'"):
        surrogate_recalls(m, ["fam00", "ghost"], ["fam01"])
    with pytest.raises(MatrixFormatError, match="unknown aggregation 'median'"):
        surrogate_recalls(m, ["fam00"], ["fam01"], "median")


def test_aggregation_ordering_property() -> None:
    rng = np.random.default_rng(17)
    grid = rng.uniform(0.0, 1.0, (8, 8))
    m = make_matrix(grid)
    trained = list(m.families[:4])
    targets = m.families[4:]
    lo, mid, hi = (surrogate_recalls(m, trained, targets, agg) for agg in ("min", "mean", "max"))
    for target in targets:
        assert lo[target] <= mid[target] <= hi[target]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_surrogate_recalls_match_the_reference_with_repeats(data, k, seed, ties) -> None:
    rng = np.random.default_rng(seed)
    grid = rng.choice(np.array([0.0, -0.0, 0.5, 1.0]), (k, k)) if ties else rng.random((k, k))
    m = make_matrix(grid)
    names = st.sampled_from(m.families)
    trained = data.draw(st.lists(names, min_size=1, max_size=2 * k))
    targets = data.draw(st.lists(names, max_size=2 * k))
    for agg in ("mean", "max", "min"):
        expected = {v: reference_surrogate_recall(m, trained, v, agg) for v in targets}
        got = surrogate_recalls(m, trained, targets, agg)
        assert exact(got) == exact(expected)


def test_validate_constant_matrix_benchmark_is_flag_free() -> None:
    m = constant_matrix(20, 0.5)
    bench = generate_benchmark(m, SearchConfig(tau=0.5, seed=1), n_splits=5)
    for agg in ("mean", "max", "min"):
        validation = validate_benchmark(m, bench, agg)
        assert validation.total_flags == 0
        for split in validation.splits:
            assert all(v == pytest.approx(0.5) for v in split.per_family_recall.values())


def test_validation_flags_a_recall_the_search_leaves_out() -> None:
    # |0.85 - 0.9| is 0.05000000000000004, so the search never offers 0.85 at
    # tau 0.9 and epsilon 0.05, and validation flags it by the same test;
    # the interval form 0.9 - 0.05 <= 0.85 would let it through.
    m = make_matrix([[1.0, 0.85], [0.85, 1.0]])
    assert search_split(m, SearchConfig(tau=0.9, set_size=1)).relaxations == 1
    spec = SplitSpec(("fam00",), ("fam01",), epsilon_final=0.05, relaxations=0,
                     attempts_total=1, seed=0, tau=0.9)
    split = validate_split(m, spec, 0)
    assert split.per_family_recall == {"fam01": 0.85}
    assert 0.9 - 0.05 <= 0.85 <= 0.9 + 0.05
    assert split.flagged_families == ("fam01",)


def test_validate_any_valid_benchmark_is_flag_free(paper_matrix) -> None:
    # Band closure: each cross entry sits in the band, and mean/max/min of
    # in-band values stay in band.
    for tau in (0.9, 0.25):
        bench = generate_benchmark(paper_matrix, SearchConfig(tau=tau, seed=13), n_splits=5)
        for agg in ("mean", "max", "min"):
            validation = validate_benchmark(paper_matrix, bench, agg)
            assert validation.total_flags == 0
            lo = tau - max(s.epsilon_final for s in bench.splits)
            hi = tau + max(s.epsilon_final for s in bench.splits)
            for split in validation.splits:
                assert lo <= split.mean_recall <= hi


def test_difficulty_tiers_are_strictly_ordered(paper_matrix) -> None:
    means = {}
    eps = {}
    for tau in (0.9, 0.5, 0.25):
        bench = generate_benchmark(paper_matrix, SearchConfig(tau=tau, seed=7), n_splits=10)
        validation = validate_benchmark(paper_matrix, bench, "mean")
        means[tau] = validation.mean_recall
        eps[tau] = max(s.epsilon_final for s in bench.splits)
    assert means[0.9] > means[0.5] > means[0.25]
    assert means[0.9] - means[0.5] >= 0.4 - eps[0.9] - eps[0.5]
    assert means[0.5] - means[0.25] >= 0.25 - eps[0.5] - eps[0.25]


def toy_split():
    train = SplitSide([("alpha", ["m1", "m2"]), (None, ["b1", "b2"])])
    test = SplitSide(
        [("beta", ["t1", "t2"]), ("gamma", ["t3", "t4"]), (None, ["u1", "u2", "u3", "u4"])]
    )
    return MaterializedSplit("toy", train, test)


def side_records(side):
    """(sample id, family) per record, in record order."""
    return [(sample_id, family) for family, ids in side.runs for sample_id in ids]


def test_perfect_predictor_scores_one_everywhere() -> None:
    ms = toy_split()
    scores = {i: (0.0 if f is None else 1.0) for i, f in side_records(ms.test)}
    result = evaluate_predictions(ms, PredictionSet(scores))
    assert result.overall_accuracy == 1.0
    assert result.benign_accuracy == 1.0
    assert result.malware_recall_mean == 1.0
    assert result.per_family_recall == {"beta": 1.0, "gamma": 1.0}


def test_constant_alarm_predictor_hits_the_failure_mode() -> None:
    ms = toy_split()
    result = evaluate_predictions(ms, PredictionSet(dict.fromkeys(ms.test.ids, 1.0)))
    assert result.malware_recall_mean == 1.0
    assert result.benign_accuracy == 0.0
    assert result.overall_accuracy == 0.5


def test_toy_split_with_two_errors_matches_hand_confusion() -> None:
    ms = toy_split()
    # Hand confusion over the 8 test records: t2 and u3 are wrong, so
    # 6 correct / 8 = 0.75; beta recall 1/2, gamma 2/2; benign 3/4.
    scores = {
        "t1": 1.0,
        "t2": 0.2,
        "t3": 0.9,
        "t4": 0.6,
        "u1": 0.1,
        "u2": 0.4,
        "u3": 0.7,
        "u4": 0.0,
    }
    result = evaluate_predictions(ms, PredictionSet(scores))
    assert result.overall_accuracy == pytest.approx(0.75)
    assert result.per_family_recall == {"beta": 0.5, "gamma": 1.0}
    assert result.benign_accuracy == pytest.approx(0.75)
    assert result.malware_recall_mean == pytest.approx(0.75)


def test_overall_accuracy_matches_independent_recount() -> None:
    import random

    ms = toy_split()
    rng = random.Random(13)
    scores = {sample_id: rng.random() for sample_id in ms.test.ids}
    preds = PredictionSet(scores, threshold=0.5)
    result = evaluate_predictions(ms, preds)
    correct = 0
    for sample_id, family in side_records(ms.test):
        predicted_malicious = scores[sample_id] >= 0.5
        actually_malicious = family is not None
        if predicted_malicious == actually_malicious:
            correct += 1
    assert result.overall_accuracy == correct / len(ms.test)


def test_a_family_split_over_two_runs_is_scored_as_one() -> None:
    # Hits are counted per run and summed per family, keyed in first-appearance order.
    train = SplitSide([("alpha", ["m1", "m2"]), (None, ["b1", "b2"])])
    test = SplitSide([("gamma", ["t3"]), ("beta", ["t1"]), (None, ["u1", "u2"]),
                      ("beta", ["t2"]), ("gamma", ["t4"]), (None, ["u3", "u4"])])
    scores = {"t1": 1.0, "t2": 0.2, "t3": 0.9, "t4": 0.6, "u1": 0.1, "u2": 0.4, "u3": 0.7, "u4": 0.0}
    result = evaluate_predictions(MaterializedSplit("split runs", train, test), PredictionSet(scores))
    assert list(result.per_family_recall.items()) == [("gamma", 1.0), ("beta", 0.5)]
    assert result == EvalResult(
        overall_accuracy=0.75, benign_accuracy=0.75, malware_recall_mean=0.75,
        per_family_recall={"gamma": 1.0, "beta": 0.5},
    )


def test_missing_predictions_are_reported_by_id() -> None:
    ms = toy_split()
    scores = {sample_id: 1.0 for sample_id in ms.test.ids if sample_id != "t3"}
    with pytest.raises(PredictionError) as err:
        evaluate_predictions(ms, PredictionSet(scores))
    assert str(err.value) == "missing predictions for 1 ids: t3"
    # The first ten in record order are listed, and the rest counted.
    test = SplitSide([("beta", [f"t{i:02d}" for i in range(12)]),
                      (None, [f"u{i:02d}" for i in range(12)])])
    with pytest.raises(PredictionError) as err:
        evaluate_predictions(MaterializedSplit("many", ms.train, test), PredictionSet({"u05": 0.0}))
    listed = ", ".join(f"t{i:02d}" for i in range(10))
    assert str(err.value) == f"missing predictions for 23 ids: {listed} (+13 more)"


def test_scores_outside_unit_interval_are_rejected() -> None:
    # The first score out of range in dict order is named; NaN is out of range.
    for scores, message in [
        ({"x": 1.5}, "score 1.5 for 'x' outside [0, 1]"),
        ({"x": -0.1}, "score -0.1 for 'x' outside [0, 1]"),
        ({"a": 0.0, "b": 1.0, "c": float("nan"), "d": 2.0}, "score nan for 'c' outside [0, 1]"),
        ({"a": 0.5, "z": 1.0000001, "b": -0.0, "y": -1}, "score 1.0000001 for 'z' outside [0, 1]"),
        ({"a": 1, "b": -float("inf")}, "score -inf for 'b' outside [0, 1]"),
    ]:
        with pytest.raises(PredictionError) as err:
            PredictionSet(scores)
        assert str(err.value) == message


def test_prediction_file_round_trip(tmp_path) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("a\t0.25\nb\t1.0\n")
    preds = load_predictions(path, threshold=0.4)
    assert preds.scores == {"a": 0.25, "b": 1.0}
    assert preds.threshold == 0.4
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tnot-a-number\n")
    with pytest.raises(PredictionError):
        load_predictions(bad)


def test_duplicate_prediction_ids_are_rejected(tmp_path) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("s1\t0.9\ns2\t0.5\ns1\t0.1\n")
    with pytest.raises(PredictionError) as err:
        load_predictions(path)
    assert "line 3: duplicate sample id 's1' (first on line 1)" in str(err.value)


@pytest.mark.parametrize(
    ("text", "line"), [("a\t0.5\n\n\t0.1\nb\t0.2\n\t0.3\n", 3), ("\t0.5\n", 1)]
)
def test_empty_prediction_id_is_rejected(tmp_path, text, line) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text(text)
    with pytest.raises(PredictionError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}: line {line}: empty sample id"


def reference_load_predictions(path, threshold: float = 0.5) -> PredictionSet:
    """The line-at-a-time prediction reader that load_predictions must match on every input."""
    scores: dict[str, float] = {}
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if lineno == 1 and line.startswith("\ufeff"):
            raise PredictionError(f"{path}: line 1: starts with a UTF-8 byte order mark")
        parts = line.split("\t")
        if len(parts) != 2:
            raise PredictionError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
        if not parts[0]:
            raise PredictionError(f"{path}: line {lineno}: empty sample id")
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


def predictions_outcome(load, path):
    """The scores as an item list, so order counts, with their float types; or the error."""
    try:
        preds = load(path)
    except PredictionError as err:
        return PredictionError, str(err)
    return [(i, type(v), v.hex()) for i, v in preds.scores.items()]


PREDICTION_EDITS = [
    None, "1 field", "3 fields", "two lines in one", "tab as newline", "empty id", "repeated id", "bad score", "empty line",
    "no final newline", "crlf", "line break in id", "control byte", "empty file",
]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    scores=st.lists(st.floats(0, 1).map(repr) | st.sampled_from(["0", "1", "1.", " 0.5", "1e-3"]),
                    min_size=1, max_size=30),
    edit=st.sampled_from(PREDICTION_EDITS),
    data=st.data(),
)
def test_load_predictions_matches_reference_on_edited_files(
    tmp_path_factory, scores, edit, data
) -> None:
    lines = [f"s{i:0{i % 4}d}\t{score}" for i, score in enumerate(scores)]
    row = data.draw(st.integers(0, len(lines) - 1), label="edited line")
    sample_id, score = lines[row].split("\t")
    if edit == "1 field":
        lines[row] = sample_id
    elif edit == "3 fields":
        lines[row] += "\t" + data.draw(st.sampled_from(["", "x", score]), label="third field")
    elif edit == "two lines in one" and len(lines) > 1:  # 4 fields, still a tab per "\n"
        at = min(row, len(lines) - 2)
        lines[at : at + 2] = ["\t".join(lines[at : at + 2])]
    elif edit == "tab as newline":  # two lines of 1 field, still a "\n" per tab
        lines[row] = f"{sample_id}\n{score}"
    elif edit == "empty id":  # as the first line or any other
        lines[row] = "\t" + score
    elif edit == "repeated id":
        lines.insert(row, lines[data.draw(st.integers(0, len(lines) - 1), label="repeated")])
    elif edit == "bad score":
        bad = st.sampled_from(["", "x", "nan", "-nan", "inf", "1.5", "0,5", "0.5\x85", "--1"])
        lines[row] = f"{sample_id}\t{data.draw(bad, label='score')}"
    elif edit == "empty line":
        lines.insert(row, "")
    elif edit in ("line break in id", "control byte"):
        chars = ["\u2028", "\x85", "\x0b", "\x0c"] if edit == "line break in id" else ["\x00", "\x08"]
        at = data.draw(st.integers(0, len(sample_id)), label="position in id")
        lines[row] = sample_id[:at] + data.draw(st.sampled_from(chars)) + sample_id[at:] + "\t" + score
    newline = "\r\n" if edit == "crlf" else "\n"
    text = newline.join(lines) + ("" if edit == "no final newline" else newline)
    path = tmp_path_factory.mktemp("preds") / "preds.tsv"
    path.write_text("" if edit == "empty file" else text, encoding="utf-8", newline="")
    outcome = predictions_outcome(load_predictions, path)
    assert outcome == predictions_outcome(reference_load_predictions, path)
    if edit in (None, "empty line", "no final newline", "crlf"):
        assert outcome == [(f"s{i:0{i % 4}d}", float, float(score).hex())
                           for i, score in enumerate(scores)]


def spy_score_lines(monkeypatch) -> list:
    """Record each path that the line-at-a-time reader is handed."""
    calls = []
    read = evaluate._read_score_lines

    def spy(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(evaluate, "_read_score_lines", spy)
    return calls


def test_load_predictions_reads_a_canonical_file_without_the_line_loop(
    tmp_path, monkeypatch
) -> None:
    path = tmp_path / "preds.tsv"
    path.write_text("".join(f"id-{i:06d}\t{(i % 997) / 996!r}\n" for i in range(150_000)))
    calls = spy_score_lines(monkeypatch)
    outcome = predictions_outcome(load_predictions, path)
    assert calls == []
    assert len(outcome) == 150_000
    assert outcome == predictions_outcome(reference_load_predictions, path)
    # One empty line is not canonical: that file goes to the line loop.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:7] + ["\n"] + lines[7:]))
    assert predictions_outcome(load_predictions, path) == outcome
    assert calls == [path]


def test_load_predictions_peaks_at_its_result_and_a_few_read_buffers(tmp_path) -> None:
    # The file is read a chunk of lines at a time, so its text and its field
    # list are never held whole. The result's dict grows past 87,381 entries
    # while it is read, and its last resize holds the old table beside the
    # new one: about 8 bytes per line over the result at this size, more than
    # PredictionSet's range check, which holds a float64 copy of the scores.
    lines = 100_000
    path = tmp_path / "preds.tsv"
    path.write_text("".join(f"id-{i:06d}\t{(i % 997) / 996!r}\n" for i in range(lines)))
    preds, held, peak = traced(lambda: load_predictions(path))
    assert len(preds.scores) == lines
    assert peak <= held + 10 * lines + 8 * RECORD_READ_BYTES


def test_prediction_set_clears_its_range_with_one_float_copy() -> None:
    # min and max clear every score at once; the masks that name the first
    # bad score, 3 bytes per score, are built only when there is one.
    scores = {f"id-{i:06d}": (i % 997) / 996 for i in range(100_000)}
    _, peak = traced_peak(lambda: PredictionSet(scores))
    assert peak <= 8 * len(scores) + 4096


def mask_line_shape(text: str) -> bool:
    """The one-pass reader's line-shape check as numpy masks, the form it replaced."""
    breaks = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    breaks = breaks[breaks <= ord("\n")]
    return not (np.any(breaks[0::2] != ord("\t")) or np.any(breaks[1::2] != ord("\n")))


@pytest.mark.parametrize("char", [chr(c) for c in range(0x80)] + ["\x85", "\u2028", "\U0001f600"])
def test_one_pass_line_check_matches_the_mask_check_on_every_control_byte(tmp_path, char) -> None:
    # Every id is distinct and every score parses, so the line shape alone
    # decides whether the one-pass reader takes the file.
    for sample_id in (f"{char}b1", f"b{char}1", f"b1{char}"):
        path = tmp_path / "preds.tsv"
        path.write_text(f"a0\t0.5\n{sample_id}\t0.25\nc2\t1\n", encoding="utf-8", newline="")
        text = path.read_text(encoding="utf-8")
        taken = evaluate._scores_in_one_pass(path) is not None
        assert taken == (mask_line_shape(text) and not text.startswith("\t") and "\n\t" not in text)
        outcome = predictions_outcome(load_predictions, path)
        assert outcome == predictions_outcome(reference_load_predictions, path)


def reference_evaluate(ms: MaterializedSplit, preds: PredictionSet) -> EvalResult:
    """The per-id scoring that evaluate_predictions must match on every split."""
    scores, threshold = preds.scores, preds.threshold
    missing = [sample_id for sample_id in ms.test.ids if sample_id not in scores]
    if missing:
        shown = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise PredictionError(f"missing predictions for {len(missing)} ids: {shown}{more}")
    family_total: Counter = Counter()
    family_hit: Counter = Counter()
    for family, ids in ms.test.runs:
        family_total[family] += len(ids)
        family_hit[family] += sum(scores[sample_id] >= threshold for sample_id in ids)
    benign_total = family_total.pop(None)
    benign_correct = benign_total - family_hit.pop(None)
    per_family = {family: family_hit[family] / total for family, total in family_total.items()}
    return EvalResult(
        overall_accuracy=(sum(family_hit.values()) + benign_correct) / len(ms.test),
        benign_accuracy=benign_correct / benign_total,
        malware_recall_mean=statistics.fmean(per_family.values()),
        per_family_recall=per_family,
    )


def evaluation_outcome(score, ms, preds):
    """The result's fields as reprs, so a numpy scalar or a float's last bit shows; or the error."""
    try:
        result = score(ms, preds)
    except PredictionError as err:
        return PredictionError, str(err)
    return repr(asdict(result))


# Scores sit on the threshold, one step either side of it, or anywhere; up
# to 40 test ids lack a score, so the "(+N more)" listing shows.
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from(["beta", "gamma", "delta", None]), st.integers(1, 6)),
                  min_size=1, max_size=12),
    threshold=st.sampled_from([0.0, 0.5, 0.7, 1.0]) | st.floats(0, 1),
    data=st.data(),
)
def test_evaluate_predictions_matches_reference(runs, threshold, data) -> None:
    malicious = sum(size for family, size in runs if family is not None)
    benign = sum(size for family, size in runs if family is None)
    runs.append((None, malicious - benign) if malicious > benign else ("beta", benign - malicious))
    ends = np.cumsum([size for _, size in runs]).tolist()
    test = SplitSide((family, [f"t{i}" for i in range(end - size, end)])
                     for (family, size), end in zip(runs, ends))
    ms = MaterializedSplit("drawn", SplitSide([("alpha", ["m1"]), (None, ["b1"])]), test)
    near = [threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)]
    score = st.sampled_from([float(v) for v in near]) | st.floats(0, 1)
    scores = {sample_id: data.draw(score) for sample_id in ms.test.ids}
    for sample_id in data.draw(st.lists(st.sampled_from(ms.test.ids), max_size=40), label="missing"):
        scores.pop(sample_id, None)
    preds = PredictionSet(scores, threshold)
    outcome = evaluation_outcome(evaluate_predictions, ms, preds)
    assert outcome == evaluation_outcome(reference_evaluate, ms, preds)

