from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsplit.errors import MatrixFormatError, PredictionError
from famsplit.evaluate import (
    EvalResult,
    PredictionSet,
    evaluate_predictions,
    load_predictions,
    surrogate_recalls,
    validate_benchmark,
)
from famsplit.manifest import MaterializedSplit, SplitSide
from famsplit.search import SearchConfig, generate_benchmark

from conftest import constant_matrix, make_matrix
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


def test_surrogate_mean_is_exactly_rounded_and_extremes_keep_the_first_zero() -> None:
    # Column 3 holds 0.7, 0.1, 0.1, 0.1: a left-to-right or pairwise sum
    # gives 0.24999999999999997, fsum / n gives 0.25. Columns 4 and 5 tie
    # -0.0 with 0.0; max and min keep whichever comes first, as built-ins do.
    grid = np.eye(6)
    grid[:3, 3] = [0.7, 0.1, 0.1]
    grid[3, 3] = 0.1
    grid[:4, 4] = [-0.0, 0.0, 0.0, 0.0]
    grid[:4, 5] = [0.0, -0.0, -0.0, -0.0]
    m = make_matrix(grid)
    trained = m.families[:4]
    assert surrogate_recalls(m, trained, ["fam03"], "mean") == {"fam03": 0.25}
    extremes = {agg: surrogate_recalls(m, trained, m.families[4:], agg) for agg in ("max", "min")}
    assert {agg: [v.hex() for v in r.values()] for agg, r in extremes.items()} == {
        "max": ["-0x0.0p+0", "0x0.0p+0"],
        "min": ["-0x0.0p+0", "0x0.0p+0"],
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
    assert "t3" in str(err.value)


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
