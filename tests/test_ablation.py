from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from famsplit.ablation import (
    _ranked_indices,
    _row_means,
    ablation_report,
    select_top_k,
    select_worst_k,
    selection_curve,
)
from famsplit.errors import MatrixFormatError

from conftest import constant_matrix, make_matrix


# Reference row mean: the per-row library function that `_row_means`
# replaced, kept so the one-expression form is held to exactly its bits.
def reference_row_mean_recall(m, family_index: int) -> float:
    """Mean recall of one training family's row, diagonal excluded."""
    row = m.values[family_index]
    mask = np.ones(m.k, dtype=bool)
    mask[family_index] = False
    return float(row[mask].mean())


def hand_matrix():
    # Off-diagonal entries constant per row, so row means are exactly
    # 0.9 / 0.7 / 0.5 / 0.3 by construction.
    grid = [
        [1.0, 0.9, 0.9, 0.9],
        [0.7, 1.0, 0.7, 0.7],
        [0.5, 0.5, 1.0, 0.5],
        [0.3, 0.3, 0.3, 1.0],
    ]
    return make_matrix(grid, families=("f0", "f1", "f2", "f3"))


def test_top_k_on_hand_matrix() -> None:
    assert select_top_k(hand_matrix(), 2) == ["f0", "f1"]


def test_worst_k_on_hand_matrix() -> None:
    assert select_worst_k(hand_matrix(), 2) == ["f3", "f2"]


def test_constant_matrix_ties_break_by_index() -> None:
    m = constant_matrix(6, 0.4)
    assert select_top_k(m, 3) == ["fam00", "fam01", "fam02"]
    assert select_worst_k(m, 3) == ["fam00", "fam01", "fam02"]


def test_k_out_of_range() -> None:
    m = constant_matrix(4, 0.4)
    for bad in (0, 5, -1):
        with pytest.raises(MatrixFormatError):
            select_top_k(m, bad)
        with pytest.raises(MatrixFormatError):
            select_worst_k(m, bad)


def test_selection_matches_brute_force_sort() -> None:
    rng = np.random.default_rng(8)
    for trial in range(5):
        grid = rng.uniform(0.0, 1.0, (12, 12))
        m = make_matrix(grid)
        # Oracle: independent sort over independently computed row means.
        means = []
        for t in range(12):
            off = [grid[t][v] for v in range(12) if v != t]
            means.append(sum(off) / len(off))
        by_desc = sorted(range(12), key=lambda t: (-means[t], t))
        by_asc = sorted(range(12), key=lambda t: (means[t], t))
        for k in (1, 4, 12):
            assert select_top_k(m, k) == [m.families[t] for t in by_desc[:k]]
            assert select_worst_k(m, k) == [m.families[t] for t in by_asc[:k]]


def test_full_rankings_are_reverse_permutations() -> None:
    rng = np.random.default_rng(21)
    grid = rng.uniform(0.0, 1.0, (9, 9))
    m = make_matrix(grid)
    top = select_top_k(m, 9)
    worst = select_worst_k(m, 9)
    assert sorted(top) == sorted(m.families)
    assert sorted(worst) == sorted(m.families)
    means = {f: reference_row_mean_recall(m, m.index_of(f)) for f in m.families}
    if len(set(means.values())) == 9:  # distinct means: exact reversal
        assert top == list(reversed(worst))


def test_report_on_constant_matrix_with_all_selected() -> None:
    m = constant_matrix(5, 0.6, diag=0.6)
    report = ablation_report(m, list(m.families), agg="mean")
    assert all(v == pytest.approx(0.6) for v in report.per_family_recall.values())
    assert report.mean_off_selected is None
    assert report.std_off_selected is None
    assert report.self_recall_min == pytest.approx(0.6)


def test_report_rejects_unknown_family() -> None:
    m = constant_matrix(4, 0.5)
    with pytest.raises(MatrixFormatError):
        ablation_report(m, ["nope"])
    with pytest.raises(MatrixFormatError):
        ablation_report(m, [])


def test_report_rejects_a_repeated_family() -> None:
    m = constant_matrix(4, 0.5)
    with pytest.raises(MatrixFormatError, match="selection repeats family 'fam00'"):
        ablation_report(m, ["fam00", "fam00", "fam01"])
    with pytest.raises(MatrixFormatError, match="selection repeats family 'fam02'"):
        ablation_report(m, ["fam01", "fam02", "fam03", "fam02"])


def test_worst_ten_on_planted_matrix_barely_generalizes(paper_matrix) -> None:
    worst = select_worst_k(paper_matrix, 10)
    report = ablation_report(paper_matrix, worst, agg="max")
    assert report.mean_off_selected <= 0.1
    assert report.self_recall_min >= 0.99


def test_top_five_on_planted_matrix_has_high_variance(paper_matrix) -> None:
    top = select_top_k(paper_matrix, 5)
    report = ablation_report(paper_matrix, top, agg="mean")
    assert report.std_off_selected >= 0.15


def test_max_aggregation_is_monotone_in_selection() -> None:
    rng = np.random.default_rng(3)
    grid = rng.uniform(0.0, 1.0, (10, 10))
    m = make_matrix(grid)
    selected = list(m.families[:3])
    base = ablation_report(m, selected, agg="max").per_family_recall
    grown = ablation_report(m, selected + [m.families[5]], agg="max").per_family_recall
    for family in m.families:
        assert grown[family] >= base[family]


def test_selection_curve_spans_requested_ks(paper_matrix) -> None:
    points = selection_curve(paper_matrix, "top", (5, 10, 15), agg="mean")
    assert [k for k, _ in points] == [5, 10, 15]
    assert all(0.0 <= y <= 1.0 for _, y in points)


def test_selection_curve_rejects_an_unknown_mode(paper_matrix) -> None:
    with pytest.raises(MatrixFormatError, match="mode must be 'top' or 'worst', got 'best'"):
        selection_curve(paper_matrix, "best", (5,), agg="mean")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    grid=st.sampled_from([2, 3, 17, 40, 184, 1000]).flatmap(
        lambda k: hnp.arrays(
            np.float64,
            (k, k),
            # Few distinct values, so rows often tie exactly.
            elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
        )
    )
)
def test_row_means_are_row_mean_recall_bit_for_bit(grid) -> None:
    m = make_matrix(grid)
    reference = [reference_row_mean_recall(m, t) for t in range(m.k)]
    assert list(map(float.hex, _row_means(m))) == list(map(float.hex, reference))
    for descending, sign in ((True, -1.0), (False, 1.0)):
        expected = sorted(range(m.k), key=lambda t: (sign * reference[t], t))
        assert _ranked_indices(m, descending) == expected


@pytest.mark.parametrize("k", [3, 17, 184, 1000])
def test_row_means_match_on_dense_random_matrices(k) -> None:
    m = make_matrix(np.random.default_rng(k).random((k, k)))
    reference = [reference_row_mean_recall(m, t) for t in range(m.k)]
    assert list(map(float.hex, _row_means(m))) == list(map(float.hex, reference))
