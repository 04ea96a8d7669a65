from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsplit.errors import ComparisonError
from famsplit.stats import (
    _midranks,
    _sum_distribution,
    load_metric_vector,
    summarize,
    wilcoxon_exact,
)


def brute_force_wilcoxon(a, b):
    """Independent oracle: direct enumeration over all sign assignments.

    Midranks come from the counting formula rather than a sort, and the
    enumeration walks itertools.product instead of a sum-distribution table.
    """
    diffs = [x - y for x, y in zip(a, b) if x != y]
    mags = [abs(d) for d in diffs]
    n = len(diffs)
    ranks = [
        sum(1 for other in mags if other < m) + (1 + sum(1 for other in mags if other == m)) / 2
        for m in mags
    ]
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    w = min(w_plus, w_minus)
    total = sum(ranks)
    hits_one = 0
    hits_two = 0
    for signs in itertools.product((1, -1), repeat=n):
        s_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
        if s_plus >= w_plus:
            hits_one += 1
        if min(s_plus, total - s_plus) <= w:
            hits_two += 1
    return w, n, hits_two / 2**n, hits_one / 2**n


def reference_sum_distribution(scaled_ranks: list[int]) -> list[int]:
    """The counting program with every rank walking all sums from the total
    down, kept unchanged so the prefix-bounded one must give its counts."""
    total = sum(scaled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in scaled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    return counts


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(magnitudes=st.lists(st.integers(1, 12), min_size=1, max_size=60))
def test_sum_distribution_matches_reference_on_midranks(magnitudes) -> None:
    # Few distinct magnitudes, so most inputs carry midrank ties (odd half-ranks).
    scaled = [round(2 * r) for r in _midranks(magnitudes)]
    assert _sum_distribution(scaled) == reference_sum_distribution(scaled)


def test_identical_vectors_are_degenerate() -> None:
    with pytest.raises(ComparisonError, match="degenerate"):
        wilcoxon_exact([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])


def test_length_mismatch_is_rejected() -> None:
    with pytest.raises(ComparisonError, match="length mismatch"):
        wilcoxon_exact([1.0], [1.0, 2.0])


@pytest.mark.parametrize("n", [30, 60])
def test_large_n_matches_scipy_exact(n) -> None:
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(n)
    # Distinct magnitudes with random signs: no zeros and no ties, so scipy's
    # exact null distribution is the one the counting DP builds.
    diffs = [m * rng.choice((1, -1)) / 1000 for m in rng.sample(range(1, 10 * n), n)]
    zeros = [0.0] * n
    result = wilcoxon_exact(diffs, zeros)
    two_sided = scipy_stats.wilcoxon(diffs, zeros, method="exact")
    greater = scipy_stats.wilcoxon(diffs, zeros, method="exact", alternative="greater")
    assert result.n_effective == n
    assert result.w_statistic == two_sided.statistic
    assert result.p_two_sided == pytest.approx(two_sided.pvalue, rel=1e-12)
    assert result.p_one_sided == pytest.approx(greater.pvalue, rel=1e-12)


def test_ten_all_positive_distinct_differences_hit_the_extreme() -> None:
    b = [0.5] * 10
    a = [0.5 + 0.01 * (i + 1) for i in range(10)]
    result = wilcoxon_exact(a, b)
    assert result.n_effective == 10
    assert result.w_statistic == 0.0
    assert result.p_one_sided == 0.0009765625  # 1 / 1024
    assert result.p_two_sided == 0.001953125  # 2 / 1024


def test_five_pair_example_matches_brute_force() -> None:
    b = [0.0] * 5
    a = [1.0, 2.0, -3.0, 4.0, 5.0]
    result = wilcoxon_exact(a, b)
    w, n, p_two, p_one = brute_force_wilcoxon(a, b)
    assert result.n_effective == n == 5
    assert result.w_statistic == w == 3.0  # the single negative difference ranks 3rd
    assert result.p_two_sided == p_two
    assert result.p_one_sided == p_one


def test_random_cases_match_brute_force_exactly() -> None:
    rng = random.Random(1234)
    for trial in range(30):
        n = rng.randint(5, 10)
        # Coarse grid values force ties and zero differences now and then.
        a = [rng.randint(0, 6) / 4 for _ in range(n)]
        b = [rng.randint(0, 6) / 4 for _ in range(n)]
        if all(x == y for x, y in zip(a, b)):
            continue
        result = wilcoxon_exact(a, b)
        w, n_eff, p_two, p_one = brute_force_wilcoxon(a, b)
        assert result.w_statistic == w
        assert result.n_effective == n_eff
        assert result.p_two_sided == p_two
        assert result.p_one_sided == p_one
        assert result.w_statistic <= n_eff * (n_eff + 1) / 2
        assert 0.0 < result.p_two_sided <= 1.0
        assert 0.0 < result.p_one_sided <= 1.0


def test_p_values_invariant_under_positive_affine_maps() -> None:
    rng = random.Random(7)
    a = [rng.uniform(0, 1) for _ in range(8)]
    b = [rng.uniform(0, 1) for _ in range(8)]
    base = wilcoxon_exact(a, b)
    scaled = wilcoxon_exact([3.0 * x for x in a], [3.0 * x for x in b])
    shifted = wilcoxon_exact([x + 10.0 for x in a], [y + 10.0 for y in b])
    for other in (scaled, shifted):
        assert other.p_two_sided == base.p_two_sided
        assert other.p_one_sided == base.p_one_sided
        assert other.n_effective == base.n_effective


def test_swapping_sides_keeps_two_sided_and_flips_direction() -> None:
    rng = random.Random(99)
    for _ in range(10):
        a = [rng.uniform(0, 1) for _ in range(7)]
        b = [rng.uniform(0, 1) for _ in range(7)]
        ab = wilcoxon_exact(a, b)
        ba = wilcoxon_exact(b, a)
        assert ab.p_two_sided == ba.p_two_sided
        assert ab.w_statistic == ba.w_statistic
        # The one-sided tails overlap only at the observed statistic.
        assert ab.p_one_sided + ba.p_one_sided >= 1.0


def test_summarize_constant_vector() -> None:
    assert summarize([0.3, 0.3, 0.3]) == {"mean": 0.3, "std": 0.0, "min": 0.3, "max": 0.3}


def test_summarize_two_point_vector() -> None:
    result = summarize([0.0, 1.0])
    assert result["mean"] == 0.5
    assert result["std"] == 0.5
    assert result["min"] == 0.0
    assert result["max"] == 1.0


def test_summarize_matches_two_pass_recomputation() -> None:
    rng = random.Random(55)
    values = [rng.uniform(0, 1) for _ in range(10)]
    result = summarize(values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert result["mean"] == pytest.approx(mean, abs=1e-12)
    assert result["std"] == pytest.approx(var**0.5, abs=1e-12)
    assert result["min"] == min(values)
    assert result["max"] == max(values)


def test_summarize_rejects_empty() -> None:
    with pytest.raises(ComparisonError):
        summarize([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_exact_test_rejects_a_non_finite_value(side, bad) -> None:
    vectors = {"a": [0.1, 0.3, 0.2], "b": [0.0, 0.1, 0.4]}
    vectors[side][1] = bad
    with pytest.raises(ComparisonError, match=rf"^{side}\[1\] is not finite: {bad!r}$"):
        wilcoxon_exact(vectors["a"], vectors["b"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_summarize_rejects_a_non_finite_value(bad) -> None:
    with pytest.raises(ComparisonError, match=rf"^values\[2\] is not finite: {bad!r}$"):
        summarize([0.5, 0.25, bad])


def test_metric_vector_accepts_three_layouts(tmp_path) -> None:
    plain = tmp_path / "plain.json"
    plain.write_text("[0.1, 0.2, 0.3]")
    assert load_metric_vector(plain, "anything") == [0.1, 0.2, 0.3]

    objects = tmp_path / "objects.json"
    objects.write_text('[{"overall_accuracy": 0.9}, {"overall_accuracy": 0.8}]')
    assert load_metric_vector(objects, "overall_accuracy") == [0.9, 0.8]

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text('{"splits": [{"m": 1.0}, {"m": 0.5}]}')
    assert load_metric_vector(wrapped, "m") == [1.0, 0.5]

    missing = tmp_path / "missing.json"
    missing.write_text('[{"other": 1.0}]')
    with pytest.raises(ComparisonError, match="no metric"):
        load_metric_vector(missing, "m")


@pytest.mark.parametrize(
    "text, fault",
    [
        ('[{"m": 0.5}, {"m": null}]', "entry 1 metric 'm' is not a number: None"),
        ('[{"m": "x"}]', "entry 0 metric 'm' is not a number: 'x'"),
        ('[{"m": "0.3"}]', "entry 0 metric 'm' is not a number: '0.3'"),
        ('[{"m": true}]', "entry 0 metric 'm' is not a number: True"),
        ('[{"m": [0.5]}]', "entry 0 metric 'm' is not a number: [0.5]"),
        ('{"splits": [{"m": 0.5}, {"m": NaN}]}', "entry 1 metric 'm' is not finite: nan"),
        ('[{"m": -Infinity}]', "entry 0 metric 'm' is not finite: -inf"),
        ('[0.5, NaN]', "entry 1 value is not finite: nan"),
        ('[0.5, Infinity]', "entry 1 value is not finite: inf"),
        ("[0.5, 1" + "0" * 400 + "]", "entry 1 value is not finite: inf"),
        ('[{"m": 1' + "0" * 400 + "}]", "entry 0 metric 'm' is not finite: inf"),
        ('[0.5, false]', "entry 1 value is not a number: False"),
        ('[0.5, "0.5"]', "entry 1 value is not a number: '0.5'"),
        ('{"per_split": [{"m": 0.5}]}', "no 'splits' array"),
    ],
)
def test_metric_vector_rejects_non_finite_or_non_numeric_values(tmp_path, text, fault) -> None:
    path = tmp_path / "metrics.json"
    path.write_text(text)
    with pytest.raises(ComparisonError) as err:
        load_metric_vector(path, "m")
    assert str(err.value) == f"{path}: {fault}"
