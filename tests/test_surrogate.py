"""Surrogate recall against a per-family reference, bit for bit.

`reference_surrogate_recall` scores one target family at a time with
`statistics.fmean`, `max` and `min`. The validation and ablation reports
built from it must match the library's in key order and in the exact bits
of every float.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from famsplit.ablation import ablation_report, select_top_k, select_worst_k, selection_curve
from famsplit.errors import MatrixFormatError
from famsplit.evaluate import Aggregation, validate_benchmark
from famsplit.matrix import CrossErrorMatrix
from famsplit.search import BenchmarkSet, SearchConfig, SplitSpec, generate_benchmark

from conftest import constant_matrix, make_matrix

AGGS = ("mean", "max", "min")

_AGGREGATORS = {"mean": statistics.fmean, "max": max, "min": min}


def reference_surrogate_recall(
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


def reference_validation(m: CrossErrorMatrix, bench: BenchmarkSet, agg: Aggregation) -> dict:
    splits = []
    for i, spec in enumerate(bench.splits):
        per_family = {
            v: reference_surrogate_recall(m, spec.train_families, v, agg)
            for v in spec.test_families
        }
        lo = spec.tau - spec.epsilon_final
        hi = spec.tau + spec.epsilon_final
        splits.append({
            "split_index": i,
            "epsilon_final": spec.epsilon_final,
            "mean_recall": statistics.fmean(per_family.values()),
            "flagged_families": tuple(v for v, r in per_family.items() if not lo <= r <= hi),
            "per_family_recall": per_family,
        })
    return {
        "difficulty_label": bench.difficulty_label,
        "tau": bench.config.tau,
        "agg": agg,
        "mean_recall": statistics.fmean(s["mean_recall"] for s in splits),
        "total_flags": sum(len(s["flagged_families"]) for s in splits),
        "splits": tuple(splits),
    }


def reference_ablation(m: CrossErrorMatrix, selected: list[str], agg: Aggregation) -> dict:
    per_family = {f: reference_surrogate_recall(m, selected, f, agg) for f in m.families}
    off = [r for f, r in per_family.items() if f not in selected]
    own = [r for f, r in per_family.items() if f in selected]
    return {
        "selected_families": tuple(selected),
        "mean_off_selected": statistics.fmean(off) if off else None,
        "std_off_selected": statistics.pstdev(off) if off else None,
        "self_recall_min": min(own),
        "per_family_recall": per_family,
    }


def reference_curve(m: CrossErrorMatrix, mode: str, ks: list[int], agg: Aggregation) -> list:
    select = select_top_k if mode == "top" else select_worst_k
    points = []
    for k in ks:
        selected = select(m, k)
        recalls = [reference_surrogate_recall(m, selected, f, agg) for f in m.families]
        points.append((k, statistics.fmean(recalls)))
    return points


def exact(value):
    """Floats as float.hex and dicts as ordered pairs, so == compares bits and key order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def assert_matches_reference(m, bench, selected, mode, ks, agg) -> None:
    assert exact(asdict(validate_benchmark(m, bench, agg))) == exact(
        reference_validation(m, bench, agg)
    )
    assert exact(asdict(ablation_report(m, selected, agg))) == exact(
        reference_ablation(m, selected, agg)
    )
    assert exact(selection_curve(m, mode, ks, agg)) == exact(reference_curve(m, mode, ks, agg))


# Few distinct values, signed zeros among them, so columns often tie exactly.
_TIE_VALUES = (0.0, -0.0, 0.1, 0.3, 0.5, 0.9, 1.0)
# Mostly zeros of both signs, so a column's extreme is often a tie of 0.0 and -0.0.
_ZERO_VALUES = (0.0, -0.0, 0.0, -0.0, 1.0)


@st.composite
def grids(draw) -> np.ndarray:
    k = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(("sparse", "dense", "ties", "zeros")))
    if kind == "sparse":
        elements = st.floats(0.0, 1.0) | st.sampled_from(_TIE_VALUES)
        return draw(hnp.arrays(np.float64, (k, k), elements=elements))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        return rng.random((k, k))
    return rng.choice(np.array(_TIE_VALUES if kind == "ties" else _ZERO_VALUES), (k, k))


@st.composite
def benchmarks(draw, m: CrossErrorMatrix) -> BenchmarkSet:
    tau = draw(st.sampled_from((0.25, 0.5, 0.9)))
    set_size = draw(st.integers(1, m.k // 2))
    splits = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(m.families))
        splits.append(SplitSpec(
            train_families=order[:set_size],
            test_families=order[set_size:2 * set_size],
            tau=tau,
            epsilon_final=draw(st.sampled_from((0.05, 0.1, 0.3))),
            seed=0,
            relaxations=0,
            attempts_total=set_size,
        ))
    return BenchmarkSet("drawn", SearchConfig(tau=tau), splits)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), grid=grids(), agg=st.sampled_from(AGGS))
def test_reports_match_the_per_family_reference(data, grid, agg) -> None:
    m = make_matrix(grid)
    bench = data.draw(benchmarks(m))
    selected = list(data.draw(st.permutations(m.families)))[: data.draw(st.integers(1, m.k))]
    mode = data.draw(st.sampled_from(("top", "worst")))
    ks = data.draw(st.lists(st.integers(1, m.k), max_size=4))
    assert_matches_reference(m, bench, selected, mode, ks, agg)


def random_benchmark(m: CrossErrorMatrix, rng: np.random.Generator) -> BenchmarkSet:
    """Three random 10/10 splits at tau 0.5, outside any band search."""
    splits = []
    for _ in range(3):
        order = [m.families[i] for i in rng.permutation(m.k)[:20]]
        splits.append(SplitSpec(train_families=tuple(order[:10]), test_families=tuple(order[10:]),
                                tau=0.5, epsilon_final=0.1, seed=0, relaxations=0,
                                attempts_total=10))
    return BenchmarkSet("random", SearchConfig(tau=0.5), splits)


@pytest.mark.parametrize("agg", AGGS)
def test_reports_match_the_reference_at_k_1000(agg) -> None:
    m = make_matrix(np.random.default_rng(1000).random((1000, 1000)))
    bench = random_benchmark(m, np.random.default_rng(7))
    selected = select_worst_k(m, 10)
    assert_matches_reference(m, bench, selected, "top", [1, 10, 60], agg)


@pytest.mark.parametrize("agg", AGGS)
def test_paper_benchmark_validation_matches_the_reference(paper_matrix, agg) -> None:
    bench = generate_benchmark(paper_matrix, SearchConfig(tau=0.5, seed=3), n_splits=3)
    selected = select_top_k(paper_matrix, 10)
    assert_matches_reference(paper_matrix, bench, selected, "worst", [5, 10], agg)


def test_invalid_inputs_raise_the_reference_errors() -> None:
    m = constant_matrix(4, 0.5)

    def bench(train: str, test: str) -> BenchmarkSet:
        spec = SplitSpec(train_families=(train,), test_families=(test,), tau=0.5,
                         epsilon_final=0.05, seed=0, relaxations=0, attempts_total=1)
        return BenchmarkSet("x", SearchConfig(tau=0.5), [spec])

    def message(call) -> str:
        with pytest.raises(MatrixFormatError) as err:
            call()
        return str(err.value)

    unknown = message(lambda: reference_surrogate_recall(m, ["ghost"], "fam00"))
    bad_agg = message(lambda: reference_surrogate_recall(m, ["fam00"], "fam01", "median"))
    assert unknown == "unknown family 'ghost'"
    assert bad_agg == "unknown aggregation 'median'"
    assert message(lambda: validate_benchmark(m, bench("ghost", "fam01"))) == unknown
    assert message(lambda: validate_benchmark(m, bench("fam01", "ghost"))) == unknown
    assert message(lambda: validate_benchmark(m, bench("fam00", "fam01"), "median")) == bad_agg
    assert message(lambda: ablation_report(m, ["fam00", "ghost"])) == unknown
    assert message(lambda: ablation_report(m, ["fam00"], "median")) == bad_agg
    assert message(lambda: ablation_report(m, [])) == "selection must not be empty"
    assert message(lambda: selection_curve(m, "top", [2], "median")) == bad_agg
    assert message(lambda: selection_curve(m, "worst", [5])) == "k must be in [1, 4], got 5"
