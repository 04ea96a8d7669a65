"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from famsplit.ablation import ablation_report, select_top_k, select_worst_k
from famsplit.cli import main
from famsplit.evaluate import validate_benchmark
from famsplit.manifest import SamplePool, materialize_split, save_pool
from famsplit.matrix import SynthParams, synth_matrix
from famsplit.search import SearchConfig, SplitSpec, generate_benchmark, search_split
from famsplit.stats import wilcoxon_exact

from test_stats import brute_force_wilcoxon

TAUS = (0.9, 0.5, 0.25)


@pytest.fixture(scope="module")
def paper_benchmarks():
    """Matrix and 3x10 splits at paper scale, with the build time recorded."""
    start = time.monotonic()
    matrix = synth_matrix(SynthParams(k=184, seed=7))
    benchmarks = {
        tau: generate_benchmark(matrix, SearchConfig(tau=tau, seed=7), n_splits=10)
        for tau in TAUS
    }
    elapsed = time.monotonic() - start
    return matrix, benchmarks, elapsed


def test_criterion_1_constraint_satisfaction_at_paper_scale(paper_benchmarks) -> None:
    matrix, benchmarks, elapsed = paper_benchmarks
    total = 0
    for tau, bench in benchmarks.items():
        for spec in bench.splits:
            assert len(spec.train_families) == 10
            assert len(spec.test_families) == 10
            assert not set(spec.train_families) & set(spec.test_families)
            for t in spec.train_families:
                for v in spec.test_families:
                    entry = matrix.values[matrix.index_of(t), matrix.index_of(v)]
                    assert abs(entry - tau) <= spec.epsilon_final
            total += 1
    assert total == 30
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 30 splits satisfy the band exhaustively ({elapsed:.2f}s)")


def test_criterion_2_grouped_difficulty_band(paper_benchmarks) -> None:
    matrix, benchmarks, _ = paper_benchmarks
    for tau, bench in benchmarks.items():
        for agg in ("mean", "max", "min"):
            validation = validate_benchmark(matrix, bench, agg)
            assert validation.total_flags == 0
            for split, spec in zip(validation.splits, bench.splits):
                lo = tau - spec.epsilon_final
                hi = tau + spec.epsilon_final
                for recall in split.per_family_recall.values():
                    assert lo <= recall <= hi
    print("ACCEPTANCE 2 PASS: zero band flags under mean/max/min aggregation")


def test_criterion_3_difficulty_ordering(paper_benchmarks) -> None:
    matrix, benchmarks, _ = paper_benchmarks
    means = {}
    eps = {}
    for tau, bench in benchmarks.items():
        means[tau] = validate_benchmark(matrix, bench, "mean").mean_recall
        eps[tau] = max(s.epsilon_final for s in bench.splits)
    assert means[0.9] > means[0.5] > means[0.25]
    gap_em = means[0.9] - means[0.5]
    gap_mh = means[0.5] - means[0.25]
    assert gap_em >= 0.4 - eps[0.9] - eps[0.5]
    assert gap_mh >= 0.25 - eps[0.5] - eps[0.25]
    print(
        f"ACCEPTANCE 3 PASS: Easy {means[0.9]:.4f} > Medium {means[0.5]:.4f} > "
        f"Hard {means[0.25]:.4f} with required gaps"
    )


def min_feasible_grid_eps(values, tau, set_size, eps0=0.05, step=0.05):
    k = len(values)
    level = 0
    while True:
        eps = eps0 + step * level
        for train in itertools.combinations(range(k), set_size):
            rest = [v for v in range(k) if v not in train]
            for test in itertools.combinations(rest, set_size):
                if all(abs(values[t][v] - tau) <= eps for t in train for v in test):
                    return eps
        level += 1


def test_criterion_4_small_instance_oracle() -> None:
    start = time.monotonic()
    for seed in range(100):
        matrix = synth_matrix(SynthParams(k=8, seed=seed))
        tau = TAUS[seed % 3]
        spec = search_split(matrix, SearchConfig(tau=tau, set_size=2, seed=seed))
        oracle = min_feasible_grid_eps(matrix.values.tolist(), tau, set_size=2)
        assert oracle <= spec.epsilon_final <= oracle + 0.05 + 1e-12, (
            f"seed {seed}: search {spec.epsilon_final} vs oracle {oracle}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 PASS: 100 matrices within one step of the oracle ({elapsed:.2f}s)")


def test_criterion_5_ablation_reproduction(paper_benchmarks) -> None:
    matrix, _, _ = paper_benchmarks
    worst = ablation_report(matrix, select_worst_k(matrix, 10), agg="max")
    assert worst.mean_off_selected <= 0.1
    assert worst.self_recall_min >= 0.99
    top = ablation_report(matrix, select_top_k(matrix, 5), agg="mean")
    assert top.std_off_selected >= 0.15
    print(
        f"ACCEPTANCE 5 PASS: worst-10 off-recall {worst.mean_off_selected:.4f} <= 0.1, "
        f"self >= {worst.self_recall_min:.2f}; top-5 std {top.std_off_selected:.4f} >= 0.15"
    )


def test_criterion_6_materialization_counts() -> None:
    families = [f"fam{i:02d}" for i in range(20)]
    pool = SamplePool(
        by_family={name: [f"{name}-{i:05d}" for i in range(10_000)] for name in families},
        benign={
            "train": [f"ben-tr-{i:06d}" for i in range(80_000)],
            "test": [f"ben-te-{i:06d}" for i in range(20_000)],
        },
    )
    spec = SplitSpec(
        train_families=tuple(families[:10]),
        test_families=tuple(families[10:]),
        tau=0.5,
        epsilon_final=0.05,
        seed=7,
        relaxations=0,
        attempts_total=10,
    )
    ms = materialize_split(pool, spec, seed=7)
    assert ms.counts["train_total"] == 160_000
    assert ms.counts["test_total"] == 40_000
    assert len(ms.train) == 160_000
    assert len(ms.test) == 40_000
    assert ms.train.families.count(None) == 80_000
    assert ms.test.families.count(None) == 20_000
    train_ids = set(ms.train.ids)
    test_ids = set(ms.test.ids)
    assert len(train_ids) == 160_000
    assert len(test_ids) == 40_000
    assert not train_ids & test_ids
    print("ACCEPTANCE 6 PASS: 160,000/40,000 records, balanced, zero overlap")


def test_criterion_7_wilcoxon_exactness() -> None:
    b = [0.5] * 10
    a = [0.5 + 0.01 * (i + 1) for i in range(10)]
    result = wilcoxon_exact(a, b)
    assert result.p_two_sided == 0.001953125
    assert result.p_one_sided == 0.0009765625
    rng = random.Random(20230719)
    checked = 0
    while checked < 50:
        n = rng.randint(5, 10)
        x = [rng.randint(0, 8) / 8 for _ in range(n)]
        y = [rng.randint(0, 8) / 8 for _ in range(n)]
        if all(p == q for p, q in zip(x, y)):
            continue
        ours = wilcoxon_exact(x, y)
        w, n_eff, p_two, p_one = brute_force_wilcoxon(x, y)
        assert ours.w_statistic == w
        assert ours.n_effective == n_eff
        assert ours.p_two_sided == p_two
        assert ours.p_one_sided == p_one
        checked += 1
    print("ACCEPTANCE 7 PASS: extreme case exact; 50 random cases match the sign-flip oracle")


def test_criterion_8_pipeline_determinism(tmp_path) -> None:
    matrix = synth_matrix(SynthParams(k=24, seed=11))
    pool = SamplePool(
        by_family={name: [f"{name}-{i:04x}" for i in range(12)] for name in matrix.families},
        benign={
            "train": [f"ben-tr-{i:04x}" for i in range(64)],
            "test": [f"ben-te-{i:04x}" for i in range(16)],
        },
    )
    pool_path = tmp_path / "pool.tsv"
    save_pool(pool, pool_path)
    dirs = [tmp_path / "runA", tmp_path / "runB"]
    for out_dir in dirs:
        code = main(
            [
                "pipeline", "--out-dir", str(out_dir), "--families", "24",
                "--seed", "11", "--splits", "2", "--set-size", "2",
                "--pool", str(pool_path),
                "--train-per-family", "8", "--test-per-family", "2",
            ]
        )
        assert code == 0
    files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    assert len(files_a) >= 10
    for rel in files_a:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
    validation = json.loads((dirs[0] / "validation.json").read_text())
    assert [t["difficulty_label"] for t in validation["tiers"]] == ["Easy", "Medium", "Hard"]
    print(f"ACCEPTANCE 8 PASS: {len(files_a)} pipeline files byte-identical across reruns")
