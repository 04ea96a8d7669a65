from __future__ import annotations

import json
from pathlib import Path

import pytest

from famsplit.ablation import ablation_report, select_worst_k
from famsplit.cli import main
from famsplit.manifest import load_pool, save_pool, SamplePool
from famsplit.matrix import load_matrix

from test_stats import brute_force_wilcoxon


def run(*argv: str) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("matrix") / "m24.csv"
    assert run("synth", "--families", "24", "--seed", "3", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def pool_file(tmp_path_factory, matrix_file) -> Path:
    families = load_matrix(matrix_file).families
    pool = SamplePool(
        by_family={name: [f"{name}-{i:04x}" for i in range(12)] for name in families},
        benign={
            "train": [f"ben-tr-{i:04x}" for i in range(64)],
            "test": [f"ben-te-{i:04x}" for i in range(16)],
        },
    )
    path = tmp_path_factory.mktemp("pool") / "pool.tsv"
    save_pool(pool, path)
    return path


@pytest.fixture(scope="module")
def benchmark_file(tmp_path_factory, matrix_file) -> Path:
    path = tmp_path_factory.mktemp("bench") / "hard.json"
    code = run(
        "search", "--matrix", matrix_file, "--tau", "0.25", "--set-size", "2",
        "--splits", "2", "--seed", "5", "--out", path,
    )
    assert code == 0
    return path


def test_synth_writes_k_plus_one_lines(tmp_path) -> None:
    out = tmp_path / "m.csv"
    assert run("synth", "--families", "184", "--seed", "7", "--out", out) == 0
    assert out.read_text().count("\n") == 185
    sidecar = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert sidecar["command"] == "synth"
    assert sidecar["flags"]["seed"] == 7


def test_synth_rejects_single_family() -> None:
    with pytest.raises(SystemExit) as exc:
        run("synth", "--families", "1", "--out", "whatever.csv")
    assert exc.value.code == 2


def test_synth_is_repeatable(tmp_path) -> None:
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("synth", "--families", "16", "--seed", "9", "--out", a) == 0
    assert run("synth", "--families", "16", "--seed", "9", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_produces_hard_splits(matrix_file, tmp_path) -> None:
    out = tmp_path / "bench.json"
    code = run(
        "search", "--matrix", matrix_file, "--tau", "0.25", "--splits", "10",
        "--set-size", "2", "--seed", "1", "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["difficulty_label"] == "Hard"
    assert len(doc["splits"]) == 10
    assert doc["tau"] == 0.25
    assert "run_manifest" in doc


def test_search_infinite_epsilon_fails_cleanly(matrix_file, tmp_path, capsys) -> None:
    out = tmp_path / "inf.json"
    code = run(
        "search", "--matrix", matrix_file, "--tau", "0.5", "--epsilon", "inf",
        "--set-size", "3", "--splits", "1", "--out", out,
    )
    assert code == 1
    assert "epsilon0 must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_search_infeasible_set_size_fails_cleanly(tmp_path, capsys) -> None:
    small = tmp_path / "m8.csv"
    assert run("synth", "--families", "8", "--seed", "1", "--out", small) == 0
    code = run(
        "search", "--matrix", small, "--tau", "0.5", "--set-size", "10",
        "--out", tmp_path / "nope.json",
    )
    assert code == 1
    assert "famsplit: error" in capsys.readouterr().err


def test_search_is_repeatable(matrix_file, tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = run(
            "search", "--matrix", matrix_file, "--tau", "0.9", "--set-size", "3",
            "--splits", "3", "--seed", "21", "--out", out,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_materialize_writes_expected_counts(benchmark_file, pool_file, tmp_path) -> None:
    out_dir = tmp_path / "splits"
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", pool_file,
        "--train-per-family", "8", "--test-per-family", "2", "--seed", "4",
        "--out-dir", out_dir,
    )
    assert code == 0
    split_dirs = sorted(p for p in out_dir.iterdir() if p.is_dir())
    assert [p.name for p in split_dirs] == ["split-00", "split-01"]
    for split_dir in split_dirs:
        assert (split_dir / "train.tsv").read_text().count("\n") == 32
        assert (split_dir / "test.tsv").read_text().count("\n") == 8
        meta = json.loads((split_dir / "meta.json").read_text())
        assert meta["counts"]["train_total"] == 32
        assert "run_manifest" in meta


def test_materialize_is_repeatable(benchmark_file, pool_file, tmp_path) -> None:
    dirs = [tmp_path / "one", tmp_path / "two"]
    for out_dir in dirs:
        code = run(
            "materialize", "--benchmark", benchmark_file, "--pool", pool_file,
            "--train-per-family", "8", "--test-per-family", "2", "--seed", "4",
            "--out-dir", out_dir,
        )
        assert code == 0
    for rel in ("split-00/train.tsv", "split-01/test.tsv", "split-00/meta.json", "run_manifest.json"):
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


def test_materialize_at_paper_defaults_hits_paper_totals(tmp_path) -> None:
    families = [f"fam{i:02d}" for i in range(20)]
    bench_doc = {
        "difficulty_label": "Medium",
        "tau": 0.5,
        "epsilon0": 0.05,
        "step": 0.05,
        "max_attempts": 1000,
        "set_size": 10,
        "seed": 0,
        "splits": [
            {
                "train_families": families[:10],
                "test_families": families[10:],
                "epsilon_final": 0.05,
                "relaxations": 0,
                "attempts_total": 10,
                "seed": 0,
            }
        ],
    }
    bench_path = tmp_path / "bench.json"
    bench_path.write_text(json.dumps(bench_doc))
    pool = SamplePool(
        by_family={name: [f"{name}-{i:05d}" for i in range(10_000)] for name in families},
        benign={
            "train": [f"ben-tr-{i:06d}" for i in range(80_000)],
            "test": [f"ben-te-{i:06d}" for i in range(20_000)],
        },
    )
    pool_path = tmp_path / "pool.tsv"
    save_pool(pool, pool_path)
    out_dir = tmp_path / "out"
    code = run(
        "materialize", "--benchmark", bench_path, "--pool", pool_path,
        "--out-dir", out_dir,
    )
    assert code == 0
    assert (out_dir / "split-00" / "train.tsv").read_text().count("\n") == 160_000
    assert (out_dir / "split-00" / "test.tsv").read_text().count("\n") == 40_000
    meta = json.loads((out_dir / "split-00" / "meta.json").read_text())
    assert meta["counts"]["train_total"] == 160_000
    assert meta["counts"]["test_total"] == 40_000


def test_materialize_shortfall_names_family(benchmark_file, pool_file, tmp_path, capsys) -> None:
    pool = load_pool(pool_file)
    needed = json.loads(benchmark_file.read_text())["splits"][0]["train_families"][0]
    thin_pool = SamplePool({**pool.by_family, needed: pool.by_family[needed][:3]}, pool.benign)
    thin = tmp_path / "thin.tsv"
    save_pool(thin_pool, thin)
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", thin,
        "--train-per-family", "8", "--test-per-family", "2",
        "--out-dir", tmp_path / "broken",
    )
    assert code == 1
    assert needed in capsys.readouterr().err


def test_ablate_report_matches_library(matrix_file, tmp_path) -> None:
    out = tmp_path / "worst10.json"
    code = run(
        "ablate", "--matrix", matrix_file, "--mode", "worst", "--k", "10",
        "--agg", "max", "--out", out, "--plot-data", tmp_path / "worst10.tsv",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    matrix = load_matrix(matrix_file)
    expected = ablation_report(matrix, select_worst_k(matrix, 10), "max")
    assert doc["selected_families"] == list(expected.selected_families)
    assert doc["mean_off_selected"] == expected.mean_off_selected
    assert doc["std_off_selected"] == expected.std_off_selected
    assert doc["self_recall_min"] == expected.self_recall_min
    plot_lines = (tmp_path / "worst10.tsv").read_text().splitlines()
    assert len(plot_lines) == matrix.k


def test_ablate_rejects_zero_k(matrix_file, tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        run("ablate", "--matrix", matrix_file, "--mode", "top", "--k", "0",
            "--out", tmp_path / "x.json")
    assert exc.value.code == 2


def test_ablate_curve_mode(matrix_file, tmp_path) -> None:
    out = tmp_path / "curve.json"
    code = run(
        "ablate", "--matrix", matrix_file, "--mode", "top", "--k", "5",
        "--curve-ks", "5,10,15", "--out", out, "--plot-data", tmp_path / "curve.tsv",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert [point[0] for point in doc["curve"]] == [5, 10, 15]
    assert len((tmp_path / "curve.tsv").read_text().splitlines()) == 3


@pytest.mark.parametrize("curve_ks", ["2,x", "5,,6", "", "1.5"])
def test_ablate_malformed_curve_ks_is_a_usage_error(matrix_file, tmp_path, capsys, curve_ks) -> None:
    with pytest.raises(SystemExit) as exc:
        run("ablate", "--matrix", matrix_file, "--mode", "top", "--k", "5",
            "--curve-ks", curve_ks, "--out", tmp_path / "x.json")
    assert exc.value.code == 2
    assert "--curve-ks: expected comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.fixture()
def split_dir(benchmark_file, pool_file, tmp_path) -> Path:
    out_dir = tmp_path / "mat"
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", pool_file,
        "--train-per-family", "8", "--test-per-family", "2", "--seed", "4",
        "--out-dir", out_dir,
    )
    assert code == 0
    return out_dir / "split-00"


def test_evaluate_perfect_predictions(split_dir, tmp_path) -> None:
    preds = tmp_path / "preds.tsv"
    lines = []
    for line in (split_dir / "test.tsv").read_text().splitlines():
        sample_id, label, _ = line.split("\t")
        lines.append(f"{sample_id}\t{1.0 if label == 'malicious' else 0.0}\n")
    preds.write_text("".join(lines))
    out = tmp_path / "eval.json"
    code = run(
        "evaluate", "--split-dir", split_dir, "--predictions", preds, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["overall_accuracy"] == 1.0
    assert doc["benign_accuracy"] == 1.0
    assert doc["malware_recall_mean"] == 1.0
    assert all(v == 1.0 for v in doc["per_family_recall"].values())
    assert "run_manifest" in doc


def test_evaluate_toy_split_hand_check(split_dir, tmp_path) -> None:
    # Miss every malicious record of one family and one benign record; the
    # expected metrics then follow directly from the 8-record test side
    # (2 families x 2 malicious + 4 benign).
    test_lines = [line.split("\t") for line in (split_dir / "test.tsv").read_text().splitlines()]
    families = sorted({family for _, label, family in test_lines if label == "malicious"})
    missed_family = families[0]
    benign_ids = [sid for sid, label, _ in test_lines if label == "benign"]
    scores = {}
    for sid, label, family in test_lines:
        if label == "malicious":
            scores[sid] = 0.0 if family == missed_family else 1.0
        else:
            scores[sid] = 0.9 if sid == benign_ids[0] else 0.0
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{sid}\t{score}\n" for sid, score in scores.items()))
    out = tmp_path / "eval.json"
    assert run("evaluate", "--split-dir", split_dir, "--predictions", preds, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["per_family_recall"][missed_family] == 0.0
    assert doc["per_family_recall"][families[1]] == 1.0
    assert doc["malware_recall_mean"] == 0.5
    assert doc["benign_accuracy"] == 0.75
    assert doc["overall_accuracy"] == (2 + 3) / 8


def test_evaluate_missing_ids_fail_with_listing(split_dir, tmp_path, capsys) -> None:
    test_lines = (split_dir / "test.tsv").read_text().splitlines()
    preds = tmp_path / "partial.tsv"
    dropped = test_lines[0].split("\t")[0]
    preds.write_text(
        "".join(f"{line.split(chr(9))[0]}\t1.0\n" for line in test_lines[1:])
    )
    code = run(
        "evaluate", "--split-dir", split_dir, "--predictions", preds,
        "--out", tmp_path / "eval.json",
    )
    assert code == 1
    assert dropped in capsys.readouterr().err


def test_compare_identical_inputs_exit_one(tmp_path, capsys) -> None:
    a = tmp_path / "a.json"
    a.write_text("[0.5, 0.6, 0.7]")
    code = run("compare", "--a", a, "--b", a, "--out", tmp_path / "cmp.json")
    assert code == 1
    assert "degenerate" in capsys.readouterr().err


def test_compare_null_metric_is_a_domain_error(tmp_path, capsys) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('[{"m": 0.5}, {"m": null}]')
    b.write_text('[{"m": 0.4}, {"m": 0.3}]')
    code = run("compare", "--a", a, "--b", b, "--metric", "m", "--out", tmp_path / "cmp.json")
    assert code == 1
    assert "entry 1 metric 'm' is not a number: None" in capsys.readouterr().err


def test_compare_ten_split_dominance(tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([0.5 + 0.01 * (i + 1) for i in range(10)]))
    b.write_text(json.dumps([0.5] * 10))
    out = tmp_path / "cmp.json"
    assert run("compare", "--a", a, "--b", b, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["p_two_sided"] == 0.001953125
    assert doc["p_one_sided"] == 0.0009765625
    assert doc["n_effective"] == 10


def test_compare_matches_oracle_on_metric_files(tmp_path) -> None:
    a_vals = [0.61, 0.72, 0.27, 0.84, 0.95]
    b_vals = [0.60, 0.70, 0.30, 0.80, 0.90]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([{"malware_recall_mean": v} for v in a_vals]))
    b.write_text(json.dumps([{"malware_recall_mean": v} for v in b_vals]))
    out = tmp_path / "cmp.json"
    assert run("compare", "--a", a, "--b", b, "--out", out) == 0
    doc = json.loads(out.read_text())
    w, n, p_two, p_one = brute_force_wilcoxon(a_vals, b_vals)
    assert doc["w_statistic"] == w
    assert doc["p_two_sided"] == p_two
    assert doc["p_one_sided"] == p_one
    assert doc["metric"] == "malware_recall_mean"


def test_pipeline_outputs_are_location_independent(pool_file, tmp_path) -> None:
    dirs = [tmp_path / "runA", tmp_path / "runB"]
    for out_dir in dirs:
        code = run(
            "pipeline", "--out-dir", out_dir, "--families", "24", "--seed", "11",
            "--splits", "2", "--set-size", "2", "--pool", pool_file,
            "--train-per-family", "8", "--test-per-family", "2",
        )
        assert code == 0
    files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
    names = {p.name for p in dirs[0].iterdir()}
    assert {
        "matrix.csv", "benchmark_easy.json", "benchmark_medium.json",
        "benchmark_hard.json", "validation.json", "splits",
    } <= names


def test_pipeline_validation_reports_zero_flags(pool_file, tmp_path) -> None:
    out_dir = tmp_path / "run"
    code = run(
        "pipeline", "--out-dir", out_dir, "--families", "24", "--seed", "2",
        "--splits", "2", "--set-size", "2",
    )
    assert code == 0
    doc = json.loads((out_dir / "validation.json").read_text())
    labels = [tier["difficulty_label"] for tier in doc["tiers"]]
    assert labels == ["Easy", "Medium", "Hard"]
    assert all(tier["total_flags"] == 0 for tier in doc["tiers"])
    curve = (out_dir / "recall_curve_easy.tsv").read_text().splitlines()
    assert len(curve) == 2
