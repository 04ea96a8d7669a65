from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from famsplit.ablation import ablation_report, select_worst_k
from famsplit.cli import main
from famsplit import manifest
from famsplit.manifest import SPLIT_FILES, load_pool, read_split, save_pool, SamplePool, write_split
from famsplit.matrix import load_matrix, save_matrix, synth_family_names
from famsplit.search import SearchConfig, benchmark_to_dict, derive_seed, generate_benchmark

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


def test_synth_and_pipeline_write_the_same_matrix(tmp_path) -> None:
    synth = tmp_path / "m.csv"
    assert run("synth", "--families", "30", "--seed", "4", "--out", synth) == 0
    code = run(
        "pipeline", "--families", "30", "--seed", "4", "--splits", "1", "--set-size", "2",
        "--out-dir", tmp_path / "p",
    )
    assert code == 0
    assert synth.read_bytes() == (tmp_path / "p" / "matrix.csv").read_bytes()


def test_k1000_matrix_saves_again_byte_exact_and_searches(tmp_path) -> None:
    path = tmp_path / "k1000.csv"
    assert run("synth", "--families", "1000", "--seed", "3", "--out", path) == 0
    save_matrix(load_matrix(path), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    out = tmp_path / "s1000.json"
    assert run("search", "--matrix", path, "--tau", "0.5", "--seed", "3", "--out", out) == 0
    assert len(json.loads(out.read_text())["splits"]) == 10


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


def test_search_step_that_cannot_widen_the_band_fails_cleanly(tmp_path, capsys) -> None:
    # 0.001 + 1e-300 == 0.001, so every level would be the first one.
    matrix = tmp_path / "m40.csv"
    assert run("synth", "--families", "40", "--seed", "1", "--out", matrix) == 0
    out = tmp_path / "stuck.json"
    code = run("search", "--matrix", matrix, "--tau", "0.9", "--epsilon", "0.001",
               "--step", "1e-300", "--out", out)
    assert code == 1
    assert "step 1e-300 does not widen epsilon0 0.001" in capsys.readouterr().err
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


def test_default_search_document_is_the_library_benchmark(tmp_path) -> None:
    matrix = tmp_path / "m60.csv"
    out = tmp_path / "bench.json"
    assert run("synth", "--families", "60", "--seed", "2", "--out", matrix) == 0
    assert run("search", "--matrix", matrix, "--tau", "0.5", "--seed", "9", "--out", out) == 0
    doc = json.loads(out.read_text())
    manifest = doc.pop("run_manifest")
    bench = generate_benchmark(load_matrix(matrix), SearchConfig(0.5, seed=9))
    assert doc == json.loads(json.dumps(benchmark_to_dict(bench)))
    assert manifest["flags"] == {
        "tau": 0.5, "epsilon": 0.05, "step": 0.05, "max_attempts": 1000,
        "set_size": 10, "splits": 10, "seed": 9, "label": None,
    }


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
    for i, split_dir in enumerate(split_dirs):
        assert (split_dir / "train.tsv").read_text().count("\n") == 32
        assert (split_dir / "test.tsv").read_text().count("\n") == 8
        meta = json.loads((split_dir / "meta.json").read_text())
        assert meta["counts"]["train_total"] == 32
        assert meta["materialize_seed"] == derive_seed(4, f"materialize:{i}")
        assert meta["sampler"] == 2
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


def test_console_materialize_writes_the_same_bytes_under_any_hash_seed(tmp_path) -> None:
    # A 40-family pipeline's Hard tier over a pool of 4 ids per family, taken
    # through `python -m famsplit.cli` in two processes whose string hashes differ.
    assert run("pipeline", "--families", "40", "--seed", "7", "--out-dir", tmp_path / "p") == 0
    pool = SamplePool(
        by_family={name: [f"{name}-{i}" for i in range(4)] for name in synth_family_names(40)},
        benign={origin: [f"ben-{origin}-{i}" for i in range(40)] for origin in ("train", "test")},
    )
    save_pool(pool, tmp_path / "pool.tsv")
    src = str(Path(manifest.__file__).resolve().parents[1])
    dirs = [tmp_path / "m", tmp_path / "m2"]
    for hash_seed, out_dir in zip(("1", "2"), dirs):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run(
            [sys.executable, "-m", "famsplit.cli", "materialize",
             "--benchmark", str(tmp_path / "p" / "benchmark_hard.json"),
             "--pool", str(tmp_path / "pool.tsv"), "--train-per-family", "2",
             "--test-per-family", "2", "--out-dir", str(out_dir)],
            env=env, check=True, timeout=120,
        )
    files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in dirs]
    assert files[0] == files[1]
    assert len(files[0]) == 1 + 3 * 10  # the run manifest, and three files per split
    for rel in files[0]:
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


def thin_pool(pool_file: Path, family: str, path: Path) -> Path:
    """Save `pool_file`'s pool to `path` with only 3 ids left for `family`."""
    pool = load_pool(pool_file)
    save_pool(SamplePool({**pool.by_family, family: pool.by_family[family][:3]}, pool.benign), path)
    return path


def test_materialize_rejects_a_benchmark_that_repeats_a_family(
    benchmark_file, pool_file, tmp_path, capsys
) -> None:
    doc = json.loads(benchmark_file.read_text())
    split = doc["splits"][0]
    split["train_families"] = [split["train_families"][0]] * len(split["train_families"])
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(doc))
    code = run("materialize", "--benchmark", repeated, "--pool", pool_file,
               "--train-per-family", "8", "--test-per-family", "2", "--out-dir", tmp_path / "out")
    assert code == 1
    assert "split sides must not repeat families" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_materialize_shortfall_names_family(benchmark_file, pool_file, tmp_path, capsys) -> None:
    needed = json.loads(benchmark_file.read_text())["splits"][0]["train_families"][0]
    thin = thin_pool(pool_file, needed, tmp_path / "thin.tsv")
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", thin,
        "--train-per-family", "8", "--test-per-family", "2",
        "--out-dir", tmp_path / "broken",
    )
    assert code == 1
    assert needed in capsys.readouterr().err


def test_materialize_shortfall_in_a_later_split_writes_nothing(
    benchmark_file, pool_file, tmp_path, capsys
) -> None:
    # Every split's pool needs are checked before split-00 is written.
    first, later = json.loads(benchmark_file.read_text())["splits"]
    short = next(f for f in later["train_families"]
                 if f not in first["train_families"] + first["test_families"])
    thin = thin_pool(pool_file, short, tmp_path / "thin.tsv")
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", thin,
        "--train-per-family", "8", "--test-per-family", "2", "--out-dir", tmp_path / "out",
    )
    assert code == 1
    assert f"family {short!r} has 3 samples, needs 8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("curve_ks", ["2,x", "5,,6", "", "1.5", "0,3"])
def test_ablate_malformed_curve_ks_is_a_usage_error(matrix_file, tmp_path, capsys, curve_ks) -> None:
    with pytest.raises(SystemExit) as exc:
        run("ablate", "--matrix", matrix_file, "--mode", "top", "--k", "5",
            "--curve-ks", curve_ks, "--out", tmp_path / "x.json")
    assert exc.value.code == 2
    assert "--curve-ks: expected comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_ablate_curve_k_above_the_family_count_is_a_domain_error(matrix_file, tmp_path, capsys) -> None:
    code = run("ablate", "--matrix", matrix_file, "--mode", "top", "--k", "5",
               "--curve-ks", "3,25", "--out", tmp_path / "x.json")
    assert code == 1
    assert "k must be in [1, 24], got 25" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--families", "1", "--out", "{out}"],
    ["pipeline", "--families", "1", "--out-dir", "{out}"],
    ["ablate", "--matrix", "{matrix}", "--mode", "top", "--k", "0", "--out", "{out}"],
    ["ablate", "--matrix", "{matrix}", "--mode", "top", "--k", "x", "--out", "{out}"],
    ["search", "--matrix", "{matrix}", "--tau", "0.5", "--splits", "0", "--out", "{out}"],
    ["search", "--matrix", "{matrix}", "--tau", "0.5", "--set-size", "-1", "--out", "{out}"],
    ["pipeline", "--splits", "0", "--out-dir", "{out}"],
    ["pipeline", "--set-size", "2.5", "--out-dir", "{out}"],
    ["search", "--matrix", "{matrix}", "--tau", "0.5", "--max-attempts", "0", "--out", "{out}"],
    ["pipeline", "--max-attempts", "-3", "--out-dir", "{out}"],
    ["materialize", "--benchmark", "{matrix}", "--pool", "{matrix}", "--train-per-family", "0",
     "--out-dir", "{out}"],
    ["materialize", "--benchmark", "{matrix}", "--pool", "{matrix}", "--test-per-family", "x",
     "--out-dir", "{out}"],
    ["pipeline", "--train-per-family", "-1", "--out-dir", "{out}"],
    ["pipeline", "--test-per-family", "0", "--out-dir", "{out}"],
    ["synth", "--families", "4", "--seed", "18446744073709551616", "--out", "{out}"],
    ["search", "--matrix", "{matrix}", "--tau", "0.5", "--seed", "-1", "--out", "{out}"],
    ["materialize", "--benchmark", "{matrix}", "--pool", "{matrix}", "--seed", "-5",
     "--out-dir", "{out}"],
    # Caught before any input is read: neither the benchmark nor the pool exists.
    ["materialize", "--benchmark", "{out}", "--pool", "{out}", "--seed", "-1",
     "--out-dir", "{out}"],
    ["pipeline", "--seed", "1.5", "--out-dir", "{out}"],
], ids=lambda argv: " ".join(argv[:1] + argv[-4:-2]))
def test_flag_bounds_are_usage_errors(matrix_file, tmp_path, capsys, argv) -> None:
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(matrix=matrix_file, out=out) for a in argv))
    assert exc.value.code == 2
    flag, value = argv[-4:-2]
    if flag == "--seed":
        expected = "an integer in [0, 18446744073709551616)"
    else:
        expected = f"an integer >= {2 if flag == '--families' else 1}"
    assert f"argument {flag}: expected {expected}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_accepted(tmp_path) -> None:
    out = tmp_path / "m.csv"
    assert run("synth", "--families", "4", "--seed", str(2**64 - 1), "--out", out) == 0
    assert out.exists()


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


@pytest.fixture(scope="module")
def big_pool_file(tmp_path_factory) -> Path:
    """A pool read in many chunks: 40 families of 2000 ids, 2000 benign ids per origin."""
    pool = SamplePool(
        by_family={name: [f"{name}-{i}" for i in range(2000)] for name in synth_family_names(40)},
        benign={origin: [f"ben-{origin}-{i}" for i in range(2000)] for origin in ("train", "test")},
    )
    path = tmp_path_factory.mktemp("big-pool") / "big-pool.tsv"
    save_pool(pool, path)
    assert path.stat().st_size > 100 * manifest._POOL_CHUNK
    return path


def with_extra_field(path: Path, line: int, out: Path) -> None:
    """Write `path` to `out` with a stray field after the label on benign line `line`."""
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace("\tbenign\t", "\tbenign\tx\t", 1)
    out.write_text("".join(lines))


def test_many_chunk_pool_round_trips_and_names_a_bad_line(
    big_pool_file, benchmark_file, tmp_path, capsys
) -> None:
    again = tmp_path / "big-pool-again.tsv"
    save_pool(load_pool(big_pool_file), again)
    assert again.read_bytes() == big_pool_file.read_bytes()
    # One malformed line near the end is a domain error that names the line.
    line = big_pool_file.read_text().count("\n") - 5
    bad = tmp_path / "bad-pool.tsv"
    with_extra_field(big_pool_file, line, bad)
    out_dir = tmp_path / "bad-pool"
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", bad,
        "--train-per-family", "2", "--test-per-family", "2", "--out-dir", out_dir,
    )
    assert code == 1
    assert capsys.readouterr().err == f"famsplit: error: {bad}: line {line}: expected 4 fields, got 5\n"
    assert not out_dir.exists()


def test_many_chunk_split_round_trips_and_names_a_bad_line(
    big_pool_file, benchmark_file, tmp_path, capsys
) -> None:
    code = run(
        "materialize", "--benchmark", benchmark_file, "--pool", big_pool_file,
        "--train-per-family", "1000", "--test-per-family", "500", "--out-dir", tmp_path / "mat",
    )
    assert code == 0
    split = tmp_path / "mat" / "split-00"
    train = split / SPLIT_FILES["train"]
    for side in ("train", "test"):
        assert (split / SPLIT_FILES[side]).stat().st_size > 3 * manifest._POOL_CHUNK
    again = tmp_path / "again"
    write_split(read_split(split), again, json.loads((split / SPLIT_FILES["meta"]).read_text()))
    for name in SPLIT_FILES.values():
        assert (again / name).read_bytes() == (split / name).read_bytes()
    line = train.read_text().count("\n") - 5
    with_extra_field(train, line, train)
    report = tmp_path / "eval.json"
    code = run(
        "evaluate", "--split-dir", split, "--predictions", tmp_path / "preds.tsv", "--out", report,
    )
    assert code == 1
    assert capsys.readouterr().err == f"famsplit: error: {train}: line {line}: expected 3 fields, got 4\n"
    assert not report.exists()


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


def test_evaluate_threshold_outside_the_unit_interval_is_a_domain_error(
    split_dir, tmp_path, capsys
) -> None:
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{line.split(chr(9))[0]}\t1.0\n"
                             for line in (split_dir / "test.tsv").read_text().splitlines()))
    out = tmp_path / "eval.json"
    code = run("evaluate", "--split-dir", split_dir, "--predictions", preds,
               "--threshold", "1.5", "--out", out)
    assert code == 1
    assert "threshold 1.5 outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_a_family_on_both_sides(split_dir, tmp_path, capsys) -> None:
    meta = json.loads((split_dir / "meta.json").read_text())
    moved, kept = meta["test_families"][0], meta["train_families"][0]
    test_tsv = split_dir / "test.tsv"
    test_tsv.write_text(test_tsv.read_text().replace(f"\t{moved}\n", f"\t{kept}\n"))
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{line.split(chr(9))[0]}\t1.0\n"
                             for line in test_tsv.read_text().splitlines()))
    out = tmp_path / "eval.json"
    code = run("evaluate", "--split-dir", split_dir, "--predictions", preds, "--out", out)
    assert code == 1
    assert capsys.readouterr().err == f"famsplit: error: train/test families overlap: ['{kept}']\n"
    assert not out.exists()


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


def test_compare_nan_metric_is_a_domain_error(tmp_path, capsys) -> None:
    a = tmp_path / "nan.json"
    a.write_text("[0.5, NaN, 0.25]\n")
    out = tmp_path / "cmp.json"
    assert run("compare", "--a", a, "--b", a, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"famsplit: error: {a}: entry 1 value is not finite: nan\n"
    assert captured.out == ""
    assert not out.exists()


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


def test_compare_pools_the_tiers_of_two_pipelines(tmp_path) -> None:
    # Three tiers of ten splits from each of two pipeline runs: 30 pairs in one exact test.
    vectors = []
    for seed in ("7", "8"):
        out_dir = tmp_path / f"p{seed}"
        assert run("pipeline", "--families", "40", "--seed", seed, "--out-dir", out_dir) == 0
        tiers = json.loads((out_dir / "validation.json").read_text())["tiers"]
        vectors.append(tmp_path / f"p{seed}-splits.json")
        vectors[-1].write_text(json.dumps([s for tier in tiers for s in tier["splits"]]))
    out = tmp_path / "cmp.json"
    code = run("compare", "--a", vectors[0], "--b", vectors[1], "--metric", "mean_recall",
               "--out", out)
    assert code == 0
    assert json.loads(out.read_text())["n_pairs"] == 30


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


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--families", "10"], "need at least 20 families for set_size=10, matrix has 10"),
        (["--families", "12", "--set-size", "2", "--epsilon", "-1"],
         "epsilon0 must be positive and finite, got -1.0"),
        (["--families", "12", "--set-size", "2", "--pool", "BAD_POOL"],
         "line 2: expected 4 fields, got 3"),
    ],
    ids=["too few families", "negative epsilon", "malformed pool"],
)
def test_a_refused_pipeline_writes_nothing(tmp_path, capsys, argv, message) -> None:
    bad_pool = tmp_path / "bad_pool.tsv"
    bad_pool.write_text("a1\tmalicious\tfam00\t-\na2\tmalicious\tfam00\n")
    argv = [str(bad_pool) if arg == "BAD_POOL" else arg for arg in argv]
    assert run("pipeline", *argv, "--splits", "2", "--out-dir", tmp_path / "out") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_pipeline_whose_pool_falls_short_writes_nothing(pool_file, tmp_path, capsys) -> None:
    # The Hard tier's last split needs a family that the Easy tier's first split does not.
    argv = ["pipeline", "--families", "24", "--seed", "11", "--splits", "2", "--set-size", "2",
            "--train-per-family", "8", "--test-per-family", "2"]
    assert run(*argv, "--pool", pool_file, "--out-dir", tmp_path / "ok") == 0
    first = json.loads((tmp_path / "ok" / "benchmark_easy.json").read_text())["splits"][0]
    last = json.loads((tmp_path / "ok" / "benchmark_hard.json").read_text())["splits"][-1]
    short = next(f for f in last["train_families"]
                 if f not in first["train_families"] + first["test_families"])
    thin = thin_pool(pool_file, short, tmp_path / "thin.tsv")
    assert run(*argv, "--pool", thin, "--out-dir", tmp_path / "refused") == 1
    assert f"family {short!r} has 3 samples, needs 8" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
