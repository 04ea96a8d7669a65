"""Self-test of the benchmark at smoke sizes (a few seconds per case).

    python3 fsbench/selftest.py

Run from the repository root. It checks that each workload prints exactly
the metric names and units BENCHMARK.json declares, that injected
corruptions fail their unit, that the verifiers reject hand-made wrong
answers, and that without an importable famsplit the benchmark prints no
result and exits nonzero. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "fsbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_metric_names() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS:
            with contextlib.redirect_stdout(io.StringIO()):
                result = json.loads(json.dumps(run.run(workload, 3, 0.5, bool(trace), profile="smoke")))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload, trace, set(got) ^ set(declared))
    print("ok: every workload prints exactly the declared metrics and units")


def _test_takes_train_family(unit_dir: Path) -> None:
    path = unit_dir / "benchmark_easy.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    split = doc["splits"][0]
    split["test_families"][0] = split["train_families"][0]
    path.write_text(json.dumps(doc), encoding="utf-8")


def _tier_emptied(unit_dir: Path) -> None:
    (unit_dir / "benchmark_medium.json").write_text("{}", encoding="utf-8")


def _record_copied_to_train(unit_dir: Path) -> None:
    first_test = (unit_dir / "test.tsv").read_text(encoding="utf-8").splitlines()[0]
    with open(unit_dir / "train.tsv", "a", encoding="utf-8") as fh:
        fh.write(first_test + "\n")


def _matrix_byte_flipped(unit_dir: Path) -> None:
    path = unit_dir / "matrix.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("0.", "1.", 1), encoding="utf-8")


def _recall_nudged(unit_dir: Path) -> None:
    path = unit_dir / "eval.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["evaluations"][0]["malware_recall_mean"] += 1e-6
    path.write_text(json.dumps(doc), encoding="utf-8")


def check_corruption_fails() -> None:
    cases = (("paper-pipeline", _test_takes_train_family), ("paper-pipeline", _tier_emptied),
             ("materialize-eval", _record_copied_to_train),
             ("materialize-eval", _recall_nudged), ("large-k", _matrix_byte_flipped))
    for workload, corrupt in cases:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            result = run.run(workload, 5, 0.5, False, profile="smoke", corrupt=corrupt)
        assert not result["correct"] and result["failed"] == result["attempted"], (workload, result)
        assert result["metrics"]["ok_rate"]["value"] == 0.0, result
    print("ok: injected corruptions fail their units")


def check_verifiers_reject() -> None:
    names = ["f0", "f1", "f2", "f3"]
    values = np.array([[1.0, 0.5, 0.52, 0.9], [0.5, 1.0, 0.48, 0.5], [0.5, 0.5, 1.0, 0.5],
                       [0.1, 0.2, 0.3, 1.0]])
    doc = {"tau": 0.5, "set_size": 2, "epsilon0": 0.05, "step": 0.05,
           "splits": [{"train_families": ["f0", "f1"], "test_families": ["f2", "f3"],
                       "epsilon_final": 0.05, "relaxations": 0, "attempts_total": 9}]}
    # f0 -> f3 is 0.9, far outside the 0.05 band around 0.5.
    assert any("cross entry" in e for e in verify.check_tier(doc, names, values, 0.5, 1, 2, 1e-12))
    doc["splits"][0]["test_families"] = ["f2", "f0"]
    assert any("both sides" in e for e in verify.check_tier(doc, names, values, 0.5, 1, 2, 1e-12))
    doc["splits"][0]["test_families"] = ["f2"]
    assert any("sides" in e for e in verify.check_tier(doc, names, values, 0.5, 1, 2, 1e-12))
    doc["splits"][0].update(test_families=["f2", "f3"], epsilon_final=0.1)
    assert any("epsilon0 + step" in e for e in verify.check_tier(doc, names, values, 0.5, 1, 2, 1e-12))

    doc["splits"][0]["epsilon_final"] = 0.05
    good = {"per_family_recall": {"f2": 0.5, "f3": 0.7}, "mean_recall": 0.6, "flagged_families": ["f3"]}
    assert not verify.check_validation([good], doc, names, values, 1e-9)
    bad = dict(good, mean_recall=0.61)
    assert verify.check_validation([bad], doc, names, values, 1e-9)
    bad = dict(good, flagged_families=[])
    assert verify.check_validation([bad], doc, names, values, 1e-9)

    recall = values[[0]].mean(axis=0)
    report = {"selected_families": ["f0"], "per_family_recall": dict(zip(names, recall)),
              "mean_off_selected": recall[1:].mean(), "std_off_selected": recall[1:].std(),
              "self_recall_min": recall[0]}
    assert not verify.check_ablation(report, names, values, 1, top=True)
    assert verify.check_ablation(dict(report, selected_families=["f3"]), names, values, 1, top=True)

    a, b = [0.9, 0.8, 0.75, 0.6, 0.55], [0.5, 0.45, 0.7, 0.58, 0.1]
    right = {"w_statistic": 0.0, "n_effective": 5, "p_two_sided": 0.0625, "p_one_sided": 0.03125}
    assert not verify.verify_wilcoxon(a, b, right)
    assert verify.verify_wilcoxon(a, b, dict(right, p_two_sided=0.125))
    assert verify.verify_wilcoxon(a, b, dict(right, n_effective=4))
    print("ok: verifiers reject hand-made wrong answers")


def check_no_famsplit_no_result() -> None:
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    for case in ("missing", "broken"):
        tree = base / case
        shutil.copytree(HERE, tree / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        if case == "broken":
            (tree / "src" / "famsplit").mkdir(parents=True)
            (tree / "src" / "famsplit" / "__init__.py").write_text("raise ImportError('broken')\n")
        out = cli("--workload", "paper-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tree)
        assert out.returncode != 0, (case, out.stdout)
        assert '"correct"' not in out.stdout, (case, out.stdout)
    shutil.rmtree(base)
    print("ok: with famsplit missing or unimportable the run prints no result and exits nonzero")


def main() -> int:
    check_verifiers_reject()
    check_no_famsplit_no_result()
    check_corruption_fails()
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
