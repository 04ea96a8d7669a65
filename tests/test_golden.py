"""Golden-output lock: the sha256 of every file the CLI writes for fixed flags.

One `pipeline` run with a small pool covers the paper workflow; one run of
each other command covers every run-manifest shape. A refactor must leave
every digest unchanged. A deliberate format change regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and names the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from famsplit.cli import main
from famsplit.manifest import SamplePool, save_pool
from famsplit.matrix import synth_family_names

DIGESTS = Path(__file__).with_name("golden_digests.json")


def run(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, f"famsplit {argv[0]} exited {code}"


def write_outputs(root: Path) -> None:
    """Run every command once under `root`, each with fixed flags."""
    # Ten ids per family and spare benign, so every draw keeps fewer ids than it ranks.
    families = synth_family_names(184)
    pool = SamplePool(
        by_family={name: [f"{name}-{i:02d}" for i in range(10)] for name in families},
        benign={
            "train": [f"ben-tr-{i:03d}" for i in range(96)],
            "test": [f"ben-te-{i:03d}" for i in range(24)],
        },
    )
    save_pool(pool, root / "pool.tsv")
    run("pipeline", "--out-dir", root / "pipeline", "--families", 184, "--seed", 7,
        "--pool", root / "pool.tsv", "--train-per-family", 8, "--test-per-family", 2)
    run("pipeline", "--out-dir", root / "pipeline-no-pool", "--families", 24, "--seed", 2,
        "--splits", 2, "--set-size", 2)

    run("synth", "--families", 24, "--seed", 3, "--out", root / "synth" / "matrix.csv")
    matrix = root / "synth" / "matrix.csv"
    run("search", "--matrix", matrix, "--tau", 0.5, "--set-size", 3, "--splits", 2,
        "--seed", 5, "--out", root / "search.json")
    # Stress scale: K=1000 bands hold far more entries than the paper's K=184.
    run("synth", "--families", 1000, "--seed", 11, "--out", root / "synth-1000" / "matrix.csv")
    for i, tau in enumerate((0.9, 0.5, 0.25)):
        run("search", "--matrix", root / "synth-1000" / "matrix.csv", "--tau", tau,
            "--splits", 2, "--seed", 20 + i, "--out", root / f"search-1000-{tau:g}.json")
    run("materialize", "--benchmark", root / "search.json", "--pool", root / "pool.tsv",
        "--train-per-family", 8, "--test-per-family", 2, "--seed", 4,
        "--out-dir", root / "materialize")
    run("ablate", "--matrix", matrix, "--mode", "worst", "--k", 5, "--agg", "max",
        "--curve-ks", "2,5,8", "--plot-data", root / "ablate.tsv", "--out", root / "ablate.json")

    split_dir = root / "materialize" / "split-00"
    test_ids = [line.split("\t")[0] for line in (split_dir / "test.tsv").read_text().splitlines()]
    (root / "preds.tsv").write_text(
        "".join(f"{sid}\t{(i * 37 % 101) / 100:g}\n" for i, sid in enumerate(test_ids))
    )
    run("evaluate", "--split-dir", split_dir, "--predictions", root / "preds.tsv",
        "--threshold", 0.4, "--out", root / "evaluate.json")

    (root / "a.json").write_text(json.dumps([{"recall": 0.5 + 0.03 * i} for i in range(8)]))
    (root / "b.json").write_text(json.dumps([{"recall": 0.6 - 0.01 * i * i} for i in range(8)]))
    run("compare", "--a", root / "a.json", "--b", root / "b.json", "--metric", "recall",
        "--out", root / "compare.json")


def digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_every_output_matches_its_golden_digest(tmp_path) -> None:
    write_outputs(tmp_path)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    # Every synthetic-matrix key rests on numpy's Generator streams, which
    # numpy does not promise to keep across versions.
    assert not changed, (
        f"{len(changed)} outputs changed bytes under numpy {np.__version__}: {changed[:10]}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        DIGESTS.write_text(json.dumps(digests(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
