"""Benchmark inputs, written from a seed with numpy and the standard library.

Nothing here imports famsplit: the program under test receives only the
files these functions write. Every input is a pure function of its seed and
size, and the sizes are fixed per workload so that two seeds give the same
amount of work, only arranged differently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

SPLIT_TAU = 0.25  # the materialize tier is a Hard tier
ALT_THRESHOLD = 0.55  # second operating point compared against the default 0.5


def derive(*parts: object) -> int:
    """Stable 63-bit sub-seed for one named item, such as (run seed, "pool")."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big") >> 1


def family_names(k: int) -> list[str]:
    return [f"fam{i:04d}" for i in range(k)]


def malicious_id(family_index: int, j: int) -> str:
    """Sample ids encode their block, so a verifier can decode where they came from."""
    return f"m{family_index:04d}-{j:06d}"


def benign_id(origin: str, j: int) -> str:
    return f"b{origin}-{j:07d}"


def planted_values(k: int, seed: int) -> np.ndarray:
    """Noisy rank-one recall grid with dark rows and columns, quantized to 6 digits.

    Row and column factors are evenly spaced and then shuffled, rather than
    drawn at random, so every seed gives the same value distribution and
    hence the same band populations: only which families sit where changes.
    """
    rng = np.random.default_rng(seed)
    n_dark = k // 10
    g = np.concatenate([np.linspace(0.0, 0.1, n_dark), np.linspace(0.3, 1.0, k - n_dark)])
    d = np.concatenate([np.linspace(0.0, 0.1, n_dark), np.linspace(0.3, 1.0, k - n_dark)])
    g = rng.permutation(g)
    d = rng.permutation(d)
    values = np.outer(g, d) + rng.normal(0.0, 0.02, (k, k))
    np.fill_diagonal(values, np.maximum(0.99, g * d))
    np.clip(values, 0.0, 1.0, out=values)
    return np.round(values * 1e6) / 1e6 + 0.0


def write_matrix_csv(path: Path, names: list[str], values: np.ndarray) -> None:
    """The canonical matrix CSV: header row, then one 6-digit row per family."""
    lines = [",".join(["family", *names])]
    for name, row in zip(names, values):
        lines.append(name + "," + ",".join(f"{x:.6f}" for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tier_splits(n_families: int, n_splits: int, set_size: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Family-disjoint train/test index sets; every family is used equally often.

    Each pass over a fresh permutation of the families is cut into blocks of
    2 * set_size, so every split has distinct families on its two sides.
    """
    width = 2 * set_size
    if n_families % width:
        raise ValueError(f"{n_families} families do not cut into blocks of {width}")
    rng = np.random.default_rng(seed)
    splits: list[tuple[list[int], list[int]]] = []
    while len(splits) < n_splits:
        perm = [int(x) for x in rng.permutation(n_families)]
        for start in range(0, n_families, width):
            block = perm[start:start + width]
            splits.append((block[:set_size], block[set_size:]))
    return splits[:n_splits]


def write_materialize_inputs(directory: Path, seed: int, sizes: dict) -> dict:
    """Pool TSV, a Hard tier of splits (benchmark JSON), and per-split predictions.

    The pool holds `ids_per_family` ids for each of `families` families, in
    canonical layout (family blocks, then benign), with ids shuffled inside
    each block. A split's prediction file scores every id the split's test
    side can draw: its test families' ids and the test benign ids.
    Returns the paths plus the tier document.
    """
    rng = np.random.default_rng(derive(seed, "pool"))
    names = family_names(sizes["families"])
    per_family = sizes["ids_per_family"]
    n_benign = {"train": sizes["benign_train"], "test": sizes["benign_test"]}

    family_ids = [
        [malicious_id(f, int(j)) for j in rng.permutation(per_family)] for f in range(len(names))
    ]
    benign_ids = {
        origin: [benign_id(origin, int(j)) for j in rng.permutation(n)] for origin, n in n_benign.items()
    }
    lines = []
    for name, ids in zip(names, family_ids):
        lines.extend(f"{i}\tmalicious\t{name}\t-" for i in ids)
    for origin in ("train", "test"):
        lines.extend(f"{i}\tbenign\t-\t{origin}" for i in benign_ids[origin])
    pool_path = directory / "pool.tsv"
    pool_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines

    set_size = sizes["set_size"]
    splits = tier_splits(len(names), sizes["splits"], set_size, derive(seed, "tier"))
    tier = {
        "difficulty_label": "Hard",
        "tau": SPLIT_TAU,
        "epsilon0": 0.05,
        "step": 0.05,
        "max_attempts": 1000,
        "set_size": set_size,
        "seed": derive(seed, "tier-seed"),
        "splits": [
            {
                "train_families": [names[f] for f in train],
                "test_families": [names[f] for f in test],
                "epsilon_final": 0.05,
                "relaxations": 0,
                "attempts_total": 100 + 7 * i,
                "seed": derive(seed, "split-seed", i),
            }
            for i, (train, test) in enumerate(splits)
        ],
    }
    tier_path = directory / "tier.json"
    tier_path.write_text(json.dumps(tier, indent=2) + "\n", encoding="utf-8")

    # Scores: each family has its own detection level; benign scores sit low.
    # Four decimals keep the text short and make threshold ties possible.
    score_rng = np.random.default_rng(derive(seed, "scores"))
    family_level = score_rng.uniform(0.35, 0.85, len(names))
    benign_scores = np.clip(score_rng.normal(0.3, 0.18, n_benign["test"]), 0.0, 1.0)
    benign_lines = [f"{i}\t{s:.4f}" for i, s in zip(benign_ids["test"], benign_scores)]
    prediction_paths = []
    for i, (_, test) in enumerate(splits):
        out = []
        for f in test:
            scores = np.clip(score_rng.normal(family_level[f], 0.2, per_family), 0.0, 1.0)
            out.extend(f"{sid}\t{s:.4f}" for sid, s in zip(family_ids[f], scores))
        out.extend(benign_lines)
        path = directory / f"predictions-{i:02d}.tsv"
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
        prediction_paths.append(str(path))
    return {
        "pool": str(pool_path),
        "tier": str(tier_path),
        "predictions": prediction_paths,
        "tier_doc": tier,
    }
