"""Constrained random search for disjoint train/test family sets.

A split pins every cross entry ``M[t][v]`` (t in the train set, v in the
test set) inside a closeness band around a target recall ``tau``. Candidate
pairs are drawn uniformly at random from the entries currently in band;
when the search stalls the band half-width is relaxed by a fixed step,
keeping accepted pairs and admitting the next level's entries as fresh
candidates. Each split search finds each level's entries once, as a flat
index array, and shares them across its restarts.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from famsplit.errors import InfeasibleSearchError, MatrixFormatError
from famsplit.matrix import CrossErrorMatrix

STANDARD_LABELS = {0.9: "Easy", 0.5: "Medium", 0.25: "Hard"}

# A single greedy pass can wedge itself: its first acceptance is
# unconstrained, and a pair locked early may have no band-compatible
# partners, forcing relaxations past the tightest feasible band. Running a
# few independently seeded passes and keeping the tightest result removes
# that failure mode while leaving each pass's behavior untouched.
SEARCH_RESTARTS = 8


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; defaults match the standard benchmark recipe."""

    tau: float
    epsilon0: float = 0.05
    step: float = 0.05
    max_attempts: int = 1000
    set_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise InfeasibleSearchError(f"tau must be in (0, 1), got {self.tau}")
        if self.epsilon0 <= 0.0:
            raise InfeasibleSearchError(f"epsilon0 must be positive, got {self.epsilon0}")
        if self.step <= 0.0:
            raise InfeasibleSearchError(f"step must be positive, got {self.step}")
        if self.max_attempts < 1:
            raise InfeasibleSearchError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.set_size < 1:
            raise InfeasibleSearchError(f"set_size must be >= 1, got {self.set_size}")
        if not 0 <= self.seed < 2**64:
            raise InfeasibleSearchError(f"seed must be an unsigned 64-bit value, got {self.seed}")


@dataclass(frozen=True)
class SplitSpec:
    """One train/test split over family names, plus how it was found."""

    train_families: tuple[str, ...]
    test_families: tuple[str, ...]
    tau: float
    epsilon_final: float
    seed: int
    relaxations: int
    attempts_total: int

    def __post_init__(self) -> None:
        train = tuple(self.train_families)
        test = tuple(self.test_families)
        object.__setattr__(self, "train_families", train)
        object.__setattr__(self, "test_families", test)
        if len(train) != len(test) or not train:
            raise InfeasibleSearchError(
                f"split sides must be equal-sized and non-empty, got {len(train)}/{len(test)}"
            )
        if len(set(train)) != len(train) or len(set(test)) != len(test):
            raise InfeasibleSearchError("split sides must not repeat families")
        overlap = set(train) & set(test)
        if overlap:
            raise InfeasibleSearchError(f"train/test families overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class BenchmarkSet:
    """A difficulty tier: the search config plus its generated splits."""

    difficulty_label: str
    config: SearchConfig
    splits: tuple[SplitSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "splits", tuple(self.splits))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for item `index` of a run seeded with `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _eps_at(config: SearchConfig, level: int) -> float:
    # Recomputed from scratch so epsilon_final == epsilon0 + step * relaxations
    # holds exactly, without accumulated float drift.
    return config.epsilon0 + config.step * level


def _search_pass(
    dist: np.ndarray, band: Callable[[int], np.ndarray], config: SearchConfig, pass_seed: int
) -> tuple[list[int], list[int], int, int]:
    # One greedy pass, returning (train, test, relaxations, attempts_total).
    # Each draw takes one candidate uniformly (with replacement) and one
    # attempt; it is discarded when either family is used or when any cross
    # entry against the accepted sets would leave the band. After max_attempts
    # draws at one level, or with no candidates at all, the band grows by
    # `step`, accepted pairs are kept and the next level's entries join. Once
    # the band holds every off-diagonal entry, relaxing adds nothing and any
    # draw of two unused families is accepted, so the pass keeps drawing.
    rng = random.Random(pass_seed)
    eps_hi = _eps_at(config, 0)
    candidates = band(0)
    off_diagonal = len(dist) * (len(dist) - 1)
    train: list[int] = []
    test: list[int] = []
    used: set[int] = set()
    relaxations = 0
    attempts_total = 0
    attempts_level = 0
    while len(train) < config.set_size:
        if not len(candidates) or attempts_level >= config.max_attempts:
            if len(candidates) < off_diagonal:
                relaxations += 1
                eps_hi = _eps_at(config, relaxations)
                candidates = band(relaxations)
            attempts_level = 0
            continue
        t, v = divmod(int(candidates[rng.randrange(len(candidates))]), len(dist))
        attempts_total += 1
        attempts_level += 1
        if t in used or v in used:
            continue
        if any(dist[tj, v] > eps_hi for tj in train) or any(dist[t, vj] > eps_hi for vj in test):
            continue
        train.append(t)
        test.append(v)
        used.add(t)
        used.add(v)
    return train, test, relaxations, attempts_total


def search_split(
    m: CrossErrorMatrix, config: SearchConfig, restarts: int = SEARCH_RESTARTS
) -> SplitSpec:
    """Find one split satisfying the band constraint, relaxing as needed.

    Runs up to `restarts` independently seeded greedy passes and returns
    the first one that achieved the smallest final band; passes stop early
    once one completes without any relaxation, since no pass can do better.
    Deterministic for a fixed (matrix, config, restarts).
    """
    if m.k < 2 * config.set_size:
        raise InfeasibleSearchError(
            f"need at least {2 * config.set_size} families for set_size="
            f"{config.set_size}, matrix has {m.k}"
        )
    if restarts < 1:
        raise InfeasibleSearchError(f"restarts must be >= 1, got {restarts}")
    dist = np.abs(m.values - config.tau)
    np.fill_diagonal(dist, np.inf)
    entries = np.empty(0, dtype=np.intp)
    ends: list[int] = []

    def band(level: int) -> np.ndarray:
        # Flat row-major indices t * K + v in band at `level`, level by level:
        # level r adds eps(r - 1) < dist <= eps(r). Each level is found at
        # most once per search_split call and shared by all of its passes.
        nonlocal entries
        while len(ends) <= level:
            joins = dist <= _eps_at(config, len(ends))
            if ends:
                joins &= dist > _eps_at(config, len(ends) - 1)
            entries = np.concatenate((entries, np.flatnonzero(joins)))
            ends.append(len(entries))
        return entries[: ends[level]]

    best = None
    for r in range(restarts):
        result = _search_pass(dist, band, config, derive_seed(config.seed, r))
        if best is None or _eps_at(config, result[2]) < _eps_at(config, best[2]):
            best = result
        if best[2] == 0:
            break
    train, test, relaxations, attempts_total = best
    return SplitSpec(
        train_families=tuple(m.families[t] for t in train),
        test_families=tuple(m.families[v] for v in test),
        tau=config.tau,
        epsilon_final=_eps_at(config, relaxations),
        seed=config.seed,
        relaxations=relaxations,
        attempts_total=attempts_total,
    )


def split_max_deviation(m: CrossErrorMatrix, spec: SplitSpec) -> float:
    """Largest |M[t][v] - tau| over all cross pairs of the split."""
    rows = [m.index_of(f) for f in spec.train_families]
    cols = [m.index_of(f) for f in spec.test_families]
    return float(np.abs(m.values[np.ix_(rows, cols)] - spec.tau).max())


def default_label(tau: float) -> str:
    return STANDARD_LABELS.get(tau, f"tau-{tau:g}")


def generate_benchmark(
    m: CrossErrorMatrix,
    config: SearchConfig,
    n_splits: int = 10,
    label: str | None = None,
) -> BenchmarkSet:
    """Run n_splits independent searches; split i is seeded from (seed, i)."""
    if n_splits < 1:
        raise InfeasibleSearchError(f"n_splits must be >= 1, got {n_splits}")
    splits = []
    for i in range(n_splits):
        split_config = replace(config, seed=derive_seed(config.seed, i))
        splits.append(search_split(m, split_config))
    return BenchmarkSet(
        difficulty_label=label if label is not None else default_label(config.tau),
        config=config,
        splits=tuple(splits),
    )


def benchmark_to_dict(bench: BenchmarkSet) -> dict:
    """JSON-ready form of a benchmark set (no timestamps)."""
    return {
        "difficulty_label": bench.difficulty_label,
        "tau": bench.config.tau,
        "epsilon0": bench.config.epsilon0,
        "step": bench.config.step,
        "max_attempts": bench.config.max_attempts,
        "set_size": bench.config.set_size,
        "seed": bench.config.seed,
        "splits": [
            {
                "train_families": list(s.train_families),
                "test_families": list(s.test_families),
                "epsilon_final": s.epsilon_final,
                "relaxations": s.relaxations,
                "attempts_total": s.attempts_total,
                "seed": s.seed,
            }
            for s in bench.splits
        ],
    }


def benchmark_from_dict(doc: dict) -> BenchmarkSet:
    try:
        config = SearchConfig(
            tau=doc["tau"],
            epsilon0=doc["epsilon0"],
            step=doc["step"],
            max_attempts=doc["max_attempts"],
            set_size=doc["set_size"],
            seed=doc["seed"],
        )
        splits = tuple(
            SplitSpec(
                train_families=tuple(s["train_families"]),
                test_families=tuple(s["test_families"]),
                tau=doc["tau"],
                epsilon_final=s["epsilon_final"],
                seed=s["seed"],
                relaxations=s["relaxations"],
                attempts_total=s["attempts_total"],
            )
            for s in doc["splits"]
        )
        return BenchmarkSet(doc["difficulty_label"], config, splits)
    except KeyError as exc:
        raise MatrixFormatError(f"benchmark document missing field {exc}") from None
    except TypeError as exc:
        raise MatrixFormatError(f"malformed benchmark document: {exc}") from None


def save_benchmark(bench: BenchmarkSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(benchmark_to_dict(bench), indent=2) + "\n", encoding="utf-8")


def load_benchmark(path: str | Path) -> BenchmarkSet:
    return benchmark_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
