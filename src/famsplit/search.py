"""Constrained random search for disjoint train/test family sets.

A split pins every cross entry ``M[t][v]`` (t in the train set, v in the
test set) inside a closeness band around a target recall ``tau``. Candidate
pairs are drawn uniformly at random from the entries currently in band;
when the search stalls the band half-width is relaxed by a fixed step,
keeping accepted pairs and admitting the next level's entries as fresh
candidates. A tier finds each level's entries once, as a flat index array,
and shares them across every restart of every split. It also keeps one
K x K grid of small integers, the level at which each entry joined, and no
K x K float array.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from sys import float_info

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

# A pass draws with one 32-bit stream word per randrange call, which needs
# fewer than 2**32 candidates: K * (K - 1) < 2**32 holds up to K = 65,536.
_MAX_FAMILIES = 65_536
# Stream words a pass takes at a time: most passes end within a few dozen
# draws, while one that relaxes spends max_attempts draws on each level.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096
# Cells of |M - tau| that _Band.at forms and compares to a level's bounds at once.
_BAND_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; defaults match the standard benchmark recipe."""

    # Field order is the benchmark document's key order.
    tau: float
    epsilon0: float = 0.05
    step: float = 0.05
    max_attempts: int = 1000
    set_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise InfeasibleSearchError(f"tau must be in (0, 1), got {self.tau}")
        for name, value in (("epsilon0", self.epsilon0), ("step", self.step)):
            # A NaN band admits no entry at any level, and an infinite one is not JSON.
            if not 0.0 < value < math.inf:
                raise InfeasibleSearchError(f"{name} must be positive and finite, got {value}")
        if self.epsilon0 + self.step == self.epsilon0:
            # Every level would be epsilon0's band, so a stalled pass would relax forever.
            raise InfeasibleSearchError(f"step {self.step} does not widen epsilon0 {self.epsilon0}")
        if self.max_attempts < 1:
            raise InfeasibleSearchError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.set_size < 1:
            raise InfeasibleSearchError(f"set_size must be >= 1, got {self.set_size}")
        if not 0 <= self.seed < 2**64:
            raise InfeasibleSearchError(f"seed must be an unsigned 64-bit value, got {self.seed}")


@dataclass(frozen=True)
class SplitSpec:
    """One train/test split over family names, plus how it was found."""

    # Field order is the benchmark document's split key order; tau is the tier's.
    train_families: tuple[str, ...]
    test_families: tuple[str, ...]
    epsilon_final: float
    relaxations: int
    attempts_total: int
    seed: int
    tau: float

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


def derive_seed(seed: int, index: int | str) -> int:
    """Stable 64-bit sub-seed for item `index` of a run seeded with `seed`.

    The search numbers its items with integers; another stage names its
    domain in a string index such as "materialize:3". No integer's text has
    a letter, so two stages never hash the same text.
    """
    import hashlib  # here, so that importing famsplit does not load OpenSSL (~3.5 MB)

    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _eps_at(config: SearchConfig, level: int) -> float:
    # Recomputed from scratch so epsilon_final == epsilon0 + step * relaxations
    # holds exactly, without accumulated float drift.
    return config.epsilon0 + config.step * level


class _Band:
    """In-band off-diagonal entries of one (matrix, tau, epsilon0, step).

    `at(level)` returns the flat row-major indices t * K + v in band at
    `level`, level by level: level r adds eps(r - 1) < |M - tau| <= eps(r).
    Each level is found at most once, so every pass of every split searched
    over one band shares it. `level[t, v]` is the level at which entry (t, v)
    joined, and `unfound` for the diagonal and for entries no level has
    found yet. eps never falls as r grows, so once at(R) has run, an entry
    is in band at level R exactly when its level is at most R.
    """

    def __init__(self, m: CrossErrorMatrix, config: SearchConfig) -> None:
        if m.k > _MAX_FAMILIES:
            raise InfeasibleSearchError(
                f"the search takes at most {_MAX_FAMILIES} families, matrix has {m.k}"
            )
        if m.k < 2 * config.set_size:
            raise InfeasibleSearchError(
                f"need at least {2 * config.set_size} families for set_size="
                f"{config.set_size}, matrix has {m.k}"
            )
        self.m = m
        self.config = config
        # A pass stops relaxing by the level that holds every entry, at most
        # README's bound ceil((max(tau, 1 - tau) - epsilon0) / step), or one
        # more through float drift. The smallest unsigned dtype whose max is
        # past that marks unfound entries with its max.
        bound = (max(config.tau, 1.0 - config.tau) - config.epsilon0) / config.step
        dtype = np.min_scalar_type(math.ceil(min(max(bound, 0.0), 2.0**63)) + 2)
        self.unfound = int(np.iinfo(dtype).max)
        self.level = np.full((m.k, m.k), self.unfound, dtype=dtype)
        self._entries = np.empty(0, dtype=np.intp)
        self._ends: list[int] = []

    def at(self, level: int) -> np.ndarray:
        while len(self._ends) <= level:
            r = len(self._ends)
            values, levels = self.m.values.ravel(), self.level.ravel()
            diagonal = self.m.k + 1  # the flat stride from one diagonal cell to the next
            hi = _eps_at(self.config, r)
            lo = _eps_at(self.config, r - 1) if r else None  # level 0 has no lower bound
            # |M - tau| a block of cells at a time, in one buffer, so no K x K
            # float array or mask is held beside the matrix. A block's indices
            # wait as uint32 (K * K <= 2**32), so the level's new entries are
            # held at 4 bytes, not 8, while they are joined.
            dist = np.empty(min(_BAND_BLOCK_CELLS, values.size))
            joins = [self._entries]
            for start in range(0, values.size, _BAND_BLOCK_CELLS):
                block = dist[: min(_BAND_BLOCK_CELLS, values.size - start)]
                np.subtract(values[start : start + len(block)], self.config.tau, out=block)
                np.abs(block, out=block)
                block[-start % diagonal :: diagonal] = np.inf
                in_band = block <= hi
                if lo is not None:
                    in_band &= block > lo
                in_level = np.flatnonzero(in_band)
                levels[start : start + len(block)][in_level] = r
                joins.append(in_level.astype(np.uint32) + start)
            self._entries = np.concatenate(joins, dtype=np.intp)
            self._ends.append(len(self._entries))
        return self._entries[: self._ends[level]]


def _stream_words(rng: random.Random, count: int) -> np.ndarray:
    # rng's next `count` 32-bit Mersenne Twister outputs, in order: a bulk
    # draw fills its result from the least significant word up.
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def _search_pass(
    band: _Band, config: SearchConfig, pass_seed: int, stop_at: int | None = None
) -> tuple[list[int], list[int], int, int] | None:
    # One greedy pass, returning (train, test, relaxations, attempts_total),
    # or None once it has relaxed `stop_at` times.
    # Each draw takes one candidate uniformly (with replacement) and one
    # attempt; it is discarded when either family is used or when any cross
    # entry against the accepted sets would leave the band. After max_attempts
    # draws at one level, or with no candidates at all, the band grows by
    # `step`, accepted pairs are kept and the next level's entries join. Once
    # the band holds every off-diagonal entry, relaxing adds nothing and any
    # draw of two unused families is accepted, so the pass keeps drawing.
    #
    # The draws are the rng.randrange(n) calls over the n candidates, taken
    # a chunk of stream words at a time. For n < 2**32, randrange returns
    # w >> shift for the next word w where that is below n, with shift =
    # 32 - n.bit_length(). A chunk's draws are checked at once; accepting a
    # pair only shrinks what later draws at the same band may accept, so only
    # the draws that passed are checked again. Words left when a level ends
    # are the next level's draws.
    rng = random.Random(pass_seed)
    level = band.level
    k = len(level)
    off_diagonal = k * (k - 1)
    train: list[int] = []
    test: list[int] = []
    # The highest level each family would bring in as a train row (against
    # the accepted test columns) or as a test column (against the accepted
    # train rows), or band.unfound once it is used: accepting (t, v) sets row
    # t and column v to it, and the level grid's unfound diagonal does the
    # same for column t and row v. A pair is in band at `relaxations` when
    # neither exceeds it. An entry not yet found also reads band.unfound, so
    # both are recomputed when a relaxation finds new entries.
    row_worst = np.zeros(k, dtype=level.dtype)
    col_worst = np.zeros(k, dtype=level.dtype)
    levels_found = 0
    relaxations = 0
    attempts_total = 0
    words = np.empty(0, dtype=np.uint32)
    chunk = _FIRST_CHUNK
    while True:
        candidates = band.at(relaxations)
        if train and levels_found < len(band._ends):
            row_worst = level[:, test].max(axis=1)
            col_worst = level[train].max(axis=0)
            row_worst[train] = col_worst[test] = band.unfound
        levels_found = len(band._ends)
        bar = level.dtype.type(relaxations)  # compares faster than a Python int
        n = len(candidates)
        shift = 32 - n.bit_length()
        left = config.max_attempts if n else 0  # draws this level may still take
        while left:
            if not len(words):
                words = _stream_words(rng, chunk)
                chunk = min(2 * chunk, _MAX_CHUNK)
            draws = words >> shift
            at = (draws < n).nonzero()[0][:left]  # the word of each draw
            t, v = np.divmod(candidates[draws[at]], k)
            hits = (np.maximum(row_worst[t], col_worst[v]) <= bar).nonzero()[0]
            for j, tj, vj in zip(hits.tolist(), t[hits].tolist(), v[hits].tolist()):
                if row_worst[tj] > bar or col_worst[vj] > bar:
                    continue
                train.append(tj)
                test.append(vj)
                if len(train) == config.set_size:
                    return train, test, relaxations, attempts_total + j + 1
                np.maximum(row_worst, level[:, vj], out=row_worst)
                np.maximum(col_worst, level[tj], out=col_worst)
                row_worst[tj] = col_worst[vj] = band.unfound
            attempts_total += len(at)
            left -= len(at)
            words = words[at[-1] + 1 :] if not left else words[:0]
        if n < off_diagonal:
            relaxations += 1
            if relaxations == stop_at:
                return None


def search_split(m: CrossErrorMatrix, config: SearchConfig) -> SplitSpec:
    """Find one split satisfying the band constraint, relaxing as needed.

    Runs up to SEARCH_RESTARTS independently seeded greedy passes and
    returns the first one that achieved the smallest final band; passes stop
    early once one completes without any relaxation, since no pass can do
    better, and a pass stops once it has relaxed as often as the best so far.
    Deterministic for a fixed (matrix, config).
    """
    return _search_band(_Band(m, config), config)


def _search_band(band: _Band, config: SearchConfig) -> SplitSpec:
    # search_split over a band built with config's tau, epsilon0, step and set_size.
    # A pass is kept only if its band is strictly tighter than the best's, and
    # the band never narrows as a pass relaxes, so a pass stops once it has
    # relaxed as often as the best. Each pass has its own rng, so stopping
    # one changes no other.
    m = band.m
    best = _search_pass(band, config, derive_seed(config.seed, 0))
    for r in range(1, SEARCH_RESTARTS):
        if best[2] == 0:
            break
        result = _search_pass(band, config, derive_seed(config.seed, r), best[2])
        if result is not None and _eps_at(config, result[2]) < _eps_at(config, best[2]):
            best = result
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


def generate_benchmark(
    m: CrossErrorMatrix,
    config: SearchConfig,
    n_splits: int = 10,
    label: str | None = None,
) -> BenchmarkSet:
    """Run n_splits independent searches; split i is seeded from (seed, i).

    Split i equals search_split(m, config with seed derive_seed(seed, i));
    the splits share one band, built once for the tier.
    """
    if n_splits < 1:
        raise InfeasibleSearchError(f"n_splits must be >= 1, got {n_splits}")
    band = _Band(m, config)
    splits = tuple(
        _search_band(band, replace(config, seed=derive_seed(config.seed, i)))
        for i in range(n_splits)
    )
    if label is None:
        label = STANDARD_LABELS.get(config.tau, f"tau-{config.tau:g}")
    return BenchmarkSet(difficulty_label=label, config=config, splits=splits)


def benchmark_to_dict(bench: BenchmarkSet) -> dict:
    """JSON-ready form of a benchmark set (no timestamps)."""
    # A split's keys are SplitSpec's fields but the tier's tau, with lists for tuples.
    # Read with attrgetter, not asdict, which deep-copies every value.
    keys = [f.name for f in fields(SplitSpec) if f.name != "tau"]
    splits = [{k: list(v) if type(v) is tuple else v for k, v in zip(keys, attrgetter(*keys)(s))}
              for s in bench.splits]
    return {"difficulty_label": bench.difficulty_label, **asdict(bench.config), "splits": splits}


# The JSON value each benchmark document field must hold, by its annotation.
# The float bound rejects NaN, infinities and integers too large for a float.
_JSON_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= float_info.max),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[str, ...]": (
        "a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)
    ),
}


def _checked(obj: dict, checks: list) -> dict:
    # All are looked up before any is checked, so a missing field is named first.
    values = {name: obj[name] for name, _ in checks}
    for name, (expected, has_type) in checks:
        if not has_type(values[name]):
            raise MatrixFormatError(f"malformed benchmark document: {name!r} must be {expected}")
    return values


def _check_split(i: int, split: dict, config: SearchConfig) -> None:
    # What every searched split satisfies; bare SplitSpecs are not held to it.
    def bad(field: str, problem: str) -> MatrixFormatError:
        return MatrixFormatError(f"malformed benchmark document: split {i} {field!r} {problem}")

    for side in ("train_families", "test_families"):
        if len(split[side]) != config.set_size:
            raise bad(side, f"has {len(split[side])} families, set_size is {config.set_size}")
    if split["relaxations"] < 0:
        raise bad("relaxations", f"must be >= 0, got {split['relaxations']}")
    if split["attempts_total"] < config.set_size:
        # Each accepted pair took one draw.
        raise bad("attempts_total", f"must be >= set_size {config.set_size}, "
                                    f"got {split['attempts_total']}")
    expected = _eps_at(config, split["relaxations"])
    if split["epsilon_final"] != expected:
        raise bad("epsilon_final", f"must be epsilon0 + step * relaxations = {expected!r}, "
                                   f"got {split['epsilon_final']!r}")


def benchmark_from_dict(doc: dict) -> BenchmarkSet:
    config_checks = [(f.name, _JSON_TYPES[f.type]) for f in fields(SearchConfig)]
    split_checks = [(f.name, _JSON_TYPES[f.type]) for f in fields(SplitSpec) if f.name != "tau"]
    try:
        config = SearchConfig(**_checked(doc, config_checks))
        splits = [_checked(s, split_checks) for s in doc["splits"]]
        label = _checked(doc, [("difficulty_label", _JSON_TYPES["str"])])["difficulty_label"]
        if not splits:
            raise MatrixFormatError("malformed benchmark document: 'splits' is empty")
        for i, split in enumerate(splits):
            _check_split(i, split, config)
    except KeyError as exc:
        raise MatrixFormatError(f"benchmark document missing field {exc}") from None
    except (TypeError, OverflowError) as exc:
        # OverflowError: a relaxations count too large to scale step by.
        raise MatrixFormatError(f"malformed benchmark document: {exc}") from None
    return BenchmarkSet(label, config, [SplitSpec(tau=config.tau, **s) for s in splits])


def load_benchmark(path: str | Path) -> BenchmarkSet:
    return benchmark_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
