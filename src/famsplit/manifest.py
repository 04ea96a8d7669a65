"""Materialize abstract family splits into concrete balanced sample lists.

Pools map each malware family to its sample ids and each benign origin
partition (train or test) to its benign ids, so a split never draws its test
benign from the train benign population.
Malicious counts are matched 1:1 by benign samples on each side.
"""

from __future__ import annotations

import json
import operator
import random
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from famsplit.errors import PoolError
from famsplit.search import SplitSpec

TRAIN_PER_FAMILY = 8000
TEST_PER_FAMILY = 2000

_LABELS = ("benign", "malicious")
_ORIGINS = ("train", "test")


@dataclass(frozen=True)
class SamplePool:
    """Family -> sample ids, and benign origin ("train" or "test") -> sample ids.

    `benign` has the shape of `by_family` and always holds both origins, each
    partition in pool order. The contents are stored read-only (mappings of
    tuples), so the whole-pool id check below cannot be bypassed after
    construction.
    """

    by_family: Mapping[str, tuple[str, ...]]
    benign: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        by_family = {}
        for family, ids in self.by_family.items():
            if not family or family == "-":
                raise PoolError(f"invalid family name {family!r}")
            by_family[family] = tuple(ids)
        for origin in self.benign:
            if origin not in _ORIGINS:
                raise PoolError(f"benign origin must be train|test, got {origin!r}")
        benign = {origin: tuple(self.benign.get(origin, ())) for origin in _ORIGINS}
        object.__setattr__(self, "by_family", MappingProxyType(by_family))
        object.__setattr__(self, "benign", MappingProxyType(benign))
        places = [(f"family {family!r}", ids) for family, ids in by_family.items()]
        places += [("the benign list", ids) for ids in benign.values()]
        # No id may appear twice in the pool. Sorted string hashes prove that
        # without a pool-sized hash table; equal hashes are checked exactly.
        hashes = np.fromiter(
            map(hash, chain.from_iterable(ids for _, ids in places)),
            dtype=np.int64,
            count=sum(len(ids) for _, ids in places),
        )
        hashes.sort()
        if np.any(hashes[1:] == hashes[:-1]):
            counts = Counter(chain.from_iterable(ids for _, ids in places))
            repeated = next((sample_id for sample_id, n in counts.items() if n > 1), None)
            if repeated is not None:
                where = [place for place, ids in places for _ in range(ids.count(repeated))]
                raise PoolError(
                    f"duplicate sample id {repeated!r} in {where[0]} and in {where[1]}"
                )

    def benign_ids(self, origin: str) -> tuple[str, ...]:
        """The benign ids of one origin partition, in pool order."""
        return self.benign.get(origin, ())


@dataclass(frozen=True)
class SplitSide:
    """One side of a split as parallel columns: sample ids and their families.

    A family of None marks a benign sample, so each label is derived from its
    family and the two cannot disagree.
    """

    ids: tuple[str, ...]
    families: tuple[str | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "families", tuple(self.families))
        if len(self.ids) != len(self.families):
            raise PoolError(f"{len(self.ids)} sample ids but {len(self.families)} families")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class MaterializedSplit:
    """Concrete train/test sample columns for one split."""

    split_id: str
    train: SplitSide
    test: SplitSide
    counts: dict

    def __post_init__(self) -> None:
        sides = (("train", self.train), ("test", self.test))
        for name, side in sides:
            if not side.ids:
                raise PoolError(f"{name} side has no records")
        train_ids = set(self.train.ids)
        test_ids = set(self.test.ids)
        shared = train_ids & test_ids
        if shared:
            raise PoolError(f"{len(shared)} sample ids appear in both train and test")
        for (name, side), ids in zip(sides, (train_ids, test_ids)):
            if len(ids) != len(side.ids):
                counts = Counter(side.ids)
                repeated = next(sample_id for sample_id, n in counts.items() if n > 1)
                raise PoolError(f"sample id {repeated!r} appears twice on the {name} side")
            malicious = len(side.families) - side.families.count(None)
            if 2 * malicious != len(side.ids):
                raise PoolError(
                    f"{name} side is not benign-balanced: {malicious} malicious"
                    f" of {len(side.ids)} records"
                )


def load_pool(path: str | Path) -> SamplePool:
    """Parse a line-delimited pool file (see save_pool for the format)."""
    path = Path(path)
    by_family: dict[str, list[str]] = {}
    benign: dict[str, list[str]] = {origin: [] for origin in _ORIGINS}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise PoolError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        sample_id, label, family, origin = parts
        if not sample_id:
            raise PoolError(f"{path}: line {lineno}: empty sample id")
        if label not in _LABELS:
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        if label == "malicious":
            if family == "-" or not family:
                raise PoolError(f"{path}: line {lineno}: malicious record without family")
            if origin != "-":
                raise PoolError(
                    f"{path}: line {lineno}: malicious records carry no origin tag"
                )
            by_family.setdefault(family, []).append(sample_id)
        else:
            if family != "-":
                raise PoolError(f"{path}: line {lineno}: benign record with family {family!r}")
            if origin not in _ORIGINS:
                raise PoolError(f"{path}: line {lineno}: benign origin must be train|test")
            benign[origin].append(sample_id)
    # Each list becomes a tuple and is dropped in turn, so SamplePool's tuple()
    # is free and no second full copy of the pool is ever held.
    for ids_by_key in (by_family, benign):
        for key in ids_by_key:
            ids_by_key[key] = tuple(ids_by_key[key])
    return SamplePool(by_family=by_family, benign=benign)


def save_pool(pool: SamplePool, path: str | Path) -> None:
    """Write the canonical pool layout: family blocks, then train and test benign.

    One record per line: sample_id<TAB>label<TAB>family_or_dash<TAB>origin,
    where origin is train|test for benign records and "-" for malicious.
    """
    blocks = [(ids, f"\tmalicious\t{family}\t-") for family, ids in pool.by_family.items()]
    blocks += [(ids, f"\tbenign\t-\t{origin}") for origin, ids in pool.benign.items()]
    lines = [sample_id + suffix for ids, suffix in blocks for sample_id in ids]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_family(pool: SamplePool, family: str, needed: int) -> None:
    ids = pool.by_family.get(family)
    if ids is None:
        raise PoolError(f"family {family!r} missing from pool")
    if len(ids) < needed:
        raise PoolError(
            f"family {family!r} has {len(ids)} samples, needs {needed}"
            f" (short by {needed - len(ids)})"
        )


def materialize_split(
    pool: SamplePool,
    spec: SplitSpec,
    train_per_family: int = TRAIN_PER_FAMILY,
    test_per_family: int = TEST_PER_FAMILY,
    seed: int = 0,
    split_id: str | None = None,
) -> MaterializedSplit:
    """Draw concrete samples for a split, deterministically for a seed.

    Per-family selection takes the first n ids of a seeded shuffle of that
    family's pool list; benign ids are drawn without replacement from the
    matching origin partition, 1:1 against the malicious counts. Draw order
    is fixed: train families (in spec order), train benign, test families,
    test benign.
    """
    if train_per_family < 1 or test_per_family < 1:
        raise PoolError("per-family counts must be >= 1")
    sides = (
        ("train", spec.train_families, train_per_family),
        ("test", spec.test_families, test_per_family),
    )
    for _, side_families, per_family in sides:
        for family in side_families:
            _check_family(pool, family, per_family)
    for origin, side_families, per_family in sides:
        need, have = len(side_families) * per_family, len(pool.benign[origin])
        if have < need:
            raise PoolError(f"benign {origin} pool has {have} samples, needs {need}")

    rng = random.Random(seed)

    def pick(ids: Sequence[str], n: int) -> list[str]:
        shuffled = list(ids)
        rng.shuffle(shuffled)
        return shuffled[:n]

    def side(origin: str, side_families: tuple[str, ...], per_family: int) -> SplitSide:
        ids: list[str] = []
        families: list[str | None] = []
        for family in side_families:
            ids += pick(pool.by_family[family], per_family)
            families += [family] * per_family
        need = len(ids)  # benign matches the malicious ids 1:1
        ids += pick(pool.benign[origin], need)
        families += [None] * need
        return SplitSide(ids, families)

    train, test = (side(*entry) for entry in sides)
    counts = {f"{origin}_total": 2 * len(fams) * n for origin, fams, n in sides}
    counts.update({f"{origin}_benign": len(fams) * n for origin, fams, n in sides})
    counts["per_family"] = {family: n for _, fams, n in sides for family in fams}
    if split_id is None:
        split_id = f"tau-{spec.tau:g}-seed-{spec.seed}"
    return MaterializedSplit(split_id=split_id, train=train, test=test, counts=counts)


def _side_text(side: SplitSide) -> str:
    suffixes = {family: f"\tmalicious\t{family}\n" for family in set(side.families)}
    suffixes[None] = "\tbenign\t-\n"
    return "".join(map(operator.add, side.ids, map(suffixes.__getitem__, side.families)))


def split_meta(ms: MaterializedSplit, spec: SplitSpec, seed: int,
               train_per_family: int, test_per_family: int) -> dict:
    return {
        "split_id": ms.split_id,
        "train_families": list(spec.train_families),
        "test_families": list(spec.test_families),
        "tau": spec.tau,
        "epsilon_final": spec.epsilon_final,
        "search_seed": spec.seed,
        "materialize_seed": seed,
        "train_per_family": train_per_family,
        "test_per_family": test_per_family,
        "counts": ms.counts,
    }


def write_split(ms: MaterializedSplit, directory: str | Path, meta: dict | None = None) -> None:
    """Write train.tsv, test.tsv, and meta.json under `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "train.tsv").write_text(_side_text(ms.train), encoding="utf-8")
    (directory / "test.tsv").write_text(_side_text(ms.test), encoding="utf-8")
    if meta is None:
        meta = {"split_id": ms.split_id, "counts": ms.counts}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


# Every line break str.splitlines() honours besides "\n".
_OTHER_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _read_side(path: Path) -> SplitSide:
    """Parse one split TSV into columns.

    The text is split once into a flat field list, and columns are taken as
    slices. That runs only when the text is proven well formed: "\n" is its
    only line break and ends it, each line has exactly three fields (so a
    stray tab cannot shift the columns), every label is known, and every
    benign line, and only those, has family "-". Any other text goes to the
    line parser, which reports the first fault by line number.
    """
    text = path.read_text(encoding="utf-8")
    if text.endswith("\n") and not any(c in text for c in _OTHER_LINE_BREAKS):
        n = text.count("\n")
        # Each newline becomes a field of its own, so n newline fields at
        # every fourth place leave exactly three fields on each line.
        fields = text.replace("\n", "\t\n\t").split("\t")[:-1]
        labels = fields[1::4]
        families = fields[2::4]
        benign = labels.count("benign")
        # A "\tbenign\t-\n" match spans a whole line's label and family, so
        # it counts the lines that are both benign and "-".
        if (
            len(fields) == 4 * n
            and fields[3::4].count("\n") == n
            and labels.count("malicious") == n - benign
            and families.count("-") == benign == text.count("\tbenign\t-\n")
            and "\tmalicious\t\n" not in text
        ):
            # One string object per family name, and None for benign.
            canonical = {family: family for family in set(families)}
            canonical["-"] = None
            return SplitSide(fields[0::4], map(canonical.__getitem__, families))
    return _read_side_by_line(path, text)


def _read_side_by_line(path: Path, text: str) -> SplitSide:
    ids: list[str] = []
    families: list[str | None] = []
    mismatch = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise PoolError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        sample_id, label, family = parts
        if label not in _LABELS:
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        if mismatch is None:
            if label == "malicious" and (family == "-" or not family):
                mismatch = f"line {lineno}: malicious record without family"
            elif label == "benign" and family != "-":
                mismatch = f"line {lineno}: benign record with family {family!r}"
        ids.append(sample_id)
        families.append(None if family == "-" else family)
    # Reported once every line has parsed: a line break inside a line can
    # leave a three-field prefix with an empty family, and the fields error
    # of the line's remainder names the real fault.
    if mismatch is not None:
        raise PoolError(f"{path}: {mismatch}")
    return SplitSide(ids, families)


def read_split(directory: str | Path) -> MaterializedSplit:
    """Load a split directory written by write_split."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict) or not isinstance(meta.get("counts", {}), dict):
        raise PoolError(f"{meta_path}: meta and its 'counts' must be JSON objects")
    missing = [key for key in ("split_id", "counts") if key not in meta] or [
        f"counts.{key}" for key in ("train_total", "test_total") if key not in meta["counts"]
    ]
    if missing:
        raise PoolError(f"{meta_path}: missing key {missing[0]!r}")
    ms = MaterializedSplit(
        split_id=meta["split_id"],
        train=_read_side(directory / "train.tsv"),
        test=_read_side(directory / "test.tsv"),
        counts=meta["counts"],
    )
    for name, side in (("train", ms.train), ("test", ms.test)):
        total = ms.counts[f"{name}_total"]
        if total != len(side):
            raise PoolError(
                f"{meta_path}: counts.{name}_total is {total},"
                f" but {name}.tsv holds {len(side)} records"
            )
    return ms
