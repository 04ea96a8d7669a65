"""Materialize abstract family splits into concrete balanced sample lists.

Pools map each malware family to its sample ids and carry one benign list
whose entries are tagged with their origin partition (train or test), so a
split never draws its test benign from the train benign population.
Malicious counts are matched 1:1 by benign samples on each side.
"""

from __future__ import annotations

import json
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
    """Family -> sample ids, plus origin-tagged benign ids.

    The contents are stored read-only (a mapping of tuples and a tuple), so
    the whole-pool id check below cannot be bypassed after construction.
    """

    by_family: Mapping[str, tuple[str, ...]]
    benign: tuple[tuple[str, str], ...]  # (sample_id, origin)

    def __post_init__(self) -> None:
        by_family = {}
        for family, ids in self.by_family.items():
            if not family or family == "-":
                raise PoolError(f"invalid family name {family!r}")
            by_family[family] = tuple(ids)
        object.__setattr__(self, "by_family", MappingProxyType(by_family))
        object.__setattr__(self, "benign", tuple(self.benign))
        places = [(f"family {family!r}", ids) for family, ids in self.by_family.items()]
        places.append(("the benign list", [sample_id for sample_id, _ in self.benign]))
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
        for sample_id, origin in self.benign:
            if origin not in _ORIGINS:
                raise PoolError(f"benign sample {sample_id!r} has origin {origin!r}")

    def benign_ids(self, origin: str) -> list[str]:
        return [sample_id for sample_id, tag in self.benign if tag == origin]


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    label: str  # "benign" | "malicious"
    family: str | None


@dataclass(frozen=True)
class MaterializedSplit:
    """Concrete train/test record lists for one split."""

    split_id: str
    train: tuple[SampleRecord, ...]
    test: tuple[SampleRecord, ...]
    counts: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "test", tuple(self.test))
        train_ids = {r.sample_id for r in self.train}
        test_ids = {r.sample_id for r in self.test}
        shared = train_ids & test_ids
        if shared:
            raise PoolError(f"{len(shared)} sample ids appear in both train and test")
        for name, records, ids in (("train", self.train, train_ids), ("test", self.test, test_ids)):
            if len(ids) != len(records):
                counts = Counter(r.sample_id for r in records)
                repeated = next(sample_id for sample_id, n in counts.items() if n > 1)
                raise PoolError(f"sample id {repeated!r} appears twice on the {name} side")
            malicious = sum(1 for r in records if r.label == "malicious")
            if 2 * malicious != len(records):
                raise PoolError(
                    f"{name} side is not benign-balanced: {malicious} malicious"
                    f" of {len(records)} records"
                )


def load_pool(path: str | Path) -> SamplePool:
    """Parse a line-delimited pool file (see save_pool for the format)."""
    path = Path(path)
    by_family: dict[str, list[str]] = {}
    benign: list[tuple[str, str]] = []
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
            benign.append((sample_id, origin))
    return SamplePool(by_family=by_family, benign=benign)


def save_pool(pool: SamplePool, path: str | Path) -> None:
    """Write the canonical pool layout: family blocks first, then benign.

    One record per line: sample_id<TAB>label<TAB>family_or_dash<TAB>origin,
    where origin is train|test for benign records and "-" for malicious.
    """
    lines = []
    for family, ids in pool.by_family.items():
        for sample_id in ids:
            lines.append(f"{sample_id}\tmalicious\t{family}\t-")
    for sample_id, origin in pool.benign:
        lines.append(f"{sample_id}\tbenign\t-\t{origin}")
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
    for family in spec.train_families:
        _check_family(pool, family, train_per_family)
    for family in spec.test_families:
        _check_family(pool, family, test_per_family)
    need_benign_train = len(spec.train_families) * train_per_family
    need_benign_test = len(spec.test_families) * test_per_family
    benign_train_ids = pool.benign_ids("train")
    benign_test_ids = pool.benign_ids("test")
    if len(benign_train_ids) < need_benign_train:
        raise PoolError(
            f"benign train pool has {len(benign_train_ids)} samples,"
            f" needs {need_benign_train}"
        )
    if len(benign_test_ids) < need_benign_test:
        raise PoolError(
            f"benign test pool has {len(benign_test_ids)} samples, needs {need_benign_test}"
        )

    rng = random.Random(seed)

    def pick(ids: Sequence[str], n: int) -> list[str]:
        shuffled = list(ids)
        rng.shuffle(shuffled)
        return shuffled[:n]

    train: list[SampleRecord] = []
    for family in spec.train_families:
        train.extend(
            SampleRecord(sample_id, "malicious", family)
            for sample_id in pick(pool.by_family[family], train_per_family)
        )
    train.extend(
        SampleRecord(sample_id, "benign", None)
        for sample_id in pick(benign_train_ids, need_benign_train)
    )
    test: list[SampleRecord] = []
    for family in spec.test_families:
        test.extend(
            SampleRecord(sample_id, "malicious", family)
            for sample_id in pick(pool.by_family[family], test_per_family)
        )
    test.extend(
        SampleRecord(sample_id, "benign", None)
        for sample_id in pick(benign_test_ids, need_benign_test)
    )

    per_family = {family: train_per_family for family in spec.train_families}
    per_family.update({family: test_per_family for family in spec.test_families})
    counts = {
        "train_total": len(train),
        "test_total": len(test),
        "train_benign": need_benign_train,
        "test_benign": need_benign_test,
        "per_family": per_family,
    }
    if split_id is None:
        split_id = f"tau-{spec.tau:g}-seed-{spec.seed}"
    return MaterializedSplit(split_id=split_id, train=tuple(train), test=tuple(test), counts=counts)


def _records_to_lines(records: tuple[SampleRecord, ...]) -> str:
    return (
        "\n".join(
            f"{r.sample_id}\t{r.label}\t{r.family if r.family is not None else '-'}"
            for r in records
        )
        + "\n"
    )


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
    (directory / "train.tsv").write_text(_records_to_lines(ms.train), encoding="utf-8")
    (directory / "test.tsv").write_text(_records_to_lines(ms.test), encoding="utf-8")
    if meta is None:
        meta = {"split_id": ms.split_id, "counts": ms.counts}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _read_records(path: Path) -> list[SampleRecord]:
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise PoolError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        sample_id, label, family = parts
        if label not in _LABELS:
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        records.append(SampleRecord(sample_id, label, None if family == "-" else family))
    return records


def read_split(directory: str | Path) -> MaterializedSplit:
    """Load a split directory written by write_split."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    return MaterializedSplit(
        split_id=meta["split_id"],
        train=tuple(_read_records(directory / "train.tsv")),
        test=tuple(_read_records(directory / "test.tsv")),
        counts=meta["counts"],
    )
