"""Materialize abstract family splits into concrete balanced sample lists.

Pools map each malware family to its sample ids and each benign origin
partition (train or test) to its benign ids, so a split never draws its test
benign from the train benign population.
Malicious counts are matched 1:1 by benign samples on each side.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import TypeVar

import numpy as np

from famsplit.errors import PoolError
from famsplit.lines import text_runs
from famsplit.search import SplitSpec, _stream_words

TRAIN_PER_FAMILY = 8000
TEST_PER_FAMILY = 2000
# The version of materialize_split's draw, recorded in meta.json. A meta.json
# without it was drawn by version 1, which took prefixes of random.shuffle.
SAMPLER_VERSION = 2

_LABELS = ("benign", "malicious")
_ORIGINS = ("train", "test")
# The files of a split directory, by role: what write_split writes and read_split reads.
SPLIT_FILES = MappingProxyType({"train": "train.tsv", "test": "test.tsv", "meta": "meta.json"})


def _check_family_name(family: str) -> None:
    if not family or family == "-":
        raise PoolError(f"invalid family name {family!r}")


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
            _check_family_name(family)
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


@dataclass(frozen=True)
class SplitSide:
    """One side of a split as family runs: (family, sample ids) pairs in record order.

    A family of None marks benign samples, so labels derive from families. Empty
    runs are dropped and adjacent runs of one family merged, so equal sides
    compare equal however they were cut.
    """

    runs: Iterable[tuple[str | None, Sequence[str]]]

    def __post_init__(self) -> None:
        runs = []
        for family, group in groupby((run for run in self.runs if run[1]), key=itemgetter(0)):
            if family is not None:
                _check_family_name(family)
            _, ids = next(group)
            second = next(group, None)
            if second is not None:  # read lazily, so each run can go once it is copied
                ids = chain(ids, second[1], chain.from_iterable(run[1] for run in group))
            runs.append((family, tuple(ids)))
        object.__setattr__(self, "runs", tuple(runs))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(ids for _, ids in self.runs))

    def __len__(self) -> int:
        return sum(len(ids) for _, ids in self.runs)

    def counts(self) -> dict[str | None, int]:
        """Records per family (None for benign), in order of first appearance."""
        counts: dict[str | None, int] = {}
        for family, ids in self.runs:
            counts[family] = counts.get(family, 0) + len(ids)
        return counts


@dataclass(frozen=True)
class MaterializedSplit:
    """Concrete train and test sides, as family runs, for one split."""

    split_id: str
    train: SplitSide
    test: SplitSide

    def __post_init__(self) -> None:
        self._check(prove_ids=True)

    @classmethod
    def _drawn(cls, split_id: str, train: SplitSide, test: SplitSide) -> MaterializedSplit:
        """The split of sides that materialize_split drew from a SamplePool for
        a SplitSpec, checked without its id set.

        Its draw proves what that set would: the pool holds no id twice,
        `_pick` draws distinct positions, the spec repeats no family and
        shares none between sides, and the two benign sides come from
        different origin partitions. So no id is on both sides or twice on one.
        """
        ms = object.__new__(cls)
        for name, value in (("split_id", split_id), ("train", train), ("test", test)):
            object.__setattr__(ms, name, value)
        ms._check(prove_ids=False)
        return ms

    def _check(self, prove_ids: bool) -> None:
        if type(self.split_id) is not str:
            raise PoolError(f"split_id must be a string, got {self.split_id!r}")
        sides = (("train", self.train), ("test", self.test))
        for name, side in sides:
            if not side.runs:
                raise PoolError(f"{name} side has no records")
        # One set over both sides holds an id per record exactly when no id is
        # on both sides or twice on one. Only when it falls short are the
        # per-side sets built, to name the first fault.
        side_ids = None
        if prove_ids:
            seen: set[str] = set()
            for _, ids in chain(self.train.runs, self.test.runs):
                seen.update(ids)
            if len(seen) < len(self.train) + len(self.test):
                side_ids = (set(self.train.ids), set(self.test.ids))
                shared = side_ids[0] & side_ids[1]
                if shared:
                    first = next(sample_id for sample_id in self.train.ids if sample_id in shared)
                    raise PoolError(
                        f"sample id {first!r} appears in both train and test ({len(shared)} shared)"
                    )
        counts = [side.counts() for _, side in sides]
        for at, ((name, side), held) in enumerate(zip(sides, counts)):
            if side_ids and len(side_ids[at]) != len(side):
                repeated = next(sample_id for sample_id, n in Counter(side.ids).items() if n > 1)
                raise PoolError(f"sample id {repeated!r} appears twice on the {name} side")
            malicious = len(side) - held.get(None, 0)
            if 2 * malicious != len(side):
                raise PoolError(
                    f"{name} side is not benign-balanced: {malicious} malicious"
                    f" of {len(side)} records"
                )
        overlap = (counts[0].keys() & counts[1].keys()) - {None}
        if overlap:
            raise PoolError(f"train/test families overlap: {sorted(overlap)}")


def _side_key(path: Path, lineno: int, parts: list[str]) -> str | None:
    # The family (None if benign) of split TSV or pool line `lineno`, checked from `parts[:3]`.
    sample_id, label, family = parts[:3]
    if not sample_id:
        raise PoolError(f"{path}: line {lineno}: empty sample id")
    if label not in _LABELS:
        raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
    if label == "malicious":
        if family == "-" or not family:
            raise PoolError(f"{path}: line {lineno}: malicious record without family")
    elif family != "-":
        raise PoolError(f"{path}: line {lineno}: benign record with family {family!r}")
    return family if label == "malicious" else None


def _pool_key(path: Path, lineno: int, parts: list[str]) -> tuple[str | None, str]:
    # The (family, origin) of pool line `lineno`, split into its four `parts`.
    family, origin = _side_key(path, lineno, parts), parts[3]
    if family is not None and origin != "-":
        raise PoolError(f"{path}: line {lineno}: malicious records carry no origin tag")
    if family is None and origin not in _ORIGINS:
        raise PoolError(f"{path}: line {lineno}: benign origin must be train|test")
    return family, origin


_Key = TypeVar("_Key")


def _read_runs(
    path: Path, fields: int, rule: Callable[[Path, int, list[str]], _Key],
) -> Iterator[tuple[_Key, list[str]]]:
    """Yield (key, ids) for each run of records, in file order.

    A record line is `fields` tab-separated fields, an id and then a suffix,
    ended by "\n" alone: any other line break, such as U+2028, is field text.
    `rule(path, lineno, parts)` checks one line's fields and returns its key.
    The file is read through `lines.text_runs`, a window of whole lines at a
    time. Each window is cut in chunks, each after its last line that ends
    in its first line's suffix. A chunk whose lines all end in that suffix,
    as inside a save_pool block or a write_split family run, is one run,
    taken with one split on that suffix. Any other chunk is read line by
    line, one run per non-empty line, which reports the first fault by line
    number.
    """

    def key(lineno: int, line: str) -> tuple[list[str], _Key]:
        parts = line.split("\t")
        if len(parts) != fields:
            raise PoolError(f"{path}: line {lineno}: expected {fields} fields, got {len(parts)}")
        return parts, rule(path, lineno, parts)

    lineno, cut_short = 1, False
    with text_runs(path, PoolError) as windows:
        for text in windows:
            start = 0
            while start < len(text):
                end = len(text)
                first = text[start : text.index("\n", start)]
                if first:
                    parts, run_key = key(lineno, first)
                    suffix = first[len(parts[0]) :] + "\n"
                    # Cut after the chunk's last line that ends in the first
                    # line's suffix, so the next chunk starts at the next run.
                    # Two chunks in a row cut below half their window are
                    # interleaved runs, whose cuts would each rescan a window:
                    # read that window line by line.
                    cut = text.rfind(suffix, start) + len(suffix)
                    was_short, cut_short = cut_short, 2 * (cut - start) < end - start
                    if not (was_short and cut_short):
                        end = cut
                chunk = text[start:end]
                start = end
                if first:
                    newlines = chunk.count("\n")
                    pieces = chunk.split(suffix)
                    # Each suffix match holds one newline, so one piece per
                    # newline leaves every line `piece + suffix` and the last
                    # piece empty; fields - 1 tabs a line leave none in a
                    # piece, and no other piece may be empty.
                    if (
                        len(pieces) == newlines + 1
                        and chunk.count("\t") == (fields - 1) * newlines
                        and pieces.count("") == 1
                    ):
                        yield run_key, pieces[:-1]
                        lineno += newlines
                        continue
                lines = chunk[:-1].split("\n")
                for at, line in enumerate(lines, start=lineno):
                    if line:
                        parts, line_key = key(at, line)
                        yield line_key, parts[:1]
                lineno += len(lines)


def load_pool(path: str | Path) -> SamplePool:
    """Parse a pool file (see save_pool for the format), a run of records at a time."""
    by_family: dict[str, list[str]] = {}
    benign: dict[str, list[str]] = {origin: [] for origin in _ORIGINS}
    for (family, origin), ids in _read_runs(Path(path), 4, _pool_key):
        (by_family.setdefault(family, []) if origin == "-" else benign[origin]).extend(ids)
    # Each list becomes a tuple and is dropped in turn, so SamplePool's tuple()
    # is free and no second full copy of the pool is ever held.
    for ids_by_key in (by_family, benign):
        for key in ids_by_key:
            ids_by_key[key] = tuple(ids_by_key[key])
    return SamplePool(by_family=by_family, benign=benign)


def _run_text(ids: Sequence[str], fields: tuple[str, ...]) -> str:
    """One `id<TAB>fields...` line per id (at least one), each ending in "\n".

    An empty id, or a tab, "\n" or "\r" in an id or family, is a PoolError naming it.
    """
    suffix = "".join(f"\t{field}" for field in fields) + "\n"
    text = suffix.join(ids)
    text += suffix  # CPython grows the joined text in place; `+` would copy it
    if (not all(ids) or "\r" in text or text.count("\n") != len(ids)
            or text.count("\t") != len(fields) * len(ids)):
        bad = next(s for s in chain(fields, ids) if not s or "\t" in s or "\n" in s or "\r" in s)
        what = "family" if bad in fields else "sample id"
        raise PoolError(f"cannot write {what} {bad!r}: it is empty or holds a tab, \\n or \\r")
    return text


def _file_text(text: str) -> str:
    """A record file's `text`, unless line 1 would read back as a byte order mark."""
    if text.startswith("\ufeff"):
        first = text.partition("\t")[0]
        raise PoolError(f"cannot write sample id {first!r} first: it starts with U+FEFF")
    return text


def save_pool(pool: SamplePool, path: str | Path) -> None:
    """Write the canonical pool layout: family blocks, then train and test benign.

    One record per line: sample_id<TAB>label<TAB>family_or_dash<TAB>origin,
    where origin is train|test for benign records and "-" for malicious.
    """
    blocks = [(ids, ("malicious", family, "-")) for family, ids in pool.by_family.items() if ids]
    blocks += [(ids, ("benign", "-", origin)) for origin, ids in pool.benign.items() if ids]
    text = _file_text("".join(_run_text(*block) for block in blocks))
    Path(path).write_text(text, encoding="utf-8")


def _pick(rng: random.Random, ids: Sequence[str], n: int) -> list[str]:
    """The ids with the n smallest of one 64-bit key per id, in key order.

    The key of ids[i] is rng's i-th next 64-bit value: stream words 2i (low)
    and 2i + 1 (high) of one `_stream_words` draw. Equal keys keep pool order.
    The draw rests only on the Mersenne Twister stream words, not on
    `shuffle`'s or numpy's sampling algorithms, which may change between
    versions.
    """
    count = len(ids)
    at = _smallest(rng, count, n)
    # An object array gathers the ids without a Python int per drawn id.
    return np.fromiter(ids, dtype=object, count=count)[at].tolist()


def _smallest(rng: random.Random, count: int, n: int) -> np.ndarray:
    """The positions of the n smallest of `count` keys drawn as `_pick` draws
    them, in key order; equal keys keep position order.

    Its arrays are freed on return, before `_pick` gathers the ids.
    """
    keys = _stream_words(rng, 2 * count).view("<u8")
    # Only keys at or below the n-th smallest can be picked; flatnonzero lists
    # them in pool order. Distinct keys have one sorted order, so the fast
    # default sort serves unless two are equal, when a stable one keeps pool order.
    if 0 < n < count:
        at = np.flatnonzero(keys <= np.partition(keys, n - 1)[n - 1])
    else:
        at = np.arange(count)
    below = keys[at]
    del keys  # the whole draw, 8 bytes per id, is not needed again
    order = np.argsort(below)
    ranked = below[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(below, kind="stable")
    return at[order[:n]]


def check_pool_needs(pool: SamplePool, spec: SplitSpec, train_per_family: int,
                     test_per_family: int) -> None:
    """Raise PoolError unless `pool` holds every id materialize_split draws for `spec`."""
    if train_per_family < 1 or test_per_family < 1:
        raise PoolError("per-family counts must be >= 1")
    sides = (("train", spec.train_families, train_per_family),
             ("test", spec.test_families, test_per_family))
    for _, side_families, needed in sides:
        for family in side_families:
            if family not in pool.by_family:
                raise PoolError(f"family {family!r} missing from pool")
            have = len(pool.by_family[family])
            if have < needed:
                raise PoolError(f"family {family!r} has {have} samples, needs {needed}"
                                f" (short by {needed - have})")
    for origin, side_families, per_family in sides:
        need, have = len(side_families) * per_family, len(pool.benign[origin])
        if have < need:
            raise PoolError(f"benign {origin} pool has {have} samples, needs {need}")


def materialize_split(
    pool: SamplePool,
    spec: SplitSpec,
    train_per_family: int = TRAIN_PER_FAMILY,
    test_per_family: int = TEST_PER_FAMILY,
    seed: int = 0,
    *,
    split_id: str,
) -> MaterializedSplit:
    """Draw concrete samples for a split, deterministically for a seed.

    Every draw is a `_pick` from one `random.Random(seed)`: n ids of a
    family's pool list, and benign ids from the matching origin partition,
    1:1 against the malicious counts. Draw order is fixed: train families
    (in spec order), train benign, test families, test benign.
    A split drawn from a SamplePool for a SplitSpec is checked without the id
    set that its draw proves (`MaterializedSplit._drawn`); any other pool or
    spec object's split goes through the public constructor.
    """
    check_pool_needs(pool, spec, train_per_family, test_per_family)
    rng = random.Random(seed)

    def side(origin: str, side_families: tuple[str, ...], per_family: int) -> SplitSide:
        runs = [(family, _pick(rng, pool.by_family[family], per_family)) for family in side_families]
        need = len(side_families) * per_family  # benign matches the malicious ids 1:1
        runs.append((None, _pick(rng, pool.benign[origin], need)))
        return SplitSide(runs)

    train = side("train", spec.train_families, train_per_family)
    test = side("test", spec.test_families, test_per_family)
    if type(pool) is SamplePool and type(spec) is SplitSpec:
        return MaterializedSplit._drawn(split_id, train, test)
    return MaterializedSplit(split_id=split_id, train=train, test=test)


def _side_text(side: SplitSide) -> str:
    # One _run_text per family run; benign runs carry family "-".
    return _file_text("".join(
        _run_text(ids, ("benign", "-") if family is None else ("malicious", family))
        for family, ids in side.runs
    ))


def _side_facts(ms: MaterializedSplit) -> dict:
    """The meta.json keys that the sides of `ms` determine, as the sides give them.

    `<side>_per_family` is the one record count of the side's families, or
    the count of each when they differ.
    """
    held = {"train": ms.train.counts(), "test": ms.test.counts()}
    benign = {name: counts.pop(None, 0) for name, counts in held.items()}
    facts: dict = {f"{name}_families": list(counts) for name, counts in held.items()}
    for name, counts in held.items():
        sizes = set(counts.values())
        facts[f"{name}_per_family"] = sizes.pop() if len(sizes) == 1 else counts
    facts["counts"] = {"train_total": len(ms.train), "test_total": len(ms.test),
                       "train_benign": benign["train"], "test_benign": benign["test"],
                       "per_family": {**held["train"], **held["test"]}}
    return facts


def split_meta(ms: MaterializedSplit, spec: SplitSpec, seed: int,
               train_per_family: int, test_per_family: int) -> dict:
    """The meta.json document of `ms`, materialized from `spec` with these arguments.

    Its families and counts are the ones the sides hold. A per-family count
    that differs, as JSON text, from the sides' is a PoolError, as read_split
    would refuse it.
    """
    facts = _side_facts(ms)
    for name, given in (("train", train_per_family), ("test", test_per_family)):
        said, held = json.dumps(given), json.dumps(facts[f"{name}_per_family"], sort_keys=True)
        if said != held:
            raise PoolError(f"{name}_per_family is {said}, but the split holds {held}")
    return {
        "split_id": ms.split_id,
        "train_families": facts["train_families"],
        "test_families": facts["test_families"],
        "tau": spec.tau,
        "epsilon_final": spec.epsilon_final,
        "search_seed": spec.seed,
        "materialize_seed": seed,
        "sampler": SAMPLER_VERSION,
        "train_per_family": train_per_family,
        "test_per_family": test_per_family,
        "counts": facts["counts"],
    }


def write_split(ms: MaterializedSplit, directory: str | Path, meta: dict) -> None:
    """Write the SPLIT_FILES under `directory`: both sides' TSVs, and `meta` as meta.json."""
    # Every text is built first, so a side that cannot be written leaves no file.
    texts = {"train": _side_text(ms.train), "test": _side_text(ms.test),
             "meta": json.dumps(meta, indent=2) + "\n"}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for role, text in texts.items():
        (directory / SPLIT_FILES[role]).write_text(text, encoding="utf-8")


def _json_at(doc: object, key: str) -> str:
    """The JSON text, keys sorted, at dotted `key` of `doc`; "missing" if there is none."""
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return "missing"
        doc = doc[part]
    return json.dumps(doc, sort_keys=True)


def read_split(directory: str | Path) -> MaterializedSplit:
    """Load a split directory written by write_split, each side as the runs _read_runs yields.

    meta.json must hold an object, and each key of it that the sides
    determine (`_side_facts`; `counts.<key>` for the counts block), in
    document order, must be as JSON text what the sides give.
    """
    directory = Path(directory)
    meta_path = directory / SPLIT_FILES["meta"]
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise PoolError(f"{meta_path}: expected a JSON object")
    ms = MaterializedSplit(
        split_id=meta.get("split_id"),
        train=SplitSide(_read_runs(directory / SPLIT_FILES["train"], 3, _side_key)),
        test=SplitSide(_read_runs(directory / SPLIT_FILES["test"], 3, _side_key)),
    )
    facts = _side_facts(ms)
    facts.update({f"counts.{key}": value for key, value in facts.pop("counts").items()})
    for key, value in facts.items():
        said, held = _json_at(meta, key), json.dumps(value, sort_keys=True)
        if said != held:
            raise PoolError(f"{meta_path}: {key} is {said}, but the split holds {held}")
    return ms
