from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsplit import manifest
from famsplit.errors import PoolError
from famsplit.manifest import (
    MaterializedSplit,
    SamplePool,
    SplitSide,
    load_pool,
    materialize_split,
    read_split,
    save_pool,
    write_split,
)
from famsplit.search import SplitSpec


def build_pool(
    families: dict[str, int],
    benign_train: int = 64,
    benign_test: int = 32,
) -> SamplePool:
    by_family = {
        name: [f"{name}-{i:06x}" for i in range(count)] for name, count in families.items()
    }
    benign = {
        "train": [f"ben-tr-{i:06x}" for i in range(benign_train)],
        "test": [f"ben-te-{i:06x}" for i in range(benign_test)],
    }
    return SamplePool(by_family=by_family, benign=benign)


def toy_spec() -> SplitSpec:
    return SplitSpec(("alpha", "beta"), ("gamma", "delta"), 0.5, 0.05, 11, 0, 4)


def written_split(directory: Path) -> Path:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    write_split(materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy"), directory)
    return directory


def test_minimal_pool_loads(tmp_path) -> None:
    path = tmp_path / "pool.tsv"
    path.write_text(
        "aa01\tmalicious\talpha\t-\n"
        "aa02\tmalicious\talpha\t-\n"
        "bb01\tmalicious\tbeta\t-\n"
        "bb02\tmalicious\tbeta\t-\n"
    )
    pool = load_pool(path)
    assert set(pool.by_family) == {"alpha", "beta"}
    assert pool.by_family["alpha"] == ("aa01", "aa02")
    assert pool.benign == {"train": (), "test": ()}


def test_pool_at_paper_family_size(tmp_path) -> None:
    pool = build_pool({"alpha": 10_000}, benign_train=0, benign_test=0)
    assert len(pool.by_family["alpha"]) == 10_000
    path = tmp_path / "pool.tsv"
    save_pool(pool, path)
    assert len(load_pool(path).by_family["alpha"]) == 10_000


def test_benign_partitions_keep_pool_order(tmp_path) -> None:
    rng = random.Random(4)
    benign = [(f"ben-{i:03d}", rng.choice(("train", "test"))) for i in range(200)]
    path = tmp_path / "pool.tsv"
    path.write_text("".join(f"{i}\tbenign\t-\t{tag}\n" for i, tag in benign))
    pool = load_pool(path)
    for origin in ("train", "test"):
        assert list(pool.benign_ids(origin)) == [i for i, tag in benign if tag == origin]


def pool_lines_with_interleaved_benign(seed: int) -> tuple[list[str], list[str]]:
    """Family lines, then benign lines whose train and test origins interleave."""
    families = [
        f"{name}-{i:02d}\tmalicious\t{name}\t-"
        for name in ("alpha", "beta", "gamma", "delta")
        for i in range(10)
    ]
    rng = random.Random(seed)
    benign = [f"ben-{i:03d}\tbenign\t-\t{rng.choice(('train', 'test'))}" for i in range(90)]
    return families, benign


@pytest.mark.parametrize("layout_seed", [1, 2, 3])
def test_interleaved_benign_lines_materialize_like_grouped_blocks(tmp_path, layout_seed) -> None:
    families, benign = pool_lines_with_interleaved_benign(layout_seed)
    grouped = [line for origin in ("train", "test") for line in benign if line.endswith(origin)]
    interleaved_path = tmp_path / "interleaved.tsv"
    interleaved_path.write_text("\n".join(families + benign) + "\n")
    grouped_path = tmp_path / "grouped.tsv"
    grouped_path.write_text("\n".join(families + grouped) + "\n")
    interleaved = load_pool(interleaved_path)
    grouped_pool = load_pool(grouped_path)
    for seed in range(8):
        args = (toy_spec(), 8, 2, seed, "layout")
        outcome = split_outcome(materialize_split, interleaved, *args)
        assert len(outcome) == 4
        assert outcome == split_outcome(materialize_split, grouped_pool, *args)


def test_pool_save_load_round_trip_keeps_benign_partitions(tmp_path) -> None:
    families, benign = pool_lines_with_interleaved_benign(5)
    first = tmp_path / "a.tsv"
    first.write_text("\n".join(families + benign) + "\n")
    second = tmp_path / "b.tsv"
    save_pool(load_pool(first), second)
    loaded = load_pool(second)
    for origin in ("train", "test"):
        expected = [line.split("\t")[0] for line in benign if line.endswith(origin)]
        assert list(loaded.benign_ids(origin)) == expected
    assert loaded.by_family == load_pool(first).by_family


def test_pool_save_load_round_trip(tmp_path) -> None:
    pool = build_pool({"alpha": 3, "beta": 2}, benign_train=4, benign_test=2)
    first = tmp_path / "a.tsv"
    save_pool(pool, first)
    loaded = load_pool(first)
    second = tmp_path / "b.tsv"
    save_pool(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.by_family == pool.by_family
    assert loaded.benign == pool.benign


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("aa01\tmalicious\talpha", "line 3: expected 4 fields"),
        ("aa01\tweird\talpha\t-", "unknown label"),
        ("aa01\tmalicious\t-\t-", "without family"),
        ("aa01\tmalicious\talpha\ttrain", "no origin tag"),
        ("aa01\tbenign\talpha\ttrain", "benign record with family"),
        ("aa01\tbenign\t-\tsomeday", "origin must be train|test"),
    ],
)
def test_pool_rejects_malformed_lines(tmp_path, line: str, fragment: str) -> None:
    path = tmp_path / "pool.tsv"
    path.write_text("ok1\tmalicious\talpha\t-\nok2\tbenign\t-\ttrain\n" + line + "\n")
    with pytest.raises(PoolError) as err:
        load_pool(path)
    assert fragment in str(err.value)


def test_pool_rejects_duplicate_ids(tmp_path) -> None:
    path = tmp_path / "pool.tsv"
    path.write_text("aa01\tmalicious\talpha\t-\naa01\tmalicious\talpha\t-\n")
    with pytest.raises(PoolError, match="duplicate"):
        load_pool(path)


@pytest.mark.parametrize(
    ("by_family", "benign", "message"),
    [
        ({"a": ["x", "y"], "b": ["x", "z"]}, {"train": ["w"]}, "in family 'a' and in family 'b'"),
        ({"a": ["y", "x"]}, {"train": ["w"], "test": ["x"]}, "in family 'a' and in the benign list"),
        ({"a": ["y"]}, {"train": ["x"], "test": ["x"]}, "in the benign list and in the benign list"),
        ({"a": ["x", "y", "x"]}, {"train": ["w"]}, "in family 'a' and in family 'a'"),
    ],
)
def test_pool_rejects_an_id_listed_twice(by_family, benign, message) -> None:
    with pytest.raises(PoolError, match=f"duplicate sample id 'x' {message}"):
        SamplePool(by_family=by_family, benign=benign)


def test_load_pool_rejects_an_id_under_a_family_and_benign(tmp_path) -> None:
    path = tmp_path / "pool.tsv"
    path.write_text("aa01\tmalicious\talpha\t-\nbb01\tmalicious\tbeta\t-\naa01\tbenign\t-\ttest\n")
    with pytest.raises(PoolError, match="'aa01' in family 'alpha' and in the benign list"):
        load_pool(path)


def test_pool_accepts_distinct_ids_whose_hashes_collide(monkeypatch) -> None:
    # Equal hashes only flag a possible repeat; distinct ids must still load.
    monkeypatch.setattr(manifest, "hash", lambda sample_id: 0, raising=False)
    pool = build_pool({"alpha": 3, "beta": 3})
    assert sum(len(ids) for ids in pool.by_family.values()) == 6


def test_materialize_toy_counts() -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), train_per_family=8, test_per_family=2, seed=1)
    assert ms.counts["train_total"] == 32
    assert ms.counts["test_total"] == 8
    assert len(ms.train) == 32
    assert len(ms.test) == 8
    train_malicious = [family for family in ms.train.families if family is not None]
    assert len(train_malicious) == 16
    assert set(train_malicious) == {"alpha", "beta"}
    test_malicious = [family for family in ms.test.families if family is not None]
    assert set(test_malicious) == {"gamma", "delta"}


def test_materialize_is_deterministic_and_seed_sensitive() -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    a = materialize_split(pool, spec, 8, 2, seed=5)
    b = materialize_split(pool, spec, 8, 2, seed=5)
    assert a == b
    c = materialize_split(pool, spec, 8, 2, seed=6)
    assert c.counts == a.counts
    assert c.train.ids[16:] != a.train.ids[16:]  # the benign tail


def test_materialize_has_no_leakage() -> None:
    pool = build_pool({n: 12 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    ms = materialize_split(pool, spec, 8, 2, seed=9)
    assert not set(ms.train.ids) & set(ms.test.ids)
    # No malicious record may sit on the wrong side of the family split.
    assert set(ms.train.families) == {*spec.train_families, None}
    assert set(ms.test.families) == {*spec.test_families, None}


def test_materialize_errors_name_the_shortfall() -> None:
    pool = build_pool({"alpha": 10, "beta": 3, "gamma": 10, "delta": 10})
    with pytest.raises(PoolError) as err:
        materialize_split(pool, toy_spec(), 8, 2, seed=0)
    assert "beta" in str(err.value)
    assert "short by 5" in str(err.value)

    missing = build_pool({"alpha": 10, "gamma": 10, "delta": 10})
    with pytest.raises(PoolError, match="missing from pool"):
        materialize_split(missing, toy_spec(), 8, 2, seed=0)

    thin_benign = build_pool(
        {n: 10 for n in ("alpha", "beta", "gamma", "delta")}, benign_train=3
    )
    with pytest.raises(PoolError, match="benign train pool"):
        materialize_split(thin_benign, toy_spec(), 8, 2, seed=0)


def test_materialized_split_invariants_are_enforced() -> None:
    side = SplitSide(("x", "y"), ("alpha", None))
    with pytest.raises(PoolError, match="both train and test"):
        MaterializedSplit("dup", side, side, {})
    with pytest.raises(PoolError, match="not benign-balanced"):
        MaterializedSplit("skew", SplitSide(("x",), ("alpha",)), SplitSide(("y",), (None,)), {})
    with pytest.raises(PoolError, match="2 sample ids but 1 families"):
        SplitSide(("x", "y"), ("alpha",))


def test_write_split_produces_three_deterministic_files(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy-split")
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_split(ms, first)
    write_split(ms, second)
    names = sorted(p.name for p in first.iterdir())
    assert names == ["meta.json", "test.tsv", "train.tsv"]
    assert (first / "train.tsv").read_text().count("\n") == 32
    assert (first / "test.tsv").read_text().count("\n") == 8
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_split_round_trip_through_directory(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy-split")
    write_split(ms, tmp_path / "split")
    loaded = read_split(tmp_path / "split")
    assert loaded.split_id == ms.split_id
    assert loaded.train == ms.train
    assert loaded.test == ms.test


def test_id_listed_under_two_train_families_is_rejected() -> None:
    train = SplitSide(
        ("alpha-000000", "alpha-000000", "ben-tr-000000", "ben-tr-000001"),
        ("alpha", "beta", None, None),
    )
    test = SplitSide(("gamma-000000", "ben-te-000000"), ("gamma", None))
    with pytest.raises(PoolError, match="'alpha-000000' appears twice on the train side"):
        MaterializedSplit("toy-split", train, test, {})


def test_pool_contents_are_read_only() -> None:
    pool = build_pool({"alpha": 2, "beta": 2})
    with pytest.raises(TypeError):
        pool.by_family["beta"] = pool.by_family["alpha"]
    with pytest.raises(TypeError):
        pool.by_family["beta"][0] = pool.by_family["alpha"][0]
    with pytest.raises(TypeError):
        pool.benign["train"] = pool.benign["test"]


@pytest.mark.parametrize("origin", ["validation", "Train", "-", ""])
def test_pool_rejects_a_benign_origin_other_than_train_or_test(origin) -> None:
    with pytest.raises(PoolError, match=f"benign origin must be train\\|test, got '{origin}'"):
        SamplePool(by_family={"a": ["x"]}, benign={"train": ["w"], origin: ["y"]})


def test_pool_benign_is_a_read_only_copy_holding_both_origins() -> None:
    train_ids = ["w", "v"]
    benign = {"train": train_ids}
    pool = SamplePool(by_family={"a": ["x"]}, benign=benign)
    train_ids.append("u")
    benign["test"] = ["y"]
    assert pool.benign == {"train": ("w", "v"), "test": ()}
    assert pool.benign_ids("test") == ()
    with pytest.raises(TypeError):
        pool.benign["test"] = ("y",)
    with pytest.raises(TypeError):
        pool.benign["train"][0] = "y"
    with pytest.raises(TypeError):
        del pool.benign["train"]


def test_read_split_rejects_a_repeated_id(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 2, 2, seed=2, split_id="toy-split")
    write_split(ms, tmp_path / "split")
    test_path = tmp_path / "split" / "test.tsv"
    lines = test_path.read_text().splitlines(keepends=True)
    # One malicious and one benign line repeated, so the side stays balanced.
    test_path.write_text("".join(lines) + lines[0] + lines[-1])
    with pytest.raises(PoolError, match="appears twice on the test side"):
        read_split(tmp_path / "split")


# Reference materialize and read path: the record-per-sample implementation,
# kept unchanged so the split sides can be required to hold exactly the ids
# and families it produced, and to fail with its error types and messages.
@dataclass(frozen=True)
class ReferenceSampleRecord:
    sample_id: str
    label: str  # "benign" | "malicious"
    family: str | None


@dataclass(frozen=True)
class ReferenceMaterializedSplit:
    split_id: str
    train: tuple[ReferenceSampleRecord, ...]
    test: tuple[ReferenceSampleRecord, ...]
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


def _reference_check_family(pool: SamplePool, family: str, needed: int) -> None:
    ids = pool.by_family.get(family)
    if ids is None:
        raise PoolError(f"family {family!r} missing from pool")
    if len(ids) < needed:
        raise PoolError(
            f"family {family!r} has {len(ids)} samples, needs {needed}"
            f" (short by {needed - len(ids)})"
        )


def reference_materialize_split(
    pool: SamplePool,
    spec: SplitSpec,
    train_per_family: int = manifest.TRAIN_PER_FAMILY,
    test_per_family: int = manifest.TEST_PER_FAMILY,
    seed: int = 0,
    split_id: str | None = None,
) -> ReferenceMaterializedSplit:
    if train_per_family < 1 or test_per_family < 1:
        raise PoolError("per-family counts must be >= 1")
    for family in spec.train_families:
        _reference_check_family(pool, family, train_per_family)
    for family in spec.test_families:
        _reference_check_family(pool, family, test_per_family)
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

    train: list[ReferenceSampleRecord] = []
    for family in spec.train_families:
        train.extend(
            ReferenceSampleRecord(sample_id, "malicious", family)
            for sample_id in pick(pool.by_family[family], train_per_family)
        )
    train.extend(
        ReferenceSampleRecord(sample_id, "benign", None)
        for sample_id in pick(benign_train_ids, need_benign_train)
    )
    test: list[ReferenceSampleRecord] = []
    for family in spec.test_families:
        test.extend(
            ReferenceSampleRecord(sample_id, "malicious", family)
            for sample_id in pick(pool.by_family[family], test_per_family)
        )
    test.extend(
        ReferenceSampleRecord(sample_id, "benign", None)
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
    return ReferenceMaterializedSplit(
        split_id=split_id, train=tuple(train), test=tuple(test), counts=counts
    )


def _reference_read_records(path: Path) -> list[ReferenceSampleRecord]:
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise PoolError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        sample_id, label, family = parts
        if label not in ("benign", "malicious"):
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        records.append(ReferenceSampleRecord(sample_id, label, None if family == "-" else family))
    return records


def reference_read_split(directory: str | Path) -> ReferenceMaterializedSplit:
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    return ReferenceMaterializedSplit(
        split_id=meta["split_id"],
        train=tuple(_reference_read_records(directory / "train.tsv")),
        test=tuple(_reference_read_records(directory / "test.tsv")),
        counts=meta["counts"],
    )


def reference_columns(records) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    return tuple(r.sample_id for r in records), tuple(r.family for r in records)


def side_columns(side: SplitSide) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    return side.ids, side.families


def split_outcome(make, *args, **kwargs):
    """(split_id, train columns, test columns, counts), or the error's type and text."""
    try:
        ms = make(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the type is part of the outcome
        return type(err), str(err)
    columns = reference_columns if isinstance(ms, ReferenceMaterializedSplit) else side_columns
    return ms.split_id, columns(ms.train), columns(ms.test), ms.counts


@st.composite
def pools_and_specs(draw):
    """A small pool and a spec over its families (sometimes one it lacks)."""
    names = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    pool = build_pool(
        {name: draw(st.integers(0, 6), label=f"size of {name}") for name in names},
        benign_train=draw(st.integers(0, 30)),
        benign_test=draw(st.integers(0, 15)),
    )
    order = draw(st.permutations([*names, "absent"]))
    side = draw(st.integers(1, len(order) // 2))
    spec = SplitSpec(tuple(order[:side]), tuple(order[side : 2 * side]), 0.5, 0.05, 3, 0, 1)
    return pool, spec


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    pool_spec=pools_and_specs(),
    train_per_family=st.integers(0, 5),
    test_per_family=st.integers(0, 3),
    seed=st.integers(0, 2**64),
    split_id=st.none() | st.sampled_from(["s", "tau-x"]),
)
def test_materialize_matches_reference(
    pool_spec, train_per_family, test_per_family, seed, split_id
) -> None:
    pool, spec = pool_spec
    args = (pool, spec, train_per_family, test_per_family, seed, split_id)
    outcome = split_outcome(materialize_split, *args)
    assert outcome == split_outcome(reference_materialize_split, *args)
    if len(outcome) == 2:
        return
    _, train, test, counts = outcome
    # The paper's invariants on every split the pool can supply.
    assert set(train[0]).isdisjoint(test[0])
    for (ids, families), side_families, per_family in (
        (train, spec.train_families, train_per_family),
        (test, spec.test_families, test_per_family),
    ):
        assert len(set(ids)) == len(ids)
        assert 2 * families.count(None) == len(families)
        malicious = Counter(family for family in families if family is not None)
        assert malicious == {family: per_family for family in side_families}
    assert (counts["train_total"], counts["test_total"]) == (len(train[0]), len(test[0]))


LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD_LABELS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8
).filter(lambda label: label not in ("benign", "malicious"))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    name=st.sampled_from(["train.tsv", "test.tsv"]),
    edit=st.sampled_from(
        [None, "stray tab", "missing field", "empty line", "crlf", "line break", "unknown label"]
    ),
    final_newline=st.booleans(),
    data=st.data(),
)
def test_read_split_matches_reference_on_edited_files(
    tmp_path_factory, seed, name, edit, final_newline, data
) -> None:
    pool = build_pool({n: 6 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 3, 2, seed=seed, split_id="edited")
    directory = tmp_path_factory.mktemp("split")
    write_split(ms, directory)
    path = directory / name
    lines = path.read_text(encoding="utf-8").splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="edited line")
    line = lines[row]
    at = data.draw(st.integers(0, len(line)), label="position in line")
    if edit == "stray tab":
        lines[row] = line[:at] + "\t" + line[at:]
    elif edit == "missing field":
        fields = line.split("\t")
        del fields[data.draw(st.integers(0, 2), label="dropped field")]
        lines[row] = "\t".join(fields)
    elif edit == "empty line":
        lines.insert(row, "")
    elif edit == "line break":
        lines[row] = line[:at] + data.draw(st.sampled_from(LINE_BREAKS)) + line[at:]
    elif edit == "unknown label":
        sample_id, _, family = line.split("\t")
        lines[row] = "\t".join((sample_id, data.draw(ODD_LABELS), family))
    newline = "\r\n" if edit == "crlf" else "\n"
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_text(text, encoding="utf-8", newline="")
    outcome = split_outcome(read_split, directory)
    assert outcome == split_outcome(reference_read_split, directory)
    if edit in (None, "empty line", "crlf"):
        assert outcome == split_outcome(lambda: ms)


@pytest.mark.parametrize(
    "edit",
    [
        # A short line then a long one: the field count and the label column
        # both come out right, only the line structure shows the shift.
        lambda lines: "\n".join([lines[0].rsplit("\t", 1)[0], "x\t" + lines[1], *lines[2:]])
        + "\n",
        # A last line of one field and no newline.
        lambda lines: "\n".join([*lines, "x"]),
    ],
)
def test_read_split_matches_reference_where_only_line_structure_is_wrong(
    tmp_path, edit
) -> None:
    directory = written_split(tmp_path / "split")
    path = directory / "train.tsv"
    path.write_text(edit(path.read_text().splitlines()))
    outcome = split_outcome(read_split, directory)
    assert outcome == split_outcome(reference_read_split, directory)
    assert "expected 3 fields" in outcome[1]


@pytest.mark.parametrize(
    ("meta", "key"),
    [
        ({"split_id": "x"}, "'counts'"),
        ({"counts": {"train_total": 32, "test_total": 8}}, "'split_id'"),
        ({"split_id": "x", "counts": {"test_total": 8}}, "'counts.train_total'"),
    ],
)
def test_read_split_names_a_missing_meta_key(tmp_path, meta, key) -> None:
    directory = written_split(tmp_path / "split")
    (directory / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(PoolError, match=rf"meta\.json: missing key {key}"):
        read_split(directory)


@pytest.mark.parametrize("meta", [[], 5, {"split_id": "x", "counts": 5}])
def test_read_split_rejects_meta_that_is_not_an_object(tmp_path, meta) -> None:
    directory = written_split(tmp_path / "split")
    (directory / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(PoolError, match=r"meta\.json: meta and its 'counts' must be JSON objects"):
        read_split(directory)


@pytest.mark.parametrize("side", ["train", "test"])
def test_read_split_rejects_totals_that_disagree_with_the_rows(tmp_path, side) -> None:
    directory = written_split(tmp_path / "split")
    meta = json.loads((directory / "meta.json").read_text())
    meta["counts"][f"{side}_total"] += 2
    (directory / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(PoolError, match=rf"counts\.{side}_total is \d+, but {side}\.tsv holds"):
        read_split(directory)


@pytest.mark.parametrize("side", ["train", "test"])
def test_a_split_side_without_records_is_rejected(tmp_path, side) -> None:
    directory = written_split(tmp_path / "split")
    (directory / f"{side}.tsv").write_text("")
    with pytest.raises(PoolError, match=f"{side} side has no records"):
        read_split(directory)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("x\tmalicious\t-", "line 3: malicious record without family"),
        ("x\tmalicious\t", "line 3: malicious record without family"),
        ("x\tbenign\tgamma", "line 3: benign record with family 'gamma'"),
    ],
)
def test_read_split_rejects_a_label_that_disagrees_with_its_family(
    tmp_path, line, message
) -> None:
    directory = written_split(tmp_path / "split")
    path = directory / "test.tsv"
    lines = path.read_text().splitlines()
    lines[2] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PoolError, match=message):
        read_split(directory)
