from __future__ import annotations

import pytest

from famsplit import manifest
from famsplit.errors import PoolError
from famsplit.manifest import (
    MaterializedSplit,
    SamplePool,
    SampleRecord,
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
    benign = [(f"ben-tr-{i:06x}", "train") for i in range(benign_train)]
    benign += [(f"ben-te-{i:06x}", "test") for i in range(benign_test)]
    return SamplePool(by_family=by_family, benign=benign)


def toy_spec() -> SplitSpec:
    return SplitSpec(("alpha", "beta"), ("gamma", "delta"), 0.5, 0.05, 11, 0, 4)


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
    assert pool.benign == ()


def test_pool_at_paper_family_size(tmp_path) -> None:
    pool = build_pool({"alpha": 10_000}, benign_train=0, benign_test=0)
    assert len(pool.by_family["alpha"]) == 10_000
    path = tmp_path / "pool.tsv"
    save_pool(pool, path)
    assert len(load_pool(path).by_family["alpha"]) == 10_000


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
        ({"a": ["x", "y"], "b": ["x", "z"]}, [("w", "train")], "in family 'a' and in family 'b'"),
        ({"a": ["y", "x"]}, [("w", "train"), ("x", "test")], "in family 'a' and in the benign list"),
        ({"a": ["y"]}, [("x", "train"), ("x", "test")], "in the benign list and in the benign list"),
        ({"a": ["x", "y", "x"]}, [("w", "train")], "in family 'a' and in family 'a'"),
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
    train_malicious = [r for r in ms.train if r.label == "malicious"]
    assert len(train_malicious) == 16
    assert {r.family for r in train_malicious} == {"alpha", "beta"}
    test_malicious = [r for r in ms.test if r.label == "malicious"]
    assert {r.family for r in test_malicious} == {"gamma", "delta"}


def test_materialize_is_deterministic_and_seed_sensitive() -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    a = materialize_split(pool, spec, 8, 2, seed=5)
    b = materialize_split(pool, spec, 8, 2, seed=5)
    assert a == b
    c = materialize_split(pool, spec, 8, 2, seed=6)
    assert c.counts == a.counts
    assert [r.sample_id for r in c.train if r.label == "benign"] != [
        r.sample_id for r in a.train if r.label == "benign"
    ]


def test_materialize_has_no_leakage() -> None:
    pool = build_pool({n: 12 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    ms = materialize_split(pool, spec, 8, 2, seed=9)
    train_ids = {r.sample_id for r in ms.train}
    test_ids = {r.sample_id for r in ms.test}
    assert not train_ids & test_ids
    # No malicious record may sit on the wrong side of the family split.
    assert all(r.family in spec.train_families for r in ms.train if r.label == "malicious")
    assert all(r.family in spec.test_families for r in ms.test if r.label == "malicious")


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
    record = SampleRecord("x", "malicious", "alpha")
    benign = SampleRecord("y", "benign", None)
    with pytest.raises(PoolError, match="both train and test"):
        MaterializedSplit("dup", (record, benign), (record, benign), {})
    with pytest.raises(PoolError, match="not benign-balanced"):
        MaterializedSplit("skew", (record,), (benign,), {})


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
    train = (
        SampleRecord("alpha-000000", "malicious", "alpha"),
        SampleRecord("alpha-000000", "malicious", "beta"),
        SampleRecord("ben-tr-000000", "benign", None),
        SampleRecord("ben-tr-000001", "benign", None),
    )
    test = (
        SampleRecord("gamma-000000", "malicious", "gamma"),
        SampleRecord("ben-te-000000", "benign", None),
    )
    with pytest.raises(PoolError, match="'alpha-000000' appears twice on the train side"):
        MaterializedSplit("toy-split", train, test, {})


def test_pool_contents_are_read_only() -> None:
    pool = build_pool({"alpha": 2, "beta": 2})
    with pytest.raises(TypeError):
        pool.by_family["beta"] = pool.by_family["alpha"]
    with pytest.raises(TypeError):
        pool.by_family["beta"][0] = pool.by_family["alpha"][0]
    with pytest.raises(TypeError):
        pool.benign[0] = ("alpha-000000", "train")


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
