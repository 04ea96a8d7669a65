from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famsplit import manifest
from famsplit.errors import PoolError
from famsplit.evaluate import load_predictions
from famsplit.manifest import (
    MaterializedSplit,
    SamplePool,
    SplitSide,
    load_pool,
    materialize_split,
    read_split,
    save_pool,
    split_meta,
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


def run_sizes(side: SplitSide) -> list[tuple[str | None, int]]:
    return [(family, len(ids)) for family, ids in side.runs]


def toy_spec() -> SplitSpec:
    return SplitSpec(train_families=("alpha", "beta"), test_families=("gamma", "delta"), tau=0.5,
                     epsilon_final=0.05, seed=11, relaxations=0, attempts_total=4)


def written_split(directory: Path) -> Path:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy")
    write_split(ms, directory, split_meta(ms, toy_spec(), 2, 8, 2))
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
        assert list(pool.benign[origin]) == [i for i, tag in benign if tag == origin]


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
        args = (toy_spec(), 8, 2, seed)
        outcome = split_outcome(materialize_split, interleaved, *args, split_id="layout")
        assert len(outcome) == 3
        assert outcome == split_outcome(materialize_split, grouped_pool, *args, split_id="layout")


def test_pool_save_load_round_trip_keeps_benign_partitions(tmp_path) -> None:
    families, benign = pool_lines_with_interleaved_benign(5)
    first = tmp_path / "a.tsv"
    first.write_text("\n".join(families + benign) + "\n")
    second = tmp_path / "b.tsv"
    save_pool(load_pool(first), second)
    loaded = load_pool(second)
    for origin in ("train", "test"):
        expected = [line.split("\t")[0] for line in benign if line.endswith(origin)]
        assert list(loaded.benign[origin]) == expected
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


MALFORMED_POOL_LINES = [
    ("aa01\tmalicious\talpha", "line 3: expected 4 fields"),
    ("aa01\tweird\talpha\t-", "unknown label"),
    ("aa01\tmalicious\t-\t-", "without family"),
    ("aa01\tmalicious\talpha\ttrain", "no origin tag"),
    ("aa01\tbenign\talpha\ttrain", "benign record with family"),
    ("aa01\tbenign\t-\tsomeday", "origin must be train|test"),
]


@pytest.mark.parametrize("line, fragment", MALFORMED_POOL_LINES)
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
    ms = materialize_split(pool, toy_spec(), train_per_family=8, test_per_family=2, seed=1,
                           split_id="toy")
    meta = split_meta(ms, toy_spec(), 1, 8, 2)
    assert meta["sampler"] == manifest.SAMPLER_VERSION == 2
    counts = meta["counts"]
    assert counts["train_total"] == 32
    assert counts["test_total"] == 8
    assert len(ms.train) == 32
    assert len(ms.test) == 8
    # One run per family in spec order, then the benign run.
    assert run_sizes(ms.train) == [("alpha", 8), ("beta", 8), (None, 16)]
    assert run_sizes(ms.test) == [("gamma", 2), ("delta", 2), (None, 4)]


@pytest.mark.parametrize(
    ("train_per_family", "test_per_family", "message"),
    [(5, 2, "train_per_family is 5, but the split holds 4"),
     (4, 3, "test_per_family is 3, but the split holds 2"),
     (4.0, 2, "train_per_family is 4.0, but the split holds 4")],
)
def test_split_meta_refuses_a_per_family_count_the_split_does_not_hold(
    train_per_family, test_per_family, message
) -> None:
    # read_split would refuse such a meta.json with the same message.
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 4, 2, seed=3, split_id="toy")
    with pytest.raises(PoolError) as err:
        split_meta(ms, toy_spec(), 3, train_per_family, test_per_family)
    assert str(err.value) == message


def test_materialize_is_deterministic_and_seed_sensitive() -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    a = materialize_split(pool, spec, 8, 2, seed=5, split_id="toy")
    b = materialize_split(pool, spec, 8, 2, seed=5, split_id="toy")
    assert a == b
    c = materialize_split(pool, spec, 8, 2, seed=6, split_id="toy")
    assert (run_sizes(c.train), run_sizes(c.test)) == (run_sizes(a.train), run_sizes(a.test))
    assert c.train.ids[16:] != a.train.ids[16:]  # the benign tail


def test_sampler_pins_a_literal_pick() -> None:
    # Fails by name when a Python or numpy change moves the draw.
    ids = [f"id-{i}" for i in range(10)]
    assert manifest._pick(random.Random(2024), ids, 4) == ["id-0", "id-2", "id-9", "id-6"]


class FixedKeys:
    """A stand-in rng whose one bulk draw holds the given 64-bit keys."""

    def __init__(self, keys: list[int]) -> None:
        self.keys = keys

    def getrandbits(self, bits: int) -> int:
        assert bits == 64 * len(self.keys)
        return sum(key << (64 * i) for i, key in enumerate(self.keys))


@pytest.mark.parametrize(
    ("keys", "n", "expected"),
    [
        ([5, 3, 9, 1], 4, ["d", "b", "a", "c"]),
        ([2, 1, 2, 2, 0], 3, ["e", "b", "a"]),  # three equal keys at the cut
        ([7, 7, 7, 7, 7], 2, ["a", "b"]),
        ([2**64 - 1, 0, 2**63], 2, ["b", "c"]),
    ],
)
def test_sampler_takes_smallest_keys_with_ties_in_pool_order(keys, n, expected) -> None:
    assert manifest._pick(FixedKeys(keys), "abcde"[: len(keys)], n) == expected


def reference_pick(rng, ids: Sequence[str], n: int) -> list[str]:
    """The sampler as one stable sort of every key, which keeps equal keys in pool order."""
    count = len(ids)
    keys = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u8")
    return [ids[i] for i in np.argsort(keys, kind="stable")[:n].tolist()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(count=st.integers(0, 3000), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_pick_matches_the_stable_sort_on_drawn_keys(count, seed, data) -> None:
    ids = [f"id-{i}" for i in range(count)]
    n = data.draw(st.sampled_from([0, count]) | st.integers(0, count), label="n")
    picked = manifest._pick(random.Random(seed), ids, n)
    assert picked == reference_pick(random.Random(seed), ids, n)


# Ties are forced between the last picked and the first unpicked key, between
# two picked keys, between two unpicked keys, or among all keys.
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                  max_size=40),
    tie=st.sampled_from([None, "at the cut", "picked", "unpicked", "all"]),
    data=st.data(),
)
def test_pick_matches_the_stable_sort_on_equal_keys(keys, tie, data) -> None:
    count = len(keys)
    n = data.draw(st.sampled_from([0, count]) | st.integers(0, count), label="n")
    rank = sorted(range(count), key=lambda i: (keys[i], i))
    lo, hi = {"at the cut": (n - 1, n + 1), "picked": (0, n), "unpicked": (n, count)}.get(tie, (0, 0))
    if 0 <= lo and hi <= count and hi - lo >= 2:
        tied = st.lists(st.integers(lo, hi - 1), min_size=2, max_size=2, unique=True)
        a, b = sorted(data.draw(tied, label="tied ranks"))
        keys[rank[b]] = keys[rank[a]]
    elif tie == "all":
        keys = keys[:1] * count
    ids = [f"id-{i}" for i in range(count)]
    assert manifest._pick(FixedKeys(keys), ids, n) == reference_pick(FixedKeys(keys), ids, n)


def test_sampler_selects_every_id_about_equally_often() -> None:
    # 2,000 fixed seeds, 3 of 10 ids each: a count is Binomial(2000, 0.3),
    # mean 600 and sd 20.5, and a first pick Binomial(2000, 0.1), mean 200
    # and sd 13.4. The bounds are about five sds either way.
    ids = [f"id-{i}" for i in range(10)]
    chosen: Counter = Counter()
    first: Counter = Counter()
    for seed in range(2000):
        picked = manifest._pick(random.Random(seed), ids, 3)
        chosen.update(picked)
        first[picked[0]] += 1
    assert sorted(chosen) == sorted(first) == ids
    assert all(500 <= count <= 700 for count in chosen.values()), chosen
    assert all(135 <= count <= 265 for count in first.values()), first


def test_materialize_has_no_leakage() -> None:
    pool = build_pool({n: 12 for n in ("alpha", "beta", "gamma", "delta")})
    spec = toy_spec()
    ms = materialize_split(pool, spec, 8, 2, seed=9, split_id="toy")
    assert not set(ms.train.ids) & set(ms.test.ids)
    # No malicious record may sit on the wrong side of the family split.
    assert {family for family, _ in ms.train.runs} == {*spec.train_families, None}
    assert {family for family, _ in ms.test.runs} == {*spec.test_families, None}


def test_materialize_errors_name_the_shortfall() -> None:
    pool = build_pool({"alpha": 10, "beta": 3, "gamma": 10, "delta": 10})
    with pytest.raises(PoolError) as err:
        materialize_split(pool, toy_spec(), 8, 2, seed=0, split_id="toy")
    assert "beta" in str(err.value)
    assert "short by 5" in str(err.value)

    missing = build_pool({"alpha": 10, "gamma": 10, "delta": 10})
    with pytest.raises(PoolError, match="missing from pool"):
        materialize_split(missing, toy_spec(), 8, 2, seed=0, split_id="toy")

    thin_benign = build_pool(
        {n: 10 for n in ("alpha", "beta", "gamma", "delta")}, benign_train=3
    )
    with pytest.raises(PoolError, match="benign train pool"):
        materialize_split(thin_benign, toy_spec(), 8, 2, seed=0, split_id="toy")


def test_materialized_split_invariants_are_enforced() -> None:
    side = SplitSide([("alpha", ["x"]), (None, ["y"])])
    with pytest.raises(PoolError, match="both train and test"):
        MaterializedSplit("dup", side, side)
    with pytest.raises(PoolError, match="not benign-balanced"):
        MaterializedSplit("skew", SplitSide([("alpha", ["x"])]), SplitSide([(None, ["y"])]))


def test_split_side_merges_adjacent_runs_and_drops_empty_ones() -> None:
    side = SplitSide([("a", ["x"]), ("b", []), ("a", ("y", "z")), (None, []), (None, ["w", "v"])])
    assert side.runs == (("a", ("x", "y", "z")), (None, ("w", "v")))
    assert side == SplitSide([("a", ("x", "y", "z")), (None, ["w"]), (None, ["v"])])
    assert side.ids == ("x", "y", "z", "w", "v")
    assert len(side) == 5
    # Runs of one family that other records separate stay apart.
    assert run_sizes(SplitSide([("a", ["x"]), (None, ["y"]), ("a", ["z"])])) == [
        ("a", 1), (None, 1), ("a", 1)
    ]
    assert SplitSide([]).runs == SplitSide([("a", [])]).runs == ()


@pytest.mark.parametrize("family", ["-", ""])
def test_split_side_refuses_the_family_names_a_pool_refuses(family) -> None:
    message = f"invalid family name {family!r}"
    with pytest.raises(PoolError) as err:
        SplitSide([(family, ["a"]), (None, ["b"])])
    assert str(err.value) == message
    with pytest.raises(PoolError) as err:
        SamplePool(by_family={family: ["a"]}, benign={"train": ["b"]})
    assert str(err.value) == message


def test_a_family_on_both_sides_is_rejected() -> None:
    train = SplitSide([("alpha", ["a1"]), ("beta", ["b1"]), (None, ["t1", "t2"])])
    test = SplitSide(
        [("gamma", ["g1"]), ("beta", ["b2"]), ("alpha", ["a2"]), (None, ["u1", "u2", "u3"])]
    )
    with pytest.raises(PoolError) as err:
        MaterializedSplit("shared", train, test)
    assert str(err.value) == "train/test families overlap: ['alpha', 'beta']"
    # The id, repeat and balance checks come first, so their messages win.
    unbalanced = SplitSide([("alpha", ["a2"]), (None, ["u1", "u2"])])
    with pytest.raises(PoolError, match="test side is not benign-balanced"):
        MaterializedSplit("shared", train, unbalanced)
    with pytest.raises(PoolError, match="1 sample ids appear in both train and test"):
        MaterializedSplit("shared", train, SplitSide([("alpha", ["a1"]), (None, ["u1"])]))


def test_read_split_rejects_a_family_on_both_sides(tmp_path) -> None:
    directory = written_split(tmp_path / "split")
    path = directory / "test.tsv"
    path.write_text(path.read_text().replace("\tgamma\n", "\talpha\n"))
    for read in (read_split, reference_read_split):
        with pytest.raises(PoolError) as err:
            read(directory)
        assert str(err.value) == "train/test families overlap: ['alpha']"


def test_write_split_produces_three_deterministic_files(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy-split")
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_split(ms, first, split_meta(ms, toy_spec(), 2, 8, 2))
    write_split(ms, second, split_meta(ms, toy_spec(), 2, 8, 2))
    names = sorted(p.name for p in first.iterdir())
    assert names == ["meta.json", "test.tsv", "train.tsv"]
    assert (first / "train.tsv").read_text().count("\n") == 32
    assert (first / "test.tsv").read_text().count("\n") == 8
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_split_round_trip_through_directory(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 8, 2, seed=2, split_id="toy-split")
    write_split(ms, tmp_path / "split", split_meta(ms, toy_spec(), 2, 8, 2))
    loaded = read_split(tmp_path / "split")
    assert loaded.split_id == ms.split_id
    assert loaded.train == ms.train
    assert loaded.test == ms.test


def test_id_listed_under_two_train_families_is_rejected() -> None:
    train = SplitSide([
        ("alpha", ["alpha-000000"]),
        ("beta", ["alpha-000000"]),
        (None, ["ben-tr-000000", "ben-tr-000001"]),
    ])
    test = SplitSide([("gamma", ["gamma-000000"]), (None, ["ben-te-000000"])])
    with pytest.raises(PoolError, match="'alpha-000000' appears twice on the train side"):
        MaterializedSplit("toy-split", train, test)


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
    assert pool.benign["test"] == ()
    with pytest.raises(TypeError):
        pool.benign["test"] = ("y",)
    with pytest.raises(TypeError):
        pool.benign["train"][0] = "y"
    with pytest.raises(TypeError):
        del pool.benign["train"]


def test_read_split_rejects_a_repeated_id(tmp_path) -> None:
    pool = build_pool({n: 10 for n in ("alpha", "beta", "gamma", "delta")})
    ms = materialize_split(pool, toy_spec(), 2, 2, seed=2, split_id="toy-split")
    write_split(ms, tmp_path / "split", split_meta(ms, toy_spec(), 2, 2, 2))
    test_path = tmp_path / "split" / "test.tsv"
    lines = test_path.read_text().splitlines(keepends=True)
    # One malicious and one benign line repeated, so the side stays balanced.
    test_path.write_text("".join(lines) + lines[0] + lines[-1])
    with pytest.raises(PoolError, match="appears twice on the test side"):
        read_split(tmp_path / "split")


# Reference materialize and read path: the record-per-sample implementation,
# kept so the split sides can be required to hold exactly the ids and
# families it produces, and to fail with its error types and messages. Its
# draw is a plain-Python twin of the sampler, one getrandbits(64) per id.
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
        if not isinstance(self.split_id, str):
            raise PoolError(f"split_id must be a string, got {self.split_id!r}")
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
        overlap = ({r.family for r in self.train} & {r.family for r in self.test}) - {None}
        if overlap:
            raise PoolError(f"train/test families overlap: {sorted(overlap)}")


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
    benign_train_ids = pool.benign["train"]
    benign_test_ids = pool.benign["test"]
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
        # Sampler v2, one id at a time: a 64-bit key per id, sorted by (key, index).
        keys = [rng.getrandbits(64) for _ in ids]
        return [ids[i] for i in sorted(range(len(ids)), key=lambda i: (keys[i], i))[:n]]

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
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise PoolError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        sample_id, label, family = parts
        if not sample_id:
            raise PoolError(f"{path}: line {lineno}: empty sample id")
        if label not in ("benign", "malicious"):
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        if label == "malicious" and (family == "-" or not family):
            raise PoolError(f"{path}: line {lineno}: malicious record without family")
        if label == "benign" and family != "-":
            raise PoolError(f"{path}: line {lineno}: benign record with family {family!r}")
        records.append(ReferenceSampleRecord(sample_id, label, None if family == "-" else family))
    return records


def reference_read_split(directory: str | Path) -> ReferenceMaterializedSplit:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise PoolError(f"{meta_path}: expected a JSON object")
    ms = ReferenceMaterializedSplit(
        split_id=meta.get("split_id"),
        train=tuple(_reference_read_records(directory / "train.tsv")),
        test=tuple(_reference_read_records(directory / "test.tsv")),
        counts=meta.get("counts"),
    )
    # Each key of meta.json that the records determine, in document order,
    # must read as JSON text what a Counter over the records gives.
    records = {name: Counter(r.family for r in side) for name, side in
               (("train", ms.train), ("test", ms.test))}
    malicious = {name: {f: n for f, n in c.items() if f is not None} for name, c in records.items()}
    held: dict = {f"{name}_families": list(families) for name, families in malicious.items()}
    for name, families in malicious.items():
        sizes = sorted(set(families.values()))
        held[f"{name}_per_family"] = sizes[0] if len(sizes) == 1 else families
    held["counts.train_total"] = len(ms.train)
    held["counts.test_total"] = len(ms.test)
    held["counts.train_benign"] = records["train"][None]
    held["counts.test_benign"] = records["test"][None]
    held["counts.per_family"] = {**malicious["train"], **malicious["test"]}
    for key, value in held.items():
        doc, name = (meta.get("counts"), key[7:]) if key.startswith("counts.") else (meta, key)
        found = isinstance(doc, dict) and name in doc
        said = json.dumps(doc[name], sort_keys=True) if found else "missing"
        text = json.dumps(value, sort_keys=True)
        if said != text:
            raise PoolError(f"{meta_path}: {key} is {said}, but the split holds {text}")
    return ms


def reference_columns(records) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    return tuple(r.sample_id for r in records), tuple(r.family for r in records)


def side_columns(side: SplitSide) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    return side.ids, tuple(family for family, ids in side.runs for _ in ids)


def split_outcome(make, *args, **kwargs):
    """(split_id, train columns, test columns), or the error's type and text."""
    try:
        ms = make(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the type is part of the outcome
        return type(err), str(err)
    columns = reference_columns if isinstance(ms, ReferenceMaterializedSplit) else side_columns
    return ms.split_id, columns(ms.train), columns(ms.test)


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
    spec = SplitSpec(train_families=tuple(order[:side]),
                     test_families=tuple(order[side : 2 * side]), tau=0.5, epsilon_final=0.05,
                     seed=3, relaxations=0, attempts_total=1)
    return pool, spec


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    pool_spec=pools_and_specs(),
    train_per_family=st.integers(0, 5),
    test_per_family=st.integers(0, 3),
    seed=st.integers(0, 2**64),
    split_id=st.sampled_from(["s", "tau-x"]),
)
def test_materialize_matches_reference(
    pool_spec, train_per_family, test_per_family, seed, split_id
) -> None:
    pool, spec = pool_spec
    args = (pool, spec, train_per_family, test_per_family, seed)
    outcome = split_outcome(materialize_split, *args, split_id=split_id)
    assert outcome == split_outcome(reference_materialize_split, *args, split_id=split_id)
    if len(outcome) == 2:
        return
    _, train, test = outcome
    ms = materialize_split(*args, split_id=split_id)
    counts = split_meta(ms, spec, seed, train_per_family, test_per_family)["counts"]
    assert counts == reference_materialize_split(*args, split_id=split_id).counts
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


# Path.read_text reads with universal newlines, so "\r" and "\r\n" reach
# both parsers as "\n" and split the line they are in. The others are line
# breaks only to str.splitlines(): a record line ends at "\n" alone, so
# they belong to the field they are in.
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD_LABELS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8
).filter(lambda label: label not in ("benign", "malicious"))


# The "crlf" edit checks that a CRLF copy reads like the LF file: read_text
# translates it to LF text, so no parser ever sees a "\r".
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    name=st.sampled_from(["train.tsv", "test.tsv"]),
    edit=st.sampled_from(
        [None, "stray tab", "missing field", "empty line", "crlf", "line break", "unknown label",
         "family"]
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
    write_split(ms, directory, split_meta(ms, toy_spec(), seed, 3, 2))
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
    elif edit == "family":
        # Another family of the split, one it never names, or this one with a line break.
        sample_id, label, family = line.split("\t")
        other = st.sampled_from(["alpha", "beta", "gamma", "delta", "zeta", f"{family}\x85"])
        lines[row] = "\t".join((sample_id, label, data.draw(other, label="family")))
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


DROP = object()


def edit_meta(changes: dict) -> Callable[[Path], None]:
    """An edit of a written split's meta.json: each dotted key gets its value (DROP deletes it)."""
    def edit(directory: Path) -> None:
        path = directory / "meta.json"
        meta = json.loads(path.read_text())
        for key, value in changes.items():
            *parents, last = key.split(".")
            doc = meta
            for part in parents:
                doc = doc[part]
            if value is DROP:
                del doc[last]
            else:
                doc[last] = value
        path.write_text(json.dumps(meta))
    return edit


def replace_meta(doc: object) -> Callable[[Path], None]:
    return lambda directory: (directory / "meta.json").write_text(json.dumps(doc))


def rename_gamma(directory: Path) -> None:
    path = directory / "test.tsv"
    path.write_text(path.read_text().replace("\tgamma\n", "\tzeta\n"))


def drop_an_alpha_and_a_benign_train_line(directory: Path) -> None:
    path = directory / "train.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:-1]))


HELD_PER_FAMILY = '{"alpha": 8, "beta": 8, "delta": 2, "gamma": 2}'


# Each edit of a written toy split (train: alpha and beta of 8, 16 benign;
# test: gamma and delta of 2, 4 benign) and the refusal both readers give.
# "META: " stands for the meta.json path.
@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (replace_meta({"split_id": "x"}),
         'META: train_families is missing, but the split holds ["alpha", "beta"]'),
        (replace_meta({"counts": {"train_total": 32, "test_total": 8}}),
         "split_id must be a string, got None"),
        (replace_meta({"split_id": "x", "counts": {"test_total": 8}}),
         'META: train_families is missing, but the split holds ["alpha", "beta"]'),
        (replace_meta({"split_id": "x", "counts": {"train_total": 32, "test_total": 8}}),
         'META: train_families is missing, but the split holds ["alpha", "beta"]'),
        (replace_meta({"split_id": "x", "test_families": [],
                       "counts": {"train_total": 32, "test_total": 8, "per_family": {}}}),
         'META: train_families is missing, but the split holds ["alpha", "beta"]'),
        (replace_meta({"split_id": "x", "train_families": [],
                       "counts": {"train_total": 32, "test_total": 8, "per_family": {}}}),
         'META: train_families is [], but the split holds ["alpha", "beta"]'),
        (edit_meta({"counts.train_benign": DROP}),
         "META: counts.train_benign is missing, but the split holds 16"),
        (edit_meta({"split_id": {"x": [1]}}), "split_id must be a string, got {'x': [1]}"),
        (edit_meta({"split_id": 7}), "split_id must be a string, got 7"),
        (edit_meta({"counts.train_total": 32.0}),
         "META: counts.train_total is 32.0, but the split holds 32"),
        (edit_meta({"counts.test_total": True}),
         "META: counts.test_total is true, but the split holds 8"),
        (edit_meta({"counts.train_total": "32"}),
         'META: counts.train_total is "32", but the split holds 32'),
        (replace_meta([]), "META: expected a JSON object"),
        (replace_meta(5), "META: expected a JSON object"),
        (replace_meta({"split_id": "x", "counts": 5}),
         'META: train_families is missing, but the split holds ["alpha", "beta"]'),
        (edit_meta({"counts": 5}), "META: counts.train_total is missing, but the split holds 32"),
        (edit_meta({"counts.train_total": 34}),
         "META: counts.train_total is 34, but the split holds 32"),
        (edit_meta({"counts.test_total": 10}),
         "META: counts.test_total is 10, but the split holds 8"),
        (rename_gamma,
         'META: test_families is ["gamma", "delta"], but the split holds ["zeta", "delta"]'),
        (edit_meta({"train_families": ["beta", "alpha"]}),
         'META: train_families is ["beta", "alpha"], but the split holds ["alpha", "beta"]'),
        (edit_meta({"counts.per_family.gamma": 3}),
         'META: counts.per_family is {"alpha": 8, "beta": 8, "delta": 2, "gamma": 3},'
         f" but the split holds {HELD_PER_FAMILY}"),
        (edit_meta({"counts.per_family.alpha": True}),  # equal to 1, but not an integer
         'META: counts.per_family is {"alpha": true, "beta": 8, "delta": 2, "gamma": 2},'
         f" but the split holds {HELD_PER_FAMILY}"),
        (edit_meta({"counts.per_family.beta": 8.0}),
         'META: counts.per_family is {"alpha": 8, "beta": 8.0, "delta": 2, "gamma": 2},'
         f" but the split holds {HELD_PER_FAMILY}"),
        (edit_meta({"counts.per_family.zeta": 2}),
         'META: counts.per_family is {"alpha": 8, "beta": 8, "delta": 2, "gamma": 2, "zeta": 2},'
         f" but the split holds {HELD_PER_FAMILY}"),
        (edit_meta({"counts.per_family.delta": DROP}),
         'META: counts.per_family is {"alpha": 8, "beta": 8, "gamma": 2},'
         f" but the split holds {HELD_PER_FAMILY}"),
        (edit_meta({"counts.train_benign": 7}),
         "META: counts.train_benign is 7, but the split holds 16"),
        (edit_meta({"counts.test_benign": 5}),
         "META: counts.test_benign is 5, but the split holds 4"),
        (edit_meta({"train_per_family": 99}),
         "META: train_per_family is 99, but the split holds 8"),
        (edit_meta({"test_per_family": "2"}),
         'META: test_per_family is "2", but the split holds 2'),
        (edit_meta({"counts.train_benign": 7, "train_per_family": 99}),
         "META: train_per_family is 99, but the split holds 8"),
        (drop_an_alpha_and_a_benign_train_line,
         'META: train_per_family is 8, but the split holds {"alpha": 7, "beta": 8}'),
    ],
    ids=[
        "missing counts", "missing split_id", "missing counts.train_total",
        "missing counts.per_family", "missing train_families", "missing test_families",
        "missing counts.train_benign",
        "type split_id object", "type split_id int", "type train_total float",
        "type test_total bool", "type train_total string",
        "not an object list", "not an object number", "not an object stub counts",
        "not an object counts",
        "totals train", "totals test",
        "families renamed in test.tsv", "families reordered",
        "per_family count", "per_family bool", "per_family float",
        "per_family extra family", "per_family missing family",
        "train_benign", "test_benign", "train_per_family", "test_per_family",
        "train_benign with per_family", "unequal train families",
    ],
)
def test_read_split_checks_meta_against_the_sides(tmp_path, edit, message) -> None:
    directory = written_split(tmp_path / "split")
    edit(directory)
    for read in (read_split, reference_read_split):
        with pytest.raises(PoolError) as err:
            read(directory)
        assert str(err.value) == message.replace("META", str(directory / "meta.json"))


def test_read_split_takes_per_family_counts_in_any_key_order(tmp_path) -> None:
    directory = written_split(tmp_path / "split")
    edit_meta({"counts.per_family": {"gamma": 2, "delta": 2, "beta": 8, "alpha": 8}})(directory)
    again = written_split(tmp_path / "again")
    assert split_outcome(read_split, directory) == split_outcome(read_split, again)


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


def test_read_split_rejects_an_empty_sample_id(tmp_path) -> None:
    directory = written_split(tmp_path / "split")
    path = directory / "train.tsv"
    lines = path.read_text().split("\n")
    assert lines[0].endswith("\tmalicious\talpha")
    lines[0] = "\tmalicious\talpha"
    path.write_text("\n".join(lines))
    for read in (read_split, reference_read_split):
        with pytest.raises(PoolError) as err:
            read(directory)
        assert str(err.value) == f"{path}: line 1: empty sample id"


def reference_load_pool(path: str | Path) -> SamplePool:
    """The line-at-a-time pool parser that load_pool must match on every input."""
    path = Path(path)
    by_family: dict[str, list[str]] = {}
    benign: dict[str, list[str]] = {origin: [] for origin in ("train", "test")}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise PoolError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        sample_id, label, family, origin = parts
        if not sample_id:
            raise PoolError(f"{path}: line {lineno}: empty sample id")
        if label not in ("benign", "malicious"):
            raise PoolError(f"{path}: line {lineno}: unknown label {label!r}")
        if label == "malicious":
            if family == "-" or not family:
                raise PoolError(f"{path}: line {lineno}: malicious record without family")
            if origin != "-":
                raise PoolError(f"{path}: line {lineno}: malicious records carry no origin tag")
            by_family.setdefault(family, []).append(sample_id)
        else:
            if family != "-":
                raise PoolError(f"{path}: line {lineno}: benign record with family {family!r}")
            if origin not in ("train", "test"):
                raise PoolError(f"{path}: line {lineno}: benign origin must be train|test")
            benign[origin].append(sample_id)
    return SamplePool(by_family=by_family, benign=benign)


def pool_outcome(load, path: Path):
    """Both mappings as item lists, so dict and tuple order count, or the error."""
    try:
        pool = load(path)
    except PoolError as err:
        return PoolError, str(err)
    return list(pool.by_family.items()), list(pool.benign.items())


# A "crlf" file is read as LF text (see LINE_BREAKS), so it must load like
# the LF file through the same chunks.
POOL_FAULTS = [
    None, *(line for line, _ in MALFORMED_POOL_LINES),
    "empty id", "tab in id", "empty line", "repeated id", "line break", "crlf", "no final newline",
]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    benign_sizes=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    layout=st.sampled_from(["canonical", "interleaved families", "interleaved origins"]),
    fault=st.sampled_from(POOL_FAULTS),
    chunk=st.integers(0, 48),
    data=st.data(),
)
def test_load_pool_matches_reference(
    tmp_path_factory, sizes, benign_sizes, layout, fault, chunk, data
) -> None:
    # Ids of mixed lengths, so chunk ends fall anywhere in a line.
    families = [
        [f"f{j}-{'x' * (i % 3)}{i}\tmalicious\tf{j}\t-" for i in range(n)]
        for j, n in enumerate(sizes)
    ]
    benign = [
        [f"b{origin}{i:0{i % 4}d}\tbenign\t-\t{origin}" for i in range(n)]
        for origin, n in zip(("train", "test"), benign_sizes)
    ]
    malicious_lines = [line for block in families for line in block]
    benign_lines = [line for block in benign for line in block]
    if layout == "interleaved families":
        malicious_lines = data.draw(st.permutations(malicious_lines), label="malicious order")
    elif layout == "interleaved origins":
        benign_lines = data.draw(st.permutations(benign_lines), label="benign order")
    lines = malicious_lines + benign_lines
    row = data.draw(st.integers(0, len(lines) - 1), label="faulty line")
    sample_id, _, rest = lines[row].partition("\t")
    if fault == "empty id":
        lines[row] = "\t" + rest
    elif fault == "tab in id":
        at = data.draw(st.integers(0, len(sample_id)), label="tab position")
        lines[row] = sample_id[:at] + "\t" + sample_id[at:] + "\t" + rest
    elif fault == "empty line":
        lines.insert(row, "")
    elif fault == "line break":
        at = data.draw(st.integers(0, len(lines[row])), label="break position")
        lines[row] = lines[row][:at] + data.draw(st.sampled_from(LINE_BREAKS)) + lines[row][at:]
    elif fault == "repeated id":
        lines.insert(row, lines[data.draw(st.integers(0, len(lines) - 1), label="repeated")])
    elif fault not in (None, "crlf", "no final newline"):
        lines.insert(row, fault)
    newline = "\r\n" if fault == "crlf" else "\n"
    text = newline.join(lines) + ("" if fault == "no final newline" else newline)
    path = tmp_path_factory.mktemp("pool") / "pool.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifest, "_POOL_CHUNK", chunk)
        outcome = pool_outcome(load_pool, path)
    assert outcome == pool_outcome(reference_load_pool, path)
    if layout == "canonical" and fault in (None, "empty line", "crlf", "no final newline"):
        assert outcome[0] == [(f"f{j}", tuple(l.split("\t")[0] for l in block))
                              for j, block in enumerate(families)]


def spy_rule(monkeypatch, name: str) -> list[tuple[Path, int]]:
    """Record each (path, line number) that the per-line rule `manifest.<name>` checks."""
    calls = []
    rule = getattr(manifest, name)

    def spy(path: Path, lineno: int, parts: list[str]) -> tuple[str, str]:
        calls.append((path, lineno))
        return rule(path, lineno, parts)

    monkeypatch.setattr(manifest, name, spy)
    return calls


def most_rule_calls(path: Path, line_loop_chunks: int) -> int:
    """Most rule calls `_read_runs` makes on `path` if only this many chunks go to the line loop.

    A chunk read as one run checks its first line; a chunk sent to the line
    loop checks that line once more and then every line it holds.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    chunks = path.stat().st_size // manifest._POOL_CHUNK + 1
    lines_per_chunk = (manifest._POOL_CHUNK + max(map(len, lines))) // min(map(len, lines)) + 1
    return chunks + line_loop_chunks * (lines_per_chunk + 1)


def test_load_pool_reads_canonical_blocks_without_the_line_loop(tmp_path, monkeypatch) -> None:
    pool = build_pool({name: 3000 for name in ("alpha", "beta", "gamma")}, 5000, 2000)
    path = tmp_path / "pool.tsv"
    save_pool(pool, path)
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert path.stat().st_size > 20 * manifest._POOL_CHUNK
    calls = spy_rule(monkeypatch, "_pool_key")
    # read_text turns CRLF into LF, so a CRLF copy takes the same runs.
    for copy in (path, crlf):
        calls.clear()
        loaded = load_pool(copy)
        assert pool_outcome(lambda _: loaded, path) == pool_outcome(reference_load_pool, path)
        # Only the chunks that straddle one of the four block boundaries.
        assert len(calls) <= most_rule_calls(path, 4)


def test_read_split_reads_family_runs_without_the_line_loop(tmp_path, monkeypatch) -> None:
    pool = build_pool({n: 4000 for n in ("alpha", "beta", "gamma", "delta")}, 8000, 2000)
    ms = materialize_split(pool, toy_spec(), 4000, 1000, seed=1, split_id="runs")
    write_split(ms, tmp_path, split_meta(ms, toy_spec(), 1, 4000, 1000))
    calls = spy_rule(monkeypatch, "_side_key")
    assert split_outcome(read_split, tmp_path) == split_outcome(reference_read_split, tmp_path)
    for name in ("train", "test"):
        path = tmp_path / f"{name}.tsv"
        assert path.stat().st_size > 6 * manifest._POOL_CHUNK
        # Two families then benign: one chunk at most per run boundary.
        assert sum(called == path for called, _ in calls) <= most_rule_calls(path, 2)


# Runs of 0 to 4 records, so adjacent runs of one family and empty runs are common.
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from([None, None, "alpha", "beta", "gamma"]), st.integers(0, 4)),
        max_size=20,
    )
)
def test_side_text_matches_one_line_per_record(runs) -> None:
    families = [family for family, size in runs for _ in range(size)]
    ids = [f"s{i:0{i % 5}d}" for i in range(len(families))]
    expected = "".join(
        f"{sample_id}\tbenign\t-\n" if family is None else f"{sample_id}\tmalicious\t{family}\n"
        for sample_id, family in zip(ids, families)
    )
    ends = [sum(size for _, size in runs[: i + 1]) for i in range(len(runs))]
    side = SplitSide((family, ids[end - size : end]) for (family, size), end in zip(runs, ends))
    assert manifest._side_text(side) == expected
    assert side_columns(side) == (tuple(ids), tuple(families))
    assert len(side) == len(ids)
    # Merged: no run is empty, and no two adjacent runs share a family.
    assert all(run for _, run in side.runs)
    assert all(a != b for (a, _), (b, _) in zip(side.runs, side.runs[1:]))


def unwritable(what: str, value: str) -> str:
    return f"cannot write {what} {value!r}: it is empty or holds a tab, \\n or \\r"


@pytest.mark.parametrize(
    ("by_family", "benign", "message"),
    [
        # Written as is, this id would load as benign train "x" and malicious "y".
        ({"alpha": ["a", "x\tbenign\t-\ttrain\ny"]}, {},
         unwritable("sample id", "x\tbenign\t-\ttrain\ny")),
        ({"alpha": ["a"]}, {"test": ["b", "c\rd"]}, unwritable("sample id", "c\rd")),
        ({"alpha": ["a"], "al\npha": ["b"]}, {}, unwritable("family", "al\npha")),
        ({"alpha": ["a"]}, {"train": ["b", ""]}, unwritable("sample id", "")),
    ],
    ids=["a record in an id", "cr in a benign id", "newline in a family", "empty id"],
)
def test_save_pool_refuses_ids_that_load_pool_cannot_read_back(
    tmp_path, by_family, benign, message
) -> None:
    path = tmp_path / "pool.tsv"
    with pytest.raises(PoolError) as err:
        save_pool(SamplePool(by_family=by_family, benign=benign), path)
    assert str(err.value) == message
    assert not path.exists()


def two_records(sample_id: str, other: str, family: str) -> SplitSide:
    return SplitSide([(family, [sample_id]), (None, [other])])


GOOD_TRAIN = two_records("a", "b", "alpha")
GOOD_TEST = two_records("x", "y", "gamma")


@pytest.mark.parametrize(
    ("train", "test", "message"),
    [
        (two_records("a", "b\tc", "alpha"), GOOD_TEST, unwritable("sample id", "b\tc")),
        (two_records("a\r", "b", "alpha"), GOOD_TEST, unwritable("sample id", "a\r")),
        (two_records("a", "b", "al\tpha"), GOOD_TEST, unwritable("family", "al\tpha")),
        (two_records("", "b", "alpha"), GOOD_TEST, unwritable("sample id", "")),
        (GOOD_TRAIN, two_records("x", "c\td", "gamma"), unwritable("sample id", "c\td")),
    ],
    ids=["tab in an id", "cr in an id", "tab in a family", "empty id", "tab in a test id"],
)
def test_write_split_refuses_ids_that_read_split_cannot_read_back(
    tmp_path, train, test, message
) -> None:
    ms = MaterializedSplit("bad", train, test)
    directory = tmp_path / "split"
    with pytest.raises(PoolError) as err:
        write_split(ms, directory, {"split_id": "bad"})
    assert str(err.value) == message
    # Every text is built before the directory is made, so nothing is left behind.
    assert not any((directory / name).exists() for name in manifest.SPLIT_FILES.values())
    assert not directory.exists()


# Record text: anything but a tab, "\n" or "\r", often one of the characters
# that only str.splitlines() takes for a line break.
RECORD_TEXT = st.text(
    st.sampled_from(LINE_BREAKS[2:])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
)


# The train side's family is drawn, and the test side's is the same text
# with a "+" appended, so the two sides never share a family.
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    ids=st.lists(RECORD_TEXT, min_size=4, max_size=40, unique=True),
    family=RECORD_TEXT.filter(lambda family: family != "-"),
    scores=st.lists(st.floats(0, 1), min_size=40, max_size=40),
    chunk=st.integers(0, 48),
)
@example(
    ids=["\x85", "a\u2028b", "\x0b", "\x1c\x1d\x1e"], family="f\u2029", scores=[0.5] * 40, chunk=0
)
def test_ids_round_trip_through_every_record_file(
    tmp_path_factory, ids, family, scores, chunk
) -> None:
    directory = tmp_path_factory.mktemp("round-trip")
    k = len(ids) // 4
    families = (family, family + "+")
    pool = SamplePool(
        by_family={families[0]: ids[:k], families[1]: ids[2 * k : 3 * k]},
        benign={"train": ids[k : 2 * k], "test": ids[3 * k : 4 * k]},
    )
    save_pool(pool, directory / "pool.tsv")
    assert pool_outcome(load_pool, directory / "pool.tsv") == pool_outcome(lambda _: pool, None)

    sides = [SplitSide([(f, ids[a : a + k]), (None, ids[a + k : a + 2 * k])])
             for f, a in zip(families, (0, 2 * k))]
    ms = MaterializedSplit("round-trip", *sides)
    spec = SplitSpec(train_families=(families[0],), test_families=(families[1],), tau=0.5,
                     epsilon_final=0.05, seed=0, relaxations=0, attempts_total=1)
    write_split(ms, directory / "split", split_meta(ms, spec, 0, k, k))
    # Chunks of 0 to 48 characters cut the family runs at every place.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifest, "_POOL_CHUNK", chunk)
        assert read_split(directory / "split") == ms
    assert split_outcome(read_split, directory / "split") == split_outcome(lambda: ms)

    expected = dict(zip(ids, scores))
    (directory / "preds.tsv").write_text(
        "".join(f"{sample_id}\t{score!r}\n" for sample_id, score in expected.items()),
        encoding="utf-8",
    )
    assert load_predictions(directory / "preds.tsv").scores == expected
