from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsplit.errors import InfeasibleSearchError, MatrixFormatError
from famsplit.evaluate import validate_benchmark
from famsplit import search
from famsplit.matrix import CrossErrorMatrix, synth_matrix
from famsplit.search import (
    _MAX_FAMILIES,
    SEARCH_RESTARTS,
    SearchConfig,
    SplitSpec,
    benchmark_from_dict,
    benchmark_to_dict,
    derive_seed,
    generate_benchmark,
    load_benchmark,
    search_split,
)
from famsplit.search import _Band, _stream_words

from conftest import constant_matrix, make_matrix, traced_peak


def split_max_deviation(m: CrossErrorMatrix, spec: SplitSpec) -> float:
    """Largest |M[t][v] - tau| over all cross pairs of the split."""
    rows = [m.index_of(f) for f in spec.train_families]
    cols = [m.index_of(f) for f in spec.test_families]
    return float(np.abs(m.values[np.ix_(rows, cols)] - spec.tau).max())


# Reference search: the list-of-tuples implementation that rebuilt each band
# level on every pass, kept unchanged so the array-band search can be
# required to return exactly what it returned. Its one later rule: a pass
# whose band holds every off-diagonal entry keeps drawing instead of relaxing.
NO_LOWER_BOUND = -1.0


def candidate_pairs(
    m: CrossErrorMatrix, tau: float, eps_lo: float, eps_hi: float
) -> list[tuple[int, int]]:
    """Off-diagonal index pairs with eps_lo < |M - tau| <= eps_hi, row-major.

    A negative eps_lo means "no lower bound" (the full closed band).
    """
    if eps_hi <= 0.0:
        raise InfeasibleSearchError(f"eps_hi must be positive, got {eps_hi}")
    if eps_lo >= eps_hi:
        raise InfeasibleSearchError(f"eps_lo {eps_lo} must be below eps_hi {eps_hi}")
    dist = np.abs(m.values - tau)
    mask = (dist > eps_lo) & (dist <= eps_hi)
    np.fill_diagonal(mask, False)
    return [(int(t), int(v)) for t, v in np.argwhere(mask)]


def _eps_at(config: SearchConfig, level: int) -> float:
    return config.epsilon0 + config.step * level


def _search_pass(m: CrossErrorMatrix, config: SearchConfig, pass_seed: int) -> SplitSpec:
    rng = random.Random(pass_seed)
    eps_hi = _eps_at(config, 0)
    candidates = candidate_pairs(m, config.tau, NO_LOWER_BOUND, eps_hi)
    train: list[int] = []
    test: list[int] = []
    used: set[int] = set()
    relaxations = 0
    attempts_total = 0
    attempts_level = 0
    values = m.values
    while len(train) < config.set_size:
        if not candidates or attempts_level >= config.max_attempts:
            if len(candidates) == m.k * (m.k - 1):
                attempts_level = 0
                continue
            eps_lo = eps_hi
            relaxations += 1
            eps_hi = _eps_at(config, relaxations)
            candidates.extend(candidate_pairs(m, config.tau, eps_lo, eps_hi))
            attempts_level = 0
            continue
        t, v = candidates[rng.randrange(len(candidates))]
        attempts_total += 1
        attempts_level += 1
        if t in used or v in used:
            continue
        if any(abs(values[tj, v] - config.tau) > eps_hi for tj in train):
            continue
        if any(abs(values[t, vj] - config.tau) > eps_hi for vj in test):
            continue
        train.append(t)
        test.append(v)
        used.add(t)
        used.add(v)
    return SplitSpec(
        train_families=tuple(m.families[t] for t in train),
        test_families=tuple(m.families[v] for v in test),
        tau=config.tau,
        epsilon_final=eps_hi,
        seed=config.seed,
        relaxations=relaxations,
        attempts_total=attempts_total,
    )


def reference_search_split(
    m: CrossErrorMatrix, config: SearchConfig, restarts: int = SEARCH_RESTARTS
) -> SplitSpec:
    best: SplitSpec | None = None
    for r in range(restarts):
        spec = _search_pass(m, config, derive_seed(config.seed, r))
        if best is None or spec.epsilon_final < best.epsilon_final:
            best = spec
        if best.relaxations == 0:
            break
    assert best is not None
    return best


def min_feasible_grid_eps(values, tau, set_size, eps0=0.05, step=0.05):
    """Brute-force oracle: smallest grid eps with any feasible (T, V)."""
    k = len(values)
    level = 0
    while True:
        eps = eps0 + step * level
        for train in itertools.combinations(range(k), set_size):
            rest = [v for v in range(k) if v not in train]
            for test in itertools.combinations(rest, set_size):
                if all(abs(values[t][v] - tau) <= eps for t in train for v in test):
                    return eps
        level += 1
        if eps > 1.0:
            raise AssertionError("no feasible solution below eps=1; broken fixture")


def adversarial_matrix():
    # Only the 2x2 block rows {0,1} x cols {2,3} sits near tau=0.5, and only
    # at distances 0.12..0.14, so the first feasible grid level is 0.15.
    grid = np.full((8, 8), 0.9)
    np.fill_diagonal(grid, 0.99)
    grid[0, 2] = 0.62
    grid[0, 3] = 0.63
    grid[1, 2] = 0.38
    grid[1, 3] = 0.36
    return make_matrix(grid)


def pairs_drawn(m: CrossErrorMatrix, config: SearchConfig, seeds: int = 200) -> set:
    """Every (train, test) index pair a one-pair search returns over `seeds` seeds."""
    index = {name: i for i, name in enumerate(m.families)}
    found = set()
    for seed in range(seeds):
        spec = search_split(m, replace(config, seed=seed))
        found.add((index[spec.train_families[0]], index[spec.test_families[0]]))
    return found


def test_candidate_pairs_exact_hits() -> None:
    m = make_matrix([[1.0, 0.5], [0.5, 1.0]])
    assert pairs_drawn(m, SearchConfig(tau=0.5, set_size=1)) == {(0, 1), (1, 0)}


def test_candidate_pairs_threshold_arithmetic_at_paper_setting() -> None:
    m = make_matrix(
        [
            [1.00, 0.87, 0.96],
            [0.87, 1.00, 0.96],
            [0.96, 0.87, 0.90],
        ]
    )
    # |0.87 - 0.9| = 0.03 <= 0.05 is in band, |0.96 - 0.9| = 0.06 > 0.05 is
    # not, and the diagonal never is, even at exactly tau.
    assert pairs_drawn(m, SearchConfig(tau=0.9, set_size=1)) == {(0, 1), (1, 0), (2, 1)}


def test_candidate_pairs_annulus_matches_exhaustive_scan() -> None:
    rng = np.random.default_rng(99)
    grid = rng.uniform(0.0, 1.0, (6, 6))
    tau = 0.5
    grid[np.abs(grid - tau) <= 0.05] = 0.95  # empty first level: relax once
    m = make_matrix(grid)
    expected = set()
    for t in range(6):
        for v in range(6):
            if t != v and 0.05 < abs(grid[t][v] - tau) <= 0.10:
                expected.add((t, v))
    assert expected
    assert pairs_drawn(m, SearchConfig(tau=tau, set_size=1)) == expected
    assert search_split(m, SearchConfig(tau=tau, set_size=1)).relaxations == 1


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    k=st.integers(4, 30),
    matrix_seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([2, None]),
    tau=st.sampled_from([0.9, 0.5, 0.25]) | st.floats(0.01, 0.99),
    epsilon0=st.sampled_from([0.05, 0.02, 0.1]),
    step=st.sampled_from([0.05, 0.01, 0.03]),
    max_attempts=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_search_split_matches_reference(
    k, matrix_seed, decimals, tau, epsilon0, step, max_attempts, seed, data
) -> None:
    grid = np.random.default_rng(matrix_seed).uniform(0.0, 1.0, (k, k))
    if decimals is not None:  # grid values put entries exactly on band edges
        grid = np.round(grid, decimals)
    m = make_matrix(grid)
    config = SearchConfig(
        tau=tau,
        epsilon0=epsilon0,
        step=step,
        max_attempts=max_attempts,
        set_size=data.draw(st.integers(1, k // 2), label="set_size"),
        seed=seed,
    )
    spec = search_split(m, config)
    assert spec == reference_search_split(m, config, SEARCH_RESTARTS)
    assert len(spec.train_families) == len(spec.test_families) == config.set_size
    assert not set(spec.train_families) & set(spec.test_families)
    assert split_max_deviation(m, spec) <= spec.epsilon_final


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 2**32 - 1) | st.sampled_from([1, 2, 3, 2**16, 2**31, 2**31 + 1, 2**32 - 1]),
    first=st.integers(1, 4096),
)
def test_mapped_stream_words_are_randrange_draws(seed, n, first) -> None:
    # The search reads its draws from chunks of stream words; taken in two
    # chunks, the words mapped to draws below n must be randrange(n)'s values.
    rng = random.Random(seed)
    words = np.concatenate((_stream_words(rng, first), _stream_words(rng, 6000)))
    draws = words >> (32 - n.bit_length())
    draws = draws[draws < n].tolist()
    reference = random.Random(seed)
    assert len(draws) >= 2000
    assert draws == [reference.randrange(n) for _ in draws]


def test_family_limit_keeps_every_candidate_count_below_2_to_the_32() -> None:
    # One 32-bit word per draw holds for n < 2**32 candidates; a band holds
    # at most K * (K - 1), which the limit keeps below that.
    assert _MAX_FAMILIES * (_MAX_FAMILIES - 1) < 2**32 <= (_MAX_FAMILIES + 1) * _MAX_FAMILIES
    too_many = SimpleNamespace(k=_MAX_FAMILIES + 1)  # no 65,537-wide matrix is built
    with pytest.raises(InfeasibleSearchError, match="at most 65536 families, matrix has 65537"):
        _Band(too_many, SearchConfig(tau=0.5))


# Bytes the band may hold per cell of a block of |M - tau|: the float
# distances, three masks, and the block's new indices at 8 and twice 4 bytes.
BLOCK_BYTES_PER_CELL = 28


def test_band_holds_one_grid_beside_the_matrix(monkeypatch) -> None:
    # The level grid, one byte a cell, is the band's one K x K array; its
    # entries are held twice while a level joins them.
    monkeypatch.setattr(search, "_BAND_BLOCK_CELLS", 4096)
    m = synth_matrix(400, seed=1)

    def build() -> _Band:
        band = _Band(m, SearchConfig(tau=0.5))
        band.at(0)
        return band

    band, peak = traced_peak(build)
    assert band.level.dtype == np.uint8
    bound = band.level.nbytes + 2 * band.at(0).nbytes + BLOCK_BYTES_PER_CELL * 4096
    assert bound < m.values.nbytes
    assert peak <= bound


@pytest.mark.parametrize("tau", [0.9, 0.5, 0.25])
def test_a_one_split_tier_and_its_validation_hold_no_float_grid(monkeypatch, tau) -> None:
    monkeypatch.setattr(search, "_BAND_BLOCK_CELLS", 4096)
    m = synth_matrix(400, seed=1)
    config = SearchConfig(tau=tau, seed=3)

    def tier():
        bench = generate_benchmark(m, config, n_splits=1)
        return bench, validate_benchmark(m, bench)

    (bench, validation), peak = traced_peak(tier)
    assert validation.total_flags == 0
    entries = _Band(m, config).at(bench.splits[0].relaxations).nbytes
    # Beside the band: a chunk of stream words and its draws, and the report.
    bound = m.k * m.k + 2 * entries + BLOCK_BYTES_PER_CELL * 4096 + 65_536
    assert bound < m.values.nbytes
    assert peak <= bound


def test_a_band_of_more_than_254_levels_holds_them_in_uint16() -> None:
    # ceil((0.9 - 0.001) / 0.001) = 899 levels do not fit a byte beside its
    # unfound mark. Every |M - 0.9| here is at least 0.5, so no entry joins
    # before level 499 and the split's levels are stored above 255.
    m = make_matrix(np.random.default_rng(3).uniform(0.0, 0.4, (24, 24)))
    config = SearchConfig(tau=0.9, epsilon0=0.001, step=0.001, max_attempts=5, set_size=4, seed=5)
    assert _Band(m, config).level.dtype == np.uint16
    assert _Band(m, replace(config, step=0.05)).level.dtype == np.uint8
    spec = search_split(m, config)
    assert spec.relaxations > 255
    assert spec == reference_search_split(m, config)


def test_band_levels_read_in_blocks_are_the_levels_of_one_mask(monkeypatch) -> None:
    # Blocks of 7 cells end mid-row, so every row straddles a block edge.
    monkeypatch.setattr(search, "_BAND_BLOCK_CELLS", 7)
    m = synth_matrix(40, seed=3)
    config = SearchConfig(tau=0.5, epsilon0=0.02, step=0.03)
    band = _Band(m, config)
    dist = np.abs(m.values - config.tau)
    np.fill_diagonal(dist, np.inf)
    expected: list[int] = []
    levels = np.full((40, 40), band.unfound)
    for level in range(20):
        eps = config.epsilon0 + config.step * level
        joins = dist <= eps
        if level:
            joins &= dist > config.epsilon0 + config.step * (level - 1)
        expected += np.flatnonzero(joins).tolist()
        levels[joins] = level  # the first level that holds each entry
        assert band.at(level).tolist() == expected
        assert np.array_equal(band.level, levels)
    assert len(expected) == 40 * 39  # the last levels hold every off-diagonal entry


@pytest.mark.parametrize("matrix_seed", [1, 2, 7])
def test_paper_scale_tiers_match_reference_searches(matrix_seed) -> None:
    # The property test above stays at K <= 30 and a few attempts per level.
    # Here, at K=184 with the default max_attempts, passes draw thousands of
    # candidates, run levels to their cap, relax, and restart.
    m = synth_matrix(184, seed=matrix_seed)
    relaxations = 0
    for tau in (0.9, 0.5, 0.25):
        config = SearchConfig(tau=tau, seed=matrix_seed)
        bench = generate_benchmark(m, config)
        assert bench.splits == tuple(
            reference_search_split(m, replace(config, seed=derive_seed(config.seed, i)))
            for i in range(10)
        )
        relaxations += sum(s.relaxations for s in bench.splits)
    assert relaxations > 0


def test_search_stops_relaxing_once_the_band_holds_every_entry() -> None:
    # Every off-diagonal |0 - 0.9| is in band from level 17 (eps 0.9000...01);
    # with max_attempts=1 each later rejection used to relax again, to 64.
    config = SearchConfig(tau=0.9, seed=1, max_attempts=1)
    spec = search_split(constant_matrix(20, 0.0, diag=0.0), config)
    assert spec.relaxations == 17
    assert spec.epsilon_final == _eps_at(config, 17)
    assert len(spec.train_families) == len(spec.test_families) == 10


def test_search_on_uniformly_feasible_matrix_never_relaxes() -> None:
    m = constant_matrix(20, 0.5)
    spec = search_split(m, SearchConfig(tau=0.5, seed=3))
    assert spec.epsilon_final == 0.05
    assert spec.relaxations == 0
    assert len(spec.train_families) == 10
    assert len(spec.test_families) == 10
    assert not set(spec.train_families) & set(spec.test_families)


def test_paper_difficulty_configs_are_valid() -> None:
    for tau in (0.9, 0.5, 0.25):
        config = SearchConfig(tau=tau, epsilon0=0.05, step=0.05, max_attempts=1000, set_size=10)
        assert config.tau == tau


@pytest.mark.parametrize("field", ["epsilon0", "step"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -0.05])
def test_search_config_requires_a_positive_finite_band(field, value) -> None:
    # A NaN band never admits an entry, so a search over it would relax forever.
    with pytest.raises(InfeasibleSearchError, match=f"{field} must be positive and finite"):
        SearchConfig(tau=0.5, **{field: value})


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"tau": 0.0}, "tau must be in (0, 1), got 0.0"),
        ({"tau": 1.0}, "tau must be in (0, 1), got 1.0"),
        ({"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
        ({"set_size": 0}, "set_size must be >= 1, got 0"),
        ({"seed": -1}, "seed must be an unsigned 64-bit value, got -1"),
        ({"seed": 2**64}, f"seed must be an unsigned 64-bit value, got {2**64}"),
        # A step too small to change epsilon0 leaves every level at the first band.
        ({"epsilon0": 0.001, "step": 1e-300}, "step 1e-300 does not widen epsilon0 0.001"),
    ],
)
def test_search_config_rejects_out_of_range_fields(fields, message) -> None:
    with pytest.raises(InfeasibleSearchError) as err:
        SearchConfig(**{"tau": 0.5, **fields})
    assert str(err.value) == message


def test_adversarial_matrix_relaxes_to_the_oracle_level() -> None:
    m = adversarial_matrix()
    oracle_eps = min_feasible_grid_eps(m.values, tau=0.5, set_size=2)
    assert oracle_eps == 0.05 + 0.05 * 2  # no solution at 0.05 or 0.10
    for seed in range(5):
        spec = search_split(m, SearchConfig(tau=0.5, set_size=2, seed=seed))
        assert spec.epsilon_final == 0.05 + 0.05 * 2
        assert spec.relaxations == 2
        assert set(spec.train_families) == {"fam00", "fam01"}
        assert set(spec.test_families) == {"fam02", "fam03"}


def test_search_rejects_small_matrices() -> None:
    m = constant_matrix(8, 0.5)
    with pytest.raises(InfeasibleSearchError):
        search_split(m, SearchConfig(tau=0.5, set_size=10))


def test_tier_on_too_few_families_fails_before_any_pass(monkeypatch) -> None:
    passes = []
    monkeypatch.setattr(search, "_search_pass", lambda *args: passes.append(args))
    with pytest.raises(InfeasibleSearchError, match="need at least 20 families for set_size=10, "
                                                    "matrix has 19"):
        generate_benchmark(constant_matrix(19, 0.5), SearchConfig(tau=0.5, set_size=10))
    assert passes == []


def test_a_later_pass_stops_once_it_relaxes_as_often_as_the_best(monkeypatch) -> None:
    # Every pass over this matrix relaxes at least twice, so after the first
    # pass finds level 2 no later pass can be kept.
    calls = []
    real_pass = search._search_pass

    def recording_pass(band, config, pass_seed, stop_at=None):
        result = real_pass(band, config, pass_seed, stop_at)
        calls.append((stop_at, result and result[2], real_pass(band, config, pass_seed)[2]))
        return result

    monkeypatch.setattr(search, "_search_pass", recording_pass)
    spec = search_split(adversarial_matrix(), SearchConfig(tau=0.5, set_size=2, seed=0))
    assert spec.relaxations == 2
    assert calls[0] == (None, 2, 2)
    assert [call[:2] for call in calls[1:]] == [(2, None)] * (SEARCH_RESTARTS - 1)
    # Run to the end, each stopped pass would have relaxed at least as often.
    assert all(full >= 2 for _, _, full in calls[1:])


def test_split_spec_rejects_overlap() -> None:
    with pytest.raises(InfeasibleSearchError):
        SplitSpec(train_families=("a", "b"), test_families=("b", "c"), tau=0.5,
                  epsilon_final=0.05, seed=0, relaxations=0, attempts_total=0)


@pytest.mark.parametrize(
    ("train", "test", "sizes"),
    [(("a",), ("b", "c"), "1/2"), (("a", "b"), ("c",), "2/1"), ((), (), "0/0")],
    ids=["short train", "short test", "empty"],
)
def test_split_spec_rejects_unequal_or_empty_sides(train, test, sizes) -> None:
    with pytest.raises(InfeasibleSearchError) as err:
        SplitSpec(train_families=train, test_families=test, tau=0.5,
                  epsilon_final=0.05, seed=0, relaxations=0, attempts_total=1)
    assert str(err.value) == f"split sides must be equal-sized and non-empty, got {sizes}"


def test_split_spec_rejects_a_repeated_family() -> None:
    with pytest.raises(InfeasibleSearchError, match="split sides must not repeat families"):
        SplitSpec(train_families=("a", "a"), test_families=("b", "c"), tau=0.5,
                  epsilon_final=0.05, seed=0, relaxations=0, attempts_total=2)


def test_search_is_deterministic() -> None:
    rng = np.random.default_rng(5)
    grid = rng.uniform(0.0, 1.0, (30, 30))
    m = make_matrix(grid)
    config = SearchConfig(tau=0.5, set_size=4, seed=77)
    assert search_split(m, config) == search_split(m, config)


def test_returned_split_stays_within_final_band() -> None:
    rng = np.random.default_rng(11)
    for trial in range(10):
        grid = rng.uniform(0.0, 1.0, (25, 25))
        m = make_matrix(grid)
        config = SearchConfig(tau=0.4, set_size=5, seed=trial)
        spec = search_split(m, config)
        assert split_max_deviation(m, spec) <= spec.epsilon_final
        assert spec.epsilon_final == config.epsilon0 + config.step * spec.relaxations


def test_small_instance_oracle_property() -> None:
    for trial in range(20):
        m = synth_matrix(8, seed=trial)
        tau = (0.9, 0.5, 0.25)[trial % 3]
        config = SearchConfig(tau=tau, set_size=2, seed=trial)
        spec = search_split(m, config)
        oracle = min_feasible_grid_eps(m.values.tolist(), tau=tau, set_size=2)
        assert oracle <= spec.epsilon_final <= oracle + 0.05 + 1e-12


def test_generate_benchmark_constant_matrix() -> None:
    m = constant_matrix(20, 0.5)
    bench = generate_benchmark(m, SearchConfig(tau=0.5, seed=0), n_splits=10)
    assert len(bench.splits) == 10
    assert all(s.epsilon_final == 0.05 for s in bench.splits)
    assert bench.difficulty_label == "Medium"


def test_generate_benchmark_rejects_zero_splits() -> None:
    with pytest.raises(InfeasibleSearchError, match="n_splits must be >= 1, got 0"):
        generate_benchmark(constant_matrix(20, 0.5), SearchConfig(tau=0.5), n_splits=0)


def test_three_difficulty_configs_give_thirty_splits(paper_matrix) -> None:
    total = 0
    for tau in (0.9, 0.5, 0.25):
        bench = generate_benchmark(paper_matrix, SearchConfig(tau=tau, seed=1), n_splits=10)
        total += len(bench.splits)
    assert total == 30


def test_benchmark_generation_is_deterministic(paper_matrix) -> None:
    config = SearchConfig(tau=0.5, seed=42)
    a = generate_benchmark(paper_matrix, config, n_splits=4)
    b = generate_benchmark(paper_matrix, config, n_splits=4)
    assert benchmark_to_dict(a) == benchmark_to_dict(b)


def test_benchmark_splits_have_derived_distinct_seeds(paper_matrix) -> None:
    bench = generate_benchmark(paper_matrix, SearchConfig(tau=0.5, seed=9), n_splits=6)
    seeds = [s.seed for s in bench.splits]
    assert len(set(seeds)) == len(seeds)
    assert all(s.seed != 9 for s in bench.splits)


def test_no_family_is_on_both_sides_of_any_split(paper_matrix) -> None:
    for tau in (0.9, 0.5, 0.25):
        bench = generate_benchmark(paper_matrix, SearchConfig(tau=tau, seed=5), n_splits=10)
        for spec in bench.splits:
            assert not set(spec.train_families) & set(spec.test_families)
            assert len(spec.train_families) == len(spec.test_families) == 10


def test_benchmark_document_round_trips_a_generated_tier(paper_matrix, tmp_path) -> None:
    bench = generate_benchmark(paper_matrix, SearchConfig(tau=0.5, seed=3), n_splits=3)
    doc = benchmark_to_dict(bench)
    assert benchmark_from_dict(doc) == bench
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    loaded = load_benchmark(path)
    assert loaded == bench
    assert benchmark_to_dict(loaded) == doc
    assert list(doc) == ["difficulty_label", "tau", "epsilon0", "step", "max_attempts",
                         "set_size", "seed", "splits"]


def _small_benchmark_document() -> dict:
    m = constant_matrix(6, 0.5)
    return benchmark_to_dict(generate_benchmark(m, SearchConfig(tau=0.5, set_size=2), 2))


@pytest.mark.parametrize(
    "field",
    ["difficulty_label", "tau", "epsilon0", "step", "max_attempts", "set_size", "seed", "splits"],
)
def test_benchmark_document_missing_field_is_a_format_error(field) -> None:
    doc = _small_benchmark_document()
    del doc[field]
    with pytest.raises(MatrixFormatError, match=f"missing field '{field}'"):
        benchmark_from_dict(doc)


@pytest.mark.parametrize(
    "field",
    ["train_families", "test_families", "epsilon_final", "relaxations", "attempts_total", "seed"],
)
def test_benchmark_document_missing_split_field_is_a_format_error(field) -> None:
    doc = _small_benchmark_document()
    del doc["splits"][1][field]
    with pytest.raises(MatrixFormatError, match=f"missing field '{field}'"):
        benchmark_from_dict(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "splits": 3},
        lambda doc: {**doc, "splits": ["split"]},
        lambda doc: {**doc, "splits": [None]},
        lambda doc: {**doc, "tau": "0.5"},
        lambda doc: {**doc, "set_size": None},
        lambda doc: {**doc, "splits": [{**doc["splits"][0], "train_families": 5}]},
        lambda doc: {**doc, "splits": []},
    ],
    ids=["list", "int-splits", "str-split", "null-split", "str-tau", "null-set-size",
         "int-families", "no-splits"],
)
def test_wrong_typed_benchmark_document_is_a_format_error(edit) -> None:
    with pytest.raises(MatrixFormatError, match="malformed benchmark document"):
        benchmark_from_dict(edit(_small_benchmark_document()))


@pytest.mark.parametrize(
    ("field", "value", "expected"),
    [
        ("difficulty_label", 7, "a string"),
        ("tau", True, "a finite number"),
        ("epsilon0", float("nan"), "a finite number"),
        pytest.param("step", 10**400, "a finite number", id="step-400-digit-int"),
        ("max_attempts", 2.5, "an integer"),
        ("set_size", True, "an integer"),
        ("seed", 3.0, "an integer"),
        ("train_families", "ab", "a list of strings"),
        ("test_families", ["fam00", 1], "a list of strings"),
        ("test_families", ("fam00", "fam01"), "a list of strings"),
        ("epsilon_final", "0.05", "a finite number"),
        ("epsilon_final", float("inf"), "a finite number"),
        ("relaxations", None, "an integer"),
        ("attempts_total", False, "an integer"),
    ],
)
def test_benchmark_document_field_of_the_wrong_json_type_is_named(field, value, expected) -> None:
    doc = _small_benchmark_document()
    if field in doc:
        doc[field] = value
    else:
        doc["splits"][1][field] = value
    with pytest.raises(MatrixFormatError, match=f"document: '{field}' must be {expected}$"):
        benchmark_from_dict(doc)


def test_benchmark_document_names_a_missing_field_before_a_wrong_typed_one() -> None:
    doc = _small_benchmark_document()
    doc["tau"] = "0.5"
    del doc["seed"]
    with pytest.raises(MatrixFormatError, match="missing field 'seed'"):
        benchmark_from_dict(doc)


def _set_size_3_document() -> dict:
    m = constant_matrix(12, 0.5)
    return benchmark_to_dict(generate_benchmark(m, SearchConfig(tau=0.5, set_size=3), 2))


@pytest.mark.parametrize(
    ("edit", "expected"),
    [
        ({"train_families": ["fam00"]}, "split 1 'train_families' has 1 families, set_size is 3"),
        ({"test_families": []}, "split 1 'test_families' has 0 families, set_size is 3"),
        ({"relaxations": -1}, "split 1 'relaxations' must be >= 0, got -1"),
        ({"attempts_total": 2}, "split 1 'attempts_total' must be >= set_size 3, got 2"),
        ({"epsilon_final": 0.7},
         r"split 1 'epsilon_final' must be epsilon0 \+ step \* relaxations = 0.05, got 0.7"),
        ({"relaxations": 1}, r"relaxations = 0.1, got 0.05"),
        # eps(2) is 0.05 + 0.05 * 2 == 0.15000000000000002 in floats, and JSON
        # round-trips it exactly, so the loader compares without a tolerance.
        ({"relaxations": 2, "epsilon_final": 0.15}, r"relaxations = 0.15000000000000002, got 0.15"),
        ({"relaxations": 10**400}, "int too large to convert to float"),
    ],
    ids=["one-train-family", "no-test-families", "negative-relaxations", "too-few-attempts",
         "epsilon-at-no-relaxation", "epsilon-below-relaxation", "epsilon-off-by-rounding",
         "huge-relaxations"],
)
def test_inconsistent_benchmark_split_is_a_format_error(edit, expected) -> None:
    doc = _set_size_3_document()
    doc["splits"][1].update(edit)
    with pytest.raises(MatrixFormatError, match=f"malformed benchmark document: .*{expected}$"):
        benchmark_from_dict(doc)


def test_benchmark_document_loads_a_relaxed_split_at_its_exact_band() -> None:
    doc = _set_size_3_document()
    doc["splits"][1].update(relaxations=2, epsilon_final=0.05 + 0.05 * 2, attempts_total=3)
    spec = benchmark_from_dict(json.loads(json.dumps(doc))).splits[1]
    assert (spec.relaxations, spec.epsilon_final, spec.attempts_total) == (2, 0.15000000000000002, 3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    k=st.integers(4, 24),
    matrix_seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([2, None]),
    tau=st.sampled_from([0.9, 0.5, 0.25]) | st.floats(0.01, 0.99),
    epsilon0=st.sampled_from([0.05, 0.02]),
    step=st.sampled_from([0.05, 0.01]),
    max_attempts=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
    n_splits=st.integers(1, 5),
    data=st.data(),
)
def test_tier_splits_equal_independent_split_searches(
    k, matrix_seed, decimals, tau, epsilon0, step, max_attempts, seed, n_splits, data
) -> None:
    # Split i of a tier is the search of split i alone, whatever the splits
    # before it did: nothing a tier shares between its splits may leak.
    grid = np.random.default_rng(matrix_seed).uniform(0.0, 1.0, (k, k))
    if decimals is not None:
        grid = np.round(grid, decimals)
    m = make_matrix(grid)
    config = SearchConfig(
        tau=tau,
        epsilon0=epsilon0,
        step=step,
        max_attempts=max_attempts,
        set_size=data.draw(st.integers(1, k // 2), label="set_size"),
        seed=seed,
    )
    bench = generate_benchmark(m, config, n_splits)
    assert bench.config == config
    assert bench.splits == tuple(
        search_split(m, replace(config, seed=derive_seed(config.seed, i)))
        for i in range(n_splits)
    )
