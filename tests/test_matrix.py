from __future__ import annotations

import numpy as np
import pytest

from famsplit.errors import MatrixFormatError
from famsplit.matrix import (
    CrossErrorMatrix,
    SynthParams,
    load_matrix,
    row_mean_recall,
    save_matrix,
    synth_matrix,
    synth_structure,
)

from conftest import constant_matrix, make_matrix


def test_load_minimal_two_family_csv(tmp_path) -> None:
    path = tmp_path / "m.csv"
    path.write_text("family,a,b\na,0.900000,1.000000\nb,1.000000,0.900000\n")
    m = load_matrix(path)
    assert m.k == 2
    assert m.families == ("a", "b")
    assert m.values[0, 0] == 0.9
    assert m.values[0, 1] == 1.0
    assert m.values[1, 0] == 1.0
    assert m.values[1, 1] == 0.9


def test_load_184_family_file_carries_known_names(tmp_path, paper_matrix) -> None:
    path = tmp_path / "m184.csv"
    save_matrix(paper_matrix, path)
    m = load_matrix(path)
    assert m.k == 184
    for name in ("allaple", "zbot", "virlock"):
        assert name in m.families


def test_save_load_round_trip_is_byte_identical(tmp_path, paper_matrix) -> None:
    first = tmp_path / "a.csv"
    save_matrix(paper_matrix, first)
    second = tmp_path / "b.csv"
    save_matrix(load_matrix(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_two_family_matrix_has_three_lines(tmp_path) -> None:
    path = tmp_path / "m.csv"
    save_matrix(constant_matrix(2, 0.5), path)
    assert path.read_text().count("\n") == 3


def test_load_after_save_preserves_values(tmp_path) -> None:
    m = make_matrix([[1.0, 0.125], [0.25, 1.0]])
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    loaded = load_matrix(path)
    assert loaded.families == m.families
    assert np.array_equal(loaded.values, m.values)


def test_synth_matrix_saved_twice_is_byte_identical(tmp_path) -> None:
    params = SynthParams(k=12, seed=7)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_matrix(synth_matrix(params), a)
    save_matrix(synth_matrix(params), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("family,a,b\na,0.5,0.5\n", "2 families but file has 1 data rows"),
        ("family,a,b\na,0.5\nb,0.5,0.5\n", "line 2 has 1 entries"),
        ("family,a,b\na,0.5,1.5\nb,0.5,0.5\n", "outside [0, 1]"),
        ("family,a,b\na,0.5,-0.1\nb,0.5,0.5\n", "outside [0, 1]"),
        ("family,a,a\na,0.5,0.5\na,0.5,0.5\n", "duplicate family name"),
        ("family,a,\na,0.5,0.5\n,0.5,0.5\n", "empty family name"),
        ("family,a,b\na,0.5,oops\nb,0.5,0.5\n", "unparseable number 'oops' at line 2, column 1"),
        ("families,a,b\na,0.5,0.5\nb,0.5,0.5\n", "line 1 must start with"),
        ("family,a,b\nb,0.5,0.5\na,0.5,0.5\n", "does not match header"),
    ],
)
def test_load_rejects_malformed_files(tmp_path, text: str, fragment: str) -> None:
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert fragment in str(err.value)


def test_constructor_rejects_bad_grids() -> None:
    with pytest.raises(MatrixFormatError):
        CrossErrorMatrix(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(MatrixFormatError):
        CrossErrorMatrix(("a", "b"), np.full((2, 2), 1.2))
    with pytest.raises(MatrixFormatError):
        CrossErrorMatrix(("a",), np.zeros((1, 1)))
    with pytest.raises(MatrixFormatError):
        CrossErrorMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(MatrixFormatError):
        CrossErrorMatrix(("a", "has,comma"), np.zeros((2, 2)))


def test_row_mean_constant_matrix_returns_constant() -> None:
    m = constant_matrix(5, 0.37, diag=1.0)
    for t in range(5):
        assert row_mean_recall(m, t) == pytest.approx(0.37)


def test_row_mean_two_family_single_element() -> None:
    m = make_matrix([[1.0, 0.4], [0.4, 1.0]])
    assert row_mean_recall(m, 0) == 0.4


def test_row_mean_matches_independent_recomputation() -> None:
    rng = np.random.default_rng(42)
    grid = rng.uniform(0.0, 1.0, (4, 4))
    m = make_matrix(grid)
    for t in range(4):
        expected = (sum(grid[t]) - grid[t][t]) / 3
        assert row_mean_recall(m, t) == pytest.approx(expected, abs=1e-12)
        expected_self = sum(grid[t]) / 4
        assert row_mean_recall(m, t, include_self=True) == pytest.approx(expected_self, abs=1e-12)


def test_row_mean_index_out_of_range() -> None:
    m = constant_matrix(3, 0.5)
    with pytest.raises(IndexError):
        row_mean_recall(m, 3)
    with pytest.raises(IndexError):
        row_mean_recall(m, -1)


def test_synth_degenerate_params_give_all_ones() -> None:
    params = SynthParams(
        k=6,
        seed=0,
        generality_range=(1.0, 1.0),
        detectability_range=(1.0, 1.0),
        noise_sd=0.0,
        loner_fraction=0.0,
        hermit_fraction=0.0,
    )
    m = synth_matrix(params)
    assert np.array_equal(m.values, np.ones((6, 6)))


def test_synth_is_pure_function_of_params() -> None:
    params = SynthParams(k=30, seed=123)
    a = synth_matrix(params)
    b = synth_matrix(params)
    assert a.families == b.families
    assert np.array_equal(a.values, b.values)


def test_synth_rejects_tiny_k() -> None:
    with pytest.raises(MatrixFormatError):
        SynthParams(k=1, seed=0)


def test_synth_rejects_bad_ranges() -> None:
    with pytest.raises(MatrixFormatError):
        SynthParams(k=4, generality_range=(0.9, 0.3))
    with pytest.raises(MatrixFormatError):
        SynthParams(k=4, detectability_range=(0.0, 1.5))
    with pytest.raises(MatrixFormatError):
        SynthParams(k=4, noise_sd=-0.1)


def test_paper_scale_bands_are_populated(paper_matrix) -> None:
    # Exhaustive scan over all K^2 entries, independent of the search's band.
    values = paper_matrix.values
    k = paper_matrix.k
    for tau in (0.9, 0.5, 0.25):
        hits = 0
        for t in range(k):
            for v in range(k):
                if t != v and abs(values[t, v] - tau) <= 0.05:
                    hits += 1
        assert hits > 0, f"no candidates at tau={tau}"


def test_planted_loner_rows_sit_strictly_below_other_rows(paper_matrix) -> None:
    structure = synth_structure(SynthParams(k=184, seed=7))
    assert structure.loner_rows
    k = paper_matrix.k
    off = ~np.eye(k, dtype=bool)
    row_means = [paper_matrix.values[t][off[t]].mean() for t in range(k)]
    loners = set(structure.loner_rows)
    worst_regular = min(mean for t, mean in enumerate(row_means) if t not in loners)
    for t in loners:
        assert row_means[t] < worst_regular
