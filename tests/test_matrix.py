from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from famsplit import matrix
from famsplit.ablation import _row_means
from famsplit.errors import MatrixFormatError
from famsplit.matrix import (
    _SAVE_BLOCK_CELLS,
    HEADER_CELL,
    CrossErrorMatrix,
    SynthParams,
    load_matrix,
    save_matrix,
    synth_matrix,
    synth_structure,
)

from conftest import constant_matrix, make_matrix


# Reference loader and writer: the cell-at-a-time implementations, kept
# unchanged so the fixed-width ones can be required to give exactly their
# bytes, values, error types and messages.
def reference_load_matrix(path: str | Path) -> CrossErrorMatrix:
    """Parse a matrix CSV (header line + one row per family)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != HEADER_CELL:
        raise MatrixFormatError(
            f"{path}: line 1 must start with {HEADER_CELL!r}, got {header[0]!r}"
        )
    families = header[1:]
    k = len(families)
    if len(lines) - 1 != k:
        raise MatrixFormatError(
            f"{path}: header names {k} families but file has {len(lines) - 1} data rows"
        )
    values = np.empty((k, k), dtype=np.float64)
    for t, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != k + 1:
            raise MatrixFormatError(
                f"{path}: line {t} has {len(cells) - 1} entries, expected {k}"
            )
        if cells[0] != families[t - 2]:
            raise MatrixFormatError(
                f"{path}: line {t} row name {cells[0]!r} does not match header "
                f"name {families[t - 2]!r}"
            )
        for v, cell in enumerate(cells[1:]):
            try:
                values[t - 2, v] = float(cell)
            except ValueError:
                raise MatrixFormatError(
                    f"{path}: unparseable number {cell!r} at line {t}, column {v}"
                ) from None
            if not 0.0 <= values[t - 2, v] <= 1.0:
                raise MatrixFormatError(
                    f"{path}: entry {cell} at line {t}, column {v} outside [0, 1]"
                )
    return CrossErrorMatrix(tuple(families), values)


def reference_save_matrix(m: CrossErrorMatrix, path: str | Path) -> None:
    """Write the canonical CSV form (fixed 6-digit decimals, LF newlines)."""
    path = Path(path)
    lines = [",".join((HEADER_CELL, *m.families))]
    for t, family in enumerate(m.families):
        row = ",".join(f"{x:.6f}" for x in m.values[t])
        lines.append(f"{family},{row}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_outcome(load, path: Path) -> tuple:
    """What a loader gives for a file: families and value bits, or the error."""
    try:
        m = load(path)
    except Exception as exc:
        shows_chain = exc.__cause__ is not None or (
            exc.__context__ is not None and not exc.__suppress_context__
        )
        return type(exc), str(exc), shows_chain
    return m.families, m.values.tobytes()


# Cells float() accepts inside [0, 1], in canonical and other spellings.
VALID_CELLS = st.one_of(
    st.floats(0.0, 1.0).map("{:.6f}".format),
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1.0).map("{:.3e}".format),
    st.sampled_from(["0", "1", "-0", "-0.0", " 0.5", "+.5", "1e-1", "0.2_5", "1.0\t", "4e-7"]),
    # Eight characters with a dot second, like a canonical cell, but not one.
    st.sampled_from(["0.5e-001", "0.5_0000", "\uff10.\uff15\uff10\uff10\uff10\uff10\uff10\uff10"]),
)
BAD_CELLS = [
    "oops", "", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "0_5", "1e1", "0x1", ".", "0.5.5",
    "1.000001", "9.999999", "2.000000",
]
# Exact binary ties j/128 sit halfway between two 6-digit decimals, where
# %.6f rounds half to even; their float neighbours sit just off the tie.
TIES = [j / 128 for j in (1, 3, 5, 63, 65, 127)]
EDGE_VALUES = [
    0.0, -0.0, 1.0, 5e-7, 4.999999e-7, 2.5e-7, 1e-300, 5e-324, 0.9999995, 0.0000005,
    *TIES,
    *(float(np.nextafter(x, side)) for x in TIES for side in (0.0, 1.0)),
]


def matrix_csv(families: list[str], rows: list[str], newline: str = "\n") -> str:
    lines = [",".join((HEADER_CELL, *families)), *rows]
    return newline.join(lines) + newline


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    grid=st.integers(2, 40).flatmap(
        lambda k: hnp.arrays(
            np.float64, (k, k), elements=st.floats(0.0, 1.0) | st.sampled_from(EDGE_VALUES)
        )
    )
)
def test_save_load_save_is_byte_exact_and_matches_reference(tmp_path_factory, grid) -> None:
    directory = tmp_path_factory.mktemp("roundtrip")
    m = make_matrix(grid)
    save_matrix(m, directory / "a.csv")
    reference_save_matrix(m, directory / "ref.csv")
    loaded = load_matrix(directory / "a.csv")
    save_matrix(loaded, directory / "b.csv")
    first = (directory / "a.csv").read_bytes()
    assert first == (directory / "ref.csv").read_bytes()
    assert first == (directory / "b.csv").read_bytes()
    assert load_outcome(load_matrix, directory / "a.csv") == load_outcome(
        reference_load_matrix, directory / "a.csv"
    )


# The "\r\n" cases check that CRLF files load like LF ones. read_text translates
# CRLF to LF, so their rows reach load_matrix as LF text: canonical rows take
# the fixed-width path and the rest are parsed cell by cell, as in an LF file.
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(k=st.integers(2, 12), data=st.data(), newline=st.sampled_from(["\n", "\r\n"]))
def test_load_matches_reference_on_valid_spellings(tmp_path_factory, k, data, newline) -> None:
    families = [f"f{i}" for i in range(k)]
    rows = [",".join((name, *(data.draw(VALID_CELLS) for _ in range(k)))) for name in families]
    path = tmp_path_factory.mktemp("valid") / "m.csv"
    path.write_bytes(matrix_csv(families, rows, newline).encode("utf-8"))
    outcome = load_outcome(load_matrix, path)
    assert outcome[0] == tuple(families)
    assert outcome == load_outcome(reference_load_matrix, path)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    k=st.integers(2, 8),
    data=st.data(),
    bad=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(BAD_CELLS)), max_size=3
    ),
    row_edit=st.sampled_from([None, "short", "long", "rename", "swap", "drop"]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_load_matches_reference_on_any_file(
    tmp_path_factory, k, data, bad, row_edit, newline
) -> None:
    families = [f"f{i}" for i in range(k)]
    cells = [[data.draw(VALID_CELLS) for _ in range(k)] for _ in range(k)]
    for t, v, token in bad:
        cells[t % k][v % k] = token
    rows = [",".join((name, *row)) for name, row in zip(families, cells)]
    t = data.draw(st.integers(0, k - 1), label="edited row")
    if row_edit == "short":
        rows[t] = rows[t].rsplit(",", 1)[0]
    elif row_edit == "long":
        rows[t] += ",0.5"
    elif row_edit == "rename":
        rows[t] = "x" + rows[t]
    elif row_edit == "swap":
        rows[t], rows[-1] = rows[-1], rows[t]
    elif row_edit == "drop":
        del rows[t]
    path = tmp_path_factory.mktemp("load") / "m.csv"
    path.write_bytes(matrix_csv(families, rows, newline).encode("utf-8"))
    assert load_outcome(load_matrix, path) == load_outcome(reference_load_matrix, path)


@pytest.mark.parametrize(
    "rows",
    [
        ["a,0.5,oops", "b,0.5,0.5"],
        ["a,0.5,0.5", "b,nan,0.5"],
        ["a,0.5,inf", "b,0.5,0.5"],
        ["a,0.5,0.5", "b,-inf,0.5"],
        ["a,0.5,1.000001", "b,0.5,0.5"],
        ["a,0_5,0.5", "b,0.5,0.5"],
        ["a, 0.5,0.5", "b,0.5,0.5"],
        ["a,+.5,0.5", "b,0.5,0.5"],
        ["a,1e-1,0.5", "b,0.5,0.5"],
        ["a,0.5", "b,0.5,0.5"],
        ["a,0.5,0.5,0.5", "b,0.5,0.5"],
        ["a", "b,0.5,0.5"],
        ["a,0.5,0.5", "c,0.5,0.5"],
        ["a,1.5,oops", "b,0.5,0.5"],
        ["a,oops,1.5", "b,0.5,0.5"],
        ["a,0.5,0.5", "b,1.5,oops"],
        # Canonical-width rows that are not canonical cells in [0, 1].
        ["a,0.500000,1.000001", "b,0.500000,0.500000"],
        ["a,0.500000,0.500000", "b,9.999999,0.500000"],
        ["a,2.000000,0.500000", "b,0.500000,0.500000"],
        ["a,0.500000,0.5e-001", "b,0.500000,0.500000"],
        ["a,0.5_0000,0.500000", "b,0.500000,0.500000"],
        ["a,0.500000,0.500000", "b,\uff10.\uff15\uff10\uff10\uff10\uff10\uff10\uff10,0.500000"],
        ["a,0.500000,0.500000", "b,0.500000,0.500000 "],
    ],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_matches_reference_on_edge_files(tmp_path, rows: list[str], newline: str) -> None:
    path = tmp_path / "m.csv"
    path.write_bytes(matrix_csv(["a", "b"], rows, newline).encode("utf-8"))
    assert load_outcome(load_matrix, path) == load_outcome(reference_load_matrix, path)


def test_crlf_rows_take_the_fixed_width_path(tmp_path, monkeypatch) -> None:
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    save_matrix(synth_matrix(SynthParams(k=12, seed=4)), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    expected = load_matrix(lf)
    fixed_width = []
    fixed_width_parser = matrix._fixed_width_parser

    def spy(k: int):
        parse = fixed_width_parser(k)

        def parse_and_record(cells: str):
            row = parse(cells)
            fixed_width.append(row is not None)
            return row

        return parse_and_record

    monkeypatch.setattr(matrix, "_fixed_width_parser", spy)
    loaded = load_matrix(crlf)
    assert loaded.families == expected.families
    assert np.array_equal(loaded.values, expected.values)
    assert fixed_width == [True] * 12


def test_load_matches_reference_on_every_one_byte_change_to_a_canonical_row(tmp_path) -> None:
    row = "a,0.500000,1.000000"
    for at in range(len("a,"), len(row)):
        # Each digit, dot and separator, and the code points next to them.
        for byte in " +,-./09:e":
            path = tmp_path / f"{at}-{ord(byte)}.csv"
            rows = [row[:at] + byte + row[at + 1 :], "b,0.250000,0.750000"]
            path.write_text(matrix_csv(["a", "b"], rows), encoding="utf-8")
            assert load_outcome(load_matrix, path) == load_outcome(reference_load_matrix, path)


def test_save_matches_reference_across_row_blocks(tmp_path) -> None:
    k = 300
    assert k * k > _SAVE_BLOCK_CELLS
    rows_per_block = _SAVE_BLOCK_CELLS // k
    grid = np.random.default_rng(5).uniform(0.0, 1.0, (k, k))
    grid[rows_per_block + 3, 7] = 3 / 128
    grid[k - 1, 0] = -0.0
    grid[k - 1, k - 1] = 5 / 128
    m = make_matrix(grid)
    save_matrix(m, tmp_path / "a.csv")
    reference_save_matrix(m, tmp_path / "ref.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert load_outcome(load_matrix, tmp_path / "a.csv") == load_outcome(
        reference_load_matrix, tmp_path / "a.csv"
    )


def test_round_trip_with_non_ascii_family_names(tmp_path) -> None:
    m = CrossErrorMatrix(("zbot", "famille\u00e9", "\u5bb6\u65cf"), np.full((3, 3), 0.25))
    save_matrix(m, tmp_path / "a.csv")
    reference_save_matrix(m, tmp_path / "ref.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert load_outcome(load_matrix, tmp_path / "a.csv") == (m.families, m.values.tobytes())
    save_matrix(load_matrix(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
        ("", "empty file"),
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
    with pytest.raises(MatrixFormatError, match="non-finite entry at row 1, column 0"):
        CrossErrorMatrix(("a", "b"), np.array([[0.5, 0.5], [np.nan, 0.5]]))


def test_row_mean_constant_matrix_returns_constant() -> None:
    m = constant_matrix(5, 0.37, diag=1.0)
    assert _row_means(m) == pytest.approx([0.37] * 5)


def test_row_mean_two_family_single_element() -> None:
    m = make_matrix([[1.0, 0.4], [0.3, 1.0]])
    assert _row_means(m) == [0.4, 0.3]


def test_row_mean_matches_independent_recomputation() -> None:
    rng = np.random.default_rng(42)
    grid = rng.uniform(0.0, 1.0, (4, 4))
    m = make_matrix(grid)
    means = _row_means(m)
    for t in range(4):
        expected = (sum(grid[t]) - grid[t][t]) / 3
        assert means[t] == pytest.approx(expected, abs=1e-12)


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_synth_rejects_a_seed_out_of_range(seed) -> None:
    with pytest.raises(MatrixFormatError, match=f"seed must be an unsigned 64-bit value, got {seed}"):
        SynthParams(k=4, seed=seed)


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
