from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from famsplit import matrix
from famsplit.errors import MatrixFormatError
from famsplit.matrix import (
    _LOAD_BLOCK_CELLS,
    _SAVE_BLOCK_CELLS,
    HEADER_CELL,
    CrossErrorMatrix,
    _row_means,
    load_matrix,
    save_matrix,
    synth_matrix,
    synth_structure,
)

from conftest import constant_matrix, make_matrix, traced_peak


# Reference loader and writer: the cell-at-a-time implementations, kept so
# the fixed-width ones can be required to give exactly their bytes, values,
# error types and messages.
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
    try:  # the header's names, as the constructor checks them, before the rows
        CrossErrorMatrix(tuple(families), np.zeros((len(families), len(families))))
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: line 1: {exc}") from None
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
# Every edge value in every column: decimal ties and the floats either side of them.
@example(grid=np.array([np.roll(EDGE_VALUES, i) for i in range(len(EDGE_VALUES))]))
def test_save_load_save_is_byte_exact_and_matches_reference(tmp_path_factory, grid) -> None:
    directory = tmp_path_factory.mktemp("roundtrip")
    m = make_matrix(grid)
    save_matrix(m, directory / "a.csv")
    reference_save_matrix(m, directory / "ref.csv")
    loaded = load_matrix(directory / "a.csv")
    assert loaded.families == m.families
    assert loaded.values.tobytes() == m.values.tobytes()
    save_matrix(loaded, directory / "b.csv")
    first = (directory / "a.csv").read_bytes()
    assert first == (directory / "ref.csv").read_bytes()
    assert first == (directory / "b.csv").read_bytes()
    assert load_outcome(load_matrix, directory / "a.csv") == load_outcome(
        reference_load_matrix, directory / "a.csv"
    )


# The "\r\n" cases check that CRLF files load like LF ones. load_matrix
# translates CRLF to LF on the file's bytes, as read_text does: canonical rows
# take the fixed-width path and the rest are parsed cell by cell, as in an LF file.
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
    save_matrix(synth_matrix(12, seed=4), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    expected = load_matrix(lf)
    fixed_width = []
    block_parser = matrix._block_parser

    def spy(k: int):
        parse = block_parser(k)

        def parse_and_record(block, out):
            rejected = parse(block, out)
            fixed_width.extend((~rejected).tolist())
            return rejected

        return parse_and_record

    monkeypatch.setattr(matrix, "_block_parser", spy)
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


# A matrix spanning several of load_matrix's parse blocks, ending in a
# partial one, so row edits can sit at a block's first and last row.
BLOCK_K = 300
BLOCK_ROWS = _LOAD_BLOCK_CELLS // BLOCK_K
LAST_BLOCK = BLOCK_K - BLOCK_K % BLOCK_ROWS


def block_file_lines(families: tuple[str, ...] | None = None) -> list[bytes]:
    """The lines of a canonical BLOCK_K file, spelled as the reference writer spells them."""
    m = make_matrix(np.random.default_rng(8).uniform(0.0, 1.0, (BLOCK_K, BLOCK_K)), families)
    lines = [",".join((HEADER_CELL, *m.families)).encode("utf-8")]
    for family, row in zip(m.families, m.values):
        lines.append(",".join((family, *(f"{x:.6f}" for x in row))).encode("utf-8"))
    return lines


def respell(line: bytes, cell: int, text: str) -> bytes:
    cells = line.split(b",")
    cells[cell + 1] = text.encode("utf-8")
    return b",".join(cells)


def repr_row(line: bytes) -> bytes:
    name, *cells = line.split(b",")
    return b",".join((name, *(repr(float(c)).encode("ascii") for c in cells)))


def off_grid_row(line: bytes) -> bytes:
    """The row spelled cell by cell off the 1e-6 grid: -0.0 and 4e-7, then
    `repr` spellings of values between grid points."""
    name, *cells = line.split(b",")
    cells = [repr(float(c) * 0.9999997).encode("ascii") for c in cells]
    cells[:2] = [b"-0.0", b"4e-7"]
    return b",".join((name, *cells))


def edit_rows(edits: dict[int, object]):
    """An edit that replaces data row t's line by change(line), for each (t, change)."""

    def edit(lines: list[bytes]) -> bytes:
        for t, change in edits.items():
            lines[t + 1] = change(lines[t + 1])
        return b"\n".join(lines) + b"\n"

    return edit


def whole_file(change):
    return lambda lines: change(b"\n".join(lines) + b"\n")


BLOCK_EDGES = (BLOCK_ROWS, 2 * BLOCK_ROWS - 1, LAST_BLOCK, BLOCK_K - 1)
# Edits of a canonical BLOCK_K file, each with whether the file still loads.
BLOCK_FILE_EDITS = {
    "canonical": (edit_rows({}), True),
    "repr rows at block edges": (edit_rows({t: repr_row for t in BLOCK_EDGES}), True),
    "off-grid row in every block": (
        edit_rows({t: off_grid_row for t in (*range(0, BLOCK_K, BLOCK_ROWS), BLOCK_K - 1)}),
        True,
    ),
    "short cell at block edges": (
        edit_rows({t: lambda line: respell(line, 5, "0.5") for t in BLOCK_EDGES}),
        True,
    ),
    **{
        f"bad cell in row {t}": (edit_rows({t: lambda line: respell(line, 7, "oops")}), False)
        for t in (*BLOCK_EDGES, LAST_BLOCK + 1)
    },
    "value over 1 in the first row of a block": (
        edit_rows({BLOCK_ROWS: lambda line: respell(line, 0, "1.000001")}),
        False,
    ),
    "two faulty rows in one block": (
        edit_rows(
            {
                BLOCK_ROWS + 2: lambda line: respell(line, BLOCK_K - 1, "2.000000"),
                BLOCK_ROWS + 5: lambda line: line.rsplit(b",", 1)[0],
            }
        ),
        False,
    ),
    "repr row before a faulty row in one block": (
        edit_rows({BLOCK_ROWS + 1: repr_row, BLOCK_ROWS + 3: lambda line: b"x" + line}),
        False,
    ),
    "faulty rows in two blocks": (
        edit_rows(
            {LAST_BLOCK - 1: lambda line: line + b",0.5", LAST_BLOCK: lambda line: b"x" + line}
        ),
        False,
    ),
    "invalid UTF-8 in a row": (
        edit_rows({100: lambda line: line[:-3] + b"\xff" + line[-2:]}),
        False,
    ),
    "invalid UTF-8 in the header": (
        lambda lines: b"\n".join((lines[0] + b"\xc3(", *lines[1:])) + b"\n",
        False,
    ),
    "truncated UTF-8 at the end": (whole_file(lambda data: data + b"\xe5\xae"), False),
    "lone CR line ends": (whole_file(lambda data: data.replace(b"\n", b"\r")), True),
    "mixed line ends": (
        lambda lines: b"".join(
            line + (b"\r\n", b"\r", b"\n")[i % 3] for i, line in enumerate(lines)
        ),
        True,
    ),
    "BOM": (whole_file(lambda data: b"\xef\xbb\xbf" + data), False),
    "no final newline": (whole_file(lambda data: data[:-1]), True),
    "no final newline on a repr row": (
        lambda lines: b"\n".join((*lines[:-1], repr_row(lines[-1]))),
        True,
    ),
}


@pytest.mark.parametrize(
    "edit, loads", BLOCK_FILE_EDITS.values(), ids=BLOCK_FILE_EDITS.keys()
)
def test_load_matches_reference_across_parse_blocks(tmp_path, edit, loads: bool) -> None:
    assert BLOCK_ROWS > 5 and BLOCK_K % BLOCK_ROWS > 1
    path = tmp_path / "m.csv"
    path.write_bytes(edit(block_file_lines()))
    outcome = load_outcome(load_matrix, path)
    assert isinstance(outcome[1], bytes) == loads
    assert outcome == load_outcome(reference_load_matrix, path)


def test_non_ascii_names_take_the_fixed_width_path_across_blocks(tmp_path, monkeypatch) -> None:
    families = tuple(f"famille\u00e9{i}" if i % 2 else f"\u5bb6{i}" for i in range(BLOCK_K))
    path = tmp_path / "m.csv"
    path.write_bytes(b"\n".join(block_file_lines(families)) + b"\n")
    fixed_width = []
    block_parser = matrix._block_parser

    def spy(k: int):
        parse = block_parser(k)

        def parse_and_record(block, out):
            rejected = parse(block, out)
            fixed_width.extend((~rejected).tolist())
            return rejected

        return parse_and_record

    monkeypatch.setattr(matrix, "_block_parser", spy)
    outcome = load_outcome(load_matrix, path)
    assert outcome[0] == families
    assert outcome == load_outcome(reference_load_matrix, path)
    assert fixed_width == [True] * BLOCK_K


@pytest.mark.parametrize("k", [184, 400, 1000])
def test_save_holds_at_most_36_bytes_per_cell_of_a_block(tmp_path, k) -> None:
    m = synth_matrix(k, seed=1)
    block_cells = min(k, max(1, _SAVE_BLOCK_CELLS // k)) * k
    _, peak = traced_peak(lambda: save_matrix(m, tmp_path / "m.csv"))
    assert peak <= 36 * block_cells


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
    assert loaded == m
    assert make_matrix([[1.0, 0.125], [0.25, 0.999999]]) != m
    assert CrossErrorMatrix(m.families[::-1], m.values) != m


# sha256 of the saved CSV, pinned when the shape was still settable. Below
# K = 6 the recipe plants no loner or hermit, so these also pin the empty draws.
SYNTH_CSV_SHA256 = {
    (2, 0): "aa3faf356be015587763a22c505f108b6569675c4779523e7021d4bf1cd94102",
    (2, 7): "4a0ea4377f6320aebbe67f624dec60e147d3fe1ea5af05a8bac52325b659a557",
    (3, 0): "f0b41de9657d0e3734a6a2daf2f7ca828bae735d0af467ff81156479d3bcda9a",
    (3, 7): "a1e0ed59c7ca710c153b9220c12283b8e478011c90ac7d1a4605e3f322d0a9f8",
    (4, 0): "3d1d56fed071060e506a3a5b24d494650beccff2658e2fbaedafb1cfa7844b19",
    (4, 7): "36be6c78e8439270753937bd1cd0ec1c9f10f13841e58c35560cd58d284501ff",
    (5, 0): "bbc3880efcb244f1f85cc8fb47c93b7ad09b56d3aa2fc1bffbddd0a94a310153",
    (5, 7): "45a94d96fa3ae1ffa36d68bc8405ed459c1da6b16c4ab20f79de3c4d4bdf8e7b",
    (6, 0): "665482aaa981ebabb4c1747bc4608ceee43317d8221cdcc47c89f0a31238d742",
    (6, 7): "b338184b1bc868afabdd1f334682b02dba10bba1374e6cbde76d9d770bece7a6",
    (12, 7): "8b769311bd3adad58f7dafdd1894b4d5a52963d73a93107aa2078590c137a280",
}


def test_synth_matrix_saved_twice_is_byte_identical(tmp_path) -> None:
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for (k, seed), digest in SYNTH_CSV_SHA256.items():
        save_matrix(synth_matrix(k, seed=seed), a)
        save_matrix(synth_matrix(k, seed=seed), b)
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, (
            f"K={k} seed={seed} under numpy {np.__version__}"
        )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("family,a,b\na,0.5,0.5\n", "2 families but file has 1 data rows"),
        ("family,a,b\na,0.5\nb,0.5,0.5\n", "line 2 has 1 entries"),
        ("family,a,b\na,0.5,1.5\nb,0.5,0.5\n", "outside [0, 1]"),
        ("family,a,b\na,0.5,-0.1\nb,0.5,0.5\n", "outside [0, 1]"),
        ("family,a,a\na,0.5,0.5\na,0.5,0.5\n", "duplicate family name"),
        ("family,a,\na,0.5,0.5\n,0.5,0.5\n", "empty family name"),
        # A bad header names the file and line 1, and is found before the
        # row count and the rows are checked.
        ("family,b,a,b\nb,0.5,0.5,0.5\n", "bad.csv: line 1: duplicate family name 'b'"),
        ("family,,a\n,0.5,oops\na,0.5,0.5\n", "bad.csv: line 1: empty family name at index 0"),
        ("family,a\na,1.0\n", "bad.csv: line 1: need at least 2 families, got 1"),
        ("family\n", "bad.csv: line 1: need at least 2 families, got 0"),
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


def parse_buffer_bound(k: int) -> int:
    """Bytes a load may hold beside its grid: the read buffer and the parse
    block (9 bytes a cell each), the block's int32 digits and the casts'
    buffers (under 18 bytes a cell), and the header's names and their index."""
    return 36 * _LOAD_BLOCK_CELLS + 100 * k


def test_load_holds_the_grid_and_its_parse_buffers(tmp_path) -> None:
    # The file is read a run of lines at a time into one buffer, and the
    # loader's grid becomes the matrix's without a copy: no second K x K
    # array and no file-sized buffer is ever held.
    k = 400
    path = tmp_path / "m.csv"
    save_matrix(synth_matrix(k, seed=1), path)
    loaded, peak = traced_peak(lambda: load_matrix(path))
    assert loaded.k == k
    assert peak <= k * k * 8 + parse_buffer_bound(k)


def test_load_of_a_non_ascii_name_keeps_the_ascii_bound(tmp_path) -> None:
    # UTF-8 is checked a slice at a time, so one CJK name no longer brings
    # back the whole decoded text beside the bytes.
    k = 1000
    m = synth_matrix(k, seed=1)
    path = tmp_path / "m.csv"
    save_matrix(CrossErrorMatrix((*m.families[:-1], "\u5bb6\u65cf"), m.values), path)
    loaded, peak = traced_peak(lambda: load_matrix(path))
    assert loaded.families[-1] == "\u5bb6\u65cf"
    assert peak <= k * k * 8 + parse_buffer_bound(k)


def test_a_header_naming_many_families_is_a_row_count_error(tmp_path) -> None:
    # The file is too small for 20,000 rows of 20,000 cells, so the load
    # builds no 3.2 GB grid before it finds that the file has 2 rows.
    k = 20_000
    families = [f"f{i}" for i in range(k)]
    path = tmp_path / "m.csv"
    path.write_text(matrix_csv(families, ["f0,0.5", "f1,0.5"]))

    def load() -> MatrixFormatError:
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        return err.value

    error, peak = traced_peak(load)
    assert str(error) == f"{path}: header names {k} families but file has 2 data rows"
    assert peak < 100 * k * 8  # the header's names, and no more than 100 rows of a grid


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
    with pytest.raises(MatrixFormatError, match=r"family name 'a\\rb' contains a delimiter"):
        CrossErrorMatrix(("a\rb", "c"), np.zeros((2, 2)))
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
        expected = (sum(m.values[t]) - m.values[t][t]) / 3
        assert means[t] == pytest.approx(expected, abs=1e-12)


def test_synth_is_pure_function_of_params() -> None:
    a = synth_matrix(30, seed=123)
    b = synth_matrix(30, seed=123)
    assert a.families == b.families
    assert np.array_equal(a.values, b.values)


def test_synth_rejects_tiny_k() -> None:
    with pytest.raises(MatrixFormatError, match="k must be >= 2, got 1"):
        synth_matrix(1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_synth_rejects_a_seed_out_of_range(seed) -> None:
    with pytest.raises(MatrixFormatError, match=f"seed must be an unsigned 64-bit value, got {seed}"):
        synth_matrix(4, seed=seed)


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
    structure = synth_structure(184, seed=7)
    assert structure.loner_rows
    k = paper_matrix.k
    off = ~np.eye(k, dtype=bool)
    row_means = [paper_matrix.values[t][off[t]].mean() for t in range(k)]
    loners = set(structure.loner_rows)
    worst_regular = min(mean for t, mean in enumerate(row_means) if t not in loners)
    for t in loners:
        assert row_means[t] < worst_regular
