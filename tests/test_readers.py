"""The four input readers at their read boundaries.

Matrix CSVs, pool files, split TSVs and prediction files are all read
through `famsplit.lines.line_runs`: a window of bytes at a time, cut after
its last LF, checked as UTF-8 a slice at a time, with CRLF and CR read as
LF. The matrix reads `matrix._LOAD_READ_BYTES` at a time, the record files
`lines.RECORD_READ_BYTES`. These tests shrink the window and the UTF-8
slice to a few bytes, so ids, names, line ends and faults fall across reads,
and check each reader against its whole-file reference twin.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

from famsplit import lines, matrix
from famsplit.errors import MatrixFormatError, PoolError, PredictionError
from famsplit.evaluate import load_predictions
from famsplit.manifest import MaterializedSplit, SplitSide, load_pool, read_split, split_meta, write_split
from famsplit.matrix import HEADER_CELL, load_matrix
from famsplit.search import SplitSpec

from test_evaluate import predictions_outcome, reference_load_predictions
from test_manifest import pool_outcome, reference_load_pool, reference_read_split, split_outcome
from test_matrix import reference_load_matrix

# One-, two-, three- and four-byte characters, so a read of a few bytes can
# cut an id or a name inside a multibyte sequence.
CHARACTERS = ["a", "é", "家", "\U0001f600"]
BOM = "\ufeff"


def multibyte_ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{CHARACTERS[i % 4] * (1 + i % 3)}{i}" for i in range(n)]


@dataclass(frozen=True)
class Format:
    """An input file format: its valid lines, a faulty line, and its readers."""

    name: str
    lines: Callable[..., list[str]]  # lines(scale): more lines for a larger scale
    header: int  # lines before the first that `fault` may replace
    fault: str  # a line with too few fields
    error: type[Exception]  # the fault's error type
    message: str  # the fault's error text after "<path>: line N"
    write: Callable[[Path, bytes], Path]  # the file's bytes -> what `read` takes
    read: Callable[[Path], object]
    reference: Callable[[Path], object]
    outcome: Callable[[Callable[[Path], object], Path], object]
    read_size: tuple[object, str]  # the module attribute that holds the read size


def matrix_lines(scale: int = 1) -> list[str]:
    # Every third row is in repr() spellings, which are parsed cell by cell;
    # the others are canonical and parsed a block at a time.
    families = multibyte_ids("f", 4 + scale * 3 // 5)
    rows = []
    for i, family in enumerate(families):
        values = [((3 * i + j) % 11) / 10 for j in range(len(families))]
        cells = map(repr, values) if i % 3 == 1 else (f"{v:.6f}" for v in values)
        rows.append(",".join((family, *cells)))
    return [",".join((HEADER_CELL, *families)), *rows]


def matrix_outcome(read: Callable[[Path], object], path: Path) -> object:
    """The families and value bits, or the format error's type and text."""
    try:
        m = read(path)
    except MatrixFormatError as err:
        return MatrixFormatError, str(err)
    return m.families, m.values.tobytes()


def pool_lines(scale: int = 1) -> list[str]:
    records = [f"{sid}\tmalicious\talpha\t-" for sid in multibyte_ids("a", 9 * scale)]
    records += [f"{sid}\tmalicious\téta\t-" for sid in multibyte_ids("e", 7 * scale)]
    records += [f"{sid}\tbenign\t-\ttrain" for sid in multibyte_ids("t", 10 * scale)]
    return records + [f"{sid}\tbenign\t-\ttest" for sid in multibyte_ids("s", 6 * scale)]


def write_file(name: str) -> Callable[[Path, bytes], Path]:
    def write(directory: Path, data: bytes) -> Path:
        (directory / name).write_bytes(data)
        return directory / name

    return write


def written_split(directory: Path) -> MaterializedSplit:
    ms = MaterializedSplit(
        "streamed",
        SplitSide([("alpha", multibyte_ids("a", 6)), (None, multibyte_ids("t", 6))]),
        SplitSide([("éta", multibyte_ids("e", 4)), (None, multibyte_ids("s", 4))]),
    )
    spec = SplitSpec(train_families=("alpha",), test_families=("éta",), tau=0.5,
                     epsilon_final=0.05, seed=0, relaxations=0, attempts_total=1)
    write_split(ms, directory, split_meta(ms, spec, 0, 6, 4))
    return ms


def split_lines(scale: int = 1) -> list[str]:
    # At scale 1, the train side of written_split; at a larger one, a side
    # that reads but does not match meta.json.
    return [f"{sid}\tmalicious\talpha" for sid in multibyte_ids("a", 6 * scale)] + [
        f"{sid}\tbenign\t-" for sid in multibyte_ids("t", 6 * scale)
    ]


def write_train_tsv(directory: Path, data: bytes) -> Path:
    # The other two files are as write_split writes them; train.tsv carries the edit.
    split = directory / "split"
    written_split(split)
    (split / "train.tsv").write_bytes(data)
    return split


def prediction_lines(scale: int = 1) -> list[str]:
    ids = multibyte_ids("p", 30 * scale)
    return [f"{sid}\t{(i % 7) / 6!r}" for i, sid in enumerate(ids)]


RECORD_READ = (lines, "RECORD_READ_BYTES")
FORMATS = [
    Format("matrix", matrix_lines, 1, "x,0.5", MatrixFormatError, " has 1 entries, expected 4",
           write_file("m.csv"), load_matrix, reference_load_matrix, matrix_outcome,
           (matrix, "_LOAD_READ_BYTES")),
    Format("pool", pool_lines, 0, "x\tmalicious\talpha", PoolError, ": expected 4 fields, got 3",
           write_file("pool.tsv"), load_pool, reference_load_pool, pool_outcome, RECORD_READ),
    Format("split", split_lines, 0, "x\tmalicious", PoolError, ": expected 3 fields, got 2",
           write_train_tsv, read_split, reference_read_split, split_outcome, RECORD_READ),
    Format("predictions", prediction_lines, 0, "x", PredictionError, ": expected 2 fields, got 1",
           write_file("preds.tsv"), load_predictions, reference_load_predictions,
           predictions_outcome, RECORD_READ),
]


def read_bytes(monkeypatch, fmt: Format, n: int) -> None:
    """Make `fmt`'s reader read `n` bytes at a time."""
    monkeypatch.setattr(*fmt.read_size, n)


def file_path(target: Path) -> Path:
    """The edited file of a written `target`: itself, or a split's train.tsv."""
    return target / "train.tsv" if target.is_dir() else target


def outcome(fmt: Format, read: Callable[[Path], object], target: Path) -> object:
    """What `read` gives on `target` in `fmt` terms, or a decode error's type and text."""
    try:
        return fmt.outcome(read, target)
    except UnicodeDecodeError as err:
        return UnicodeDecodeError, str(err)


def loaded(result: object) -> bool:
    """Whether an `outcome` is a read file, not an error's (type, text)."""
    return not (isinstance(result, tuple) and isinstance(result[0], type))


def encoded(text_lines: list[str], newline: str = "\n", final_newline: bool = True) -> bytes:
    return (newline.join(text_lines) + (newline if final_newline else "")).encode("utf-8")


def test_the_split_lines_are_the_ones_write_split_writes(tmp_path) -> None:
    written_split(tmp_path)
    assert (tmp_path / "train.tsv").read_text(encoding="utf-8") == "".join(
        line + "\n" for line in split_lines()
    )


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("size", [1, 2, 3, 7, 4096])
@pytest.mark.parametrize("earlier_fault", [False, True])
@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data[:-6] + b"\xff" + data[-6:],  # an invalid byte in the last line
        lambda data: data + "家".encode("utf-8")[:2],  # a sequence cut short by the end
    ],
    ids=["invalid byte", "truncated at the end"],
)
def test_a_decode_error_is_read_texts_whole_file_error(
    tmp_path, monkeypatch, fmt, size, earlier_fault, edit
) -> None:
    # Files of more than 24 KiB, so the bad bytes lie past the first reads
    # and a line fault before them is met first.
    text_lines = fmt.lines(100)
    if earlier_fault:
        text_lines[fmt.header + 1] = fmt.fault
    target = fmt.write(tmp_path, edit(encoded(text_lines)))
    with pytest.raises(UnicodeDecodeError) as expected:
        file_path(target).read_text(encoding="utf-8")
    assert expected.value.start > 3 * 8192  # a position in the whole file
    read_bytes(monkeypatch, fmt, size)
    assert outcome(fmt, fmt.read, target) == (UnicodeDecodeError, str(expected.value))
    assert outcome(fmt, fmt.reference, target) == (UnicodeDecodeError, str(expected.value))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("size", [1, 2, 3, 7])
@pytest.mark.parametrize("slice_bytes", [1, 4096])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_reads_cut_anywhere_load_the_lf_file(
    tmp_path, monkeypatch, fmt, size, slice_bytes, newline, final_newline
) -> None:
    # Reads of a few bytes, and UTF-8 checks of slice_bytes, cut the
    # multibyte ids and names; a CRLF or a lone CR ends a line, as read_text
    # reads it; a last line needs no newline.
    (tmp_path / "lf").mkdir()
    (tmp_path / "edited").mkdir()
    lf = fmt.write(tmp_path / "lf", encoded(fmt.lines()))
    expected = outcome(fmt, fmt.reference, lf)
    assert loaded(expected)
    target = fmt.write(tmp_path / "edited", encoded(fmt.lines(), newline, final_newline))
    read_bytes(monkeypatch, fmt, size)
    monkeypatch.setattr(lines, "_UTF8_SLICE_BYTES", slice_bytes)
    assert outcome(fmt, fmt.read, target) == expected
    assert outcome(fmt, fmt.read, lf) == expected


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
def test_a_crlf_cut_by_a_read_is_one_line_end(tmp_path, monkeypatch, fmt) -> None:
    # The first read ends on the first line's CR, so its LF comes with the
    # next read. Read as two line ends, it would move the last line's fault
    # down a line, or add a matrix row.
    text_lines = fmt.lines()
    text_lines[-1] = fmt.fault
    data = encoded(text_lines, "\r\n")
    target = fmt.write(tmp_path, data)
    read_bytes(monkeypatch, fmt, data.index(b"\r") + 1)
    got = outcome(fmt, fmt.read, target)
    assert got == (fmt.error, f"{file_path(target)}: line {len(text_lines)}{fmt.message}")
    assert got == outcome(fmt, fmt.reference, target)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("size", [1, 3, None])
def test_a_line_fault_keeps_its_line_number(tmp_path, monkeypatch, fmt, size) -> None:
    if size is not None:
        read_bytes(monkeypatch, fmt, size)
    n = len(fmt.lines())
    for lineno in sorted({fmt.header + 1, fmt.header + 2, n // 2, n}):
        text_lines = fmt.lines()
        text_lines[lineno - 1] = fmt.fault
        directory = tmp_path / str(lineno)
        directory.mkdir()
        target = fmt.write(directory, encoded(text_lines))
        got = outcome(fmt, fmt.read, target)
        assert got == (fmt.error, f"{file_path(target)}: line {lineno}{fmt.message}")
        assert got == outcome(fmt, fmt.reference, target)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("size", [1, None])
def test_a_byte_order_mark_at_line_1_is_refused(tmp_path, monkeypatch, fmt, size) -> None:
    # read_text keeps a leading U+FEFF as text, where it would become part of
    # the first sample id; every reader refuses it at line 1. The matrix's
    # header check refuses it as a header that does not start with "family".
    if size is not None:
        read_bytes(monkeypatch, fmt, size)
    (tmp_path / "bom").mkdir()
    target = fmt.write(tmp_path / "bom", BOM.encode("utf-8") + encoded(fmt.lines()))
    path = file_path(target)
    message = (
        f"{path}: line 1 must start with {HEADER_CELL!r}, got {BOM + HEADER_CELL!r}"
        if fmt.header else f"{path}: line 1: starts with a UTF-8 byte order mark"
    )
    assert outcome(fmt, fmt.read, target) == (fmt.error, message)
    assert outcome(fmt, fmt.reference, target) == (fmt.error, message)
    # A decode error later in the file still wins.
    (tmp_path / "bad").mkdir()
    target = fmt.write(tmp_path / "bad", BOM.encode("utf-8") + encoded(fmt.lines()) + b"\xff")
    with pytest.raises(UnicodeDecodeError) as expected:
        file_path(target).read_text(encoding="utf-8")
    assert outcome(fmt, fmt.read, target) == (UnicodeDecodeError, str(expected.value))
    # After line 1, U+FEFF is text like any other character.
    if not fmt.header:
        (tmp_path / "later").mkdir()
        text_lines = fmt.lines()
        text_lines[1] = BOM + text_lines[1]
        target = fmt.write(tmp_path / "later", encoded(text_lines))
        got = outcome(fmt, fmt.read, target)
        assert got == outcome(fmt, fmt.reference, target)
        assert loaded(got)
