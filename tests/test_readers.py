"""The three streamed readers at their read boundaries.

Pool files, split TSVs and prediction files are read through one text
stream a window of `manifest._READ_CHARS` characters at a time. These tests
shrink the window to a few characters, so ids, line ends and faults fall
across reads, and check each reader against its whole-file reference twin.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

from famsplit import manifest
from famsplit.errors import PoolError, PredictionError
from famsplit.evaluate import load_predictions
from famsplit.manifest import MaterializedSplit, SplitSide, load_pool, read_split, split_meta, write_split
from famsplit.search import SplitSpec

from test_evaluate import predictions_outcome, reference_load_predictions
from test_manifest import pool_outcome, reference_load_pool, reference_read_split, split_outcome

# One-, two-, three- and four-byte characters, so a read of a few characters
# (and a decoder's chunk of bytes) can cut an id inside a multibyte sequence.
CHARACTERS = ["a", "é", "家", "\U0001f600"]


def multibyte_ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{CHARACTERS[i % 4] * (1 + i % 3)}{i}" for i in range(n)]


@dataclass(frozen=True)
class Format:
    """A record file format: its valid lines, a line with a fault, and its readers."""

    name: str
    lines: Callable[..., list[str]]  # lines(scale): more lines for a larger scale
    fault: str  # a line with one field too few
    error: type[Exception]  # the fault's error type
    message: str  # the fault's error text after "line N: "
    write: Callable[[Path, bytes], Path]  # the file's bytes -> what `read` takes
    read: Callable[[Path], object]
    reference: Callable[[Path], object]
    outcome: Callable[[Callable[[Path], object], Path], object]


def pool_lines(scale: int = 1) -> list[str]:
    lines = [f"{sid}\tmalicious\talpha\t-" for sid in multibyte_ids("a", 9 * scale)]
    lines += [f"{sid}\tmalicious\téta\t-" for sid in multibyte_ids("e", 7 * scale)]
    lines += [f"{sid}\tbenign\t-\ttrain" for sid in multibyte_ids("t", 10 * scale)]
    return lines + [f"{sid}\tbenign\t-\ttest" for sid in multibyte_ids("s", 6 * scale)]


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


FORMATS = [
    Format("pool", pool_lines, "x\tmalicious\talpha", PoolError, "expected 4 fields, got 3",
           write_file("pool.tsv"), load_pool, reference_load_pool, pool_outcome),
    Format("split", split_lines, "x\tmalicious", PoolError, "expected 3 fields, got 2",
           write_train_tsv, read_split, reference_read_split, split_outcome),
    Format("predictions", prediction_lines, "x", PredictionError, "expected 2 fields, got 1",
           write_file("preds.tsv"), load_predictions, reference_load_predictions,
           predictions_outcome),
]


def outcome(fmt: Format, read: Callable[[Path], object], target: Path) -> object:
    """What `read` gives on `target` in `fmt` terms, or a decode error's type and text."""
    try:
        return fmt.outcome(read, target)
    except UnicodeDecodeError as err:
        return UnicodeDecodeError, str(err)


def loaded(result: object) -> bool:
    """Whether an `outcome` is a read file, not an error's (type, text)."""
    return not (isinstance(result, tuple) and isinstance(result[0], type))


def test_the_split_lines_are_the_ones_write_split_writes(tmp_path) -> None:
    written_split(tmp_path)
    assert (tmp_path / "train.tsv").read_text(encoding="utf-8") == "".join(
        line + "\n" for line in split_lines()
    )


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("read_chars", [1, 2, 3, 7])
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
    tmp_path, monkeypatch, fmt, read_chars, earlier_fault, edit
) -> None:
    # Files of more than 24 KiB, so the bad bytes lie past the text stream's
    # first chunks of bytes (8192 in CPython) and the line fault is met first.
    lines = fmt.lines(100)
    if earlier_fault:
        lines.insert(1, fmt.fault)
    target = fmt.write(tmp_path, edit("".join(line + "\n" for line in lines).encode("utf-8")))
    path = target / "train.tsv" if target.is_dir() else target
    with pytest.raises(UnicodeDecodeError) as expected:
        path.read_text(encoding="utf-8")
    assert expected.value.start > 3 * 8192  # a position in the whole file
    monkeypatch.setattr(manifest, "_READ_CHARS", read_chars)
    assert outcome(fmt, fmt.read, target) == (UnicodeDecodeError, str(expected.value))
    assert outcome(fmt, fmt.reference, target) == (UnicodeDecodeError, str(expected.value))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("read_chars", [1, 2, 3, 7])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_reads_cut_anywhere_load_the_lf_file(
    tmp_path, monkeypatch, fmt, read_chars, newline, final_newline
) -> None:
    # Reads of a few characters cut the multibyte ids; a CRLF or a lone CR
    # ends a line, as read_text reads it; a last line needs no newline.
    (tmp_path / "lf").mkdir()
    (tmp_path / "edited").mkdir()
    lf = fmt.write(tmp_path / "lf", "".join(line + "\n" for line in fmt.lines()).encode("utf-8"))
    expected = outcome(fmt, fmt.reference, lf)
    assert loaded(expected)
    text = newline.join(fmt.lines()) + (newline if final_newline else "")
    target = fmt.write(tmp_path / "edited", text.encode("utf-8"))
    monkeypatch.setattr(manifest, "_READ_CHARS", read_chars)
    monkeypatch.setattr(manifest, "_POOL_CHUNK", 2 * read_chars)
    assert outcome(fmt, fmt.read, target) == expected
    assert outcome(fmt, fmt.read, lf) == expected


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("event", ["crlf", "lone cr", "four-byte character"])
@pytest.mark.parametrize("read_chars", [5, manifest._READ_CHARS])
def test_line_ends_and_ids_cut_by_the_decoders_chunk_of_bytes(
    tmp_path, monkeypatch, fmt, event, read_chars
) -> None:
    # The text stream decodes the file a chunk of bytes at a time (8192 in
    # CPython). A long first id puts a CR, or a four-byte character of the
    # id, on the chunk's last byte, so the rest of it comes with the next chunk.
    with open(tmp_path / "probe", "w+", encoding="utf-8") as stream:
        chunk = stream._CHUNK_SIZE
    lines = fmt.lines()
    rest = lines[0].split("\t", 1)[1]
    if event == "four-byte character":
        lines[0] = "x" * (chunk - 1) + "\U0001f600\t" + rest
        newline = "\n"
    else:
        lines[0] = "x" * (chunk - 2 - len(rest.encode("utf-8"))) + "\t" + rest
        newline = "\r\n" if event == "crlf" else "\r"
    data = "".join(line + newline for line in lines).encode("utf-8")
    assert data[chunk - 1] == (0xF0 if event == "four-byte character" else ord("\r"))
    (tmp_path / "lf").mkdir()
    (tmp_path / "edited").mkdir()
    lf = fmt.write(tmp_path / "lf", "".join(line + "\n" for line in lines).encode("utf-8"))
    target = fmt.write(tmp_path / "edited", data)
    expected = outcome(fmt, fmt.reference, lf)
    assert loaded(expected)
    monkeypatch.setattr(manifest, "_READ_CHARS", read_chars)
    assert outcome(fmt, fmt.read, target) == expected


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
@pytest.mark.parametrize("read_chars", [1, 3, manifest._READ_CHARS])
def test_a_line_fault_keeps_its_line_number(tmp_path, monkeypatch, fmt, read_chars) -> None:
    monkeypatch.setattr(manifest, "_READ_CHARS", read_chars)
    monkeypatch.setattr(manifest, "_POOL_CHUNK", 2 * read_chars)
    n = len(fmt.lines())
    for lineno in sorted({1, 2, n // 2, n + 1}):
        lines = fmt.lines()
        lines.insert(lineno - 1, fmt.fault)
        directory = tmp_path / str(lineno)
        directory.mkdir()
        target = fmt.write(directory, "".join(line + "\n" for line in lines).encode("utf-8"))
        path = target / "train.tsv" if target.is_dir() else target
        got = outcome(fmt, fmt.read, target)
        assert got == (fmt.error, f"{path}: line {lineno}: {fmt.message}")
        assert got == outcome(fmt, fmt.reference, target)
