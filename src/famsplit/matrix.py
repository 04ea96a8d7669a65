"""Cross-generalization matrix: parsing, validation, row statistics, synthesis.

The matrix is oriented rows = training family, columns = testing family:
``values[t][v]`` is the recall of a detector trained only on family ``t``
when tested on samples of family ``v``. Values are fractions in [0, 1],
never percentages; loaders reject values above 1 instead of rescaling.
A matrix holds each value on the 1e-6 grid that its CSV stores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from famsplit.errors import MatrixFormatError
from famsplit.families import FAMILY_NAMES
from famsplit.lines import line_runs

HEADER_CELL = "family"


def _family_index(families: tuple[str, ...]) -> dict[str, int]:
    """Each family's position; at least two names, none empty, repeated or
    holding a delimiter."""
    if len(families) < 2:
        raise MatrixFormatError(f"need at least 2 families, got {len(families)}")
    index: dict[str, int] = {}
    for i, name in enumerate(families):
        if not name:
            raise MatrixFormatError(f"empty family name at index {i}")
        if "," in name or "\n" in name or "\r" in name:
            raise MatrixFormatError(f"family name {name!r} contains a delimiter")
        if name in index:
            raise MatrixFormatError(f"duplicate family name {name!r}")
        index[name] = i
    return index


def _round_to_grid(values: np.ndarray) -> None:
    """Put float64 `values` in [0, 1] on the 1e-6 grid the CSV stores, in
    place: the nearest multiple of 1e-6, ties to even, and +0.0 for -0.0, so
    a saved and reloaded matrix is the one saved."""
    values *= 1e6
    np.rint(values, out=values)
    values /= 1e6
    values += 0.0


@dataclass(frozen=True, eq=False)
class CrossErrorMatrix:
    """K x K recall grid over an ordered list of unique family names. Two are
    equal when their families and values are, which is bit for bit: values
    are finite and hold -0.0 as 0.0."""

    families: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        families = tuple(self.families)
        k = len(families)
        index = _family_index(families)
        values = np.array(self.values, dtype=np.float64)  # a copy, rounded in place below
        if values.shape != (k, k):
            raise MatrixFormatError(
                f"value grid is {values.shape}, expected ({k}, {k}) for {k} families"
            )
        # min and max are NaN if any entry is, so one comparison clears every check.
        if not 0.0 <= values.min() <= values.max() <= 1.0:
            if not np.all(np.isfinite(values)):
                t, v = map(int, np.argwhere(~np.isfinite(values))[0])
                raise MatrixFormatError(f"non-finite entry at row {t}, column {v}")
            t, v = map(int, np.argwhere((values < 0.0) | (values > 1.0))[0])
            raise MatrixFormatError(
                f"entry {values[t, v]} at row {t}, column {v} outside [0, 1]"
            )
        _round_to_grid(values)
        self._hold(families, index, values)

    @classmethod
    def _owning(
        cls, families: tuple[str, ...], index: dict[str, int], values: np.ndarray
    ) -> CrossErrorMatrix:
        """The matrix of `values`, a float64 grid in [0, 1] already on the 1e-6
        grid that nothing else holds, over `families` and their `index`
        (`_family_index`): each is taken as it is, not checked or copied."""
        m = object.__new__(cls)
        m._hold(families, index, values)
        return m

    def _hold(self, families: tuple[str, ...], index: dict[str, int], values: np.ndarray) -> None:
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "_index", index)  # name -> position, for index_of
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrossErrorMatrix):
            return NotImplemented
        return self.families == other.families and np.array_equal(self.values, other.values)

    @property
    def k(self) -> int:
        return len(self.families)

    def index_of(self, family: str) -> int:
        try:
            return self._index[family]
        except KeyError:
            raise MatrixFormatError(f"unknown family {family!r}") from None

    @cached_property
    def _off_diagonal_means(self) -> tuple[float, ...]:
        # _row_means(self), found once: a matrix's families and values never change.
        return tuple(_row_means(self))


# Cells per block of rows whose off-diagonal _row_means copies at once, so the
# copy stays small next to the matrix.
_MEAN_BLOCK_CELLS = 16_384


def _row_means(m: CrossErrorMatrix) -> list[float]:
    """Each row's mean recall against the other families (diagonal excluded).

    Each row's mean is taken over its K - 1 contiguous off-diagonal values, a
    block of rows at a time.
    """
    means: list[float] = []
    block_rows = max(1, _MEAN_BLOCK_CELLS // m.k)
    for start in range(0, m.k, block_rows):
        block = m.values[start : start + block_rows]
        # Each row's off-diagonal: all but column start + its row in the block.
        off = ~np.eye(len(block), m.k, start, dtype=bool)
        means += block[off].reshape(len(block), m.k - 1).mean(axis=1).tolist()
    return means


# A canonical cell is the 8 bytes ``d.dddddd`` and its separator. Less
# _CELL_ZERO, each byte must be at most _CELL_SPAN at its position (uint8
# arithmetic wraps a byte below its base to a large value), and the cell's
# value is its seven digits (_CELL_DIGITS) read as an integer, over 1e6.
_CELL_ZERO = np.frombuffer(b"0.000000,", dtype=np.uint8)
_CELL_SPAN = np.array([9, 0, 9, 9, 9, 9, 9, 9, 0], dtype=np.uint8)
_CELL_DIGITS = np.dtype(
    {
        "names": ["d0", "d2", "d3", "d4", "d5", "d6", "d7"],
        "formats": ["u1"] * 7,
        "offsets": [0, 2, 3, 4, 5, 6, 7],
        "itemsize": 9,
    }
)
# save_matrix writes a cell n = rint(v * 1e6) as _CELL_HEAD[n // 1000], the
# bytes ``d.ddd`` at offsets 0-4, plus _CELL_TAIL[n % 1000], ``ddd`` at 5-7:
# each entry is the integer whose little-endian bytes are its text, and a
# little-endian record holds it, so the bytes are the same on any host.
_CELL_TEXT = np.dtype({"names": ["text", "sep"], "formats": ["<u8", "u1"], "itemsize": 9})
_CELL_HEAD = np.array(
    [int.from_bytes(b"%d.%03d" % divmod(q, 1000), "little") for q in range(1001)],
    dtype=np.uint64,
)
_CELL_TAIL = np.array(
    [int.from_bytes(b"\0" * 5 + b"%03d" % r, "little") for r in range(1000)], dtype=np.uint64
)
# load_matrix reads the file _LOAD_READ_BYTES at a time, about the canonical
# rows of _LOAD_BLOCK_CELLS cells; save_matrix formats _SAVE_BLOCK_CELLS
# cells at once. So their buffers stay small next to the matrix.
_LOAD_BLOCK_CELLS = 8_192
_LOAD_READ_BYTES = 9 * _LOAD_BLOCK_CELLS
_SAVE_BLOCK_CELLS = 16_384


def _block_parser(k: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A parser for blocks of rows of K canonical ``d.dddddd`` cells in [0, 1].

    It takes a (rows, 9K) uint8 block, each row its cells' bytes with a 0 in
    place of the last separator, and the (rows, K) float64 rows to fill. It
    returns which rows are in any other spelling; their values are
    meaningless. The block is overwritten.

    Each value is its 7-digit integer over 1e6: both are exact and the
    division is correctly rounded, so it is bit-equal to ``float(cell)``.
    """
    zero = np.tile(_CELL_ZERO, k)
    zero[-1] = 0
    span = np.tile(_CELL_SPAN, k)

    def parse(block: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.subtract(block, zero, out=block)
        digits = block.reshape(-1).view(_CELL_DIGITS)
        scaled = digits["d0"].astype(np.int32)  # any 7 bytes stay below 2**31
        for name in _CELL_DIGITS.names[1:]:
            scaled *= 10
            scaled += digits[name]
        scaled = scaled.reshape(out.shape)
        out[...] = scaled  # np.divide would buffer its int32 -> float64 cast
        out /= 1e6
        # Now that the digits are read, a byte over its span is one that
        # max(byte, span) ^ span leaves nonzero.
        np.maximum(block, span, out=block)
        np.bitwise_xor(block, span, out=block)
        return (block.max(axis=1) > 0) | (scaled.max(axis=1) > 1_000_000)

    return parse


def _parse_row(path: Path, line: bytes, t: int, family: str, row: np.ndarray) -> None:
    """Fill `row` from the text of data line `t`, cell by cell, and put it on
    the 1e-6 grid, or raise the error of its first fault."""
    cells = line.decode("utf-8").split(",")
    if len(cells) != len(row) + 1:
        raise MatrixFormatError(
            f"{path}: line {t} has {len(cells) - 1} entries, expected {len(row)}"
        )
    if cells[0] != family:
        raise MatrixFormatError(
            f"{path}: line {t} row name {cells[0]!r} does not match header name {family!r}"
        )
    for v, cell in enumerate(cells[1:]):
        try:
            x = float(cell)
        except ValueError:
            raise MatrixFormatError(
                f"{path}: unparseable number {cell!r} at line {t}, column {v}"
            ) from None
        if not 0.0 <= x <= 1.0:
            raise MatrixFormatError(
                f"{path}: entry {cell} at line {t}, column {v} outside [0, 1]"
            )
        row[v] = x
    _round_to_grid(row)


def load_matrix(path: str | Path) -> CrossErrorMatrix:
    """Parse a matrix CSV (header line + one row per family).

    Cells use Python ``float()`` syntax. The file is read once, a run of
    whole lines at a time (`lines.line_runs`). The canonical rows that
    ``save_matrix`` writes are read a run at a time as digit arrays; any
    other row is parsed cell by cell, so an error names its first bad cell.
    Errors are raised in the order a whole-file parse meets them: bad UTF-8,
    an empty file, the header, the row count, then the first bad row.
    """
    path = Path(path)
    runs = line_runs(path, _LOAD_READ_BYTES)
    buf, end = next(runs, (bytearray(), 0))
    if not end:
        raise MatrixFormatError(f"{path}: empty file")
    head_end = buf.find(b"\n", 0, end)
    header = buf[:head_end].decode("utf-8").split(",")
    families: tuple[str, ...] = ()
    index: dict[str, int] = {}
    error: MatrixFormatError | None = None  # the first fault, raised after the row count
    if header[0] != HEADER_CELL:
        error = MatrixFormatError(
            f"{path}: line 1 must start with {HEADER_CELL!r}, got {header[0]!r}"
        )
    else:
        try:
            index = _family_index(tuple(header[1:]))
        except MatrixFormatError as exc:
            error = MatrixFormatError(f"{path}: line 1: {exc}")
        else:
            families = tuple(header[1:])
    k, width = len(families), 9 * len(families)
    if k:  # after a bad header no row is parsed, only counted
        parse_block = _block_parser(k)
        # A canonical line is at least width + 2 bytes, so a run of them fits the block.
        block = np.zeros((max(1, _LOAD_READ_BYTES // (width + 2)), width), dtype=np.uint8)
        block_bytes = memoryview(block).cast("B")
        # K rows of K cells take at least K * (2K + 1) bytes. A smaller file
        # fails the row count or a row, so its rows are parsed into one
        # block's rows and a header naming many families builds no K x K grid.
        whole = path.stat().st_size >= k * (2 * k + 1)
        values = np.empty((k if whole else len(block), k), dtype=np.float64)
    n_rows, pos = 0, head_end + 1
    for buf, end in itertools.chain([(buf, end)], runs):
        with memoryview(buf) as run:
            while error is None and pos < end and n_rows < k:
                # Copy each row that has a canonical row's length and name into
                # the block; mark the others with a byte no canonical cell holds.
                first, lines = n_rows, []
                while pos < end and n_rows < k and len(lines) < len(block):
                    stop = buf.find(b"\n", pos, end)
                    i, prefix = len(lines), (families[n_rows] + ",").encode("utf-8")
                    cells = pos + len(prefix)
                    if stop - cells == width - 1 and buf.startswith(prefix, pos):
                        block_bytes[i * width : (i + 1) * width - 1] = run[cells:stop]
                    else:
                        block[i, 0] = 0xFF
                    lines.append((pos, stop))
                    pos, n_rows = stop + 1, n_rows + 1
                rows = values[first:n_rows] if whole else values[: n_rows - first]
                # In line order, so the first bad row is the one whose error is kept.
                for i in np.flatnonzero(parse_block(block[: len(lines)], rows)).tolist():
                    (start, stop), t = lines[i], first + i + 2
                    try:
                        _parse_row(path, buf[start:stop], t, families[t - 2], rows[i])
                    except MatrixFormatError as exc:
                        error = exc
                        break
        # Rows past the header's count, or after a fault, are only counted.
        n_rows += buf.count(b"\n", pos, end)
        pos = 0
    if error is not None and not families:
        raise error
    if n_rows != k:
        raise MatrixFormatError(
            f"{path}: header names {k} families but file has {n_rows} data rows"
        )
    if error is not None:
        raise error
    # Every value is in [0, 1] and on the 1e-6 grid: a canonical cell by its
    # digits' spans and the 1_000_000 bound, any other row by _parse_row.
    return CrossErrorMatrix._owning(families, index, values)


def _format_cells(block: np.ndarray, cells: np.ndarray) -> None:
    """Write the canonical text of a block of rows into `cells`, a block of
    _CELL_TEXT records. Every value is on the 1e-6 grid, so its digits are
    those of the integer n = rint(v * 1e6).
    """
    scaled = np.multiply(block, 1e6)
    n = np.rint(scaled, out=np.empty(block.shape, dtype=np.int32), casting="unsafe")
    head = np.empty_like(n)
    np.divmod(n, 1000, out=(head, n))
    text = scaled.view(np.uint64)  # scaled's buffer, no longer needed
    np.take(_CELL_HEAD, head, out=text, mode="clip")
    cells["text"] = text
    np.take(_CELL_TAIL, n, out=text, mode="clip")
    cells["text"] |= text


def save_matrix(m: CrossErrorMatrix, path: str | Path) -> None:
    """Write the canonical CSV form (fixed 6-digit decimals, LF newlines)."""
    path = Path(path)
    rows = min(m.k, max(1, _SAVE_BLOCK_CELLS // m.k))
    cells = np.empty((rows, m.k), dtype=_CELL_TEXT)
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    cell_bytes = memoryview(cells.view(np.uint8).reshape(-1))
    width = 9 * m.k
    with path.open("wb") as out:
        out.write((",".join((HEADER_CELL, *m.families)) + "\n").encode("utf-8"))
        for first in range(0, m.k, rows):
            block = m.values[first : first + rows]
            _format_cells(block, cells[: len(block)])
            parts = []
            for i, family in enumerate(m.families[first : first + len(block)]):
                parts += (f"{family},".encode("utf-8"), cell_bytes[i * width : (i + 1) * width])
            out.write(b"".join(parts))
            del parts  # so the next block is formatted without this one's row objects


# The synthetic recipe. Off-diagonal entries follow a noisy rank-one model: a
# per-row generality factor g times a per-column detectability factor d. A
# fraction of rows is forced to near-zero generality (dark horizontal bands)
# and a fraction of columns to near-zero detectability (dark vertical bands);
# diagonals are floored near 1 to mimic self-recall.
GENERALITY_RANGE = (0.3, 1.0)
DETECTABILITY_RANGE = (0.3, 1.0)
NOISE_SD = 0.02
DIAG_FLOOR = 0.99
LONER_FRACTION = 0.1
HERMIT_FRACTION = 0.1
LOW_FACTOR_MAX = 0.1  # forced generality/detectability ceiling for loners/hermits


@dataclass(frozen=True)
class PlantedStructure:
    """Latent factors behind a synthetic matrix, for diagnostics and tests."""

    generality: np.ndarray
    detectability: np.ndarray
    loner_rows: tuple[int, ...]
    hermit_cols: tuple[int, ...]


def synth_structure(k: int, seed: int = 0) -> PlantedStructure:
    """Draw the latent row/column factors of the K-family matrix for `seed`."""
    if k < 2:
        raise MatrixFormatError(f"k must be >= 2, got {k}")
    if not 0 <= seed < 2**64:
        raise MatrixFormatError(f"seed must be an unsigned 64-bit value, got {seed}")
    rng = np.random.default_rng(seed)
    g = rng.uniform(*GENERALITY_RANGE, k)
    d = rng.uniform(*DETECTABILITY_RANGE, k)
    loners = np.sort(rng.choice(k, size=round(LONER_FRACTION * k), replace=False))
    hermits = np.sort(rng.choice(k, size=round(HERMIT_FRACTION * k), replace=False))
    g[loners] = rng.uniform(0.0, LOW_FACTOR_MAX, len(loners))
    d[hermits] = rng.uniform(0.0, LOW_FACTOR_MAX, len(hermits))
    return PlantedStructure(g, d, tuple(map(int, loners)), tuple(map(int, hermits)))


def synth_family_names(k: int) -> tuple[str, ...]:
    """First k canonical family names, extended with numbered names past 184."""
    if k <= len(FAMILY_NAMES):
        return FAMILY_NAMES[:k]
    extra = tuple(f"fam{i:04d}" for i in range(len(FAMILY_NAMES), k))
    return FAMILY_NAMES + extra


def synth_matrix(k: int, seed: int = 0) -> CrossErrorMatrix:
    """Generate the planted-structure matrix; a pure function of `k` and `seed`."""
    structure = synth_structure(k, seed)
    # A separate noise stream, kept so existing matrices keep their bytes.
    rng = np.random.default_rng((seed, 0xA5))
    noise = rng.normal(0.0, 1.0, (k, k)) * NOISE_SD
    values = np.outer(structure.generality, structure.detectability) + noise
    np.clip(values, 0.0, 1.0, out=values)
    diag = np.maximum(DIAG_FLOOR, structure.generality * structure.detectability)
    np.fill_diagonal(values, diag)
    return CrossErrorMatrix(synth_family_names(k), values)
