"""Cross-generalization matrix: parsing, validation, row statistics, synthesis.

The matrix is oriented rows = training family, columns = testing family:
``values[t][v]`` is the recall of a detector trained only on family ``t``
when tested on samples of family ``v``. Values are fractions in [0, 1],
never percentages; loaders reject values above 1 instead of rescaling.
A matrix holds each value on the 1e-6 grid that its CSV stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from famsplit.errors import MatrixFormatError
from famsplit.families import FAMILY_NAMES

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


@dataclass(frozen=True, eq=False)
class CrossErrorMatrix:
    """K x K recall grid over an ordered list of unique family names. Two are
    equal when their families and values are, which is bit for bit: values
    are finite and hold -0.0 as 0.0."""

    families: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        families = tuple(self.families)
        object.__setattr__(self, "families", families)
        k = len(families)
        # name -> position, for index_of
        object.__setattr__(self, "_index", _family_index(families))
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (k, k):
            raise MatrixFormatError(
                f"value grid is {values.shape}, expected ({k}, {k}) for {k} families"
            )
        if not np.all(np.isfinite(values)):
            t, v = map(int, np.argwhere(~np.isfinite(values))[0])
            raise MatrixFormatError(f"non-finite entry at row {t}, column {v}")
        if np.any(values < 0.0) or np.any(values > 1.0):
            bad = np.argwhere((values < 0.0) | (values > 1.0))[0]
            t, v = int(bad[0]), int(bad[1])
            raise MatrixFormatError(
                f"entry {values[t, v]} at row {t}, column {v} outside [0, 1]"
            )
        # Hold the 1e-6 grid the CSV stores: the nearest multiple of 1e-6, ties
        # to even, and +0.0 for -0.0, so a saved and reloaded matrix is this one.
        values = np.multiply(values, 1e6)
        np.rint(values, out=values)
        values /= 1e6
        values += 0.0
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


# A canonical cell is the 8 bytes ``d.dddddd`` and its separator. Less
# _CELL_ZERO, each byte must be at most _CELL_SPAN at its position (uint8
# arithmetic wraps a byte below its base to a large value), and the cell's
# value is those differences dotted with _CELL_WEIGHTS, over 1e6.
_CELL_ZERO = np.frombuffer(b"0.000000,", dtype=np.uint8)
_CELL_SPAN = np.array([9, 0, 9, 9, 9, 9, 9, 9, 0], dtype=np.uint8)
_CELL_WEIGHTS = np.array([1e6, 0.0, 1e5, 1e4, 1e3, 1e2, 1e1, 1.0, 0.0])
# Cells per block of rows that save_matrix formats at once, so its digit
# buffer stays small next to the matrix.
_SAVE_BLOCK_CELLS = 65_536


def _fixed_width_parser(k: int) -> Callable[[str], np.ndarray | None]:
    """A parser for the cells of a row of K canonical ``d.dddddd`` values in
    [0, 1]; it returns None for a row in any other spelling.

    Each value is its 7-digit integer over 1e6: both are exact and the
    division is correctly rounded, so it is bit-equal to ``float(cell)``.
    """
    zero = np.tile(_CELL_ZERO, k)
    span = np.tile(_CELL_SPAN, k)

    def parse(cells: str) -> np.ndarray | None:
        if len(cells) != 9 * k - 1 or not cells.isascii():
            return None
        offsets = np.frombuffer((cells + ",").encode("ascii"), dtype=np.uint8) - zero
        if (offsets > span).any():
            return None
        scaled = offsets.astype(np.float64).reshape(k, 9) @ _CELL_WEIGHTS
        if scaled.max() > 1e6:
            return None
        return scaled / 1e6

    return parse


def load_matrix(path: str | Path) -> CrossErrorMatrix:
    """Parse a matrix CSV (header line + one row per family).

    Cells use Python ``float()`` syntax. A row in the canonical form that
    ``save_matrix`` writes is read as one digit array; any other row is
    parsed cell by cell, so an error names its first bad cell.
    """
    path = Path(path)
    # read_text turns CRLF and CR into LF, so such a file reads like its LF copy.
    text = path.read_text(encoding="utf-8")
    if not text:
        raise MatrixFormatError(f"{path}: empty file")
    if not text.endswith("\n"):
        text += "\n"  # a last line reads the same with or without its newline
    # Lines are walked from newline to newline (str.index finds each), so no
    # list of them is built.
    pos = text.index("\n") + 1
    header = text[: pos - 1].split(",")
    if header[0] != HEADER_CELL:
        raise MatrixFormatError(
            f"{path}: line 1 must start with {HEADER_CELL!r}, got {header[0]!r}"
        )
    families = tuple(header[1:])
    try:
        _family_index(families)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: line 1: {exc}") from None
    k = len(families)
    n_rows, end = 0, pos
    while end < len(text):
        end = text.index("\n", end) + 1
        n_rows += 1
    if n_rows != k:
        raise MatrixFormatError(
            f"{path}: header names {k} families but file has {n_rows} data rows"
        )
    values = np.empty((k, k), dtype=np.float64)
    parse_fixed_width = _fixed_width_parser(k)
    for t, family in enumerate(families, start=2):
        end = text.index("\n", pos)
        line, pos = text[pos:end], end + 1
        prefix = family + ","
        if line.startswith(prefix):
            row = parse_fixed_width(line[len(prefix) :])
            if row is not None:
                values[t - 2] = row
                continue
        cells = line.split(",")
        if len(cells) != k + 1:
            raise MatrixFormatError(
                f"{path}: line {t} has {len(cells) - 1} entries, expected {k}"
            )
        if cells[0] != family:
            raise MatrixFormatError(
                f"{path}: line {t} row name {cells[0]!r} does not match header "
                f"name {family!r}"
            )
        row = values[t - 2]
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
    del text  # so the text and the constructor's copy of the grid are never both held
    return CrossErrorMatrix(families, values)


def _canonical_cells(block: np.ndarray) -> np.ndarray:
    """The canonical ``d.dddddd`` cells of a block of rows as a (rows, K, 9)
    byte array, each row ending in LF. Every value is on the 1e-6 grid, so
    its digits are those of the integer n = rint(v * 1e6).
    """
    n = np.rint(block * 1e6).astype(np.int32)
    text = np.empty(block.shape + (9,), dtype=np.uint8)
    for j in range(7, 1, -1):
        n, digit = np.divmod(n, 10)
        text[..., j] = digit + ord("0")
    text[..., 0] = n + ord("0")
    text[..., 1] = ord(".")
    text[..., 8] = ord(",")
    text[:, -1, 8] = ord("\n")
    return text


def save_matrix(m: CrossErrorMatrix, path: str | Path) -> None:
    """Write the canonical CSV form (fixed 6-digit decimals, LF newlines)."""
    path = Path(path)
    block_rows = max(1, _SAVE_BLOCK_CELLS // m.k)
    with path.open("wb") as out:
        out.write((",".join((HEADER_CELL, *m.families)) + "\n").encode("utf-8"))
        for start in range(0, m.k, block_rows):
            text = _canonical_cells(m.values[start : start + block_rows])
            for family, row_text in zip(m.families[start:], text):
                out.write(f"{family},".encode("utf-8"))
                out.write(row_text.tobytes())


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
