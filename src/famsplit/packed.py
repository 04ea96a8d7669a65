"""A run of sample ids packed in one UTF-8 blob: what a `SamplePool` key
holds, and a split drawn from it keeps to the file (see `manifest`)."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import eq

import numpy as np

# Bytes of a blob gathered in one numpy call, so the byte index that the
# call needs stays small beside the blob.
_BLOB_BLOCK = 1 << 16


class _PackedIds(Sequence[str]):
    """A read-only run of sample ids packed in one UTF-8 blob, each id
    followed by b"\\n"; `bounds[i]` is where id i starts and `bounds[-1]`
    the blob's size.

    It equals, and hashes as, the tuple of its ids. Ids are decoded only
    when read, so a pool holds its ids' bytes and 4 bytes of bounds per id
    rather than a `str` object per id.
    """

    __slots__ = ("_blob", "_bounds")

    def __init__(self, blob: bytes | bytearray, bounds: np.ndarray) -> None:
        self._blob, self._bounds = blob, bounds

    @classmethod
    def joined(cls, runs: list[bytes]) -> _PackedIds:
        """The ids of `runs`, each encoded ids that end in b"\\n", joined;
        `runs` is emptied once they are. The bounds are found with one scan
        of the blob for b"\\n", and are int32 unless the blob passes 2 GiB."""
        blob = b"".join(runs)
        runs.clear()
        ends = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == ord("\n"))
        bounds = np.empty(len(ends) + 1, dtype=np.int32 if len(blob) < 2**31 else np.int64)
        bounds[0] = 0
        np.add(ends, 1, out=bounds[1:], casting="unsafe")
        return cls(blob, bounds)

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, at: int | slice) -> str | _PackedIds:  # a slice is packed too
        if isinstance(at, slice):
            return self.take(np.arange(*at.indices(len(self))))
        at = range(len(self))[at]  # the index as a tuple's, IndexError included
        return self._blob[self._bounds[at] : self._bounds[at + 1] - 1].decode()

    def __iter__(self) -> Iterator[str]:
        ids = self._blob.decode().split("\n")
        ids.pop()  # the empty text after the last id's "\n"
        return iter(ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _PackedIds):
            return self._blob == other._blob
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    def text(self, suffix: str) -> str:
        """Every id followed by `suffix`, which ends in "\\n": one `replace`."""
        return self._blob.decode().replace("\n", suffix)

    def take(self, at: np.ndarray) -> _PackedIds:
        """The ids at positions `at`, packed in a new blob filled about
        _BLOB_BLOCK bytes at a time: one byte index per byte of a block, and
        no Python int or `str` per id."""
        bounds = np.empty(len(at) + 1, dtype=self._bounds.dtype)
        bounds[0] = 0
        np.cumsum(self._bounds[at + 1] - self._bounds[at], out=bounds[1:])
        blob = bytearray(int(bounds[-1]))
        src, out = np.frombuffer(self._blob, dtype=np.uint8), np.frombuffer(blob, dtype=np.uint8)
        step = max(1, _BLOB_BLOCK * len(at) // max(len(blob), 1))  # ids of about a block
        for lo in range(0, len(at), step):
            hi = min(lo + step, len(at))
            # An id's bytes run on from its start, so byte j of the output
            # is source byte j + (the id's start - its output start).
            shift = self._bounds[at[lo:hi]] - bounds[lo:hi]
            index = np.repeat(shift, np.diff(bounds[lo : hi + 1]))
            index += np.arange(bounds[lo], bounds[hi], dtype=index.dtype)
            np.take(src, index, out=out[bounds[lo] : bounds[hi]])
        return _PackedIds(blob, bounds)
