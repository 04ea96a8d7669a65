"""The one reader of every input file (matrix CSV, pool, split TSV, predictions):
runs of whole lines, a window at a time, as ``Path.read_text`` reads them."""

from __future__ import annotations

import codecs
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from famsplit.errors import FamsplitError

# Bytes a pool, split or prediction file is read by, a window at a time.
RECORD_READ_BYTES = 1 << 14
# Bytes of a window checked as UTF-8 at once, so no longer decoded text is held.
_UTF8_SLICE_BYTES = 4_096


def _decodes(decoder: codecs.IncrementalDecoder, data: memoryview, final: bool) -> bool:
    """Whether `decoder` takes `data` as UTF-8, a slice of _UTF8_SLICE_BYTES at
    a time so no decoded text beyond a slice is held; `final` if no bytes follow."""
    try:
        for i in range(0, len(data), _UTF8_SLICE_BYTES):
            decoder.decode(data[i : i + _UTF8_SLICE_BYTES])
        decoder.decode(b"", final)
    except UnicodeDecodeError:
        return False
    return True


def line_runs(path: Path, read_bytes: int) -> Iterator[tuple[bytearray, int]]:
    """The file's bytes as runs of whole lines, each `(buffer, n)` with the run
    in buffer[:n]; every run ends at a LF, a last line given one.

    One buffer of `read_bytes` bytes serves every run, and grows only to
    hold a longer line. CRLF and lone CR line ends become LF, as read_text
    makes them. Each byte is checked as UTF-8 before its run is given out;
    a bad file raises read_text's UnicodeDecodeError, position included, by
    decoding the whole file once.
    """
    buf = bytearray(read_bytes)
    decoder = codecs.getincrementaldecoder("utf-8")()
    kept = 0  # bytes of a line carried over from the last run
    with path.open("rb", buffering=0) as f:
        while True:
            with memoryview(buf) as view:
                n = f.readinto(view[kept:])
                end = kept + n
                # The carried line holds any sequence the last read cut, so a
                # run that is all ASCII leaves nothing pending in the decoder.
                ascii_run = (buf if end == len(buf) else buf[:end]).isascii()
                if not ascii_run and not _decodes(decoder, view[kept:end], final=not n):
                    path.read_bytes().decode("utf-8")  # raises read_text's error
                if buf.find(b"\r", 0, end) >= 0:
                    # A CR last in a read may begin a CRLF, so it waits for the next.
                    hold = n > 0 and buf[end - 1] == ord("\r")
                    text = view[: end - hold].tobytes()
                    text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                    view[: len(text)] = text
                    end = len(text) + hold
                    if hold:
                        view[end - 1] = ord("\r")
            if not n:
                if end and buf[end - 1] != ord("\n"):
                    buf[end : end + 1] = b"\n"  # a last line reads the same with or without it
                    end += 1
                if end:
                    yield buf, end
                return
            cut = buf.rfind(b"\n", 0, end) + 1
            if cut:
                yield buf, cut
            kept = end - cut
            buf[:kept] = buf[cut:end]
            if kept == len(buf):
                buf.extend(bytes(len(buf)))


@contextmanager
def text_runs(path: Path, error: type[FamsplitError]) -> Iterator[Iterator[str]]:
    """The record file `path` as text, runs of whole lines read RECORD_READ_BYTES
    at a time. A byte order mark at line 1 is an `error`, the format's class.
    When a FamsplitError stops the read, a decode error in the rest wins."""
    runs = line_runs(path, RECORD_READ_BYTES)
    texts = (buf[:end].decode("utf-8") for buf, end in runs)
    try:
        first = next(texts, "")
        if first.startswith("\ufeff"):
            raise error(f"{path}: line 1: starts with a UTF-8 byte order mark")
        yield chain((first,), texts)
        return
    except FamsplitError as exc:
        fault = exc
    for _ in runs:  # raises read_text's error if the rest does not decode
        pass
    raise fault
