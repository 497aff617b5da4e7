"""Streaming writer for the CSV a run leaves behind.

The CSV is a header line of column names plus one line per row, each
cell a column's value under ``%.17g``, cells joined by commas.  The
bytes are those of NumPy's plain-text table writer given the same
format, delimiter and header (the tests compare the two).  The work is
organised around what dominates it, turning a float into text:

* the unit of work is the block of ``BLOCK_ROWS`` rows, so the text held
  in memory does not grow with the run length;
* the columns of a block are stacked and formatted together by
  ``format_rows``, in one numpy pass over all of their cells;
* the pass writes ``%.17g`` exactly for every value v with
  ``1e-4 <= |v| < 1e17`` and for +-0, the values that ``%g`` writes
  without an exponent: the 17 significant digits are the correctly
  rounded integer ``|v| * 10**(16 - e)`` (e the decade of v), whose
  exact value a Dekker two-product gives, and the text is assembled from
  a table of 4-digit groups, built on the first use, not at import.
  Every other value (an exponent form, inf, nan) is ``'%.17g' % v`` in
  Python, one value at a time;
* a log of ``SPLIT_ROWS`` rows or more is written by two processes: the
  rows are cut at a block edge near the middle, and a forked child
  writes the second half into an anonymous temporary file, opened in
  the CSV's directory, which this process appends to the first half
  once the child has ended.  The bytes are those of one process.  Where
  ``os.fork`` is missing or fails, one process writes all the rows and
  a warning says so.
"""

from __future__ import annotations

import functools
import logging
import os
import shutil
import tempfile
from contextlib import suppress
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# A cell takes about 180 bytes of working arrays while its block is
# formatted: the writer's peak Python heap on a 2401-row log is 0.23,
# 0.44 and 0.84 MB at blocks of 64, 128 and 256 rows.  Larger blocks pay
# numpy's fixed cost per call (some 60 calls a block) less often: one
# process wrote the 50001-row log of a dense run in a median 116, 94 and
# 82 ms at those sizes (15 alternating rounds, 2-core host).
BLOCK_ROWS = 128
# From this many rows on, a forked child writes the second half of them.
# One fork and wait of an 86 MB process take 2.4-2.7 ms (2-core host).
# Two processes wrote the first 4096 rows of a dense run's log in a
# median 10.7 ms against 12.7 ms for one (faster in 10 of 15 alternating
# rounds), all 50001 rows in 79 against 109 ms (15 of 15), and 2048 rows
# in 6.2 against 4.5 ms (1 of 15); perfbench dense_log total_s read
# 0.109 s with the split and 0.130 s without it (10 of 10 pairs), and
# 0.187 s against 0.202 s for one process at 192-row blocks (10 of 10,
# BENCH_writer.json).  While the host gives the two processes one core's
# time, the split is slower at every size.
SPLIT_ROWS = 4096

# A cell is 40 bytes, five 64-bit words, that hold its delimiter and
# its text with NUL bytes between the characters, which are dropped
# from a block's text in one pass:
#   word 0: delimiter, sign, "0." and up to three zeros of a value
#           below 1, first digit;
#   words 1-4: four digits each, every digit after a slot that holds
#           the decimal point if it falls there.
_NUL = b"\0"
_MARK = b"\1"  # in place of the text of a cell formatted in Python
_LOW, _HIGH = 1e-4, 1e17
_DIGIT_POWERS = np.array([1000, 100, 10, 1], np.uint16)


def _words(cells: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as 64-bit words, in the byte order of memory."""
    return np.ascontiguousarray(cells, dtype=np.uint8).view(np.uint64)[:, 0]


def _group_words() -> np.ndarray:
    """The words of the 4-digit groups 0000-9999 (digits in the odd
    bytes), then those of the same groups with their trailing zeros
    dropped, for the last group with a non-zero digit."""
    groups = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = groups // _DIGIT_POWERS % 10 + ord("0")
    zeros = (groups % (10 * _DIGIT_POWERS[::-1]) == 0).sum(axis=1)
    kept = digits * (np.arange(4) < 4 - zeros[:, None])
    cells = np.zeros((2, 10_000, 8), np.uint8)
    cells[..., 1::2] = digits, kept
    return _words(cells.reshape(-1, 8))


_EXPONENTS = np.arange(-4, 17)  # the decades e of the values in range


def _lead_words() -> np.ndarray:
    """Word 0 of a cell by sign, decade e and first digit: a comma, the
    sign, "0." and -e - 1 zeros below 1, and the digit."""
    below_one = (_EXPONENTS < 0)[None, :, None]
    cells = np.zeros((2, _EXPONENTS.size, 10, 8), np.uint8)
    cells[..., 0] = ord(",")
    cells[1, ..., 1] = ord("-")
    cells[..., 2] = np.where(below_one, ord("0"), 0)
    cells[..., 3] = np.where(below_one, ord("."), 0)
    # byte b of 4-6 holds a zero when it is among the -e - 1 bytes
    # before the digit
    zeros = (7 - np.arange(4, 7))[None, :] <= -_EXPONENTS[:, None] - 1
    cells[..., 4:7] = np.where(zeros[None, :, None, :], ord("0"), 0)
    cells[..., 7] = np.arange(10) + ord("0")
    return _words(cells.reshape(-1, 8))


def _fill_words() -> np.ndarray:
    """What to add to words 1-4 of a cell, by decade e and by whether
    the value has a fraction: a "0" in each digit slot up to digit e (a
    dropped trailing zero of the integer part) and the decimal point
    before digit e + 1."""
    e = _EXPONENTS[:, None, None, None]
    digit = np.arange(1, 17).reshape(4, 4)  # digit number of word, slot
    cells = np.zeros((_EXPONENTS.size, 2, 4, 4, 2), np.uint8)
    cells[..., 1] = np.where(digit <= e, ord("0"), 0)
    cells[:, 1, ..., 0] = np.where(digit == e[:, 0] + 1, ord("."), 0)
    return _words(cells.reshape(-1, 8)).reshape(-1, 4).T.copy()


# 10**k from 1e-4 to 1e16: the doubles nearest 1e-4, 1e-3, 1e-2 and
# 0.1 lie above those powers, so |v| >= _DECADES[k] exactly when |v| is
# at least the power, and the count of entries at or below |v| gives its
# decade.  No double in range rounds up into the next decade at 17
# digits: that needs |v| within half a unit of the 17th digit below a
# power of ten, closer than the double below the power lies.
_DECADES = np.array([float(f"1e{e}") for e in _EXPONENTS])
# 10**j for j = 16 - e, exact doubles, split in halves of 26 bits.
_SCALES = np.array([float(f"1e{j}") for j in range(21)])
_SPLIT = 2.0 ** 27 + 1
_SCALES_HI = _SCALES * _SPLIT - (_SCALES * _SPLIT - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI
_LEADS = 20_000  # the index of word 0's entries in the table
_MARK_WORD = _words(np.frombuffer(b"," + _MARK + _NUL * 6, np.uint8)[None])


@functools.cache
def _lookup() -> tuple[np.ndarray, np.ndarray]:
    """The table that each cell's words are taken from (the groups, full
    then stripped, and word 0) and the fill words, built on the first
    call: a process that writes no CSV never builds them."""
    return np.concatenate([_group_words(), _lead_words()]), _fill_words()


def _cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``values`` (1-D float) under %.17g, a (5, n) array of
    words (see above), and the mask of the values out of range, whose
    cells must be formatted in Python."""
    n = values.size
    table, fill = _lookup()
    mag = np.abs(values)
    exact = (mag >= _LOW) & (mag < _HIGH)
    mag = np.where(exact, mag, 1.0)  # the cells out of range read "1"
    decade = np.searchsorted(_DECADES, mag, "right")
    decade -= 1  # the index of e in _EXPONENTS, e + 4
    scale = 20 - decade  # the index of 10**(16 - e)
    # digits = mag * 10**(16 - e) = head + tail exactly (Dekker): head
    # is at least 1e16 > 2**53, an even integer, so rounding the tail
    # half to even rounds the sum half to even.  Each product is its own
    # ufunc call, so none is fused into a multiply-add.
    head = mag * _SCALES.take(scale)
    split = mag * _SPLIT
    mag_hi = split - (split - mag)
    mag_lo = mag - mag_hi
    scale_hi, scale_lo = _SCALES_HI.take(scale), _SCALES_LO.take(scale)
    tail = mag_hi * scale_hi - head
    tail += mag_hi * scale_lo
    tail += mag_lo * scale_hi
    tail += mag_lo * scale_lo
    digits = head.astype(np.int64)
    digits += np.rint(tail).astype(np.int64)
    zero = values == 0
    digits[zero] = 0
    # a value from 1 up has a fraction at 17 digits exactly when it is
    # not a whole number: a fraction of one ulp is more than half a unit
    # of the 17th digit
    fraction = mag != np.floor(mag)

    index = np.empty((5, n), np.intp)
    lead = np.floor_divide(digits, 10 ** 16, out=index[0])
    rest = digits - lead * 10 ** 16
    index[0] += (np.signbit(values) * 21 + decade) * 10 + _LEADS
    halves = np.empty((2, n), np.int64)
    np.floor_divide(rest, 10 ** 8, out=halves[0])
    np.subtract(rest, halves[0] * 10 ** 8, out=halves[1])
    groups = index[1:].reshape(2, 2, n)
    np.floor_divide(halves, 10 ** 4, out=groups[:, 0])
    np.subtract(halves, groups[:, 0] * 10 ** 4, out=groups[:, 1])
    # a group after which every group is 0 drops its trailing zeros
    low_zero = halves[1] == 0
    index[1] += 10_000 * (low_zero & (groups[0, 1] == 0))
    index[2] += 10_000 * low_zero
    index[3] += 10_000 * (groups[1, 1] == 0)
    index[4] += 10_000
    words = table.take(index)
    words[1:] |= fill.take(decade * 2 + fraction, axis=1)
    return words, ~(exact | zero)


def format_rows(block: np.ndarray) -> bytes:
    """The text of some rows of a CSV, each line begun with its newline.
    ``block`` holds the CSV's columns as its rows."""
    words, python = _cells(block.ravel())
    in_python = python.any()
    if in_python:  # a marker in place of the text
        words[:, python] = 0
        words[0, python] = _MARK_WORD
    # words by (word, column, row) to the cells of each row in turn
    cells = words.reshape(5, *block.shape)
    cells.view(np.uint8)[0, 0, ::8] = ord("\n")  # the first delimiter
    text = cells.transpose(2, 1, 0).tobytes().translate(None, _NUL)
    if not in_python:
        return text
    # the values formatted in Python, row by row as the text has them
    python_text = [("%.17g" % v).encode()
                   for v in block.T[python.reshape(block.shape).T].tolist()]
    parts = text.split(_MARK)
    return b"".join(part for pair in zip(parts, python_text + [b""])
                    for part in pair)


def _write_rows(fh, columns, start: int, stop: int) -> None:
    """Rows ``[start, stop)`` of the CSV of these columns, block by block
    from ``start``, each line begun with its newline.  A row's text is
    that of its own values, so any split of the rows writes the bytes of
    one call over them all."""
    for lo in range(start, stop, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, stop)
        block = np.stack([values[lo:hi] for values in columns], dtype=float)
        fh.write(format_rows(block))


def _write_split(path, fh, columns, n_rows: int) -> None:
    """Rows ``[0, mid)`` here and ``[mid, n_rows)`` in a forked child,
    which writes them to an anonymous temporary file (in the directory
    of ``path``) that this process then appends.  The child ends with
    ``os._exit``: it runs no exit handler, flushes none of this
    process's buffers and writes nothing else."""
    mid = round(n_rows / (2 * BLOCK_ROWS)) * BLOCK_ROWS
    with tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(path))) as part:
        fh.flush()  # leave no text of ours in the buffer the child gets
        try:
            pid = os.fork()
        except (AttributeError, OSError) as exc:  # no os.fork, or it failed
            logger.warning("%s written in one process: %r", path, exc)
            _write_rows(fh, columns, 0, n_rows)
            return
        if pid == 0:
            status = 1
            try:
                _write_rows(part, columns, mid, n_rows)
                part.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            _write_rows(fh, columns, 0, mid)
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"rows {mid} to {n_rows} of {path}: the writing "
                          f"process ended with status {code}")
        part.seek(0)
        shutil.copyfileobj(part, fh)


def write_csv(path, columns: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write (name, 1-D array) columns as CSV, each value under
    ``%.17g``, in one pass over the rows, the second half of them in a
    forked child process from ``SPLIT_ROWS`` rows on.

    All columns have the same length.  A CSV whose writing raised is
    removed rather than left cut short.
    """
    lengths = {len(values) for _, values in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop()
    arrays = [values for _, values in columns]
    _lookup()  # built here, so a forked child does not build its own
    with open(path, "wb") as fh:
        try:
            fh.write(",".join(name for name, _ in columns).encode())
            if n_rows >= SPLIT_ROWS:
                _write_split(path, fh, arrays, n_rows)
            else:
                _write_rows(fh, arrays, 0, n_rows)
            fh.write(b"\n")
        except BaseException:
            fh.close()
            with suppress(FileNotFoundError):
                os.unlink(path)
            raise
