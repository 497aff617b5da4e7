"""Streaming writer for the CSV a run leaves behind.

The CSV is a header line of column names plus one line per row, each
cell a column's value under that column's %-format, cells joined by
commas.  The bytes are those of NumPy's plain-text table writer given
the same formats, delimiter and header (the tests compare the two), but
the work is organised around what dominates it, turning a float into
text.  The unit of work is the block of ``BLOCK_ROWS`` rows, so the text
held in memory does not grow with the run length:

* each distinct column of a block is formatted once, by ``format_runs``,
  which formats a run of bit-identical values (the relay output, the
  direction, a saturated reference) once and shares its ``str`` among
  the run's cells;
* bit-identical columns are one column per format (with ``C = I`` the
  output z repeats the state x);
* a log of ``SPLIT_ROWS`` rows or more is written by two processes: the
  rows are cut at a block edge near the middle, and a forked child
  writes the second half into an anonymous temporary file, opened in
  the CSV's directory, which this process appends to the first half
  once the child has ended.  The bytes are those of one process.  Where
  ``os.fork`` is missing or fails, one process writes all the rows and
  a warning says so.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
from contextlib import suppress
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# A block's strings take about 2 kB per row: the writer's peak Python
# heap on a 2401-row log is 0.14, 0.26, 0.50 and 0.97 MB at blocks of 64,
# 128, 256 and 512 rows.  256 rows wrote the 50001-row log of a dense run
# in 0.33 s against 0.36 s at 128 (faster in 14 of 15 alternating rounds,
# 2-core host, with four plot tables the writer then also wrote): the
# numpy calls of format_runs are paid half as often.
BLOCK_ROWS = 256
# From this many rows on, a forked child writes the second half of them.
# One fork and wait of an 86 MB process take 2.4-2.7 ms (2-core host),
# the time to write some 220 rows of the CSV and the four plot tables it
# was measured with.  For the CSV alone, the split writes the 50001-row
# log of a dense run in a median 0.25 s against 0.44 s in one process
# (faster in 20 of 20 alternating rounds, 2-core host).
SPLIT_ROWS = 4096


def format_runs(values: np.ndarray, fmt: str) -> list[str]:
    """``fmt % v`` for every value, formatting each run of bit-identical
    values once (-0.0 and 0.0 differ in their bits and in their text)."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.int64)
    new = bits[1:] != bits[:-1]
    if new.all():
        return [fmt % v for v in values.tolist()]
    starts = np.flatnonzero(np.concatenate(([True], new))).tolist()
    text = [fmt % v for v in values[starts].tolist()]
    cells: list[str] = []
    for cell, start, end in zip(text, starts, starts[1:] + [values.size]):
        cells += [cell] * (end - start)
    return cells


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _source(sources: list, values, fmt: str) -> int:
    """Index of the column in ``sources`` with this format and these
    bits, appended if there is none yet.  A column keeps its dtype, as
    ``format_runs`` converts one block at a time: the direction is not
    copied to floats whole."""
    bits = _bits(values)
    for i, (other, other_fmt) in enumerate(sources):
        if other_fmt == fmt and np.array_equal(_bits(other), bits):
            return i
    sources.append((np.asarray(values), fmt))
    return len(sources) - 1


def _write_rows(fh, columns, sources, start: int, stop: int) -> None:
    """Rows ``[start, stop)`` of the CSV whose columns are these indices
    into ``sources``, block by block from ``start``.  A row's text is
    that of its own values, so any split of the rows writes the bytes of
    one call over them all."""
    for lo in range(start, stop, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, stop)
        text = [format_runs(values[lo:hi], fmt) for values, fmt in sources]
        lines = list(map(",".join, zip(*(text[i] for i in columns))))
        lines.append("")  # the newline after the last row
        fh.write("\n".join(lines))


def _write_split(path, fh, columns, sources, n_rows: int) -> None:
    """Rows ``[0, mid)`` here and ``[mid, n_rows)`` in a forked child,
    which writes them to an anonymous temporary file (in the directory
    of ``path``) that this process then appends.  The child ends with
    ``os._exit``: it runs no exit handler, flushes none of this
    process's buffers and writes nothing else."""
    mid = round(n_rows / (2 * BLOCK_ROWS)) * BLOCK_ROWS
    with tempfile.TemporaryFile(
            "w+", encoding="utf-8",
            dir=os.path.dirname(os.path.abspath(path))) as part:
        fh.flush()  # leave no text of ours in the buffer the child gets
        try:
            pid = os.fork()
        except (AttributeError, OSError) as exc:  # no os.fork, or it failed
            logger.warning("%s written in one process: %r", path, exc)
            _write_rows(fh, columns, sources, 0, n_rows)
            return
        if pid == 0:
            status = 1
            try:
                _write_rows(part, columns, sources, mid, n_rows)
                part.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            _write_rows(fh, columns, sources, 0, mid)
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"rows {mid} to {n_rows} of {path}: the writing "
                          f"process ended with status {code}")
        fh.flush()
        part.seek(0)
        shutil.copyfileobj(part.buffer, fh.buffer)


def write_csv(path, columns: Sequence[tuple[str, np.ndarray, str]]) -> None:
    """Write (name, 1-D array, %-format) columns as CSV in one pass over
    the rows, the second half of them in a forked child process from
    ``SPLIT_ROWS`` rows on.

    All columns have the same length.  A CSV whose writing raised is
    removed rather than left cut short.
    """
    lengths = {len(values) for _, values, _ in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop()
    sources: list[tuple[np.ndarray, str]] = []
    plan = [_source(sources, values, fmt) for _, values, fmt in columns]
    with open(path, "w", encoding="utf-8") as fh:
        try:
            fh.write(",".join(name for name, _, _ in columns) + "\n")
            if n_rows >= SPLIT_ROWS:
                _write_split(path, fh, plan, sources, n_rows)
            else:
                _write_rows(fh, plan, sources, 0, n_rows)
        except BaseException:
            fh.close()
            with suppress(FileNotFoundError):
                os.unlink(path)
            raise
