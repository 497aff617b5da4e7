"""Streaming writer for the text tables a run leaves behind.

A table is a header line plus one line per row, each cell a column's
value under that column's %-format, cells joined by the table's
delimiter.  The bytes are those of NumPy's plain-text table writer
given the same formats, delimiter and header (the tests compare the
two), but the work is organised around what dominates it, turning a
float into text.  The unit of work is the block of ``BLOCK_ROWS`` rows,
so the text held in memory does not grow with the run length:

* each distinct column of a block is formatted once, by ``format_runs``,
  which formats a run of bit-identical values (the relay output, the
  direction, a saturated reference) once and shares its ``str`` among
  the run's cells;
* bit-identical columns are one column per format, however many tables
  of one call show them (with ``C = I`` the output z repeats the state
  x);
* a log of ``SPLIT_ROWS`` rows or more is written by two processes: the
  rows are cut at a block edge near the middle, and a forked child
  writes the second half into an anonymous temporary file per table,
  opened in the table's directory, which this process appends to the
  first half once the child has ended.  Both halves number rows from
  the start of the log, so the bytes are those of one process.  Where
  ``os.fork`` is missing or fails, one process writes all the rows and
  a warning says so.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
from contextlib import ExitStack, suppress
from typing import NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# A block's strings take about 1.5 kB per row: the writer's peak Python
# heap on a 2401-row log is 0.21, 0.29, 0.51 and 0.95 MB at blocks of 64,
# 128, 256 and 512 rows.  256 rows write the 50001-row log of a dense run
# in 0.33 s against 0.36 s at 128 (faster in 14 of 15 alternating rounds,
# 2-core host): the numpy calls of format_runs are paid half as often.
BLOCK_ROWS = 256
# From this many rows on, a forked child writes the second half of them.
# One fork and wait of an 86 MB process take 2.4-2.7 ms (2-core host),
# the time to write some 220 rows of the CSV and its plot tables, so at
# this length the child's half of the rows saves about ten times that.
SPLIT_ROWS = 4096


class Table(NamedTuple):
    """One output file: its header line (without the newline), its
    columns in order as (1-D array, %-format) pairs, the cell delimiter,
    and the row stride (every ``stride``-th row is written)."""

    path: object
    header: str
    columns: Sequence[tuple[np.ndarray, str]]
    delimiter: str = " "
    stride: int = 1


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
    ``format_runs`` converts one block at a time: the direction and its
    indicators are not copied to floats whole."""
    bits = _bits(values)
    for i, (other, other_fmt) in enumerate(sources):
        if other_fmt == fmt and np.array_equal(_bits(other), bits):
            return i
    sources.append((np.asarray(values), fmt))
    return len(sources) - 1


def _write_rows(plan, files, sources, start: int, stop: int) -> None:
    """Rows ``[start, stop)`` of every table of ``plan``, (table, the
    indices of its columns in ``sources``) pairs, block by block from
    ``start``.  Row numbers are absolute, so any split of the rows writes
    the bytes of one call over them all."""
    for lo in range(start, stop, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, stop)
        text = [format_runs(values[lo:hi], fmt) for values, fmt in sources]
        for (table, columns), fh in zip(plan, files):
            first = -lo % table.stride  # first row of the block to write
            cells = [text[i][first::table.stride] for i in columns]
            lines = list(map(table.delimiter.join, zip(*cells)))
            if lines:
                lines.append("")  # the newline after the last row
                fh.write("\n".join(lines))


def _write_split(plan, files, sources, n_rows: int) -> None:
    """Rows ``[0, mid)`` here and ``[mid, n_rows)`` in a forked child,
    which writes them to an anonymous temporary file per table (in the
    table's directory) that this process then appends.  The child ends
    with ``os._exit``: it runs no exit handler, flushes none of this
    process's buffers and writes nothing else."""
    mid = round(n_rows / (2 * BLOCK_ROWS)) * BLOCK_ROWS
    with ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(
                     "w+", encoding="utf-8",
                     dir=os.path.dirname(os.path.abspath(table.path))))
                 for table, _ in plan]
        for fh in files:
            fh.flush()  # leave no text of ours in the buffers the child gets
        try:
            pid = os.fork()
        except (AttributeError, OSError) as exc:  # no os.fork, or it failed
            logger.warning("tables written in one process: %r", exc)
            _write_rows(plan, files, sources, 0, n_rows)
            return
        if pid == 0:
            status = 1
            try:
                _write_rows(plan, parts, sources, mid, n_rows)
                for part in parts:
                    part.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            _write_rows(plan, files, sources, 0, mid)
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            names = ", ".join(str(table.path) for table, _ in plan)
            raise OSError(f"rows {mid} to {n_rows} of {names}: the writing "
                          f"process ended with status {code}")
        for fh, part in zip(files, parts):
            fh.flush()
            part.seek(0)
            shutil.copyfileobj(part.buffer, fh.buffer)


def write_tables(tables: Sequence[Table]) -> None:
    """Write every table in one pass over the rows, the second half of
    them in a forked child process from ``SPLIT_ROWS`` rows on.

    All columns of all tables have the same length.  A table whose
    writing raised is removed rather than left cut short.
    """
    lengths = {len(values) for table in tables for values, _ in table.columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop()
    sources: list[tuple[np.ndarray, str]] = []
    plan = [(table, [_source(sources, values, fmt)
                     for values, fmt in table.columns]) for table in tables]
    with ExitStack() as stack:
        files = [stack.enter_context(open(table.path, "w", encoding="utf-8"))
                 for table in tables]
        try:
            for table, fh in zip(tables, files):
                fh.write(table.header + "\n")
            if n_rows >= SPLIT_ROWS:
                _write_split(plan, files, sources, n_rows)
            else:
                _write_rows(plan, files, sources, 0, n_rows)
        except BaseException:
            stack.close()
            for table in tables:
                with suppress(FileNotFoundError):
                    os.unlink(table.path)
            raise
