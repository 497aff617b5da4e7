"""Streaming writer for the text tables a run leaves behind.

A table is a header line plus one line per row, each cell a column's
value under that column's %-format, cells joined by the table's
delimiter.  The bytes are those of NumPy's plain-text table writer
given the same formats, delimiter and header (the tests compare the
two), but the work is organised around what dominates it, turning a
float into text:

* rows are handled in blocks of ``BLOCK_ROWS``, so the text held in
  memory does not grow with the run length;
* a run of bit-identical values in a column (the relay output, the
  direction, a saturated reference) is formatted once: such columns are
  searched for runs once per window of ``WINDOW_ROWS`` rows, and every
  cell of a run is the same ``str`` object, so a window's cells cost
  pointers rather than text;
* bit-identical columns are formatted once per format, however many
  tables of one call show them (with ``C = I`` the output z repeats the
  state x);
* a column without repeated neighbours skips the search for runs.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import NamedTuple, Sequence

import numpy as np

# A block's strings take about 1.5 kB per row.  At 64 rows the writer's
# peak memory stays below that of NumPy's text writer even on a short
# log, where its column_stack copy is small; the per-block work then
# adds 10-20 % to the writing time against blocks of 1024 rows.
BLOCK_ROWS = 64
# Rows per search for runs in a column that has repeated neighbours, a
# whole number of blocks; each block slices its cells from the window.
# A window holds a cell per row and a string per run of every such
# column at once.  At 4 blocks the writer's peak memory stays within
# 0.1 MB of searching per block on a 2401-row log in which the relay
# output changes at most rows (0.47 MB above it at 16 blocks), and the
# search's numpy calls are paid once per 256 rows instead of per 64.
WINDOW_ROWS = 4 * BLOCK_ROWS


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
    bits, appended (with whether it has runs) if there is none yet.

    A column with runs keeps its dtype, as ``format_runs`` converts one
    window at a time: the direction and its indicators are not copied
    to floats whole."""
    bits = _bits(values)
    for i, (other, other_fmt, _) in enumerate(sources):
        if other_fmt == fmt and np.array_equal(_bits(other), bits):
            return i
    runs = bool(np.any(bits[1:] == bits[:-1]))
    sources.append((np.asarray(values) if runs else bits.view(float), fmt,
                    runs))
    return len(sources) - 1


def write_tables(tables: Sequence[Table]) -> None:
    """Write every table in one pass over the rows.

    All columns of all tables have the same length.
    """
    lengths = {len(values) for table in tables for values, _ in table.columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop()
    sources: list[tuple[np.ndarray, str, bool]] = []
    layout = [[_source(sources, values, fmt) for values, fmt in table.columns]
              for table in tables]
    with ExitStack() as stack:
        files = [stack.enter_context(open(table.path, "w", encoding="utf-8"))
                 for table in tables]
        for table, fh in zip(tables, files):
            fh.write(table.header + "\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n_rows)
            at = lo % WINDOW_ROWS
            if at == 0:
                window = [format_runs(values[lo:lo + WINDOW_ROWS], fmt)
                          if runs else None for values, fmt, runs in sources]
            text = [window[i][at:at + hi - lo] if runs
                    else [fmt % v for v in values[lo:hi].tolist()]
                    for i, (values, fmt, runs) in enumerate(sources)]
            for table, fh, columns in zip(tables, files, layout):
                first = -lo % table.stride  # first row of the block to write
                cells = [text[i][first::table.stride] for i in columns]
                lines = list(map(table.delimiter.join, zip(*cells)))
                if lines:
                    lines.append("")  # the newline after the last row
                    fh.write("\n".join(lines))
