"""Streaming writer for the text tables a run leaves behind.

A table is a header line plus one line per row, each cell a column's
value under that column's %-format, cells joined by the table's
delimiter.  The bytes are those of NumPy's plain-text table writer
given the same formats, delimiter and header (the tests compare the
two), but the work is organised around what dominates it, turning a
float into text:

* rows are handled in blocks of ``BLOCK_ROWS``, so the text held in
  memory does not grow with the run length;
* inside a block, a run of bit-identical values in a column (the relay
  output, the direction, a saturated reference) is formatted once;
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


def _source(sources: list, values, fmt: str) -> int:
    """Index of the column in ``sources`` with this format and these
    bits, appended (with whether it has runs) if there is none yet."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.int64)
    for i, (other, other_fmt, _) in enumerate(sources):
        if other_fmt == fmt and np.array_equal(other.view(np.int64), bits):
            return i
    sources.append((values, fmt, bool(np.any(bits[1:] == bits[:-1]))))
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
            text = [format_runs(values[lo:hi], fmt) if runs
                    else [fmt % v for v in values[lo:hi].tolist()]
                    for values, fmt, runs in sources]
            for table, fh, columns in zip(tables, files, layout):
                first = -lo % table.stride  # first row of the block to write
                cells = [text[i][first::table.stride] for i in columns]
                lines = list(map(table.delimiter.join, zip(*cells)))
                if lines:
                    lines.append("")  # the newline after the last row
                    fh.write("\n".join(lines))
