"""The streaming CSV writer against ``np.savetxt``, byte for byte.

``reference_csv`` is the oracle: the ``np.savetxt`` call that
``Trajectory.to_csv`` was written with before the streaming writer
replaced it.
"""

import importlib.util
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slidingesc import Trajectory, _tables, run
from slidingesc._tables import BLOCK_ROWS, SPLIT_ROWS, format_rows
from slidingesc.cli import EXIT_IO, EXIT_OK, main
from slidingesc.scenario import builtin_scenario_dict, scenario_from_dict


def reference_csv(traj, path) -> None:
    m = traj.v.shape[1]
    n = traj.x.shape[1]
    table = np.column_stack([
        traj.t, traj.v, traj.x, traj.z, traj.y, traj.y_m, traj.e,
        traj.s, traj.u, traj.dir_index.astype(float), traj.rho,
    ])
    fmt = ["%.17g"] * (1 + m + 2 * n + 4 + m) + ["%d", "%.17g"]
    np.savetxt(path, table, fmt=fmt, delimiter=",",
               header=",".join(name for name, _ in traj.columns()),
               comments="")


def assert_matches_savetxt(tmp_path, traj) -> None:
    """``to_csv`` writes the oracle's bytes and no other file."""
    ours, ref = tmp_path / "ours", tmp_path / "ref.csv"
    ours.mkdir()
    traj.to_csv(ours / "trajectory.csv")
    reference_csv(traj, ref)
    assert [p.name for p in ours.iterdir()] == ["trajectory.csv"]
    assert (ours / "trajectory.csv").read_bytes() == ref.read_bytes()


def synthetic(rows: int, dim: int, seed: int = 0) -> Trajectory:
    """A log with all-distinct columns (t, v, x, z, y, e, s), long
    constant runs (u, dir, rho, the saturated tail of y_m) and -0.0 next
    to 0.0 (in u, in e and in the piecewise-constant s)."""
    rng = np.random.default_rng(seed)
    k = np.arange(rows)
    rho = 0.25
    dir_index = (k // 7) % dim + 1
    sign = np.where((k // 5) % 3 == 0, 1.0, -1.0)
    u = np.zeros((rows, dim))
    u[k, dir_index - 1] = rho * sign
    u[k % 11 == 3] = -0.0
    e = rng.standard_normal(rows)
    e[::4] = 0.0
    e[1::4] = -0.0
    s = np.repeat(rng.standard_normal(rows // 3 + 1), 3)[:rows]
    s[k % 13 == 0] = -0.0
    s[k % 13 == 1] = 0.0
    return Trajectory(
        t=k * 1e-3,
        v=rng.standard_normal((rows, dim)),
        x=rng.standard_normal((rows, dim)) * 1e3,
        z=rng.standard_normal((rows, dim)) * 1e-3,
        y=rng.standard_normal(rows),
        y_m=np.minimum(k * 1e-2, 2.5),
        e=e, s=s, u=u, dir_index=dir_index,
        rho=np.full(rows, rho))


# values that the writer formats in Python: exponent forms below 1e-4
# and from 1e17 on, inf and nan
OUT_OF_RANGE = [9.999999999999999e-05, -5e-324, 1e17, -1.7976931348623157e308,
                np.inf, -np.inf]


def at_block_edge(traj: Trajectory, edge: int = BLOCK_ROWS) -> Trajectory:
    """Runs at a block edge (the first by default): u holds across it,
    rho steps from -0.0 to 0.0 at it, and y_m and s hold NaN across
    it; y and x1 hold values out of the writer's range across it."""
    traj.u[edge - 5:edge + 5] = traj.u[edge - 5]
    traj.rho[edge - 2:edge] = -0.0
    traj.rho[edge:edge + 2] = 0.0
    traj.y_m[edge - 3:edge + 3] = np.nan
    traj.s[edge - 1:edge + 1] = np.nan
    span = slice(edge - 3, edge + 3)
    rows = len(traj.y[span])  # fewer where the log ends before edge + 3
    traj.y[span] = OUT_OF_RANGE[:rows]
    traj.x[span, 0] = OUT_OF_RANGE[::-1][:rows]
    return traj


def load_format_oracle():
    """``tools/format_oracle.py`` as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "format_oracle.py"
    spec = importlib.util.spec_from_file_location("format_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def formatted(values) -> list[str]:
    """The writer's text of each value, as one column."""
    values = np.asarray(values, dtype=float)
    text = format_rows(values[None], [0]).decode()
    return text.split("\n")[1:]


class TestFormatRows:
    """The numpy pass against Python's %-formatting, value by value."""

    oracle = load_format_oracle()

    def test_matches_python_on_100k_seeded_values(self):
        values = self.oracle.draw(100_000, seed=1)
        assert values.size >= 100_000
        assert self.oracle.first_mismatch(values) is None

    def test_draws_cover_every_kind(self):
        values = self.oracle.draw(100_000, seed=1)
        mag = np.abs(values)
        assert np.isnan(values).any() and np.isinf(values).any()
        assert ((mag > 0) & (mag < 2.2250738585072014e-308)).any()
        assert (mag < 1e-4).sum() > 1000 and (mag >= 1e17).sum() > 1000
        ties = self.oracle.ties(np.random.default_rng(2), 1000)
        for tie in ties.tolist():  # exactly half way at the 17th digit
            assert (Fraction(tie) * 10 ** (16 - int(np.floor(np.log10(tie))))
                    ).denominator == 2

    def test_edges(self):
        edges = [1e-4, 9.999999999999999e-05, 1e16, 99999999999999999.0,
                 1e17, 0.0, -0.0, -1e-4, -99999999999999999.0]
        assert formatted(edges) == ["%.17g" % v for v in edges]
        assert formatted([0.0, -0.0]) == ["0", "-0"]

    @pytest.mark.parametrize("k", range(-4, 18))
    def test_no_value_in_range_rounds_into_the_next_decade(self, k):
        # the premises of the writer's decade table: the double nearest
        # 10**k is at least 10**k, and the double below it keeps the
        # decade k - 1 at 17 significant digits
        power = float(f"1e{k}")
        assert Fraction(power) >= Fraction(10) ** k
        below = float(np.nextafter(power, 0.0))
        assert int(("%.16e" % below).split("e")[1]) == k - 1
        assert formatted([below, power]) == ["%.17g" % below,
                                             "%.17g" % power]


class TestMatchesSavetxt:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_counts_and_dimensions(self, tmp_path, monkeypatch, rows,
                                       dim):
        # at the edges of a 64-row block: the bytes do not depend on the
        # block size, so a small block keeps these cases small
        monkeypatch.setattr(_tables, "BLOCK_ROWS", 64)
        assert_matches_savetxt(tmp_path, synthetic(rows, dim))

    def test_equal_columns_share_text(self, tmp_path):
        # with C = I the output z repeats the state x bit for bit
        traj = synthetic(BLOCK_ROWS + 1, 2, seed=3)
        traj.x[5, 0] = 0.0
        traj.z = traj.x.copy()
        traj.z[5, 0] = -0.0  # z1's first block differs from x1's in one bit
        assert_matches_savetxt(tmp_path, traj)

    @pytest.mark.parametrize("rows", [2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS,
                                      2 * BLOCK_ROWS + 1])
    def test_runs_at_block_edge(self, tmp_path, rows):
        # at the edge of the second block, whose rows end before it, at
        # it, or one row after it
        traj = at_block_edge(synthetic(rows, 2, seed=5), edge=2 * BLOCK_ROWS)
        assert_matches_savetxt(tmp_path, traj)

    def test_to_csv_alone(self, tmp_path):
        assert_matches_savetxt(tmp_path,
                               at_block_edge(synthetic(BLOCK_ROWS + 1, 2, seed=6)))

    def test_integer_columns(self, tmp_path):
        # kept as they are and made floats a block at a time, alone or
        # next to a float column of the same values
        k = np.arange(BLOCK_ROWS + 3)
        path = tmp_path / "ints.csv"
        columns = [("a", k * 7 + 2), ("b", (k % 5).astype(np.int32)),
                   ("c", k * 7.0 + 2)]
        for chosen in (columns[:2], columns):
            _tables.write_csv(path, chosen)
            ref = np.column_stack([v.astype(float) for _, v in chosen])
            np.savetxt(tmp_path / "ref.csv", ref, fmt="%.17g", delimiter=",",
                       header=",".join(name for name, _ in chosen),
                       comments="")
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_ragged_columns_rejected(self, tmp_path):
        traj = synthetic(10, 2)
        traj.rho = traj.rho[:-1]
        with pytest.raises(ValueError, match="length"):
            traj.to_csv(tmp_path / "trajectory.csv")


class TestSource:
    """A column that repeats an earlier one bit for bit is formatted
    once; any other, however close, is a source of its own."""

    def test_same_ends_differ_inside(self):
        first = np.linspace(-1.0, 1.0, 9)
        inside = first.copy()
        inside[4] = np.nextafter(inside[4], 1.0)
        sources = []
        plan = [_tables._source(sources, v)
                for v in (first, inside, first.copy(), inside[::-1][::-1])]
        assert plan == [0, 1, 0, 1]

    def test_signed_zeros_kept_apart(self):
        sources = []
        plan = [_tables._source(sources, v) for v in
                (np.zeros(5), np.full(5, -0.0), [0.0] * 5, [-0.0] * 5)]
        assert plan == [0, 1, 0, 1]

    def test_integers_kept_as_they_are(self):
        ints = np.arange(6, dtype=np.int64)
        sources = []
        plan = [_tables._source(sources, v) for v in
                (ints, ints.astype(float), ints.copy(), [True, False] * 3)]
        assert plan == [0, 1, 0, 2]
        assert sources[0] is ints and sources[2].dtype == float

    def test_empty_columns(self, tmp_path):
        sources = []
        assert [_tables._source(sources, v) for v in
                (np.empty(0), np.empty(0), np.empty(0, np.int64))] == [0, 0, 1]
        path = tmp_path / "empty.csv"
        _tables.write_csv(path, [("a", np.empty(0)), ("b", np.empty(0))])
        assert path.read_bytes() == b"a,b\n"


def test_import_builds_no_tables():
    """The writer's tables are built on the first write, not when the
    package is imported."""
    code = ("import slidingesc, slidingesc._tables as t; "
            "print(t._lookup.cache_info().currsize)")
    src = Path(_tables.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "0\n"


# The writer's peak Python heap on a 2401-row log, measured with blocks
# of 64, 128, 256 and 512 rows: 0.23, 0.44, 0.84 and 1.65 MB.  The bound
# holds at BLOCK_ROWS = 128 and fails once the working arrays of a block
# (or of more than a block) grow to twice that.
PEAK_HEAP_MB = 0.7


def test_peak_heap_of_a_2401_row_log(tmp_path):
    traj = synthetic(2401, 2, seed=4)
    traj.to_csv(tmp_path / "trajectory.csv")  # first-call allocations
    tracemalloc.start()
    try:
        traj.to_csv(tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_HEAP_MB * 1e6


def split_point(rows: int) -> int:
    """The block edge nearest half the rows, where the writer splits."""
    return round(rows / (2 * BLOCK_ROWS)) * BLOCK_ROWS


def split_case(rows: int) -> Trajectory:
    """A log with a relay run, -0.0 and NaN across the split point, in
    columns with repeated neighbours and in columns without."""
    mid = split_point(rows)
    traj = at_block_edge(synthetic(rows, 2, seed=9), edge=mid)
    traj.e[mid - 1:mid + 1] = -0.0, np.nan
    traj.z[mid - 1:mid + 1, 0] = np.nan, -0.0
    return traj


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def fail_in(monkeypatch, where: str) -> None:
    """Make ``_write_rows`` raise in the child or in the parent only."""
    parent, real = os.getpid(), _tables._write_rows

    def write_rows(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"fails in the {where}")
        return real(*args)

    monkeypatch.setattr(_tables, "_write_rows", write_rows)


class TestSplit:
    """From ``SPLIT_ROWS`` rows on, a forked child writes the rows from
    the block edge nearest the middle; the bytes are those of one
    process and of ``np.savetxt``."""

    @pytest.mark.parametrize("rows", [SPLIT_ROWS - 1, SPLIT_ROWS,
                                      SPLIT_ROWS + 1, 2 * SPLIT_ROWS + 777])
    def test_matches_one_process_and_savetxt(self, tmp_path, monkeypatch,
                                             forks, rows):
        assert BLOCK_ROWS * 2 < split_point(rows) < rows
        traj = split_case(rows)
        split, one, ref = (tmp_path / f"{name}.csv"
                           for name in ("split", "one", "ref"))
        traj.to_csv(split)
        assert len(forks) == (rows >= SPLIT_ROWS)
        assert_reaped(forks)
        monkeypatch.setattr(_tables, "SPLIT_ROWS", rows + 1)
        traj.to_csv(one)
        assert len(forks) == (rows >= SPLIT_ROWS)

        reference_csv(traj, ref)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "one.csv", "ref.csv", "split.csv"]
        assert split.read_bytes() == ref.read_bytes()
        assert one.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failure_raises_reaps_and_removes(self, tmp_path, monkeypatch,
                                              forks, where):
        traj = split_case(SPLIT_ROWS)
        fail_in(monkeypatch, where)
        if where == "child":
            with pytest.raises(OSError, match="trajectory.csv.*status 1"):
                traj.to_csv(tmp_path / "trajectory.csv")
        else:
            with pytest.raises(RuntimeError, match="parent"):
                traj.to_csv(tmp_path / "trajectory.csv")
        assert len(forks) == 1
        assert_reaped(forks)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fork", ["fails", "missing"])
    def test_without_fork_one_process(self, tmp_path, monkeypatch, caplog,
                                      fork):
        traj = split_case(SPLIT_ROWS + 1)
        one, alone = tmp_path / "one.csv", tmp_path / "alone.csv"
        monkeypatch.setattr(_tables, "SPLIT_ROWS", SPLIT_ROWS + 2)
        traj.to_csv(one)
        monkeypatch.undo()
        if fork == "fails":
            def no_fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")
        with caplog.at_level(logging.WARNING, logger="slidingesc._tables"):
            traj.to_csv(alone)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "one process" in caplog.records[0].getMessage()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alone.csv", "one.csv"]
        assert alone.read_bytes() == one.read_bytes()


LONG_RUN = ["--override", "sim.horizon=5", "--override", "sim.log_stride=1"]


def test_cli_run_matches_reference(tmp_path, forks):
    """``run`` on coupled_bowl logging every step (5001 rows, the CSV
    written by two processes) writes the CSV as the oracle writes the
    same scenario's, and nothing else but its metrics and scenario."""
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), *LONG_RUN]) == EXIT_OK
    assert len(forks) == 1
    assert_reaped(forks)
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "scenario.json", "trajectory.csv"]

    doc = builtin_scenario_dict("coupled_bowl")
    doc["sim"]["horizon"] = 5
    doc["sim"]["log_stride"] = 1
    assert json.loads((out / "scenario.json").read_text()) == doc
    sc = scenario_from_dict(doc)
    traj = run(sc.build_plant(), sc.controller, sc.sim)
    reference_csv(traj, tmp_path / "ref.csv")
    assert ((out / "trajectory.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_cli_run_failed_child(tmp_path, monkeypatch, forks, capsys):
    """A child that fails fails the run and leaves no CSV, no stray
    file and no process behind."""
    fail_in(monkeypatch, "child")
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), *LONG_RUN]) == EXIT_IO
    error = capsys.readouterr().err
    assert error.startswith("error: ") and "status 1" in error
    assert len(forks) == 1
    assert_reaped(forks)
    assert list(out.iterdir()) == []
