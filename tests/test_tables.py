"""The streaming table writer against ``np.savetxt``, byte for byte.

``reference_csv`` and ``reference_plot_tables`` are the oracle: the
``np.savetxt`` calls that ``Trajectory.to_csv`` and the CLI's plot
tables were written with before the streaming writer replaced them
(the plot tables at the CSV's ``%.17g``; ``%.18e`` before they were
written in one pass with the CSV), and the point-by-point loop that
wrote the objective surface before it was evaluated in one batch.
"""

import json

import numpy as np
import pytest

from slidingesc import (CascadePlant, LtiSubsystem, QuadraticMap, Trajectory,
                        run)
from slidingesc._tables import (BLOCK_ROWS, WINDOW_ROWS, format_runs,
                               write_tables)
from slidingesc.cli import (EXIT_OK, _plot_tables, _write_objective_surface,
                           _write_tables, main)
from slidingesc.scenario import builtin_scenario_dict, scenario_from_dict

TABLES = ("trajectory.csv", "output_vs_time.dat", "phase_plane.dat",
          "control_signals.dat", "output_path_3d.dat", "objective_surface.dat")
PLOT_TABLES = TABLES[1:5]


def reference_csv(traj, path) -> None:
    m = traj.v.shape[1]
    n = traj.x.shape[1]
    table = np.column_stack([
        traj.t, traj.v, traj.x, traj.z, traj.y, traj.y_m, traj.e,
        traj.s, traj.u, traj.dir_index.astype(float), traj.rho,
    ])
    fmt = ["%.17g"] * (1 + m + 2 * n + 4 + m) + ["%d", "%.17g"]
    np.savetxt(path, table, fmt=fmt, delimiter=",",
               header=",".join(traj.column_header()), comments="")


def reference_plot_tables(outdir, traj, plant, fmt="%.17g") -> None:
    n = traj.z.shape[1]
    m = traj.u.shape[1]

    header = "t " + " ".join(f"z{i+1}" for i in range(n)) + " y y_m"
    np.savetxt(outdir / "output_vs_time.dat",
               np.column_stack([traj.t, traj.z, traj.y, traj.y_m]),
               fmt=fmt, header=header, comments="# ")

    if n == 2:
        np.savetxt(outdir / "phase_plane.dat",
                   np.column_stack([traj.z[:, 0], traj.z[:, 1]]), fmt=fmt,
                   header=f"z1 z2   (maximizer at {plant.map.z_star.tolist()})",
                   comments="# ")

    header = ("t " + " ".join(f"u{i+1}" for i in range(m)) + " "
              + " ".join(f"sigma{i+1}" for i in range(m)))
    sigma = np.zeros((len(traj), m))
    sigma[np.arange(len(traj)), traj.dir_index.astype(int) - 1] = 1.0
    np.savetxt(outdir / "control_signals.dat",
               np.column_stack([traj.t, traj.u, sigma]),
               fmt=fmt, header=header, comments="# ")

    if n == 2:
        stride = max(1, len(traj) // 2000)
        np.savetxt(outdir / "output_path_3d.dat",
                   np.column_stack([traj.z[::stride, 0], traj.z[::stride, 1],
                                    traj.y[::stride]]),
                   fmt=fmt, header="z1 z2 y", comments="# ")
        span = max(2.0, float(np.abs(traj.z).max()) * 1.1)
        reference_surface(outdir / "objective_surface.dat", plant.map, span)


def reference_surface(path, qmap, span) -> None:
    grid = np.linspace(-span, span, 61)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# z1 z2 h(z)   gnuplot splot blocks\n")
        for z1 in grid:
            for z2 in grid:
                fh.write(f"{z1:.6g} {z2:.6g} "
                         f"{qmap.eval(np.array([z1, z2])):.6g}\n")
            fh.write("\n")


def write_both(tmp_path, traj, plant):
    """Write with the package and with the oracle; return both dirs."""
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    ours.mkdir()
    ref.mkdir()
    _write_tables(ours, traj, plant)
    reference_csv(traj, ref / "trajectory.csv")
    reference_plot_tables(ref, traj, plant)
    return ours, ref


def assert_same_tables(ours, ref) -> None:
    written = [name for name in TABLES if (ref / name).exists()]
    assert written
    for name in TABLES:
        assert (ours / name).exists() == (ref / name).exists(), name
    for name in written:
        assert (ours / name).read_bytes() == (ref / name).read_bytes(), name


def write_apart(outdir, traj, plant) -> None:
    """The CSV and each plot table in a ``write_tables`` call of its own."""
    traj.to_csv(outdir / "trajectory.csv")
    for table in _plot_tables(outdir, traj, plant):
        write_tables([table])


def plant_of_dim(dim: int) -> CascadePlant:
    lti = LtiSubsystem(-np.eye(dim), np.eye(dim))
    return CascadePlant(lti, QuadraticMap(2.0, np.zeros(dim), -np.eye(dim)))


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


def at_window_edge(traj: Trajectory) -> Trajectory:
    """Runs at the first window edge, in columns searched for runs: u
    holds across it, rho steps from -0.0 to 0.0 at it, and y_m and s
    hold NaN across it."""
    edge = WINDOW_ROWS
    traj.u[edge - 5:edge + 5] = traj.u[edge - 5]
    traj.rho[edge - 2:edge] = -0.0
    traj.rho[edge:edge + 2] = 0.0
    traj.y_m[edge - 3:edge + 3] = np.nan
    traj.s[edge - 1:edge + 1] = np.nan
    return traj


class TestFormatRuns:
    def test_signed_zero_and_nan_runs(self):
        values = np.array([0.0, -0.0, -0.0, 0.0, 0.0, np.nan, np.nan, -np.inf,
                           1.5, 1.5, 1.5, -1.5])
        for fmt in ("%.17g", "%.18e", "%d"):
            finite = values if fmt != "%d" else values[np.isfinite(values)]
            assert format_runs(finite, fmt) == [fmt % v for v in finite]

    def test_single_and_all_distinct(self):
        assert format_runs(np.array([-0.0]), "%.17g") == ["-0"]
        values = np.random.default_rng(1).standard_normal(100)
        assert format_runs(values, "%.18e") == ["%.18e" % v for v in values]


class TestMatchesSavetxt:
    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                      BLOCK_ROWS + 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_counts_and_dimensions(self, tmp_path, rows, dim):
        traj = synthetic(rows, dim)
        assert_same_tables(*write_both(tmp_path, traj, plant_of_dim(dim)))

    def test_path_stride_across_blocks(self, tmp_path):
        # 3 * 2000 + 1 rows give stride 3, which divides neither the
        # block nor the window size, so the subsampled rows start
        # mid-block and mid-window
        rows = 6001
        assert BLOCK_ROWS % 3 != 0 and WINDOW_ROWS % 3 != 0
        assert rows > 2 * WINDOW_ROWS
        traj = synthetic(rows, 2, seed=2)
        ours, ref = write_both(tmp_path, traj, plant_of_dim(2))
        assert_same_tables(ours, ref)
        lines = (ours / "output_path_3d.dat").read_text().splitlines()
        assert len(lines) == 1 + 2001

    def test_equal_columns_share_text(self, tmp_path):
        # with C = I the output z repeats the state x bit for bit
        traj = synthetic(BLOCK_ROWS + 1, 2, seed=3)
        traj.x[5, 0] = 0.0
        traj.z = traj.x.copy()
        traj.z[5, 0] = -0.0  # z1's first block differs from x1's in one bit
        assert_same_tables(*write_both(tmp_path, traj, plant_of_dim(2)))

    @pytest.mark.parametrize("rows", [WINDOW_ROWS - 1, WINDOW_ROWS,
                                      WINDOW_ROWS + 1])
    def test_runs_at_window_edge(self, tmp_path, rows):
        assert WINDOW_ROWS % BLOCK_ROWS == 0
        traj = at_window_edge(synthetic(rows, 2, seed=5))
        assert_same_tables(*write_both(tmp_path, traj, plant_of_dim(2)))

    def test_to_csv_alone(self, tmp_path):
        traj = at_window_edge(synthetic(WINDOW_ROWS + 1, 2, seed=6))
        (tmp_path / "ours").mkdir()
        traj.to_csv(tmp_path / "ours" / "trajectory.csv")
        reference_csv(traj, tmp_path / "ref.csv")
        assert [p.name for p in (tmp_path / "ours").iterdir()] == [
            "trajectory.csv"]
        assert ((tmp_path / "ours" / "trajectory.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_ragged_columns_rejected(self, tmp_path):
        traj = synthetic(10, 2)
        traj.rho = traj.rho[:-1]
        with pytest.raises(ValueError, match="length"):
            traj.to_csv(tmp_path / "trajectory.csv")


class TestOnePass:
    """The CSV and the plot tables written in one ``write_tables`` call."""

    @pytest.mark.parametrize("rows", [1, WINDOW_ROWS - 1, WINDOW_ROWS + 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_joint_equals_apart(self, tmp_path, rows, dim):
        traj = synthetic(rows, dim, seed=7)
        if rows > WINDOW_ROWS:
            at_window_edge(traj)
        plant = plant_of_dim(dim)
        joint, apart = tmp_path / "joint", tmp_path / "apart"
        joint.mkdir()
        apart.mkdir()
        traj.to_csv(joint / "trajectory.csv",
                    *_plot_tables(joint, traj, plant))
        write_apart(apart, traj, plant)
        names = sorted(p.name for p in apart.iterdir())
        assert names == sorted(p.name for p in joint.iterdir())
        assert "trajectory.csv" in names and "control_signals.dat" in names
        for name in names:
            assert ((joint / name).read_bytes()
                    == (apart / name).read_bytes()), name

    @pytest.mark.parametrize("source", ["synthetic", "coupled_bowl"])
    def test_cells_parse_as_before(self, tmp_path, source):
        """Every plot-table cell parses to the float64 that the former
        ``%.18e`` text parses to, bit for bit."""
        if source == "synthetic":
            traj = at_window_edge(synthetic(WINDOW_ROWS + 1, 2, seed=8))
            plant = plant_of_dim(2)
        else:
            sc = scenario_from_dict(builtin_scenario_dict("coupled_bowl"))
            sc.sim.horizon, sc.sim.log_stride = 5.0, 1
            plant = sc.build_plant()
            traj = run(plant, sc.controller, sc.sim)
        ours, before = tmp_path / "ours", tmp_path / "before"
        ours.mkdir()
        before.mkdir()
        _write_tables(ours, traj, plant)
        reference_plot_tables(before, traj, plant, fmt="%.18e")
        for name in PLOT_TABLES:
            now = (ours / name).read_text().splitlines()
            old = (before / name).read_text().splitlines()
            assert now[0] == old[0] and len(now) == len(old), name
            now, old = np.loadtxt(ours / name), np.loadtxt(before / name)
            assert now.shape == old.shape, name
            assert np.array_equal(now.view(np.int64), old.view(np.int64)), name


class TestObjectiveSurface:
    """The batched surface against the point-by-point oracle."""

    @pytest.mark.parametrize("coupling", [0.0, 0.2, 0.5, -0.7, 0.95])
    @pytest.mark.parametrize("z_star", [(0.0, 0.0), (0.37, -1.3)])
    @pytest.mark.parametrize("span", [2.0, 2.2000000000000002, 5.5, 17.3])
    def test_matches_pointwise(self, tmp_path, coupling, z_star, span):
        qmap = QuadraticMap.from_coupling(coupling, 2.5, z_star)
        _write_objective_surface(tmp_path / "ours.dat", qmap, span)
        reference_surface(tmp_path / "ref.dat", qmap, span)
        assert ((tmp_path / "ours.dat").read_bytes()
                == (tmp_path / "ref.dat").read_bytes())

    def test_matches_pointwise_general_curvature(self, tmp_path):
        rng = np.random.default_rng(4)
        for trial in range(5):
            root = rng.normal(size=(2, 2))
            qmap = QuadraticMap(rng.normal(), rng.normal(size=2),
                                -(root @ root.T + 0.1 * np.eye(2)))
            span = float(rng.uniform(0.5, 30.0))
            _write_objective_surface(tmp_path / "ours.dat", qmap, span)
            reference_surface(tmp_path / "ref.dat", qmap, span)
            assert ((tmp_path / "ours.dat").read_bytes()
                    == (tmp_path / "ref.dat").read_bytes()), trial


def test_cli_run_matches_reference(tmp_path):
    """``run`` on coupled_bowl logging every step writes every table as
    the oracle writes the same scenario's trajectory."""
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--override", "sim.horizon=5",
                 "--override", "sim.log_stride=1"]) == EXIT_OK

    doc = builtin_scenario_dict("coupled_bowl")
    doc["sim"]["horizon"] = 5
    doc["sim"]["log_stride"] = 1
    assert json.loads((out / "scenario.json").read_text()) == doc
    sc = scenario_from_dict(doc)
    plant = sc.build_plant()
    traj = run(plant, sc.controller, sc.sim)
    ref = tmp_path / "ref"
    ref.mkdir()
    reference_csv(traj, ref / "trajectory.csv")
    reference_plot_tables(ref, traj, plant)
    assert_same_tables(out, ref)
