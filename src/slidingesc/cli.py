"""Command-line entry point: run scenarios, verify the build, sweep
parameters.

Commands
--------
run     simulate one scenario; writes trajectory.csv, metrics.json and
        gnuplot-ready data files into the output directory.
verify  execute the oracle / scenario / sweep suites and print a
        pass-fail table.
sweep   repeat a scenario over a list of values for one numeric field,
        writing per-value runs plus an aggregated metrics table.

Exit codes: 0 success, 1 failed checks or aborted run, 2 usage or
configuration error, 3 I/O error.  The default output
directory is $SLIDINGESC_OUT, else ./out.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import _tables
from .analysis import SLIDING_MIN_STEPS, convergence_metrics
from .errors import ConfigurationError, SimulationAbort
from .scenario import (ScenarioError, apply_override, builtin_scenario_dict,
                       builtin_scenario_names, get_field, read_document,
                       save_scenario, scenario_from_dict, with_overrides)
from .sim import BACKENDS, run as run_sim
from .verify import composition_check, oracle_suite, scenario_suite, sweep_suite

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _default_out() -> str:
    return os.environ.get("SLIDINGESC_OUT", "out")


def _scenario_from_args(args):
    data = (builtin_scenario_dict("coupled_bowl") if args.config is None
            else read_document(args.config))
    for item in args.override or []:
        key, _, raw = item.partition("=")
        if not _ or not key:
            raise ScenarioError(
                f"override {item!r} must have the form key.path=value")
        apply_override(data, key, raw)
    return scenario_from_dict(data, allow_unstable=args.allow_unstable)


def _plot_tables(outdir: Path, traj, plant) -> list[_tables.Table]:
    """Plotter-agnostic whitespace tables for the four standard views.

    Cells use the CSV's 17 significant digits (enough to round-trip
    every double), so written with the CSV they share its text.
    """
    n = traj.z.shape[1]
    m = traj.u.shape[1]
    fmt = "%.17g"
    t, y = (traj.t, fmt), (traj.y, fmt)
    z = [(column, fmt) for column in traj.z.T]
    u = [(column, fmt) for column in traj.u.T]
    # sigma_i indicates direction i (dir_index counts from 1)
    sigma = [(traj.dir_index == i + 1, fmt) for i in range(m)]

    header = "# t " + " ".join(f"z{i+1}" for i in range(n)) + " y y_m"
    tables = [_tables.Table(outdir / "output_vs_time.dat", header,
                            [t, *z, y, (traj.y_m, fmt)])]
    if n == 2:
        tables.append(_tables.Table(
            outdir / "phase_plane.dat",
            f"# z1 z2   (maximizer at {plant.map.z_star.tolist()})", z))
    header = ("# t " + " ".join(f"u{i+1}" for i in range(m)) + " "
              + " ".join(f"sigma{i+1}" for i in range(m)))
    tables.append(_tables.Table(outdir / "control_signals.dat", header,
                                [t, *u, *sigma]))
    if n == 2:
        tables.append(_tables.Table(outdir / "output_path_3d.dat",
                                    "# z1 z2 y", [*z, y],
                                    stride=max(1, len(traj) // 2000)))
    return tables


def _write_tables(outdir: Path, traj, plant) -> None:
    """trajectory.csv and the plot tables in one pass, sharing their
    text, then the objective surface of a two-dimensional map."""
    traj.to_csv(outdir / "trajectory.csv", *_plot_tables(outdir, traj, plant))
    if traj.z.shape[1] == 2:
        span = max(2.0, float(np.abs(traj.z).max()) * 1.1)
        _write_objective_surface(outdir / "objective_surface.dat", plant.map,
                                 span)


def _write_objective_surface(path: Path, qmap, span: float) -> None:
    """h on a 61x61 grid over [-span, span]^2 as gnuplot splot blocks.

    The grid is evaluated in one batch, bit-identical to evaluating
    the points one by one.  The 61 grid labels are formatted once, not
    on each of the 3721 lines.
    """
    grid = np.linspace(-span, span, 61)
    values = qmap.eval(np.stack(np.meshgrid(grid, grid, indexing="ij"),
                                axis=-1))
    labels = [f"{g:.6g}" for g in grid.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# z1 z2 h(z)   gnuplot splot blocks\n")
        for z1, row in zip(labels, values.tolist()):
            fh.writelines(f"{z1} {z2} {h:.6g}\n" for z2, h in zip(labels, row))
            fh.write("\n")


def _run_one(scenario, outdir: Path, *, backend: str, dt_guard: bool) -> dict:
    plant = scenario.build_plant()
    traj = run_sim(plant, scenario.controller, scenario.sim, backend=backend,
                   dt_guard=dt_guard)
    metrics = convergence_metrics(
        traj, plant.map.z_star, plant.map.y_star,
        epsilon_sw=scenario.controller.epsilon_sw,
        delta=scenario.analysis.delta,
        trailing_fraction=scenario.analysis.trailing_fraction,
        min_duration=SLIDING_MIN_STEPS * scenario.sim.dt)
    outdir.mkdir(parents=True, exist_ok=True)  # so an aborted run writes none
    _write_tables(outdir, traj, plant)
    with open(outdir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics.to_flat_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_scenario(scenario, outdir / "scenario.json")
    return metrics.to_flat_dict()


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    outdir = Path(args.out)
    flat = _run_one(scenario, outdir, backend=args.backend,
                    dt_guard=args.dt_guard != "off")
    print(f"run complete: {scenario.document.get('name', 'unnamed')}")
    for key in ("t_reach_delta", "residual_amp", "mean_residual", "bounded"):
        print(f"  {key}: {flat[key]}")
    print(f"  outputs in {outdir}")
    return EXIT_OK


def _print_table(results) -> bool:
    width = max(len(r.name) for r in results)
    all_pass = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"  [{mark}] {r.name:<{width}}  {r.detail}  ({r.elapsed:.2f}s)")
    return all_pass


def cmd_verify(args) -> int:
    suites = []
    if args.suite in ("oracles", "all"):
        suites.append(("oracle suite", lambda: oracle_suite()
                       + [composition_check()]))
    if args.suite in ("scenarios", "all"):
        suites.append(("scenario suite", scenario_suite))
    if args.suite in ("sweep", "all"):
        suites.append(("residual-scaling sweep", sweep_suite))
    all_pass = True
    for title, fn in suites:
        print(f"{title}:")
        all_pass &= _print_table(fn())
    print("VERIFY:", "all checks passed" if all_pass else "FAILURES above")
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    base = _scenario_from_args(args)
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        print("error: sweep needs a nonempty comma-separated --values list",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        current = get_field(base.document, args.param)
    except ScenarioError as exc:
        print(f"error: unknown sweep parameter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    numeric_or_null = (current is None
                       or (isinstance(current, (int, float))
                           and not isinstance(current, bool)))
    if not numeric_or_null:
        print(f"error: sweep parameter {args.param} is not numeric "
              f"(current value {current!r})", file=sys.stderr)
        return EXIT_USAGE

    outroot = Path(args.out)
    scenarios, subdirs = [], []
    for value in values:
        subdir = outroot / f"{args.param.replace('.', '_')}={value}"
        if subdir in subdirs:
            print(f"error: sweep value {value!r} writes into {subdir}, "
                  "which an earlier value already uses", file=sys.stderr)
            return EXIT_USAGE
        subdirs.append(subdir)
        # read once, here, so a bad value fails before any run starts
        scenarios.append(with_overrides(base, {args.param: value}))

    run_value = functools.partial(_run_one, backend=args.backend,
                                  dt_guard=args.dt_guard != "off")
    # the pool starts all its workers at once, so ask for no more than
    # there are runs
    workers = min(args.jobs, len(values))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(run_value, scenarios, subdirs))
    else:
        rows = list(map(run_value, scenarios, subdirs))
    for row, value in zip(rows, values):
        row["value"] = value

    outroot.mkdir(parents=True, exist_ok=True)
    table_path = outroot / "sweep_metrics.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("value,t_reach_delta,residual_amp,mean_residual,bounded\n")
        for row in rows:
            fh.write(f"{row['value']},{row['t_reach_delta']},"
                     f"{row['residual_amp']:.17g},{row['mean_residual']:.17g},"
                     f"{row['bounded']}\n")
    print(f"sweep of {args.param} over {values}:")
    for row in rows:
        print(f"  {args.param}={row['value']}: residual_amp="
              f"{row['residual_amp']:.6g} mean_residual="
              f"{row['mean_residual']:.6g} t_reach_delta={row['t_reach_delta']}")
    print(f"  table written to {table_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidingesc",
        description="Sliding-mode extremum seeking: simulate, verify, sweep.")
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR",
                                 "CRITICAL"),
                        help="python logging level, case-insensitive "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="scenario JSON path (default: builtin "
                            f"coupled_bowl; builtins: "
                            f"{', '.join(builtin_scenario_names())})")
        p.add_argument("--out", default=_default_out(),
                       help="output directory (default $SLIDINGESC_OUT or ./out)")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dot-path override into the scenario, repeatable "
                            "(e.g. --override sim.dt=5e-4)")
        p.add_argument("--allow-unstable", action="store_true",
                       help="accept a non-Hurwitz A (the failed "
                            "hypothesis check is logged as a warning)")
        p.add_argument("--dt-guard", choices=("on", "off"), default="on",
                       help="step-size resolution guard (default on)")
        p.add_argument("--backend", choices=BACKENDS,
                       default="auto", help="integration backend")

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=("oracles", "scenarios", "sweep", "all"))
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a value list")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dot-path of a numeric scenario field "
                              "(e.g. sim.plant_eta)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel runs, at most one per value "
                              "(default 1)")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ScenarioError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
