"""CLI contract: file outputs, determinism, exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from slidingesc import (QuadraticMap, cli, load_scenario, save_scenario,
                        scenario, sim)
from slidingesc.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from slidingesc.verify import CheckResult

SHORT = ["--override", "sim.horizon=20", "--override", "sim.log_stride=10"]
# every file a run, or a sweep for each value, writes
OUTPUTS = ["metrics.json", "scenario.json", "trajectory.csv"]
README = Path(__file__).resolve().parent.parent / "README.md"

# set-ups a run refuses before any work, by the field the refusal
# names: the overrides that make one, and a sweep over a good value
# then one that makes it (the last sweeps a good base it inherits)
BAD_SET_UPS = {
    "sim.horizon": (["sim.dt=0.0007", "sim.horizon=2"], "sim.dt",
                    "0.001,0.0007"),
    "sim.log_stride": (["sim.log_stride=3", "sim.horizon=2"],
                       "sim.log_stride", "1,3"),
    "controller.T_s / n_dirs": (["controller.T_s=5.0003", "sim.horizon=2"],
                                "controller.T_s", "5,5.0003"),
    "sim.v0": (['sim.v0="quasi_steady"', "plant.B=[[1],[0]]",
                "sim.horizon=2"], "sim.plant_eta", "0.01,0.02"),
}


def override_args(overrides) -> list[str]:
    return [arg for item in overrides for arg in ("--override", item)]


def run_cli(*argv) -> int:
    return main(list(argv))


def no_run(monkeypatch) -> None:
    """Make any closed-loop run of the CLI fail the test."""
    def run_sim(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_sim", run_sim)


class TestRunCommand:
    def test_outputs_and_header(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), *SHORT) == EXIT_OK
        csv = out / "trajectory.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,v1,v2,x1,x2,z1,z2,y,y_m,e,s,u1,u2,dir,rho"
        assert sorted(path.name for path in out.iterdir()) == OUTPUTS

    def test_readme_gnuplot_names_exist(self, tmp_path):
        # README's gnuplot block draws the paper's views from a run's
        # files by column name: each file it reads is one that a
        # coupled_bowl run writes, each column one of the CSV header's
        text = README.read_text(encoding="utf-8")
        block = re.search(r"```gnuplot\n(.*?)```", text, re.S).group(1)
        files = set(re.findall(r'"([\w.]+\.(?:csv|dat))"', block))
        names = {name for spec in re.findall(r"using (\S+)", block)
                 for name in re.findall(r'"(\w+)"', spec)}
        assert names >= {"t", "y", "y_m", "z1", "z2", "u1", "u2", "dir"}
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), *SHORT) == EXIT_OK
        assert files and files <= set(OUTPUTS)
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert names <= set(header.split(","))

        # the one splot of a function, not of a file: the builtins' bowl
        # in gnuplot's x and y, whose ** is Python's
        surfaces = [line.removeprefix("splot ") for line in re.findall(
            r"^splot [^\"\n]*$", text, re.M)]
        assert surfaces == ["2 - (x**2 + y**2 - x*y)"]
        z = np.random.default_rng(0).uniform(-5.0, 5.0, (20, 2))
        got = eval(surfaces[0], {"__builtins__": {}},
                   {"x": z[:, 0], "y": z[:, 1]})
        want = QuadraticMap.from_coupling(0.5).eval(z)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_scenario_json_is_the_saved_document(self, tmp_path):
        # the run writes the document it read, overrides applied, through
        # save_scenario: reading it and saving it again gives its bytes
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), *SHORT,
                       "--override", "controller.y_sat=null") == EXIT_OK
        written = out / "scenario.json"
        document = json.loads(written.read_text())
        assert document["sim"]["horizon"] == 20
        assert document["controller"]["y_sat"] is None
        again = tmp_path / "again.json"
        save_scenario(load_scenario(written), again)
        assert again.read_bytes() == written.read_bytes()

    def test_metrics_flat_field_names(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--out", str(out), *SHORT)
        flat = json.loads((out / "metrics.json").read_text())
        assert set(flat) == {"t_reach_delta", "residual_amp",
                             "mean_residual", "sliding_segments", "bounded"}

    def test_constant_columns_increasing_time(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--out", str(out), *SHORT)
        lines = (out / "trajectory.csv").read_text().splitlines()
        widths = {len(line.split(",")) for line in lines}
        assert widths == {15}
        t = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.all(np.diff(t) > 0)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--out", str(a), *SHORT)
        run_cli("run", "--out", str(b), *SHORT)
        assert (a / "trajectory.csv").read_bytes() == \
               (b / "trajectory.csv").read_bytes()

    def test_explicit_config_file(self, tmp_path):
        from slidingesc.scenario import builtin_scenario_dict
        doc = builtin_scenario_dict("coupled_bowl")
        doc["sim"]["horizon"] = 10.0
        doc["sim"]["log_stride"] = 10
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        rc = run_cli("run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o"))
        assert rc == EXIT_IO
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_USAGE
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "broken.json" in error
        assert "invalid JSON" in error

    @pytest.mark.parametrize("field, value", [
        ("plant.A", [[0, 1], [-4]]), ("plant.B", [[1, 0], [0]]),
        ("plant.C", [[1], [0, 1]]), ("plant.map.H", [[-2, 1], [1]]),
        ("plant.map.z_star", [[0], [0, 1]]), ("sim.x0", [[1, 2], [3]]),
        ("sim.v0", [[0.5], [1, 2]])])
    def test_ragged_array_is_usage_error(self, tmp_path, capsys, field,
                                         value):
        from slidingesc.scenario import apply_override, builtin_scenario_dict
        doc = builtin_scenario_dict("coupled_bowl")
        if field == "plant.map.H":
            del doc["plant"]["map"]["coupling"]
        apply_override(doc, field, json.dumps(value))
        cfg = tmp_path / "ragged.json"
        cfg.write_text(json.dumps(doc))
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_USAGE
        assert (f"error: {field}: expected a rectangular array"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_output_under_a_file_is_io_error(self, tmp_path, capsys,
                                             monkeypatch):
        # --out is checked before the run: NotADirectoryError, whose exit
        # code main returns instead of letting it escape
        no_run(monkeypatch)
        afile = tmp_path / "afile"
        afile.write_text("")
        rc = run_cli("run", "--out", str(afile / "sub"), "--backend",
                     "python", "--override", "sim.horizon=200")
        assert rc == EXIT_IO
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "afile" in error

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("case", ["a file", "not writable"])
    def test_output_checked_before_any_run(self, tmp_path, capsys,
                                           monkeypatch, command, case):
        no_run(monkeypatch)
        out = tmp_path / "afile"
        if case == "a file":
            out.write_text("")
        else:
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        sweep = ["--param", "sim.plant_eta", "--values", "0.01,0.02"]
        rc = run_cli(command, "--out", str(out / "sub"),
                     *(sweep if command == "sweep" else []), *SHORT)
        assert rc == EXIT_IO
        existing = out if case == "a file" else tmp_path
        assert capsys.readouterr().err == (
            f"error: --out {out / 'sub'}: {existing} is not a writable "
            "directory\n")
        assert not (out / "sub").exists()

    def test_invalid_override_is_usage_error(self, tmp_path):
        rc = run_cli("run", "--out", str(tmp_path / "o"),
                     "--override", "controller.T_s=-1")
        assert rc == EXIT_USAGE

    def test_fractional_steps_per_direction_is_usage_error(self, tmp_path,
                                                          capsys):
        # T_s over the two inputs' directions, 2.50005 s, is not a whole
        # number of 1 ms steps
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", "controller.T_s=5.0001")
        assert rc == EXIT_USAGE
        assert "controller.T_s" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sim.log_stride=2.5", "sim.log_stride=true", 'sim.log_stride="10"'])
    def test_non_integral_count_is_usage_error(self, tmp_path, capsys,
                                               override):
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", override)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert override.partition("=")[0] in err and "integer" in err

    @pytest.mark.parametrize("override", [
        "controller.gamma=true", "controller.y_sat=false", "sim.dt=true",
        'sim.horizon="20"', "sim.dt=abc", "plant.map.coupling=true",
        "plant.map.y_star=NaN",
        pytest.param("sim.horizon=1" + "0" * 400, id="sim.horizon=10**400")])
    def test_non_numeric_real_is_usage_error(self, tmp_path, capsys,
                                             override):
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", override)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert override.partition("=")[0] in err and "number" in err
        assert not (tmp_path / "o").exists()

    # each refusal names the field or the override at fault
    @pytest.mark.parametrize("override, field", [
        ("sim.dtt=5e-4", "sim.dtt: unknown field"),
        ("controller.n_dirs=2", "controller.n_dirs: unknown field"),
        ("plant.allow_unstable=false", "plant.allow_unstable: unknown field"),
        ("plant.B=[[],[]]", "B must have at least one column"),
        ("plant.map.H=[[1,0],[0,1]]", "exactly one of coupling and H"),
        ("sim.dt=0", "sim.dt must be > 0, got 0.0"),
        ("sim.horizon=0.0005", "sim.horizon (0.0005) must exceed dt (0.001)"),
        ("sim.log_stride=0", "sim.log_stride must be >= 1, got 0"),
        ("analysis.delta=0", "analysis.delta must be > 0, got 0.0"),
        ("analysis.trailing_fraction=1.5",
         "analysis.trailing_fraction must be in (0, 1], got 1.5"),
        ("analysis.c_bound=0", "analysis.c_bound must be > 0, got 0.0"),
        ("plant.C=[[1,0,0]]", "plant: C must be 2x2, got (1, 3)"),
        ("plant.A=[[-1,1e13],[0,-1]]",
         "plant: A is singular or ill-conditioned (cond=1e+26)"),
        ("sim.x0=[[-2,4]]",
         "sim.x0: expected a vector, got an array of shape (1, 2)"),
        ("sim.v0=[[0.5],[1.0]]",
         "sim.v0: expected a vector, got an array of shape (2, 1)"),
        ("plant.map.z_star=[[0,0]]",
         "plant.map.z_star: expected a vector, got an array of shape (1, 2)"),
        ("bogus", "override 'bogus' must have the form key.path=value"),
        ("sim.dt.x=1", "override sim.dt.x: no such field")])
    def test_unknown_or_conflicting_field_is_usage_error(self, tmp_path,
                                                         capsys, override,
                                                         field):
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", override)
        assert rc == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_boolean_dt_in_config_is_usage_error(self, tmp_path, capsys):
        from slidingesc.scenario import builtin_scenario_dict
        doc = builtin_scenario_dict("coupled_bowl")
        doc["sim"]["dt"] = True
        cfg = tmp_path / "bool_dt.json"
        cfg.write_text(json.dumps(doc))
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_USAGE
        assert "sim.dt: expected a number, got True" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sim.x0=[true,4]", "sim.v0=[0.5,false]", "sim.x0=[-2,null]",
        'plant.map.z_star=[0,"1"]', "plant.C=[[1,0],[0,true]]"])
    def test_non_numeric_array_element_is_usage_error(self, tmp_path, capsys,
                                                      override):
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", override)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert override.partition("=")[0] in err and "number" in err
        assert not (tmp_path / "o").exists()

    def test_boolean_in_plant_matrix_in_config_is_usage_error(self, tmp_path,
                                                              capsys):
        from slidingesc.scenario import builtin_scenario_dict
        doc = builtin_scenario_dict("coupled_bowl")
        doc["plant"]["A"][1][0] = True
        cfg = tmp_path / "bool_A.json"
        cfg.write_text(json.dumps(doc))
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_USAGE
        assert ("plant.A[1][0]: expected a number, got True"
                in capsys.readouterr().err)

    def test_integral_float_count_accepted(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--out", str(out), *SHORT,
                       "--override", "sim.log_stride=10.0") == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 20000 // 10 + 1

    def test_dt_guard_violation_aborts(self, tmp_path, capsys, monkeypatch):
        # scenario load makes the run's guard check, so no run starts
        no_run(monkeypatch)
        rc = run_cli("run", "--out", str(tmp_path / "o"),
                     "--override", "sim.dt=0.01",
                     "--override", "sim.horizon=1",
                     "--override", "sim.log_stride=1")
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert "resolution guard limit" in err
        assert "set sim.dt_guard to false" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("backend", sim.BACKENDS)
    def test_log_too_large_aborts(self, tmp_path, capsys, backend):
        # 10**13 logged rows: numpy refuses the request for hundreds of
        # TiB at once, so nothing is allocated
        rc = run_cli("run", "--out", str(tmp_path / "o"), "--backend",
                     backend, "--override", "sim.horizon=1e12")
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("aborted: Unable to allocate")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", BAD_SET_UPS)
    def test_bad_set_up_is_usage_error(self, tmp_path, capsys, field):
        out = tmp_path / "o"
        rc = run_cli("run", "--out", str(out),
                     *override_args(BAD_SET_UPS[field][0]))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()

    def test_unstable_plant_refused(self, tmp_path, capsys, monkeypatch):
        # no field opts out of H3: a document with a non-Hurwitz A, and
        # an override of the removed plant.allow_unstable, are refused on
        # load by run and by sweep, before any run
        from slidingesc.scenario import builtin_scenario_dict
        no_run(monkeypatch)
        doc = builtin_scenario_dict("coupled_bowl")
        doc["plant"]["A"] = [[1.0, 0.0], [0.5, -2.0]]
        cfg = tmp_path / "unstable.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        sweep = ["sweep", "--param", "sim.plant_eta", "--values", "0.5,1"]
        for command in (["run"], sweep):
            assert run_cli(*command, "--config", str(cfg),
                           "--out", str(out)) == EXIT_USAGE
            assert ("plant: A is not Hurwitz (eigenvalues must lie in the "
                    "open left half-plane): eigenvalues [-2.  1.]"
                    in capsys.readouterr().err)
            assert run_cli(*command, "--out", str(out), "--override",
                           "plant.allow_unstable=true") == EXIT_USAGE
            assert ("error: plant.allow_unstable: unknown field"
                    in capsys.readouterr().err)
        assert not out.exists()

    def test_saved_document_reproduces_run(self, tmp_path):
        # the opt-out is a field of the document a run saves, so that
        # document alone runs again, to the same bytes: a dt of 0.005,
        # above the builtin plant's guard limit of 0.0025
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["run", "--out", str(first),
                *override_args(["sim.dt=0.005", "sim.horizon=2",
                                "sim.log_stride=1"])]
        assert run_cli(*args) == EXIT_FAIL
        assert run_cli(*args, "--override", "sim.dt_guard=false") == EXIT_OK
        assert run_cli("run", "--config", str(first / "scenario.json"),
                       "--out", str(second)) == EXIT_OK
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        assert names == OUTPUTS
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("field", ["sim.dt_guard"])
    @pytest.mark.parametrize("value", ['"off"', "0", "null"])
    def test_non_boolean_opt_out_is_usage_error(self, tmp_path, capsys,
                                                field, value):
        rc = run_cli("run", "--out", str(tmp_path / "o"), *SHORT,
                     "--override", f"{field}={value}")
        assert rc == EXIT_USAGE
        assert (f"error: {field}: expected true or false"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--allow-unstable"],
                                      ["--dt-guard", "off"]])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, flag):
        # the opt-outs are document fields only
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--out", str(tmp_path / "o"), *SHORT, *flag)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_env_var_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLIDINGESC_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", *SHORT) == EXIT_OK
        assert (tmp_path / "envout" / "trajectory.csv").exists()


class TestSweepCommand:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli("sweep", "--param", "sim.plant_eta",
                     "--values", "0.01,0.02", "--out", str(out), *SHORT)
        assert rc == EXIT_OK
        table = (out / "sweep_metrics.csv").read_text().splitlines()
        assert table[0] == "value,t_reach_delta,residual_amp,mean_residual,bounded"
        assert len(table) == 3
        assert (out / "sim_plant_eta=0.01" / "trajectory.csv").exists()
        assert (out / "sim_plant_eta=0.02" / "trajectory.csv").exists()

    def test_parallel_fanout(self, tmp_path):
        out = tmp_path / "par"
        rc = run_cli("sweep", "--param", "controller.eta",
                     "--values", "0.01,0.02", "--jobs", "2",
                     "--out", str(out), *SHORT)
        assert rc == EXIT_OK
        assert (out / "sweep_metrics.csv").exists()
        assert (out / "controller_eta=0.01" / "metrics.json").exists()
        assert (out / "controller_eta=0.02" / "metrics.json").exists()

    @pytest.mark.parametrize("jobs, values, workers", [
        (8, "0.01,0.02", 2), (3, "0.01,0.02,0.03,0.04", 3)])
    def test_pool_no_larger_than_value_list(self, tmp_path, monkeypatch,
                                            jobs, values, workers):
        # the stand-in pool records its size and runs the jobs in this
        # process, so no worker process is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        out = tmp_path / "pool"
        rc = run_cli("sweep", "--param", "controller.eta", "--values", values,
                     "--jobs", str(jobs), "--out", str(out), *SHORT)
        assert rc == EXIT_OK
        assert sizes == [workers]
        rows = (out / "sweep_metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + values.count(",") + 1

    def test_each_document_parsed_once(self, tmp_path, monkeypatch):
        # the base document and each value's document are parsed in the
        # parent, and the runs take the parsed scenarios; the variants
        # are read by scenario.with_overrides
        parsed = []
        parse = cli.scenario_from_dict

        def counting(data, **kwargs):
            parsed.append(data["controller"]["eta"])
            return parse(data, **kwargs)

        monkeypatch.setattr(cli, "scenario_from_dict", counting)
        monkeypatch.setattr(scenario, "scenario_from_dict", counting)
        rc = run_cli("sweep", "--param", "controller.eta",
                     "--values", "0.01,0.02", "--out", str(tmp_path / "s"),
                     *SHORT)
        assert rc == EXIT_OK
        assert parsed == [0.01, 0.01, 0.02]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_repeated_value_usage_error(self, tmp_path, capsys, jobs):
        # both runs would write into sim_plant_eta=0.01; refused before
        # any run starts, also where a space sets the two apart
        out = tmp_path / "s"
        for values in ("0.01,0.02,0.01", "0.01, 0.01"):
            rc = run_cli("sweep", "--param", "sim.plant_eta",
                         "--values", values, "--jobs", jobs,
                         "--out", str(out), *SHORT)
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert "sweep value '0.01'" in err
            assert "sim_plant_eta=0.01, which an earlier value" in err
            assert not out.exists()

    def test_values_stripped(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("sweep", "--param", "sim.plant_eta",
                       "--values", " 0.01 , 0.02", "--out", str(out),
                       *SHORT) == EXIT_OK
        rows = (out / "sweep_metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.01", "0.02"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "sim_plant_eta=0.01", "sim_plant_eta=0.02"]
        for value in ("0.01", "0.02"):
            assert sorted(p.name for p in (
                out / f"sim_plant_eta={value}").iterdir()) == OUTPUTS

    def test_variants_keep_dt_guard(self, tmp_path):
        # each value's document is the base document, opt-out included:
        # a dt of 0.005 is above the guard's limit at either plant_eta
        out = tmp_path / "s"
        args = ["sweep", "--param", "sim.plant_eta", "--values",
                "0.005,0.01", "--out", str(out),
                *override_args(["sim.dt=0.005", "sim.horizon=0.2",
                                "sim.log_stride=1"])]
        assert run_cli(*args) == EXIT_FAIL
        assert run_cli(*args, "--override", "sim.dt_guard=false") == EXIT_OK
        for value in ("0.005", "0.01"):
            saved = json.loads(
                (out / f"sim_plant_eta={value}" / "scenario.json").read_text())
            assert saved["sim"]["dt_guard"] is False

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("field", BAD_SET_UPS)
    def test_bad_set_up_refused_before_any_run(self, tmp_path, capsys,
                                               field, jobs):
        # the value's scenario is refused on load, so the good value
        # before it never runs: no value directory, no table
        overrides, param, values = BAD_SET_UPS[field]
        base = [item for item in overrides
                if item.partition("=")[0] != param]
        out = tmp_path / "s"
        rc = run_cli("sweep", "--param", param, "--values", values,
                     "--jobs", jobs, "--out", str(out),
                     *override_args(base))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dt_guard_refused_before_any_run(self, tmp_path, capsys, jobs):
        # the guard refuses 0.01 before 0.001 runs: no value directory
        out = tmp_path / "s"
        args = ["sweep", "--param", "sim.dt", "--values", "0.001,0.01",
                "--jobs", jobs, "--out", str(out),
                "--override", "sim.horizon=2"]
        assert run_cli(*args) == EXIT_FAIL
        assert "resolution guard" in capsys.readouterr().err
        assert not out.exists()
        # with the document's guard off both values run
        assert run_cli(*args, "--override", "sim.dt_guard=false") == EXIT_OK
        assert (out / "sim_dt=0.01").is_dir()

    def test_dt_guard_check_is_the_runs(self, tmp_path, monkeypatch):
        # scenario load asks sim.dt_guard_limit, looked up when called,
        # as a run does: a limit of 0 refuses any step before any run
        no_run(monkeypatch)
        monkeypatch.setattr(sim, "dt_guard_limit", lambda *args: 0.0)
        sweep = ["--param", "controller.eta", "--values", "0.01"]
        for command in (["run"], ["sweep", *sweep]):
            assert run_cli(*command, "--out", str(tmp_path / "s"),
                           *SHORT) == EXIT_FAIL

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "s"
        rc = run_cli("sweep", "--param", "controller.eta", "--values", "0.01",
                     "--jobs", jobs, "--out", str(out), *SHORT)
        assert rc == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_T_s_robustness(self, tmp_path):
        # full-horizon runs: the benchmark converges for halved and
        # doubled search periods as well
        out = tmp_path / "ts"
        rc = run_cli("sweep", "--param", "controller.T_s",
                     "--values", "2.5,5,10", "--out", str(out))
        assert rc == EXIT_OK
        rows = (out / "sweep_metrics.csv").read_text().splitlines()[1:]
        for row in rows:
            value, t_reach, residual_amp = row.split(",")[:3]
            assert t_reach != "None", f"T_s={value} never reached vicinity"
            assert float(residual_amp) <= 0.3, f"T_s={value} residual too big"

    def test_empty_values_usage_error(self, tmp_path):
        rc = run_cli("sweep", "--param", "controller.eta", "--values", "",
                     "--out", str(tmp_path / "s"))
        assert rc == EXIT_USAGE

    def test_unknown_param_usage_error(self, tmp_path, capsys):
        rc = run_cli("sweep", "--param", "controller.zeta",
                     "--values", "1,2", "--out", str(tmp_path / "s"))
        assert rc == EXIT_USAGE
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_non_numeric_param_rejected(self, tmp_path, capsys):
        rc = run_cli("sweep", "--param", "name", "--values", "a,b",
                     "--out", str(tmp_path / "s"))
        assert rc == EXIT_USAGE
        assert "sweep parameter name is not numeric" in capsys.readouterr().err

    def test_optional_field_the_base_omits(self, tmp_path):
        # the schema, not the base document, knows sim.plant_eta
        document = scenario.builtin_scenario_dict("coupled_bowl")
        del document["sim"]["plant_eta"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "s"
        rc = run_cli("sweep", "--config", str(base),
                     "--param", "sim.plant_eta", "--values", "0.01,0.02",
                     "--override", "sim.horizon=2", "--out", str(out))
        assert rc == EXIT_OK
        rows = (out / "sweep_metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.01", "0.02"]
        for value in ("0.01", "0.02"):
            saved = json.loads(
                (out / f"sim_plant_eta={value}" / "scenario.json").read_text())
            assert saved["sim"]["plant_eta"] == float(value)

    @pytest.mark.parametrize("command, deltas", [
        (["run", "--override", "analysis.delta=0.1"], [0.1]),
        (["sweep", "--param", "analysis.delta", "--values", "0.1,0.2"],
         [0.1, 0.2])])
    def test_field_of_a_section_the_base_omits(self, tmp_path, command,
                                               deltas):
        # the override makes the optional analysis object the document
        # omits
        document = scenario.builtin_scenario_dict("coupled_bowl")
        del document["analysis"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "s"
        rc = run_cli(*command, "--config", str(base),
                     "--override", "sim.horizon=2", "--out", str(out))
        assert rc == EXIT_OK
        saved = sorted(out.glob("**/scenario.json"))
        assert [json.loads(path.read_text())["analysis"]
                for path in saved] == [{"delta": delta} for delta in deltas]

    def test_boolean_param_rejected(self, tmp_path, capsys):
        rc = run_cli("sweep", "--param", "sim.dt_guard", "--values", "0,1",
                     "--override", "sim.dt_guard=true",
                     "--out", str(tmp_path / "s"))
        assert rc == EXIT_USAGE
        assert ("sweep parameter sim.dt_guard is not numeric"
                in capsys.readouterr().err)
        assert not (tmp_path / "s").exists()


class TestVerifyCommand:
    def test_oracles_pass(self, capsys):
        assert run_cli("verify", "oracles") == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize("suite, title, name", [
        ("scenarios", "scenario suite", "scenario_suite"),
        ("sweep", "residual-scaling sweep", "sweep_suite")])
    @pytest.mark.parametrize("passed", [True, False])
    def test_one_suite(self, monkeypatch, capsys, suite, title, name,
                       passed):
        # the suites are stubs, so no run starts
        for stub in ("oracle_suite", "composition_check", "scenario_suite",
                     "sweep_suite"):
            monkeypatch.setattr(cli, stub, lambda *args, stub=stub: [
                CheckResult(stub, passed, "stub")])
        assert run_cli("verify", suite) == (EXIT_OK if passed else EXIT_FAIL)
        lines = capsys.readouterr().out.splitlines()
        mark = "PASS" if passed else "FAIL"
        assert lines == [f"{title}:", f"  [{mark}] {name}  stub  (0.00s)",
                         "VERIFY: " + ("all checks passed" if passed
                                       else "FAILURES above")]


class TestLogLevel:
    @pytest.mark.parametrize("level", ["bogus", "basic_format"])
    def test_unknown_level_is_usage_error(self, capsys, level):
        with pytest.raises(SystemExit) as exc:
            run_cli("--log-level", level, "verify", "oracles")
        assert exc.value.code == EXIT_USAGE
        assert "--log-level" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["debug", "Info", "WARNING"])
    def test_standard_names_any_case(self, level):
        args = cli.build_parser().parse_args(["--log-level", level, "verify"])
        assert args.log_level == level.upper()
