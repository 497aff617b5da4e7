"""CLI contract: file outputs, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from slidingesc import cli, load_scenario, save_scenario, scenario
from slidingesc.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_USAGE, main

SHORT = ["--override", "sim.horizon=20", "--override", "sim.log_stride=10"]

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


class TestRunCommand:
    def test_outputs_and_header(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), *SHORT) == EXIT_OK
        csv = out / "trajectory.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,v1,v2,x1,x2,z1,z2,y,y_m,e,s,u1,u2,dir,rho"
        for name in ("metrics.json", "output_vs_time.dat", "phase_plane.dat",
                     "control_signals.dat", "objective_surface.dat",
                     "output_path_3d.dat", "scenario.json"):
            assert (out / name).exists(), name

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

    def test_output_under_a_file_is_io_error(self, tmp_path, capsys):
        # making the output directory raises NotADirectoryError; main
        # returns the exit code instead of letting it escape
        afile = tmp_path / "afile"
        afile.write_text("")
        rc = run_cli("run", "--out", str(afile / "sub"), *SHORT)
        assert rc == EXIT_IO
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "afile" in error

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

    @pytest.mark.parametrize("override, field", [
        ("sim.dtt=5e-4", "sim.dtt: unknown field"),
        ("controller.n_dirs=2", "controller.n_dirs: unknown field"),
        ("plant.B=[[],[]]", "B must have at least one column"),
        ("plant.map.H=[[1,0],[0,1]]", "exactly one of coupling and H")])
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

    def test_dt_guard_violation_aborts(self, tmp_path, capsys):
        rc = run_cli("run", "--out", str(tmp_path / "o"),
                     "--override", "sim.dt=0.01",
                     "--override", "sim.horizon=1",
                     "--override", "sim.log_stride=1")
        assert rc == EXIT_FAIL
        assert "guard" in capsys.readouterr().err
        # the output directory is made only for a run that finished
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", BAD_SET_UPS)
    def test_bad_set_up_is_usage_error(self, tmp_path, capsys, field):
        out = tmp_path / "o"
        rc = run_cli("run", "--out", str(out),
                     *override_args(BAD_SET_UPS[field][0]))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()

    def test_unstable_plant_needs_flag(self, tmp_path):
        args = ["run", "--out", str(tmp_path / "o"),
                "--override", "plant.A=[[1,0],[0,1]]",
                "--override", "sim.horizon=0.2",
                "--override", "sim.log_stride=1",
                "--override", "sim.plant_eta=1.0"]
        assert run_cli(*args) == EXIT_USAGE
        assert run_cli(*args, "--allow-unstable") == EXIT_OK

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
        # any run starts
        out = tmp_path / "s"
        rc = run_cli("sweep", "--param", "sim.plant_eta",
                     "--values", "0.01,0.02,0.01", "--jobs", jobs,
                     "--out", str(out), *SHORT)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "sweep value '0.01'" in err and "sim_plant_eta=0.01" in err
        assert not out.exists()

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

    def test_non_numeric_param_rejected(self, tmp_path):
        rc = run_cli("sweep", "--param", "name", "--values", "a,b",
                     "--out", str(tmp_path / "s"))
        assert rc == EXIT_USAGE


class TestVerifyCommand:
    def test_oracles_pass(self, capsys):
        assert run_cli("verify", "oracles") == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


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
