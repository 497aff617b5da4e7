"""Scenario schema: loading, validation paths, round-trips, overrides."""

import dataclasses
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import slidingesc
from slidingesc import (ControllerParams, ScenarioError, SimConfig,
                        load_builtin, load_scenario, save_scenario)
from slidingesc.scenario import (_SCHEMA, AnalysisParams, apply_override,
                                 builtin_scenario_dict,
                                 builtin_scenario_names, get_field,
                                 scenario_from_dict, with_overrides)


@pytest.fixture
def benchmark_doc() -> dict:
    return builtin_scenario_dict("coupled_bowl")


class TestBuiltins:
    def test_names(self):
        names = builtin_scenario_names()
        assert "coupled_bowl" in names
        assert "coupled_bowl_ic2" in names
        assert "residual_sweep" in names

    def test_coupled_bowl_contents(self):
        sc = load_builtin("coupled_bowl")
        plant = sc.document["plant"]
        assert plant["A"] == [[0.0, 1.0], [-4.0, -2.0]]
        assert plant["B"] == [[1.0, 0.0], [0.0, 1.0]]
        assert plant["C"] == [[1.0, 0.0], [0.0, 1.0]]
        assert plant["map"] == {"kind": "quadratic", "y_star": 2.0,
                                "z_star": [0.0, 0.0], "coupling": 0.5}
        ctrl = sc.controller
        assert (ctrl.p, ctrl.p0, ctrl.L_h, ctrl.lam) == (1.0, 0.0, 0.1, 4.0)
        assert (ctrl.epsilon_sw, ctrl.gamma, ctrl.eta, ctrl.T_s) == \
            (0.02, 0.1, 0.01, 5.0)
        assert sc.sim.dt == 1e-3 and sc.sim.horizon == 1500.0
        assert list(sc.sim.x0) == [-2.0, 4.0]

    def test_second_initial_condition(self):
        sc = load_builtin("coupled_bowl_ic2")
        assert list(sc.sim.x0) == [0.0, 5.0]

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="available"):
            load_builtin("nope")

    def test_unknown_builtin_document(self):
        with pytest.raises(ScenarioError, match="available"):
            builtin_scenario_dict("nope")


class TestValidation:
    def test_negative_period_names_field(self, benchmark_doc):
        benchmark_doc["controller"]["T_s"] = -1.0
        with pytest.raises(ScenarioError, match="controller.*T_s"):
            scenario_from_dict(benchmark_doc)

    def test_unstable_matrix_rejected_then_allowed(self, benchmark_doc):
        benchmark_doc["plant"]["A"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ScenarioError, match="plant.*Hurwitz"):
            scenario_from_dict(benchmark_doc)
        sc = scenario_from_dict(benchmark_doc, allow_unstable=True)
        assert not sc.build_plant().lti.is_hurwitz

    def test_missing_field_has_path(self, benchmark_doc):
        del benchmark_doc["controller"]["epsilon_sw"]
        with pytest.raises(ScenarioError, match="controller.epsilon_sw"):
            scenario_from_dict(benchmark_doc)

    def test_bad_map_kind(self, benchmark_doc):
        benchmark_doc["plant"]["map"]["kind"] = "spline"
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict(benchmark_doc)

    def test_dimension_mismatch_x0(self, benchmark_doc):
        benchmark_doc["sim"]["x0"] = [1.0, 2.0, 3.0]
        with pytest.raises(ScenarioError, match="sim.x0"):
            scenario_from_dict(benchmark_doc)

    def test_bad_v0_string(self, benchmark_doc):
        benchmark_doc["sim"]["v0"] = "steady"
        with pytest.raises(ScenarioError, match="quasi_steady"):
            scenario_from_dict(benchmark_doc)

    def test_quasi_steady_accepted(self, benchmark_doc):
        benchmark_doc["sim"]["v0"] = "quasi_steady"
        assert scenario_from_dict(benchmark_doc).sim.v0 == "quasi_steady"

    @pytest.mark.parametrize("overrides, field", [
        ({"sim.dt": "0.0007", "sim.horizon": "2"}, "sim.horizon"),
        ({"sim.log_stride": "3", "sim.horizon": "2"}, "sim.log_stride"),
        ({"controller.T_s": "5.0003"}, "controller.T_s / n_dirs"),
        ({"sim.v0": '"quasi_steady"', "plant.B": "[[1],[0]]"}, "sim.v0"),
        ({"sim.v0": '"quasi_steady"', "plant.B": "[[1,1],[1,1]]"}, "sim.v0"),
        ({"sim.v0": "[1,2,3]"}, "sim.v0")])
    def test_run_set_up_checked_on_load(self, benchmark_doc, overrides,
                                        field):
        # the checks a run makes before any work refuse the scenario
        # already, naming the field
        for key, text in overrides.items():
            apply_override(benchmark_doc, key, text)
        with pytest.raises(ScenarioError, match=rf"^{re.escape(field)}"):
            scenario_from_dict(benchmark_doc)

    def test_null_y_sat_is_unbounded(self, benchmark_doc):
        benchmark_doc["controller"]["y_sat"] = None
        sc = scenario_from_dict(benchmark_doc)
        assert math.isinf(sc.controller.y_sat)

    @pytest.mark.parametrize("path, value", [
        ("plant.map.y_star", "NaN"), ("plant.map.y_star", "-Infinity"),
        ("plant.map.z_star", "[Infinity,0]"), ("sim.x0", "[NaN,0]"),
        ("controller.p0", "NaN"), ("controller.y_sat", "Infinity"),
        ("plant.A", "[[0,1],[-Infinity,-2]]"),
        # integers beyond the float range
        pytest.param("sim.horizon", "1" + "0" * 400, id="sim.horizon-10**400"),
        pytest.param("sim.x0", "[1" + "0" * 400 + ",0]",
                     id="sim.x0-10**400")])
    def test_non_finite_number_names_field(self, benchmark_doc, path, value):
        apply_override(benchmark_doc, path, value)
        with pytest.raises(ScenarioError,
                           match=rf"^{path}.*: expected a finite number"):
            scenario_from_dict(benchmark_doc)

    @pytest.mark.parametrize("path", [
        "comment", "plant.D", "plant.map.scale", "controller.gain",
        "sim.dtt", "analysis.margin", "controller.ts_scale",
        "controller.scaling_mode", "controller.n_dirs"])
    def test_unknown_field_named(self, benchmark_doc, path):
        apply_override(benchmark_doc, path, "1")
        with pytest.raises(ScenarioError,
                           match=rf"^{re.escape(path)}: unknown field"):
            scenario_from_dict(benchmark_doc)

    @pytest.mark.parametrize("section", ["plant", "plant.map", "controller",
                                         "sim", "analysis"])
    def test_section_must_be_object(self, benchmark_doc, section):
        apply_override(benchmark_doc, section, "[1, 2]")
        with pytest.raises(ScenarioError,
                           match=rf"^{section}: expected a JSON object"):
            scenario_from_dict(benchmark_doc)

    def test_coupling_with_curvature_matrix_refused(self, benchmark_doc):
        # a positive-definite H, which QuadraticMap would refuse, must
        # not be passed over in favour of the coupling
        benchmark_doc["plant"]["map"]["H"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ScenarioError, match="exactly one of coupling"):
            scenario_from_dict(benchmark_doc)
        del benchmark_doc["plant"]["map"]["coupling"]
        with pytest.raises(ScenarioError, match="plant.*definite"):
            scenario_from_dict(benchmark_doc)

    def test_map_needs_coupling_or_curvature(self, benchmark_doc):
        del benchmark_doc["plant"]["map"]["coupling"]
        with pytest.raises(ScenarioError, match="exactly one of coupling"):
            scenario_from_dict(benchmark_doc)
        benchmark_doc["plant"]["map"]["H"] = [[-1.0, 0.0], [0.0, -1.0]]
        del benchmark_doc["plant"]["map"]["y_star"]
        with pytest.raises(ScenarioError,
                           match="plant.map.y_star: missing required field"):
            scenario_from_dict(benchmark_doc)

    def test_explicit_curvature_matrix(self, benchmark_doc):
        benchmark_doc["plant"]["map"] = {
            "kind": "quadratic", "y_star": 1.0, "z_star": [0.0, 0.0],
            "H": [[-2.0, 0.0], [0.0, -2.0]]}
        plant = scenario_from_dict(benchmark_doc).build_plant()
        assert plant.map.eval([1.0, 0.0]) == pytest.approx(0.0)


class TestSchemaMatchesDataclasses:
    """A setting is added to or removed from the schema and its
    dataclass together."""

    # schema name -> field name, where they differ
    RENAMED = {"lambda": "lam"}

    @pytest.mark.parametrize("section, cls", [
        ("controller", ControllerParams), ("sim", SimConfig),
        ("analysis", AnalysisParams)])
    def test_same_fields(self, section, cls):
        schema = {self.RENAMED.get(key, key) for key in _SCHEMA[section]}
        fields = {f.name for f in dataclasses.fields(cls)}
        assert schema == fields


class TestRoundTrip:
    def test_save_load_identity(self, benchmark_doc, tmp_path):
        sc = scenario_from_dict(benchmark_doc)
        path = tmp_path / "roundtrip.json"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again.document == sc.document == benchmark_doc
        assert again.controller == sc.controller
        assert again.analysis == sc.analysis
        assert np.array_equal(again.sim.x0, sc.sim.x0)
        assert again.sim.dt == sc.sim.dt

    def test_save_numpy_values(self, benchmark_doc, tmp_path):
        # a document built in Python may hold numpy values; they are
        # saved as the JSON they stand for
        benchmark_doc["sim"].update(x0=np.array([-2.0, 4.0]),
                                    log_stride=np.int64(100))
        path = tmp_path / "numpy.json"
        save_scenario(scenario_from_dict(benchmark_doc), path)
        saved = json.loads(path.read_text())
        assert saved["sim"]["x0"] == [-2.0, 4.0]
        assert saved["sim"]["log_stride"] == 100

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_builtin_document_loads(self, name):
        sc = load_builtin(name)
        assert sc.document == builtin_scenario_dict(name)
        assert scenario_from_dict(sc.document).document == sc.document

    def test_benchmark_documents_load(self, monkeypatch):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      bench / "run.py")
        harness = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, harness)
        spec.loader.exec_module(harness)
        for workload in harness.WORKLOADS.values():
            for seed in (0, 1, 2):
                scenario_from_dict(
                    harness.make_document(slidingesc, workload, seed))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.json")


class TestOverrides:
    def test_numeric_override(self, benchmark_doc):
        apply_override(benchmark_doc, "sim.dt", "5e-4")
        assert benchmark_doc["sim"]["dt"] == 5e-4

    def test_list_override(self, benchmark_doc):
        apply_override(benchmark_doc, "sim.x0", "[0,5]")
        assert benchmark_doc["sim"]["x0"] == [0, 5]

    def test_string_fallback(self, benchmark_doc):
        apply_override(benchmark_doc, "name", "bowl two")
        assert benchmark_doc["name"] == "bowl two"

    def test_unknown_path(self, benchmark_doc):
        with pytest.raises(ScenarioError, match="no such field"):
            apply_override(benchmark_doc, "controller.bogus.deep", "1")

    def test_get_field(self, benchmark_doc):
        assert get_field(benchmark_doc, "controller.eta") == 0.01
        with pytest.raises(ScenarioError):
            get_field(benchmark_doc, "nothing.here")
