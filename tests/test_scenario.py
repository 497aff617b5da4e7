"""Scenario schema: loading, validation paths, round-trips, overrides."""

import json
import math

import numpy as np
import pytest

from slidingesc import ScenarioError, load_builtin, load_scenario, save_scenario
from slidingesc.scenario import (apply_override, builtin_scenario_dict,
                                 builtin_scenario_names, get_field,
                                 scenario_from_dict)


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
        assert sc.A == [[0.0, 1.0], [-4.0, -2.0]]
        assert sc.B == [[1.0, 0.0], [0.0, 1.0]]
        assert sc.C == [[1.0, 0.0], [0.0, 1.0]]
        assert sc.map_spec["kind"] == "quadratic"
        assert sc.map_spec["y_star"] == 2.0
        assert sc.map_spec["z_star"] == [0.0, 0.0]
        assert sc.map_spec["coupling"] == 0.5
        ctrl = sc.controller
        assert (ctrl.p, ctrl.p0, ctrl.L_h, ctrl.lam) == (1.0, 0.0, 0.1, 4.0)
        assert (ctrl.epsilon_sw, ctrl.gamma, ctrl.eta, ctrl.T_s) == \
            (0.02, 0.1, 0.01, 5.0)
        assert ctrl.n_dirs == 2 and ctrl.scaling_mode == "scaled"
        assert sc.sim.dt == 1e-3 and sc.sim.horizon == 1500.0
        assert list(sc.sim.x0) == [-2.0, 4.0]

    def test_second_initial_condition(self):
        sc = load_builtin("coupled_bowl_ic2")
        assert list(sc.sim.x0) == [0.0, 5.0]

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="available"):
            load_builtin("nope")


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

    def test_n_dirs_mismatch(self, benchmark_doc):
        benchmark_doc["controller"]["n_dirs"] = 3
        with pytest.raises(ScenarioError, match="n_dirs"):
            scenario_from_dict(benchmark_doc)

    def test_bad_v0_string(self, benchmark_doc):
        benchmark_doc["sim"]["v0"] = "steady"
        with pytest.raises(ScenarioError, match="quasi_steady"):
            scenario_from_dict(benchmark_doc)

    def test_quasi_steady_accepted(self, benchmark_doc):
        benchmark_doc["sim"]["v0"] = "quasi_steady"
        assert scenario_from_dict(benchmark_doc).sim.quasi_steady

    def test_null_y_sat_is_unbounded(self, benchmark_doc):
        benchmark_doc["controller"]["y_sat"] = None
        sc = scenario_from_dict(benchmark_doc)
        assert math.isinf(sc.controller.y_sat)

    @pytest.mark.parametrize("path, value", [
        ("plant.map.y_star", "NaN"), ("plant.map.y_star", "-Infinity"),
        ("plant.map.z_star", "[Infinity,0]"), ("sim.x0", "[NaN,0]"),
        ("controller.p0", "NaN"), ("controller.y_sat", "Infinity"),
        ("plant.A", "[[0,1],[-Infinity,-2]]")])
    def test_non_finite_number_names_field(self, benchmark_doc, path, value):
        apply_override(benchmark_doc, path, value)
        with pytest.raises(ScenarioError,
                           match=rf"^{path}.*: expected a finite number"):
            scenario_from_dict(benchmark_doc)

    def test_explicit_curvature_matrix(self, benchmark_doc):
        benchmark_doc["plant"]["map"] = {
            "kind": "quadratic", "y_star": 1.0, "z_star": [0.0, 0.0],
            "H": [[-2.0, 0.0], [0.0, -2.0]]}
        plant = scenario_from_dict(benchmark_doc).build_plant()
        assert plant.map.eval([1.0, 0.0]) == pytest.approx(0.0)


class TestRoundTrip:
    def test_save_load_identity(self, benchmark_doc, tmp_path):
        sc = scenario_from_dict(benchmark_doc)
        path = tmp_path / "roundtrip.json"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again.to_dict() == sc.to_dict()
        assert again.controller == sc.controller
        assert again.analysis == sc.analysis
        assert np.array_equal(again.sim.x0, sc.sim.x0)
        assert again.sim.dt == sc.sim.dt

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
        apply_override(benchmark_doc, "controller.scaling_mode", "unscaled")
        assert benchmark_doc["controller"]["scaling_mode"] == "unscaled"

    def test_unknown_path(self, benchmark_doc):
        with pytest.raises(ScenarioError, match="no such field"):
            apply_override(benchmark_doc, "controller.bogus.deep", "1")

    def test_get_field(self, benchmark_doc):
        assert get_field(benchmark_doc, "controller.eta") == 0.01
        with pytest.raises(ScenarioError):
            get_field(benchmark_doc, "nothing.here")
