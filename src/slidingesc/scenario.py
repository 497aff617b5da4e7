"""Scenario files: one JSON document describes a complete run.

Schema (field names are the contract; the syntax is plain JSON):

    {
      "name": "...", "description": "...",
      "plant": {
        "A": [[...]], "B": [[...]], "C": [[...]],        # row-major
        "map": {"kind": "quadratic", "y_star": 2.0, "z_star": [0, 0],
                "coupling": 0.5}                         # or "H": [[...]]
      },
      "controller": {
        "p": 1.0, "p0": 0.0, "y_sat": 2.5, "lambda": 4.0,
        "epsilon_sw": 0.02, "gamma": 0.1, "L_h": 0.1, "eta": 0.01,
        "T_s": 5.0                   # period of the cyclic search
      },
      "sim": {
        "dt": 0.001, "horizon": 1500.0, "x0": [-2, 4],
        "v0": [0.5, 1.0],            # or "quasi_steady", or omitted (zeros)
        "log_stride": 100,
        "plant_eta": null            # null: the controller's eta
      },
      "analysis": {"delta": null, "trailing_fraction": 0.1, "c_bound": 2.5}
    }

"y_sat": null means unbounded.  The search cycles through one direction
per plant input (column of B), each held for T_s / m.  A quadratic map
takes either an explicit "H" or, for the two-input benchmark family,
"coupling" (the bowl h = y* - (z1^2 + z2^2 - 2*c*z1*z2)), not both.
Every number must be finite, and a field the schema does not name is
refused.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Any, Optional

import numpy as np

from .controller import ControllerParams
from .errors import ConfigurationError
from .plant import CascadePlant, LtiSubsystem, QuadraticMap
from .sim import SimConfig


class ScenarioError(ConfigurationError):
    """Parse or validation failure, carrying the offending field path."""


# The fields of each object of the schema, by the object's dot-path.
_FIELDS = {
    "": ("name", "description", "plant", "controller", "sim", "analysis"),
    "plant": ("A", "B", "C", "map"),
    "plant.map": ("kind", "y_star", "z_star", "coupling", "H"),
    "controller": ("p", "p0", "y_sat", "lambda", "epsilon_sw", "gamma", "L_h",
                   "eta", "T_s"),
    "sim": ("dt", "horizon", "x0", "v0", "log_stride", "plant_eta"),
    "analysis": ("delta", "trailing_fraction", "c_bound"),
}


@dataclass
class AnalysisParams:
    delta: Optional[float] = None
    trailing_fraction: float = 0.1
    c_bound: float = 2.5

    def __post_init__(self) -> None:
        if self.delta is not None and not (self.delta > 0.0):
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")
        if not (0.0 < self.trailing_fraction <= 1.0):
            raise ConfigurationError(
                f"trailing_fraction must be in (0, 1], got "
                f"{self.trailing_fraction}")
        if not (self.c_bound > 0.0):
            raise ConfigurationError(f"c_bound must be > 0, got {self.c_bound}")


@dataclass
class Scenario:
    """Validated, buildable description of one simulation setup."""

    name: str
    description: str
    A: list
    B: list
    C: list
    map_spec: dict
    controller: ControllerParams
    sim: SimConfig
    analysis: AnalysisParams
    allow_unstable: bool = False

    def build_plant(self) -> CascadePlant:
        lti = LtiSubsystem(self.A, self.B, self.C,
                           allow_unstable=self.allow_unstable)
        spec = dict(self.map_spec)
        kind = spec.pop("kind")
        if kind != "quadratic":
            raise ScenarioError(f"plant.map.kind: unsupported kind {kind!r}")
        if "coupling" in spec:
            objective = QuadraticMap.from_coupling(
                spec["coupling"], spec.get("y_star", 2.0),
                spec.get("z_star", (0.0, 0.0)))
        else:
            objective = QuadraticMap(spec["y_star"], spec["z_star"], spec["H"])
        return CascadePlant(lti, objective)

    def to_dict(self) -> dict:
        ctrl = {
            "p": self.controller.p, "p0": self.controller.p0,
            "y_sat": None if math.isinf(self.controller.y_sat)
                     else self.controller.y_sat,
            "lambda": self.controller.lam,
            "epsilon_sw": self.controller.epsilon_sw,
            "gamma": self.controller.gamma, "L_h": self.controller.L_h,
            "eta": self.controller.eta, "T_s": self.controller.T_s,
        }
        sim: dict[str, Any] = {
            "dt": self.sim.dt, "horizon": self.sim.horizon,
            "x0": list(self.sim.x0),
            "log_stride": self.sim.log_stride,
            "plant_eta": self.sim.plant_eta,
        }
        if self.sim.quasi_steady:
            sim["v0"] = "quasi_steady"
        elif self.sim.v0 is not None:
            sim["v0"] = list(self.sim.v0)
        return {
            "name": self.name, "description": self.description,
            "plant": {"A": self.A, "B": self.B, "C": self.C,
                      "map": dict(self.map_spec)},
            "controller": ctrl,
            "sim": sim,
            "analysis": {
                "delta": self.analysis.delta,
                "trailing_fraction": self.analysis.trailing_fraction,
                "c_bound": self.analysis.c_bound,
            },
        }


def _known(mapping, path: str) -> dict:
    """``mapping``, checked to be an object with no field outside
    ``_FIELDS[path]``."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path or 'top level'}: expected a JSON object")
    for key in mapping:
        if key not in _FIELDS[path]:
            name = f"{path}.{key}" if path else key
            raise ScenarioError(f"{name}: unknown field (known: "
                                f"{', '.join(_FIELDS[path])})")
    return mapping


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return mapping[key]


def _count(value, path: str) -> int:
    """An integral count: 3 and 3.0 pass; 2.5, true and "3" do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _real(value, path: str) -> float:
    """A finite real number: 2, 2.5 and 1e-3 pass; true, "2", null, NaN
    and Infinity do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _reals(value, path: str):
    """A number or a nested list of them, each element checked as
    ``_real`` checks a number field; shapes are checked where used."""
    if isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            _reals(item, f"{path}[{i}]")
    else:
        _real(value, path)
    return value


def scenario_from_dict(data: dict, *, allow_unstable: bool = False) -> Scenario:
    """Build and fully validate a Scenario from a parsed document."""
    _known(data, "")
    plant = _known(_require(data, "plant", "scenario"), "plant")
    ctrl = _known(_require(data, "controller", "scenario"), "controller")
    sim = _known(_require(data, "sim", "scenario"), "sim")
    analysis = _known(data.get("analysis", {}), "analysis")

    A = _reals(_require(plant, "A", "plant"), "plant.A")
    B = _reals(_require(plant, "B", "plant"), "plant.B")
    C = plant.get("C")
    if C is not None:
        _reals(C, "plant.C")
    map_spec = _known(_require(plant, "map", "plant"), "plant.map")
    _require(map_spec, "kind", "plant.map")
    if ("coupling" in map_spec) == ("H" in map_spec):
        raise ScenarioError("plant.map: give exactly one of coupling and H")
    if "H" in map_spec:  # the coupling family has defaults for both
        _require(map_spec, "y_star", "plant.map")
        _require(map_spec, "z_star", "plant.map")

    for key in ("y_star", "coupling"):
        if key in map_spec:
            _real(map_spec[key], f"plant.map.{key}")
    for key in ("z_star", "H"):
        if key in map_spec:
            _reals(map_spec[key], f"plant.map.{key}")

    # numbers are checked before the constructors run, so that an error
    # names the field once
    gains = {key: _real(_require(ctrl, key, "controller"), f"controller.{key}")
             for key in ("p", "p0", "lambda", "epsilon_sw", "gamma", "L_h",
                         "eta", "T_s")}
    y_sat = ctrl.get("y_sat")
    y_sat = math.inf if y_sat is None else _real(y_sat, "controller.y_sat")
    try:
        params = ControllerParams(
            p=gains["p"], p0=gains["p0"], y_sat=y_sat, lam=gains["lambda"],
            epsilon_sw=gains["epsilon_sw"], gamma=gains["gamma"],
            L_h=gains["L_h"], eta=gains["eta"], T_s=gains["T_s"],
        )
    except ConfigurationError as exc:
        raise ScenarioError(f"controller: {exc}") from exc

    v0_raw = sim.get("v0")
    quasi_steady = isinstance(v0_raw, str) and v0_raw == "quasi_steady"
    if isinstance(v0_raw, str) and not quasi_steady:
        raise ScenarioError(
            f"sim.v0: expected an array or the string 'quasi_steady', "
            f"got {v0_raw!r}")
    if v0_raw is not None and not quasi_steady:
        _reals(v0_raw, "sim.v0")
    x0 = _reals(_require(sim, "x0", "sim"), "sim.x0")
    log_stride = _count(sim.get("log_stride", 1), "sim.log_stride")
    dt = _real(_require(sim, "dt", "sim"), "sim.dt")
    horizon = _real(_require(sim, "horizon", "sim"), "sim.horizon")
    plant_eta = sim.get("plant_eta")
    if plant_eta is not None:
        plant_eta = _real(plant_eta, "sim.plant_eta")
    try:
        sim_config = SimConfig(
            dt=dt,
            horizon=horizon,
            x0=np.asarray(x0, dtype=float),
            v0=None if (v0_raw is None or quasi_steady)
               else np.asarray(v0_raw, dtype=float),
            log_stride=log_stride,
            plant_eta=plant_eta,
            quasi_steady=quasi_steady,
        )
    except ConfigurationError as exc:
        raise ScenarioError(f"sim: {exc}") from exc

    delta = analysis.get("delta")
    if delta is not None:
        delta = _real(delta, "analysis.delta")
    trailing_fraction = _real(analysis.get("trailing_fraction", 0.1),
                              "analysis.trailing_fraction")
    c_bound = _real(analysis.get("c_bound", 2.5), "analysis.c_bound")
    try:
        analysis_params = AnalysisParams(
            delta=delta,
            trailing_fraction=trailing_fraction,
            c_bound=c_bound,
        )
    except ConfigurationError as exc:
        raise ScenarioError(f"analysis: {exc}") from exc

    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        description=str(data.get("description", "")),
        A=A, B=B, C=C if C is not None else np.eye(len(A)).tolist(),
        map_spec=dict(map_spec),
        controller=params,
        sim=sim_config,
        analysis=analysis_params,
        allow_unstable=allow_unstable,
    )
    # construct the plant once now so every invariant is re-checked on load
    try:
        plant = scenario.build_plant()
    except ConfigurationError as exc:
        raise ScenarioError(f"plant: {exc}") from exc
    if sim_config.x0.shape != (plant.lti.n,):
        raise ScenarioError(
            f"sim.x0: must have dimension {plant.lti.n}, got "
            f"{sim_config.x0.shape}")
    if sim_config.v0 is not None and sim_config.v0.shape != (plant.lti.m,):
        raise ScenarioError(
            f"sim.v0: must have dimension {plant.lti.m}, got "
            f"{sim_config.v0.shape}")
    return scenario


def load_scenario(path, *, allow_unstable: bool = False) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, allow_unstable=allow_unstable)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    """Set a dot-path field in a raw scenario document, in place.

    The value is parsed as JSON when possible (numbers, lists, null,
    booleans) and kept as a string otherwise.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    keys = dotted_key.split(".")
    node = data
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ScenarioError(f"override {dotted_key}: no such field")
        node = node[key]
    if not isinstance(node, dict):
        raise ScenarioError(f"override {dotted_key}: no such field")
    node[keys[-1]] = value


def get_field(data: dict, dotted_key: str):
    node = data
    for key in dotted_key.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ScenarioError(f"{dotted_key}: no such field")
        node = node[key]
    return node


def builtin_scenario_names() -> list[str]:
    root = resources.files("slidingesc") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str, *, allow_unstable: bool = False) -> Scenario:
    """Load one of the scenarios shipped inside the package."""
    ref = resources.files("slidingesc") / "scenarios" / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            f"no builtin scenario {name!r}; available: "
            f"{', '.join(builtin_scenario_names())}")
    return scenario_from_dict(json.loads(text), allow_unstable=allow_unstable)


def builtin_scenario_dict(name: str) -> dict:
    ref = resources.files("slidingesc") / "scenarios" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))
