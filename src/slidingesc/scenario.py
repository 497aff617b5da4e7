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
refused.  A Scenario keeps the document it was read from; a variant is
that document overridden and read again (``with_overrides``).
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .controller import ControllerParams
from .errors import ConfigurationError
from .plant import CascadePlant, LtiSubsystem, QuadraticMap
from .sim import SimConfig, resolve_v0


# a field's presence in its object
REQUIRED, OPTIONAL, NULL_OMITS = "required", "optional", "null omits"


class ScenarioError(ConfigurationError):
    """Parse or validation failure, carrying the offending field path."""


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
    """A validated scenario document and the records a run reads.

    ``scenario_from_dict`` builds it and keeps a private copy of the
    document it read, so ``document`` describes the records; treat it
    as read-only and make a variant with ``with_overrides``.
    """

    document: dict
    controller: ControllerParams
    sim: SimConfig
    analysis: AnalysisParams
    allow_unstable: bool = False

    def build_plant(self) -> CascadePlant:
        plant = self.document["plant"]
        lti = LtiSubsystem(plant["A"], plant["B"], plant.get("C"),
                           allow_unstable=self.allow_unstable)
        # the map's other fields are the constructors' arguments; the
        # coupling family's y_star and z_star default there
        spec = {key: value for key, value in plant["map"].items()
                if key != "kind"}
        make = (QuadraticMap.from_coupling if "coupling" in spec
                else QuadraticMap)
        return CascadePlant(lti, make(**spec))


def _count(value, path: str) -> int:
    """An integral count: 3 and 3.0 pass; 2.5, true and "3" do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _number(value, path: str) -> float:
    """A finite real number: 2, 2.5 and 1e-3 pass; true, "2", null, NaN,
    Infinity and an integer beyond the float range do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return number


def _numbers(value, path: str):
    """A number or a rectangular nested list of them, each element
    checked as ``_number`` checks a number field; the dimensions are
    checked where used."""
    if isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            _numbers(item, f"{path}[{i}]")
        try:  # numpy refuses a ragged nesting
            np.asarray(value, dtype=float)
        except ValueError:
            raise ScenarioError(f"{path}: expected a rectangular array, got "
                                f"entries of unequal shapes") from None
    else:
        _number(value, path)
    return value


def _v0(value, path: str):
    """An array of numbers, or a string, which SimConfig checks."""
    return value if isinstance(value, str) else _numbers(value, path)


def _read(obj, path: str) -> dict:
    """The fields of the object ``obj`` at the dot-path ``path``, each
    checked and read as ``_SCHEMA[path]`` says; an omitted field is left
    out, so that its constructor's default applies."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path or 'top level'}: expected a JSON object")
    schema = _SCHEMA[path]
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in schema:
            raise ScenarioError(f"{prefix}{key}: unknown field (known: "
                                f"{', '.join(schema)})")
    fields = {}
    for key, (read, presence) in schema.items():
        if key not in obj or (obj[key] is None and presence == NULL_OMITS):
            if presence == REQUIRED:
                raise ScenarioError(
                    f"{path or 'scenario'}.{key}: missing required field")
        elif read is None:
            fields[key] = obj[key]
        else:
            fields[key] = read(obj[key], prefix + key)
    return fields


# The schema: for each object, by its dot-path, each field's reader and
# presence.  A reader checks a value and returns what the field's
# constructor takes (None: the value as it is; _read: a nested object).
# A field is required, optional, or optional with null meaning omitted.
_SCHEMA = {
    "": {"name": (None, OPTIONAL), "description": (None, OPTIONAL),
         "plant": (_read, REQUIRED), "controller": (_read, REQUIRED),
         "sim": (_read, REQUIRED), "analysis": (_read, OPTIONAL)},
    "plant": {"A": (_numbers, REQUIRED), "B": (_numbers, REQUIRED),
              "C": (_numbers, NULL_OMITS), "map": (_read, REQUIRED)},
    "plant.map": {"kind": (None, REQUIRED), "y_star": (_number, OPTIONAL),
                  "z_star": (_numbers, OPTIONAL),
                  "coupling": (_number, OPTIONAL),
                  "H": (_numbers, OPTIONAL)},
    "controller": {"p": (_number, REQUIRED), "p0": (_number, REQUIRED),
                   "y_sat": (_number, NULL_OMITS),
                   **{key: (_number, REQUIRED)
                      for key in ("lambda", "epsilon_sw", "gamma", "L_h",
                                  "eta", "T_s")}},
    "sim": {"dt": (_number, REQUIRED), "horizon": (_number, REQUIRED),
            "x0": (_numbers, REQUIRED), "v0": (_v0, NULL_OMITS),
            "log_stride": (_count, OPTIONAL),
            "plant_eta": (_number, NULL_OMITS)},
    "analysis": {"delta": (_number, NULL_OMITS),
                 "trailing_fraction": (_number, OPTIONAL),
                 "c_bound": (_number, OPTIONAL)},
}


def scenario_from_dict(data: dict, *, allow_unstable: bool = False) -> Scenario:
    """Build and fully validate a Scenario from a parsed document, which
    it keeps a copy of."""
    fields = _read(data, "")
    spec = fields["plant"]["map"]
    if spec["kind"] != "quadratic":
        raise ScenarioError(f"plant.map.kind: unsupported kind "
                            f"{spec['kind']!r}")
    if ("coupling" in spec) == ("H" in spec):
        raise ScenarioError("plant.map: give exactly one of coupling and H")
    for key in ("y_star", "z_star"):  # the coupling family defaults both
        if "H" in spec and key not in spec:
            raise ScenarioError(f"plant.map.{key}: missing required field")
    # the two fields whose constructor argument differs
    fields["controller"]["lam"] = fields["controller"].pop("lambda")

    records = []
    for section, make in (("controller", ControllerParams),
                          ("sim", SimConfig), ("analysis", AnalysisParams)):
        try:
            records.append(make(**fields.get(section, {})))
        except ConfigurationError as exc:
            raise ScenarioError(f"{section}.{exc}") from exc
    scenario = Scenario(copy.deepcopy(data), *records,
                        allow_unstable=allow_unstable)
    # the plant and a run's set-up checks, so a scenario that loads can run
    try:
        plant = scenario.build_plant()
    except ConfigurationError as exc:
        raise ScenarioError(f"plant: {exc}") from exc
    try:
        resolve_v0(plant, scenario.sim)
    except ConfigurationError as exc:
        raise ScenarioError(f"sim.{exc}") from exc
    try:
        scenario.controller.resolve(scenario.sim.dt, plant.lti.m)
    except ConfigurationError as exc:  # names controller.T_s / n_dirs
        raise ScenarioError(str(exc)) from exc
    return scenario


def read_document(path) -> dict:
    """The JSON document in the file ``path``.  A missing file raises
    FileNotFoundError naming the path; text that is not JSON (or not
    UTF-8) raises ScenarioError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    return scenario_from_dict(read_document(path))


def save_scenario(scenario: Scenario, path) -> None:
    """Write the document ``scenario`` was read from, as it was read;
    numpy arrays and scalars in a document built in Python are written
    as JSON lists and numbers."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.document, fh, indent=2,
                  default=lambda value: np.asarray(value).tolist())
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


def with_overrides(scenario: Scenario, overrides: dict[str, str]) -> Scenario:
    """The scenario read from a copy of ``scenario``'s document with each
    dot-path field of ``overrides`` set from its text as ``--override``
    sets it: the one way to make a variant of a scenario."""
    data = copy.deepcopy(scenario.document)
    for key, text in overrides.items():
        apply_override(data, key, text)
    return scenario_from_dict(data, allow_unstable=scenario.allow_unstable)


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


def builtin_scenario_dict(name: str) -> dict:
    """The raw document of a scenario shipped inside the package."""
    ref = resources.files("slidingesc") / "scenarios" / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            f"no builtin scenario {name!r}; available: "
            f"{', '.join(builtin_scenario_names())}")
    return json.loads(text)


def load_builtin(name: str) -> Scenario:
    """Load one of the scenarios shipped inside the package."""
    return scenario_from_dict(builtin_scenario_dict(name))
