"""Multivariable extremum seeking via sliding modes, a periodic
switching function, and cyclic directional search, for plants made of an
input integrator, a stable LTI block, and an unknown static objective."""

from .analysis import (AnalysisParams, Metrics, convergence_metrics,
                       detect_sliding, fd_gradient_oracle,
                       residual_bound_check)
from .controller import (ControllerParams, ControllerState, control_law,
                         controller_step, cyclic_direction, reference_step,
                         sliding_variable_step, switching_sign)
from .errors import ConfigurationError, SimulationAbort
from .plant import CascadePlant, LtiSubsystem, QuadraticMap
from .scenario import (Scenario, ScenarioError, load_builtin, load_scenario,
                       save_scenario)
from .sim import SimConfig, Trajectory, dt_guard_limit, run

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams", "CascadePlant", "ConfigurationError",
    "ControllerParams", "ControllerState", "LtiSubsystem", "Metrics",
    "QuadraticMap", "Scenario", "ScenarioError", "SimConfig",
    "SimulationAbort", "Trajectory", "control_law", "controller_step",
    "convergence_metrics", "cyclic_direction", "detect_sliding",
    "dt_guard_limit", "fd_gradient_oracle", "load_builtin", "load_scenario",
    "reference_step", "residual_bound_check", "run", "save_scenario",
    "sliding_variable_step", "switching_sign",
]
