"""Relay extremum-seeking controller with cyclic directional search.

The control law is

    u = rho * sigma(t) * sgn(sin(pi * s / epsilon_sw)),
    s(t) = e(t) + lambda_eff * integral sgn(e) dt,
    e(t) = y(t) - y_m(t),

where y_m is a saturated reference ramp and sigma(t) cycles through the
standard basis directions, one per sub-interval of the search period;
a sub-interval is a whole number of steps, counted by the integer k.
The periodic switching function makes the law independent of the sign of
the control direction, so no gradient or control-direction knowledge is
needed.

Sign conventions, fixed here once: sgn(0) = 0 inside the sliding
integral (a stationary error must not accumulate), sgn(0) = +1 in the
control law (the relay must never emit zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, SimulationAbort

SCALING_MODES = ("scaled", "unscaled")


class EffectiveGains(NamedTuple):
    p_eff: float
    lambda_eff: float
    rho: float


class StepTelemetry(NamedTuple):
    y_m: float
    e: float
    s: float
    dir_index: int
    rho: float


@dataclass
class ControllerParams:
    """Tuning constants of the seeking controller.

    Attributes
    ----------
    p : float
        Reference ramp slope before time scaling (output units/s).
    p0 : float
        Initial reference value.
    y_sat : float
        Reference saturation level, an upper bound of the objective's
        maximum.  May be ``inf`` to disable saturation.
    lam : float
        Sliding gain (the lambda of the sliding variable) before time
        scaling.
    epsilon_sw : float
        Switching parameter: the relay flips sign whenever s crosses a
        multiple of this band width.
    gamma : float
        Modulation margin added on top of the disturbance bound.
    L_h : float
        Lower bound on the gradient magnitude outside the vicinity of
        the extremum; sets the modulation amplitude.
    eta : float
        Time-scale parameter in (0, 1].  In ``scaled`` mode the ramp
        slope and the sliding gain are multiplied by it and the
        modulation amplitude carries the matching factor.
    T_s : float
        Cyclic search period (s).  A run needs each direction's share,
        T_s*ts_scale/n_dirs, to be a whole number of its steps.
    n_dirs : int
        Number of search directions; must equal the plant input
        dimension.
    scaling_mode : str
        "scaled" applies the time-scale factor, "unscaled" is the
        static-map design with eta treated as 1.
    ts_scale : float
        Multiplier applied to T_s to form the effective search period
        (lets the period be declared on either clock; default 1, i.e.
        physical time).
    """

    p: float
    p0: float
    y_sat: float
    lam: float
    epsilon_sw: float
    gamma: float
    L_h: float
    eta: float
    T_s: float
    n_dirs: int
    scaling_mode: str = "scaled"
    ts_scale: float = 1.0

    def __post_init__(self) -> None:
        positive = {"p": self.p, "lambda": self.lam,
                    "epsilon_sw": self.epsilon_sw, "gamma": self.gamma,
                    "L_h": self.L_h, "T_s": self.T_s, "ts_scale": self.ts_scale}
        for name, value in positive.items():
            if not (value > 0.0) or not math.isfinite(value):
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigurationError(f"eta must be in (0, 1], got {self.eta}")
        if self.n_dirs < 1:
            raise ConfigurationError(f"n_dirs must be >= 1, got {self.n_dirs}")
        if self.scaling_mode not in SCALING_MODES:
            raise ConfigurationError(
                f"scaling_mode must be one of {SCALING_MODES}, got "
                f"{self.scaling_mode!r}")
        if math.isnan(self.y_sat) or self.y_sat < self.p0:
            raise ConfigurationError(
                f"y_sat ({self.y_sat}) must be >= p0 ({self.p0})")

    @property
    def search_period(self) -> float:
        return self.T_s * self.ts_scale

    def sub_steps(self, dt: float) -> int:
        """Steps of dt per search direction (must be a whole number)."""
        return whole_steps(self.search_period / self.n_dirs, dt,
                           "controller.T_s * ts_scale / n_dirs")

    def effective_gains(self) -> EffectiveGains:
        """Ramp slope, sliding gain and modulation amplitude actually used.

        scaled:   (eta*p, eta*lambda, eta/L_h*(p+lambda) + eta*gamma)
        unscaled: (p, lambda, (p+lambda)/L_h + gamma)
        """
        if self.scaling_mode == "scaled":
            rho = self.eta / self.L_h * (self.p + self.lam) + self.eta * self.gamma
            return EffectiveGains(self.eta * self.p, self.eta * self.lam, rho)
        rho = (self.p + self.lam) / self.L_h + self.gamma
        return EffectiveGains(self.p, self.lam, rho)


@dataclass
class ControllerState:
    """Evolving quantities owned by one controller instance; k counts
    the steps taken, so the controller's time is k*dt."""

    y_m: float
    s_int: float = 0.0
    k: int = 0

    @classmethod
    def initial(cls, params: ControllerParams) -> "ControllerState":
        return cls(y_m=min(params.p0, params.y_sat))


def reference_step(state: ControllerState, p_eff: float, y_sat: float,
                   dt: float) -> float:
    """Advance the reference ramp one step: y_m <- min(y_m + p_eff*dt, y_sat)."""
    state.y_m = min(state.y_m + p_eff * dt, y_sat)
    return state.y_m


def sliding_variable_step(state: ControllerState, e: float, lambda_eff: float,
                          dt: float) -> float:
    """Accumulate the sliding integral and return s = e + integral term.

    sgn(0) contributes nothing to the integral.
    """
    sgn_e = 1.0 if e > 0.0 else (-1.0 if e < 0.0 else 0.0)
    state.s_int += lambda_eff * sgn_e * dt
    return e + state.s_int


def whole_steps(duration: float, dt: float, field: str) -> int:
    """Steps of dt in ``duration``; ConfigurationError naming ``field``
    unless that is a whole number >= 1 (to a relative 1e-9)."""
    steps = duration / dt
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(n * dt - duration) > 1e-9 * max(1.0, duration):
        raise ConfigurationError(f"{field} ({duration}) must be an integer "
                                 f"number of steps of dt ({dt})")
    return n


def direction_index(k: int | np.ndarray, sub_steps: int,
                    n_dirs: int) -> int | np.ndarray:
    """0-based search direction at step k >= 0, an int or an integer
    array: each direction holds for sub_steps steps in turn."""
    return k // sub_steps % n_dirs


def cyclic_direction(k: int, sub_steps: int, n_dirs: int) -> tuple[int, np.ndarray]:
    """Active search direction at step k: index in 1..n_dirs plus the
    corresponding standard basis vector.

    Every direction holds for sub_steps steps, so the schedule repeats
    exactly every n_dirs*sub_steps steps.
    """
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    i = direction_index(k, sub_steps, n_dirs)
    sigma = np.zeros(n_dirs)
    sigma[i] = 1.0
    return i + 1, sigma


def switching_sign(s: float, epsilon_sw: float) -> float:
    """Relay sign sgn(sin(pi*s/epsilon_sw)) with sgn(0) = +1."""
    return 1.0 if math.sin(math.pi / epsilon_sw * s) >= 0.0 else -1.0


def control_law(rho: float, sigma: np.ndarray, s: float,
                epsilon_sw: float) -> np.ndarray:
    """Switched control u = rho * sigma * sgn(sin(pi*s/epsilon_sw)).

    Exactly one component is nonzero (for rho > 0) and its magnitude is
    rho; the sign alternates across consecutive bands of width
    epsilon_sw in s.
    """
    return rho * sigma * switching_sign(s, epsilon_sw)


def controller_step(params: ControllerParams, state: ControllerState, y: float,
                    dt: float) -> tuple[np.ndarray, StepTelemetry]:
    """One controller update: measure, switch, then advance the clocks.

    Order: e = y - y_m with the current reference; sliding integral is
    advanced and s formed; the direction is read off the step counter
    k; u is emitted; finally the reference moves on by dt and k by one.
    Telemetry carries the values used for u, i.e. the signals at step k.
    """
    if not math.isfinite(y):
        raise SimulationAbort(
            f"non-finite measured output y={y} at step {state.k} "
            f"(t={state.k * dt:.6g})")
    p_eff, lambda_eff, rho = params.effective_gains()
    e = y - state.y_m
    y_m_now = state.y_m
    s = sliding_variable_step(state, e, lambda_eff, dt)
    if not math.isfinite(math.pi / params.epsilon_sw * s):
        # a huge but finite output overflows the relay's sine argument
        raise SimulationAbort(
            f"non-finite switching argument for s={s} at step {state.k} "
            f"(t={state.k * dt:.6g}, finite-escape guard)")
    index, sigma = cyclic_direction(state.k, params.sub_steps(dt), params.n_dirs)
    u = control_law(rho, sigma, s, params.epsilon_sw)
    reference_step(state, p_eff, params.y_sat, dt)
    state.k += 1
    return u, StepTelemetry(y_m_now, e, s, index, rho)
