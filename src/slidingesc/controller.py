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
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, finite_escape, positive, real, whole


class StepTelemetry(NamedTuple):
    y_m: float
    e: float
    s: float
    dir_index: int


@dataclass(frozen=True)
class ControllerParams:
    """Tuning constants of the seeking controller, checked when built.

    Attributes
    ----------
    p : float
        Reference ramp slope before time scaling (output units/s).
    p0 : float
        Initial reference value; finite.
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
        Time-scale parameter in (0, 1].  The ramp slope and the sliding
        gain are multiplied by it and the modulation amplitude carries
        the matching factor.
    T_s : float
        Cyclic search period (s), shared equally by the search
        directions, one per plant input.  A run needs each direction's
        share, T_s/n_dirs, to be a whole number of its steps.
    y_sat : float or None
        Reference saturation level, an upper bound of the objective's
        maximum and >= p0; ``None`` (the default) disables saturation,
        which ``resolve`` hands the loops as ``inf``.

    A run reads these through the record ``resolve(dt, n_dirs)`` builds
    once, with n_dirs the plant's input count.
    """

    p: float
    p0: float
    lam: float
    epsilon_sw: float
    gamma: float
    L_h: float
    eta: float
    T_s: float
    y_sat: Optional[float] = None

    def __post_init__(self) -> None:
        positive(self.p, "p")
        positive(self.lam, "lambda")
        positive(self.epsilon_sw, "epsilon_sw")
        positive(self.gamma, "gamma")
        positive(self.L_h, "L_h")
        positive(self.T_s, "T_s")
        if not 0.0 < real(self.eta, "eta") <= 1.0:
            raise ConfigurationError(f"eta must be in (0, 1], got {self.eta}")
        p0 = real(self.p0, "p0")
        if self.y_sat is not None and real(self.y_sat, "y_sat") < p0:
            raise ConfigurationError(
                f"y_sat ({self.y_sat}) must be >= p0 ({self.p0})")

    def resolve(self, dt: float, n_dirs: int) -> "ControllerConstants":
        """The constants of a run with step dt over n_dirs search
        directions, worked out once: the gains actually used are eta*p,
        eta*lambda and rho = eta/L_h*(p+lambda) + eta*gamma.
        ConfigurationError unless n_dirs is a whole number >= 1 and
        T_s/n_dirs a whole number of steps."""
        n_dirs = whole(n_dirs, "n_dirs")
        rho = self.eta / self.L_h * (self.p + self.lam) + self.eta * self.gamma
        sub_steps = whole_steps(self.T_s / n_dirs, dt,
                                "controller.T_s / n_dirs")
        return ControllerConstants(
            self.eta * self.p, self.eta * self.lam, rho, self.epsilon_sw,
            math.inf if self.y_sat is None else self.y_sat, self.p0,
            sub_steps, n_dirs)


@dataclass(frozen=True, slots=True)
class ControllerConstants:
    """What one run of the controller reads, resolved from
    ``ControllerParams`` for its step and the plant's input count: the
    effective gains, the relay band, the reference's saturation and
    initial value, and the search schedule's steps per direction and
    direction count."""

    p_eff: float
    lambda_eff: float
    rho: float
    epsilon_sw: float
    y_sat: float
    y_m0: float
    sub_steps: int
    n_dirs: int


@dataclass
class ControllerState:
    """Evolving quantities owned by one controller instance; k counts
    the steps taken, so the controller's time is k*dt."""

    y_m: float
    s_int: float = 0.0
    k: int = 0

    @classmethod
    def initial(cls, constants: ControllerConstants) -> "ControllerState":
        return cls(y_m=constants.y_m0)


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


def controller_step(constants: ControllerConstants, state: ControllerState,
                    y: float, dt: float) -> tuple[np.ndarray, StepTelemetry]:
    """One controller update: measure, switch, then advance the clocks.

    Order: e = y - y_m with the current reference; sliding integral is
    advanced and s formed; the direction is read off the step counter
    k; u is emitted; finally the reference moves on by dt and k by one.
    Telemetry carries the values used for u, i.e. the signals at step k.
    ``constants`` is ``ControllerParams.resolve(dt, n_dirs)`` for the
    same dt.  A non-finite output raises ``errors.finite_escape``.
    """
    e = y - state.y_m
    y_m_now = state.y_m
    s = sliding_variable_step(state, e, constants.lambda_eff, dt)
    if not math.isfinite(math.pi / constants.epsilon_sw * s):
        # a non-finite output makes s non-finite; a huge but finite one
        # overflows the relay's sine argument
        raise finite_escape(state.k, dt)
    index, sigma = cyclic_direction(state.k, constants.sub_steps,
                                    constants.n_dirs)
    u = control_law(constants.rho, sigma, s, constants.epsilon_sw)
    reference_step(state, constants.p_eff, constants.y_sat, dt)
    state.k += 1
    return u, StepTelemetry(y_m_now, e, s, index)
