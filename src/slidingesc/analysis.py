"""Trajectory verdicts: sliding detection, convergence metrics, the
residual bound, and the finite-difference gain oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .plant import CascadePlant, central_difference
from .sim import Trajectory

# a sample sits on a switching band within this fraction of its width
BAND_TOL_FRACTION = 0.25
# the shortest sliding segment counted as evidence of sliding, in steps
# (min_duration = SLIDING_MIN_STEPS * dt); the value is not derived
SLIDING_MIN_STEPS = 50


@dataclass
class SlidingSegment:
    t_start: float
    t_end: float
    band_index: int

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class Metrics:
    """Convergence diagnostics of one run.

    t_reach_delta is the first time the output of the linear block
    enters the delta-vicinity of the maximizer, or None if it never
    does.  Residuals are taken over the trailing window of the run.
    """

    t_reach_delta: Optional[float]
    residual_amp: float
    mean_residual: float
    sliding_segments: list[SlidingSegment] = field(default_factory=list)
    bounded: bool = True

    def to_flat_dict(self) -> dict:
        return {
            "t_reach_delta": self.t_reach_delta,
            "residual_amp": self.residual_amp,
            "mean_residual": self.mean_residual,
            "sliding_segments": [[s.t_start, s.t_end, s.band_index]
                                 for s in self.sliding_segments],
            "bounded": self.bounded,
        }


def detect_sliding(t: np.ndarray, s: np.ndarray, epsilon_sw: float,
                   min_duration: float) -> list[SlidingSegment]:
    """Maximal intervals where s sits on one switching band.

    A sample belongs to band k = round(s/epsilon) when
    |s - k*epsilon| <= BAND_TOL_FRACTION*epsilon.  Runs of samples on
    the same band lasting at least min_duration are reported (a run's
    callers pass SLIDING_MIN_STEPS * dt).
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.size == 0:
        return []

    band = np.round(s / epsilon_sw)
    inside = np.abs(s - band * epsilon_sw) <= BAND_TOL_FRACTION * epsilon_sw

    # sample i continues the run of sample i-1 when both are inside on
    # one band (an inside sample has a finite band, and -0.0 == 0.0)
    joined = inside[1:] & inside[:-1] & (band[1:] == band[:-1])
    starts = np.flatnonzero(inside & np.concatenate(([True], ~joined)))
    ends = np.flatnonzero(inside & np.concatenate((~joined, [True])))
    keep = t[ends] - t[starts] >= min_duration
    return [SlidingSegment(t_start, t_end, int(k))
            for t_start, t_end, k in zip(t[starts[keep]].tolist(),
                                         t[ends[keep]].tolist(),
                                         band[starts[keep]].tolist())]


def convergence_metrics(traj: Trajectory, z_star, y_star: float, *,
                        epsilon_sw: float, trailing_fraction: float,
                        min_duration: float,
                        delta: Optional[float] = None) -> Metrics:
    """Compute all Metrics fields for one trajectory.

    Residuals are taken over the last ``trailing_fraction`` of the
    samples; sliding segments are those ``detect_sliding`` reports
    for ``min_duration``.  delta defaults to sqrt(epsilon_sw), the only
    quantitative vicinity radius the theory offers.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    if not (0.0 < trailing_fraction <= 1.0):
        raise ValueError(f"trailing_fraction must be in (0, 1], got "
                         f"{trailing_fraction}")
    if delta is None:
        delta = math.sqrt(epsilon_sw)

    z_star = np.asarray(z_star, dtype=float)
    dist = np.linalg.norm(traj.z - z_star, axis=1)
    hits = np.nonzero(dist < delta)[0]
    t_reach = float(traj.t[hits[0]]) if hits.size else None

    n_tail = max(1, int(round(trailing_fraction * len(traj))))
    tail_dev = np.abs(traj.y[-n_tail:] - y_star)
    segments = detect_sliding(traj.t, traj.s, epsilon_sw,
                              min_duration=min_duration)
    return Metrics(
        t_reach_delta=t_reach,
        residual_amp=float(tail_dev.max()),
        mean_residual=float(tail_dev.mean()),
        sliding_segments=segments,
        bounded=traj.all_finite,
    )


@dataclass
class ResidualBoundResult:
    passed: bool
    residual_amp: float
    bound: float
    implied_constant: float
    reason: str = ""


def residual_bound_check(metrics: Metrics, eta: float, epsilon_sw: float,
                         c_bound: float) -> ResidualBoundResult:
    """Check residual_amp <= c_bound * (sqrt(eta) + epsilon_sw).

    The theory's constant is unknowable, so the caller supplies c_bound
    and the result reports the implied constant
    residual_amp / (sqrt(eta) + epsilon_sw) for cross-run comparison.
    Fails outright when the run never reached the vicinity.
    """
    scale = math.sqrt(eta) + epsilon_sw
    implied = metrics.residual_amp / scale
    if metrics.t_reach_delta is None:
        return ResidualBoundResult(False, metrics.residual_amp,
                                   c_bound * scale, implied,
                                   "run never reached the delta-vicinity")
    passed = metrics.residual_amp <= c_bound * scale
    return ResidualBoundResult(passed, metrics.residual_amp,
                               c_bound * scale, implied)


def fd_gradient_oracle(plant: CascadePlant, v) -> np.ndarray:
    """Brute-force check value for the analytic input gain.

    Central finite differences of v -> h(steady_state_output(v)); by the
    chain rule this equals the gain k_p at z = steady_state_output(v),
    independently of the analytic gradient path.
    """
    v = np.asarray(v, dtype=float)

    def through_channel(point: np.ndarray) -> float:
        return plant.map.eval(plant.lti.steady_state_output(point))

    return central_difference(through_channel, v)
