"""Trajectory verdicts: how a run is judged (``AnalysisParams``),
sliding detection, convergence metrics, the residual bound, and the
finite-difference gain oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, points, positive, real
from .plant import CascadePlant
from .sim import Trajectory

# a sample sits on a switching band within this fraction of its width
BAND_TOL_FRACTION = 0.25
# the shortest sliding segment counted as evidence of sliding, in steps
# of the run's dt (convergence_metrics applies it); the value is not
# derived
SLIDING_MIN_STEPS = 50
# fd_gradient_oracle's step, scaled by max(1, ||v||) at each point v
FD_STEP = 1e-5
# the rows a scan of the log takes at a time: the working arrays of a
# block, some 50 bytes a row for a two-dimensional z, stay well below a
# megabyte however long the log is
SCAN_ROWS = 4096


@dataclass(frozen=True)
class AnalysisParams:
    """How a run is judged, checked when built: the vicinity radius
    ``delta`` (None: sqrt(epsilon_sw)), the trailing fraction of the
    samples the residuals are taken over, and the constant of the
    residual bound."""

    delta: Optional[float] = None
    trailing_fraction: float = 0.1
    c_bound: float = 2.5

    def __post_init__(self) -> None:
        if self.delta is not None:
            positive(self.delta, "delta")
        if not 0.0 < real(self.trailing_fraction, "trailing_fraction") <= 1.0:
            raise ConfigurationError(
                f"trailing_fraction must be in (0, 1], got "
                f"{self.trailing_fraction}")
        positive(self.c_bound, "c_bound")

    def trailing_samples(self, n: int) -> int:
        """The size of the trailing window of an ``n``-sample log: at
        least one sample."""
        return max(1, int(round(self.trailing_fraction * n)))


@dataclass
class SlidingSegment:
    t_start: float
    t_end: float
    band_index: int


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
    the same band lasting at least min_duration are reported
    (``convergence_metrics`` passes SLIDING_MIN_STEPS steps).
    ConfigurationError unless epsilon_sw is a finite number > 0 and
    min_duration one >= 0.
    """
    positive(epsilon_sw, "epsilon_sw")
    if real(min_duration, "min_duration") < 0.0:
        raise ConfigurationError(
            f"min_duration must be >= 0, got {min_duration}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.size == 0:
        return []

    # the log is read a block at a time, with the last sample of the
    # block before in front (none before the first); a run still open
    # at a block's end carries its start into the next
    tol = BAND_TOL_FRACTION * epsilon_sw
    band, inside = np.zeros(1), np.zeros(1, dtype=bool)
    carried = np.empty(0, dtype=np.intp)
    segments = []
    for lo in range(0, s.size, SCAN_ROWS):
        block = s[lo:lo + SCAN_ROWS]
        band = np.concatenate((band[-1:], np.divide(block, epsilon_sw)))
        np.round(band[1:], out=band[1:])
        off = np.multiply(band[1:], epsilon_sw)
        np.subtract(block, off, out=off)
        np.abs(off, out=off)
        inside = np.concatenate((inside[-1:], off <= tol))
        # sample i continues the run of sample i-1 when both are inside
        # on one band (an inside sample has a finite band, and
        # -0.0 == 0.0), so a run's band is that of its last sample
        broken = ~(inside[1:] & inside[:-1] & (band[1:] == band[:-1]))
        starts = np.concatenate(
            (carried, lo + np.flatnonzero(inside[1:] & broken)))
        # j in ends: a run ends on row lo - 1 + j, band[j]'s row
        ends = np.flatnonzero(inside[:-1] & broken)
        if lo + block.size == s.size and inside[-1]:
            ends = np.append(ends, block.size)
        carried, starts = starts[ends.size:], starts[:ends.size]
        keep = t[lo - 1 + ends] - t[starts] >= min_duration
        starts, ends = starts[keep], ends[keep]
        segments += [SlidingSegment(t_start, t_end, int(k))
                     for t_start, t_end, k in zip(t[starts].tolist(),
                                                  t[lo - 1 + ends].tolist(),
                                                  band[ends].tolist())]
    return segments


def convergence_metrics(traj: Trajectory, z_star, y_star: float, *,
                        epsilon_sw: float, dt: float,
                        params: AnalysisParams) -> Metrics:
    """Compute all Metrics fields for one trajectory of step ``dt``,
    judged as ``params`` says.

    Residuals are taken over the trailing window
    ``params.trailing_samples``; sliding segments are those
    ``detect_sliding`` reports for the floor of SLIDING_MIN_STEPS steps.
    ``params.delta`` None means sqrt(epsilon_sw), the only quantitative
    vicinity radius the theory offers.  ConfigurationError unless
    ``epsilon_sw`` and ``dt`` are finite numbers > 0.
    """
    positive(epsilon_sw, "epsilon_sw")
    positive(dt, "dt")
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    delta = math.sqrt(epsilon_sw) if params.delta is None else params.delta

    z_star = np.asarray(z_star, dtype=float)
    t_reach = None
    for lo in range(0, len(traj), SCAN_ROWS):  # up to the first hit
        dist = np.linalg.norm(traj.z[lo:lo + SCAN_ROWS] - z_star, axis=1)
        hits = np.flatnonzero(dist < delta)
        if hits.size:
            t_reach = float(traj.t[lo + hits[0]])
            break

    tail_dev = traj.y[-params.trailing_samples(len(traj)):] - y_star
    np.abs(tail_dev, out=tail_dev)
    residual_amp, mean_residual = float(tail_dev.max()), float(tail_dev.mean())
    del tail_dev  # a whole column at trailing_fraction 1: freed first
    return Metrics(
        t_reach_delta=t_reach,
        residual_amp=residual_amp,
        mean_residual=mean_residual,
        sliding_segments=detect_sliding(traj.t, traj.s, epsilon_sw,
                                        min_duration=SLIDING_MIN_STEPS * dt),
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
    Fails outright when the run never reached the vicinity; a
    ConfigurationError for an ``eta``, ``epsilon_sw`` or ``c_bound``
    that is not a finite number > 0.
    """
    positive(eta, "eta")
    positive(epsilon_sw, "epsilon_sw")
    positive(c_bound, "c_bound")
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
    """Brute-force check value for the analytic input gain, at one v of
    shape (m,) or at each of a batch of shape (..., m).

    Central finite differences of v -> h(steady_state_output(v)); by the
    chain rule this equals the gain k_p at z = steady_state_output(v),
    independently of the analytic gradient path.  The step balances
    truncation and rounding error.
    """
    v = points(v, plant.lti.m, "v")
    # sqrt(v . v) gives each point's norm as np.linalg.norm(point) does
    h = FD_STEP * np.maximum(1.0, np.sqrt(np.vecdot(v, v)))[..., None]
    # row i of the last two axes is v moved by h along input i
    steps = h[..., None] * np.eye(plant.lti.m)
    ahead, behind = (plant.map.eval(plant.lti.steady_state_output(moved))
                     for moved in (v[..., None, :] + steps,
                                   v[..., None, :] - steps))
    return (ahead - behind) / (2.0 * h)
