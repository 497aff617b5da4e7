"""Fixed-step closed-loop integration of plant + controller.

One step is measure -> control -> integrate: the output is read, the
controller emits u, and (v, x) advance one explicit Euler step with u
held constant (zero-order hold).  Explicit Euler with a fixed step is
deliberate: the right-hand side switches through a relay, so smooth
high-order integrators buy nothing, while a fixed grid keeps switching
sequences bit-for-bit reproducible.

Time scaling.  A run carries a plant time-scale factor ``plant_eta``:
the LTI block is integrated as the fast subsystem

    eta_p * x' = A x + B v,

i.e. its derivative is applied 1/eta_p faster than the controller
clock.  This is the singular-perturbation (sensor block) form that the
residual bound |y - y*| <= O(sqrt(eta) + epsilon) is stated for, and it
realizes the design premise that the linear dynamics are fast relative
to the slowed controller.  eta_p defaults to the controller's eta;
eta_p = 1 reduces x' to A x + B v exactly.  (Integrating the plant on
the controller clock while only the controller gains are slowed leaves
the relay's switching faster than the plant's own lag for this design's
gain formulas, and the closed loop then fails to slide regardless of
the step size; the decision record for this package documents the
experiments.)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _fastpath, _tables
from .controller import (ControllerConstants, ControllerParams,
                         ControllerState, controller_step, whole_steps)
from .errors import ConfigurationError, SimulationAbort
from .plant import CascadePlant

logger = logging.getLogger(__name__)

BACKENDS = ("auto", "python")


@dataclass
class SimConfig:
    """Integration setup for one run.

    ``plant_eta`` is the time-scale separation factor of the LTI block
    (see module docstring); ``None`` selects the controller's eta.
    ``quasi_steady`` sets v0 to the value solving B v0 = -A x0, so the
    run starts on the quasi-steady manifold consistent with x0; it
    cannot be combined with a given v0.
    """

    dt: float
    horizon: float
    x0: np.ndarray
    v0: Optional[np.ndarray] = None
    log_stride: int = 1
    plant_eta: Optional[float] = None
    quasi_steady: bool = False

    def __post_init__(self) -> None:
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if not (self.horizon > self.dt):
            raise ConfigurationError(
                f"horizon ({self.horizon}) must exceed dt ({self.dt})")
        if self.log_stride < 1:
            raise ConfigurationError(
                f"log_stride must be >= 1, got {self.log_stride}")
        if self.plant_eta is not None and not (self.plant_eta > 0.0):
            raise ConfigurationError(
                f"plant_eta must be > 0, got {self.plant_eta}")
        if self.quasi_steady and self.v0 is not None:
            raise ConfigurationError(
                "give v0 or quasi_steady, not both: quasi_steady sets v0")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if self.v0 is not None:
            self.v0 = np.asarray(self.v0, dtype=float).reshape(-1)

    @property
    def n_steps(self) -> int:
        return whole_steps(self.horizon, self.dt, "horizon")


@dataclass
class Trajectory:
    """Uniformly sampled log of every closed-loop signal."""

    t: np.ndarray
    v: np.ndarray
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    y_m: np.ndarray
    e: np.ndarray
    s: np.ndarray
    u: np.ndarray
    dir_index: np.ndarray
    rho: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    @property
    def all_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(getattr(self, name))))
                   for name in ("t", "v", "x", "z", "y", "y_m", "e", "s", "u"))

    def column_header(self) -> list[str]:
        m = self.v.shape[1]
        n = self.x.shape[1]
        cols = ["t"]
        cols += [f"v{i+1}" for i in range(m)]
        cols += [f"x{i+1}" for i in range(n)]
        cols += [f"z{i+1}" for i in range(n)]
        cols += ["y", "y_m", "e", "s"]
        cols += [f"u{i+1}" for i in range(m)]
        cols += ["dir", "rho"]
        return cols

    def to_csv(self, path, *tables: _tables.Table) -> None:
        """Write the log as CSV, 17 significant digits, fixed column order.

        Further ``tables`` over the same rows are written in the same
        pass, so a value they share with the CSV at the same format is
        turned into text once.
        """
        names = self.column_header()
        arrays = [self.t, *self.v.T, *self.x.T, *self.z.T, self.y, self.y_m,
                  self.e, self.s, *self.u.T, self.dir_index, self.rho]
        columns = [(values, "%d" if name == "dir" else "%.17g")
                   for name, values in zip(names, arrays)]
        _tables.write_tables([_tables.Table(path, ",".join(names), columns,
                                            delimiter=","), *tables])


def resolve_v0(plant: CascadePlant, config: SimConfig) -> np.ndarray:
    if config.quasi_steady:
        # B v0 = -A x0 puts x0 on the quasi-steady manifold
        x0 = np.asarray(config.x0, dtype=float)
        if plant.lti.B.shape[0] != plant.lti.B.shape[1]:
            raise ConfigurationError(
                "quasi_steady start requires a square input matrix B")
        try:
            return np.linalg.solve(plant.lti.B, -(plant.lti.A @ x0))
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(f"quasi_steady start: B is singular ({exc})")
    if config.v0 is None:
        return np.zeros(plant.lti.m)
    return np.asarray(config.v0, dtype=float)


def dt_guard_limit(plant: CascadePlant, constants: ControllerConstants,
                   plant_eta: float) -> float:
    """Largest step the resolution guard accepts, for the controller
    record ``constants`` (only its rho and epsilon_sw are read).

    Two requirements: (a) explicit Euler must be stable on the
    time-scaled LTI block, with a factor-2 margin on the exact bound
    2|Re l|/|l|^2 per eigenvalue; (b) near the extremum the relay band
    epsilon_sw must be crossed in many steps, bounded through the gain
    magnitude k_hat attainable on the vicinity box of half-width
    sqrt(epsilon_sw) around the maximizer.  Far from the extremum the
    relay may jump bands within a step; that affects transient chatter,
    not convergence, and is deliberately not guarded.
    """
    eigs = plant.lti.eigenvalues / plant_eta
    euler_term = 0.5 * float(np.min(2.0 * np.abs(eigs.real) / np.abs(eigs) ** 2))

    box = math.sqrt(constants.epsilon_sw)
    gain_rows = np.abs(plant.lti.dc_gain.T @ plant.map.H)
    k_hat = float(np.max(gain_rows.sum(axis=1))) * box
    if k_hat <= 0.0:
        band_term = math.inf
    else:
        band_term = 0.1 * constants.epsilon_sw / (constants.rho * k_hat)
    return min(euler_term, band_term)


def run(plant: CascadePlant, params: ControllerParams, config: SimConfig, *,
        backend: str = "auto", dt_guard: bool = True,
        skip_hypothesis_check: bool = False) -> Trajectory:
    """Run the closed loop over [0, horizon] and return the full log.

    ``backend`` is one of BACKENDS: ``python`` is the reference loop;
    ``auto`` runs the chunked numpy kernel of :mod:`._fastpath`.  The
    backend asked for and the one used are logged at INFO level.
    The search runs one direction per plant input, n_dirs = m.  The
    horizon and each direction's ``controller.T_s / n_dirs`` must be
    whole numbers of steps (ConfigurationError otherwise).  Both loops
    and the dt guard read the controller through the one record
    ``params.resolve(dt, m)``.
    Deterministic: identical inputs on one backend produce bit-identical
    trajectories.
    Aborts (raises SimulationAbort) on non-finite signals, on a failed
    hypothesis check unless ``skip_hypothesis_check``, and on a dt
    violating the resolution guard unless ``dt_guard`` is off.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(f"backend must be one of {BACKENDS}")
    if config.x0.shape != (plant.lti.n,):
        raise ConfigurationError(
            f"x0 must have dimension {plant.lti.n}, got {config.x0.shape}")

    n_steps = config.n_steps
    constants = params.resolve(config.dt, plant.lti.m)  # before any work
    if n_steps % config.log_stride != 0:
        raise ConfigurationError(
            f"log_stride ({config.log_stride}) must divide the step count "
            f"({n_steps}) so the log stays uniform")

    report = plant.check_hypotheses(L_h=params.L_h)
    if not report.ok:
        lines = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        if not skip_hypothesis_check:
            raise SimulationAbort(f"hypothesis check failed ({lines})")
        logger.warning("HYPOTHESIS CHECK OVERRIDDEN, running anyway: %s", lines)

    plant_eta = params.eta if config.plant_eta is None else config.plant_eta
    limit = dt_guard_limit(plant, constants, plant_eta)
    if config.dt > limit:
        msg = (f"dt={config.dt:g} exceeds the resolution guard limit "
               f"{limit:.3g} (Euler stability / relay band resolution)")
        if dt_guard:
            raise SimulationAbort(msg + "; rerun with the guard off to force")
        logger.warning("DT GUARD OVERRIDDEN: %s", msg)

    v0 = resolve_v0(plant, config)
    if v0.shape != (plant.lti.m,):
        raise ConfigurationError(
            f"v0 must have dimension {plant.lti.m}, got {v0.shape}")

    used = "chunked" if backend == "auto" else backend
    logger.info("backend: requested %s, used %s", backend, used)
    if used == "python":
        return _run_python(plant, constants, config, v0, plant_eta)
    return _run_kernel(plant, constants, config, v0, plant_eta)


def _run_kernel(plant, constants, config, v0, plant_eta) -> Trajectory:
    qmap = plant.map
    t, v, x, z, y, y_m, e, s, u, dir_index = _fastpath.run_chunked(
        plant.lti.A, plant.lti.B, plant.lti.C, qmap.H, qmap.z_star,
        qmap.y_star, v0.copy(), config.x0.copy(), config.dt, config.n_steps,
        constants, config.log_stride, 1.0 / plant_eta)
    plant.v = v[-1]
    plant.x = x[-1]
    return Trajectory(t, v, x, z, y, y_m, e, s, u, dir_index,
                      np.full(t.size, constants.rho))


def _run_python(plant, constants, config, v0, plant_eta) -> Trajectory:
    """The reference loop, built from ``controller_step`` and the plant.

    The Euler update is simultaneous: x advances with the pre-update v,
    v += dt*u and x += (dt/plant_eta)*(A x + B v).
    """
    n_steps = config.n_steps
    stride = config.log_stride
    n_rec = n_steps // stride + 1
    m, n = plant.lti.m, plant.lti.n

    t_log = np.empty(n_rec)
    v_log = np.empty((n_rec, m))
    x_log = np.empty((n_rec, n))
    z_log = np.empty((n_rec, n))
    y_log = np.empty(n_rec)
    ym_log = np.empty(n_rec)
    e_log = np.empty(n_rec)
    s_log = np.empty(n_rec)
    u_log = np.zeros((n_rec, m))
    dir_log = np.empty(n_rec, dtype=np.int64)

    plant.v = v0.copy()
    plant.x = config.x0.copy()
    state = ControllerState.initial(constants)
    dt = config.dt
    plant_rate = 1.0 / plant_eta
    rec = 0
    # an escaping plant overflows the map before the state turns
    # non-finite; the finite-escape abort below is the signal, not a
    # numpy RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            z = plant.z
            y = plant.map.eval(z)
            u, tel = controller_step(constants, state, y, dt)
            if k % stride == 0:
                t_log[rec] = k * dt
                v_log[rec] = plant.v
                x_log[rec] = plant.x
                z_log[rec] = z
                y_log[rec] = y
                ym_log[rec] = tel.y_m
                e_log[rec] = tel.e
                s_log[rec] = tel.s
                u_log[rec] = u
                dir_log[rec] = tel.dir_index
                rec += 1
            if k < n_steps:
                dv, dx = plant.derivative(u)
                plant._v = plant._v + dt * dv
                plant._x = plant._x + (dt * plant_rate) * dx
                if not np.all(np.isfinite(plant._x)):
                    raise SimulationAbort(
                        f"non-finite state after step at t={k * dt:.6g} "
                        "(finite-escape guard)")
    return Trajectory(t_log[:rec], v_log[:rec], x_log[:rec], z_log[:rec],
                      y_log[:rec], ym_log[:rec], e_log[:rec], s_log[:rec],
                      u_log[:rec], dir_log[:rec],
                      np.full(rec, constants.rho))
