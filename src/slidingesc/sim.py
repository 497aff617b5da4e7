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
from typing import Optional, Union

import numpy as np

from . import _fastpath, _tables
from .controller import (ControllerConstants, ControllerParams,
                         ControllerState, controller_step, whole_steps)
from .errors import ConfigurationError, SimulationAbort, finite_escape, real
from .plant import CascadePlant

logger = logging.getLogger(__name__)

BACKENDS = ("auto", "python")


@dataclass(frozen=True)
class SimConfig:
    """Integration setup for one run, checked when built: the horizon is
    a whole number of steps, which ``log_stride`` divides.

    ``plant_eta`` is the time-scale separation factor of the LTI block
    (see module docstring); ``None`` selects the controller's eta.
    ``v0`` is a vector, ``None`` (zeros) or ``"quasi_steady"``, which
    solves B v0 = -A x0 to start on the quasi-steady manifold of x0.
    """

    dt: float
    horizon: float
    x0: np.ndarray
    v0: Union[np.ndarray, str, None] = None
    log_stride: int = 1
    plant_eta: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < real(self.dt, "dt") < math.inf:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if not (real(self.horizon, "horizon") > self.dt):
            raise ConfigurationError(
                f"horizon ({self.horizon}) must exceed dt ({self.dt})")
        if self.log_stride < 1:
            raise ConfigurationError(
                f"log_stride must be >= 1, got {self.log_stride}")
        if self.n_steps % self.log_stride != 0:
            raise ConfigurationError(
                f"log_stride ({self.log_stride}) must divide the step count "
                f"({self.n_steps}) so the log stays uniform")
        if (self.plant_eta is not None
                and not 0.0 < real(self.plant_eta, "plant_eta") < math.inf):
            raise ConfigurationError(
                f"plant_eta must be finite and > 0, got {self.plant_eta}")
        object.__setattr__(self, "x0",
                           np.asarray(self.x0, dtype=float).reshape(-1))
        if isinstance(self.v0, str):
            if self.v0 != "quasi_steady":
                raise ConfigurationError(f"v0 must be a vector, None or "
                                         f"'quasi_steady', got {self.v0!r}")
        elif self.v0 is not None:
            object.__setattr__(self, "v0",
                               np.asarray(self.v0, dtype=float).reshape(-1))

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

    def columns(self) -> list[tuple[str, np.ndarray, str]]:
        """(name, values, %-format) of every CSV column, in file order."""
        g = "%.17g"
        cols = [("t", self.t, g)]
        for prefix, block in (("v", self.v), ("x", self.x), ("z", self.z)):
            cols += [(f"{prefix}{i+1}", c, g) for i, c in enumerate(block.T)]
        cols += [("y", self.y, g), ("y_m", self.y_m, g), ("e", self.e, g),
                 ("s", self.s, g)]
        cols += [(f"u{i+1}", c, g) for i, c in enumerate(self.u.T)]
        return cols + [("dir", self.dir_index, "%d"), ("rho", self.rho, g)]

    @property
    def all_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(values)))
                   for _, values, _ in self.columns())

    def column_header(self) -> list[str]:
        return [name for name, _, _ in self.columns()]

    def to_csv(self, path, *tables: _tables.Table) -> None:
        """Write the log as CSV, 17 significant digits, in the order of
        ``columns``.

        Further ``tables`` over the same rows are written in the same
        pass, so a value they share with the CSV at the same format is
        turned into text once.
        """
        columns = self.columns()
        _tables.write_tables([_tables.Table(
            path, ",".join(name for name, _, _ in columns),
            [(values, fmt) for _, values, fmt in columns], delimiter=","),
            *tables])


def resolve_v0(plant: CascadePlant, config: SimConfig) -> np.ndarray:
    """The start value of v for a run of ``config`` on ``plant``: the
    set-up checks that need the plant, of x0 and v0 against its
    dimensions (ConfigurationError naming the field)."""
    if config.x0.shape != (plant.lti.n,):
        raise ConfigurationError(
            f"x0 must have dimension {plant.lti.n}, got {config.x0.shape}")
    if config.v0 is None:
        return np.zeros(plant.lti.m)
    if isinstance(config.v0, str):  # "quasi_steady"
        # B v0 = -A x0 puts x0 on the quasi-steady manifold
        if plant.lti.B.shape[0] != plant.lti.B.shape[1]:
            raise ConfigurationError("v0 'quasi_steady' needs a square B, "
                                     f"got shape {plant.lti.B.shape}")
        try:
            return np.linalg.solve(plant.lti.B, -(plant.lti.A @ config.x0))
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(f"v0 'quasi_steady': singular B ({exc})")
    if config.v0.shape != (plant.lti.m,):
        raise ConfigurationError(
            f"v0 must have dimension {plant.lti.m}, got {config.v0.shape}")
    return config.v0


def dt_guard_limit(plant: CascadePlant, constants: ControllerConstants,
                   plant_eta: float) -> float:
    """Largest step the resolution guard accepts, for the controller
    record ``constants`` (only its rho and epsilon_sw are read).

    Two requirements: (a) explicit Euler must be stable on the
    time-scaled LTI block, with a factor-2 margin on the exact bound
    2|Re l|/|l|^2 per eigenvalue; (b) near the extremum the relay band
    epsilon_sw must be crossed in many steps, bounded through the gain
    magnitude k_hat attainable on the vicinity box of half-width
    sqrt(epsilon_sw) around the maximizer.  Nothing outside that box is
    guarded: far from it the relay may jump bands within a step, and at
    a step the guard accepts that can change where a run ends, not only
    its transient chatter.  coupled_bowl from x0 = (2.5, 7.94), v0 =
    (5.51, -5.5) with plant_eta = 0.002 ends its 1500 s horizon at y =
    -18.88 with dt = 5e-4, the guard's limit, and at 1.96 (y* = 2) with
    dt = 2.5e-4.
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
        backend: str = "auto", dt_guard: bool = True) -> Trajectory:
    """Run the closed loop over [0, horizon] and return the full log.

    ``backend`` is one of BACKENDS: ``python`` is the reference loop;
    ``auto`` runs the chunked numpy kernel of :mod:`._fastpath`.  The
    backend asked for and the one used are logged at INFO level.
    The search runs one direction per plant input, n_dirs = m.  Before
    any work, ``resolve_v0`` checks the start against the plant and
    ``params.resolve(dt, m)`` checks that each direction's
    ``controller.T_s / n_dirs`` is a whole number of steps
    (ConfigurationError otherwise), as scenario load does.  Both loops
    and the dt guard read the controller through that one record.
    Deterministic: identical inputs on one backend produce bit-identical
    trajectories.
    Aborts (raises SimulationAbort) on non-finite signals and on a dt
    violating the resolution guard unless ``dt_guard`` is off.  A failed
    hypothesis check is logged as a warning, not raised: only H3 can
    fail, and only on a plant built with ``allow_unstable=True``, which
    is the opt-in.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(f"backend must be one of {BACKENDS}")
    v0 = resolve_v0(plant, config)
    constants = params.resolve(config.dt, plant.lti.m)

    report = plant.check_hypotheses(L_h=params.L_h)
    if not report.ok:
        logger.warning("HYPOTHESIS CHECK OVERRIDDEN, running anyway: %s",
                       "; ".join(f"{c.name}: {c.detail}"
                                 for c in report.failures()))

    plant_eta = params.eta if config.plant_eta is None else config.plant_eta
    limit = dt_guard_limit(plant, constants, plant_eta)
    if config.dt > limit:
        msg = (f"dt={config.dt:g} exceeds the resolution guard limit "
               f"{limit:.3g} (Euler stability / relay band resolution)")
        if dt_guard:
            raise SimulationAbort(msg + "; rerun with the guard off to force")
        logger.warning("DT GUARD OVERRIDDEN: %s", msg)

    used = "chunked" if backend == "auto" else backend
    logger.info("backend: requested %s, used %s", backend, used)
    # looked up at call time, so the kernel can be wrapped from outside
    loop = _run_python if used == "python" else _fastpath.run_chunked
    t, v, x, z, y, y_m, e, s, u, dir_index = loop(plant, constants, config,
                                                  v0, plant_eta)
    plant.v = v[-1]
    plant.x = x[-1]
    return Trajectory(t, v, x, z, y, y_m, e, s, u, dir_index,
                      np.full(t.size, constants.rho))


def _run_python(plant, constants, config, v0, plant_eta):
    """The reference loop, built from ``controller_step`` and the plant,
    which it moves through the run; returns the logged columns (t, v, x,
    z, y, y_m, e, s, u, dir).

    The Euler update is simultaneous: x advances with the pre-update v,
    v += dt*u and x += (dt/plant_eta)*(A x + B v).
    """
    n_steps, stride, dt = config.n_steps, config.log_stride, config.dt
    n_rec = n_steps // stride + 1
    m, n = plant.lti.m, plant.lti.n

    t_log, y_log, ym_log, e_log, s_log = np.empty((5, n_rec))
    v_log, u_log = np.empty((2, n_rec, m))
    x_log, z_log = np.empty((2, n_rec, n))
    dir_log = np.empty(n_rec, dtype=np.int64)

    plant.v = v0.copy()
    plant.x = config.x0.copy()
    state = ControllerState.initial(constants)
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
                    raise finite_escape(k, dt)
    return (t_log, v_log, x_log, z_log, y_log, ym_log, e_log, s_log, u_log,
            dir_log)
