"""Built-in verification suites: oracle checks, scenario convergence
checks, and the residual-scaling sweep.

These back the ``verify`` CLI command and the acceptance test module.
Sampling in the oracle suite uses a fixed seed so results are
reproducible; the simulation loop itself contains no randomness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (SLIDING_MIN_STEPS, convergence_metrics,
                       fd_gradient_oracle, residual_bound_check)
from .controller import (ControllerParams, ControllerState, control_law,
                         controller_step, cyclic_direction, direction_index,
                         reference_step, sliding_variable_step)
from .scenario import Scenario, load_builtin, with_overrides
from .sim import run

ORACLE_SEED = 20240811
SCENARIO_NAMES = ("coupled_bowl", "coupled_bowl_ic2")
MEAN_TOL = 0.3
FINAL_Z_TOL = 0.5
SWEEP_BASE = "residual_sweep"
SWEEP_ETAS = (0.01, 0.04, 0.09)
CONSTANT_SPREAD_LIMIT = 3.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


def _timed(name: str, passed: bool, detail: str, started: float) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def oracle_suite(scenario: Optional[Scenario] = None,
                 draws: int = 1000) -> list[CheckResult]:
    """Gradient/steady-state oracles plus controller invariants.

    The two numeric oracles each check a table of 100 random inputs in
    one call; the controller invariants are property-checked over
    ``draws`` random parameter draws.
    """
    if scenario is None:
        scenario = load_builtin("coupled_bowl")
    plant = scenario.build_plant()
    rng = np.random.default_rng(ORACLE_SEED)
    results: list[CheckResult] = []

    t0 = time.perf_counter()
    v = rng.uniform(-5.0, 5.0, (100, plant.lti.m))
    analytic = plant.high_freq_gain(plant.lti.steady_state_output(v))
    brute = fd_gradient_oracle(plant, v)
    scale = np.maximum(1.0, np.linalg.norm(analytic, axis=-1))
    worst = float(np.max(np.linalg.norm(analytic - brute, axis=-1) / scale))
    results.append(_timed(
        "gain_matches_fd_oracle", worst <= 1e-6,
        f"max relative deviation {worst:.3e} (tol 1e-6, 100 points)", t0))

    t0 = time.perf_counter()
    v = rng.uniform(-5.0, 5.0, (100, plant.lti.m))
    x_ss = plant.lti.quasi_steady_state(v)[..., None]
    residual = np.linalg.norm(
        (plant.lti.A @ x_ss + plant.lti.B @ v[..., None])[..., 0], axis=-1)
    worst = float(np.max(residual / (1.0 + np.linalg.norm(v, axis=-1))))
    results.append(_timed(
        "steady_state_residual", worst <= 1e-10,
        f"max scaled residual {worst:.3e} (tol 1e-10, 100 points)", t0))

    t0 = time.perf_counter()
    ok, detail = _controller_invariants(rng, draws)
    results.append(_timed(f"controller_invariants_{draws}_draws", ok, detail, t0))
    return results


def _invariant_tables(rng: np.random.Generator, draws: int) -> tuple:
    """The random inputs of ``draws`` invariant draws, one array per
    input with a row per draw, drawn from ``rng`` in this order: the
    nine parameter uniforms ``(draws, 9)``, ``n_dirs`` in 1..5,
    ``sub_steps`` in 1..64, the step ``k`` in ``[0, 3 * n_dirs *
    sub_steps)``, the sliding value ``s``, the 20 reference steps
    ``(draws, 20)`` and the 20 ``(dt, e)`` pairs ``(draws, 20, 2)``."""
    # (low, high) of the parameter uniforms, in column order; T_s gives
    # each direction a whole number of steps dt
    low, high = np.array([(-2.0, 2.0),     # p0
                          (0.05, 5.0),     # p
                          (-1.0, 3.0),     # y_sat - p0
                          (0.1, 10.0),     # lambda
                          (1e-3, 0.5),     # epsilon_sw
                          (1e-3, 1.0),     # gamma
                          (1e-2, 2.0),     # L_h
                          (1e-4, 1.0),     # eta
                          (1e-4, 0.1)]).T  # dt
    params = rng.uniform(low, high, (draws, 9))
    n_dirs = rng.integers(1, 6, draws)
    sub_steps = rng.integers(1, 65, draws)
    k = rng.integers(0, 3 * n_dirs * sub_steps)
    s = rng.uniform(-50.0, 50.0, draws)
    ramp = rng.uniform(1e-4, 1.0, (draws, 20))
    sliding = rng.uniform((1e-4, -5.0), (0.5, 5.0), (draws, 20, 2))
    return params, n_dirs, sub_steps, k, s, ramp, sliding


def _controller_invariants(rng: np.random.Generator,
                           draws: int) -> tuple[bool, str]:
    # the tables stay arrays, converted a row per draw: as Python lists
    # they would hold several MB
    rows = zip(*_invariant_tables(rng, draws))
    for i, (row, n_dirs, sub_steps, k, s, ramp, sliding) in enumerate(rows):
        p0, p, sat_offset, lam, epsilon_sw, gamma, L_h, eta, dt = row.tolist()
        n_dirs, sub_steps, k, s = int(n_dirs), int(sub_steps), int(k), float(s)
        params = ControllerParams(
            p=p, p0=p0, y_sat=max(p0, p0 + sat_offset), lam=lam,
            epsilon_sw=epsilon_sw, gamma=gamma, L_h=L_h, eta=eta,
            T_s=sub_steps * n_dirs * dt,
        )
        constants = params.resolve(dt, n_dirs)
        p_eff, lambda_eff, rho = (constants.p_eff, constants.lambda_eff,
                                  constants.rho)

        # modulation dominates the scaled disturbance bound
        floor = params.eta * ((params.p + params.lam) / params.L_h + params.gamma)
        if rho < floor - 1e-12:
            return False, f"draw {i}: rho {rho} below bound {floor}"

        # scheduler: whole steps per direction, periodicity, and an equal
        # share of every step of one period
        if constants.sub_steps != sub_steps:
            return False, f"draw {i}: T_s does not give {sub_steps} steps"
        period = n_dirs * sub_steps
        idx, sigma = cyclic_direction(k, sub_steps, n_dirs)
        idx2, sigma2 = cyclic_direction(k + period, sub_steps, n_dirs)
        if idx != idx2 or not np.array_equal(sigma, sigma2):
            return False, f"draw {i}: scheduler not periodic at k={k}"
        counts = np.bincount(
            direction_index(np.arange(period), sub_steps, n_dirs),
            minlength=n_dirs)
        if not np.all(counts == sub_steps):
            return False, f"draw {i}: direction shares {counts} not equal"

        # control law: exactly one nonzero entry of magnitude rho
        u = control_law(rho, sigma, s, params.epsilon_sw)
        nonzero = np.nonzero(u)[0]
        if nonzero.size != 1 or not math.isclose(abs(u[nonzero[0]]), rho,
                                                 rel_tol=1e-15):
            return False, f"draw {i}: u={u} not a single +-rho component"

        # reference: monotone nondecreasing and never above saturation
        state = ControllerState.initial(constants)
        prev = state.y_m
        for dt in ramp.tolist():
            ym = reference_step(state, p_eff, params.y_sat, dt)
            if ym < prev - 1e-15 or ym > params.y_sat + 1e-15:
                return False, f"draw {i}: reference not monotone/saturated"
            prev = ym

        # sliding variable: |s - e| bounded by the accumulated gain*time
        state = ControllerState.initial(constants)
        acc = 0.0
        for dt, e in sliding.tolist():
            s_val = sliding_variable_step(state, e, lambda_eff, dt)
            acc += dt
            if abs(s_val - e) > lambda_eff * acc + 1e-12:
                return False, f"draw {i}: |s-e| exceeds lambda_eff*t"
    return True, f"all invariants held over {draws} draws"


def composition_check(draws: int = 200) -> CheckResult:
    """controller_step equals the four sub-operations called in order."""
    rng = np.random.default_rng(ORACLE_SEED + 1)
    t0 = time.perf_counter()
    # every draw's inputs up front, a row per draw: the nine uniforms
    # with these (low, high), then n_dirs, sub_steps and the state's k
    low, high = np.array([(1e-4, 0.5),      # dt
                          (0.05, 5.0),      # p
                          (0.5, 5.0),       # y_sat
                          (0.1, 10.0),      # lambda
                          (1e-3, 0.5),      # epsilon_sw
                          (1e-3, 1.0),      # eta
                          (-1.0, 1.0),      # y_m
                          (-1.0, 1.0),      # s_int
                          (-30.0, 30.0)]).T  # y
    uniforms = rng.uniform(low, high, (draws, 9))
    n_dirs_all = rng.integers(1, 5, draws)
    sub_steps_all = rng.integers(1, 200, draws)
    k_all = rng.integers(0, 10**6, draws)
    rows = zip(uniforms, n_dirs_all, sub_steps_all, k_all)
    for i, (row, n_dirs, sub_steps, k) in enumerate(rows):
        dt, p, y_sat, lam, epsilon_sw, eta, y_m, s_int, y = row.tolist()
        n_dirs, sub_steps = int(n_dirs), int(sub_steps)
        params = ControllerParams(
            p=p, p0=0.0, y_sat=y_sat, lam=lam, epsilon_sw=epsilon_sw,
            gamma=0.1, L_h=0.1, eta=eta, T_s=sub_steps * n_dirs * dt)
        state_a = ControllerState(y_m=y_m, s_int=s_int, k=int(k))
        state_b = ControllerState(state_a.y_m, state_a.s_int, state_a.k)

        constants = params.resolve(dt, n_dirs)
        u, tel = controller_step(constants, state_a, y, dt)

        p_eff, lambda_eff, rho = (constants.p_eff, constants.lambda_eff,
                                  constants.rho)
        e = y - state_b.y_m
        s = sliding_variable_step(state_b, e, lambda_eff, dt)
        idx, sigma = cyclic_direction(state_b.k, sub_steps, n_dirs)
        u_manual = control_law(rho, sigma, s, params.epsilon_sw)
        reference_step(state_b, p_eff, params.y_sat, dt)
        state_b.k += 1

        same = (np.array_equal(u, u_manual) and tel.e == e and tel.s == s
                and tel.dir_index == idx and state_a.y_m == state_b.y_m
                and state_a.k == state_b.k and state_a.s_int == state_b.s_int)
        if not same:
            return _timed("controller_step_composition", False,
                          f"draw {i}: composition mismatch", t0)
    return _timed("controller_step_composition", True,
                  f"exact over {draws} draws", t0)


def _run_scenario(scenario: Scenario):
    """One run of ``scenario``, its metrics and its residual bound at the
    plant_eta the run took."""
    plant = scenario.build_plant()
    traj = run(plant, scenario.controller, scenario.sim)
    controller = scenario.controller
    metrics = convergence_metrics(
        traj, plant.map.z_star, plant.map.y_star,
        epsilon_sw=controller.epsilon_sw, dt=scenario.sim.dt,
        params=scenario.analysis)
    bound = residual_bound_check(
        metrics, scenario.sim.resolved_plant_eta(controller.eta),
        controller.epsilon_sw, scenario.analysis.c_bound)
    return traj, metrics, bound, plant


def _bound_detail(bound) -> str:
    """The detail line of a residual-bound check, in both suites."""
    return (f"residual_amp={bound.residual_amp:.4f} <= {bound.bound:.4f}, "
            f"implied constant {bound.implied_constant:.3f}")


def scenario_suite() -> list[CheckResult]:
    """Convergence, sliding evidence, boundedness and step-halving
    agreement for the shipped scenarios SCENARIO_NAMES."""
    results: list[CheckResult] = []
    for name in SCENARIO_NAMES:
        scenario = load_builtin(name)
        t0 = time.perf_counter()
        traj, metrics, bound, plant = _run_scenario(scenario)
        final_z = float(np.linalg.norm(traj.z[-1] - plant.map.z_star))
        mean_dev = metrics.mean_residual
        results.append(_timed(
            f"{name}_converges",
            mean_dev <= MEAN_TOL and final_z <= FINAL_Z_TOL,
            f"trailing mean |y-y*|={mean_dev:.4f} (tol {MEAN_TOL}), "
            f"final |z-z*|={final_z:.4f} (tol {FINAL_Z_TOL})", t0))

        t0 = time.perf_counter()
        # detect_sliding kept only segments of at least SLIDING_MIN_STEPS steps
        before = [seg for seg in metrics.sliding_segments
                  if metrics.t_reach_delta is not None
                  and seg.t_end <= metrics.t_reach_delta]
        results.append(_timed(
            f"{name}_sliding_evidence",
            metrics.t_reach_delta is not None and len(before) > 0,
            f"t_reach_delta={metrics.t_reach_delta}, "
            f"{len(before)} segments of >={SLIDING_MIN_STEPS}*dt before it",
            t0))

        t0 = time.perf_counter()
        results.append(_timed(f"{name}_residual_bound", bound.passed,
                              _bound_detail(bound), t0))

        t0 = time.perf_counter()
        # the step halved, logging the same times
        halved = with_overrides(scenario, {
            "sim.dt": repr(scenario.sim.dt / 2.0),
            "sim.log_stride": str(2 * scenario.sim.log_stride)})
        traj_half, metrics_half, _, _ = _run_scenario(halved)
        y_diff = abs(traj_half.y[-1] - traj.y[-1])
        y_allow = max(metrics.residual_amp, metrics_half.residual_amp)
        z_diff = float(np.linalg.norm(traj_half.z[-1] - traj.z[-1]))
        tail = scenario.analysis.trailing_samples(len(traj))
        z_allow = max(
            float(np.linalg.norm(t.z[-tail:] - plant.map.z_star,
                                 axis=1).max())
            for t in (traj, traj_half))
        results.append(_timed(
            f"{name}_dt_halving",
            traj.all_finite and traj_half.all_finite
            and y_diff <= y_allow and z_diff <= z_allow,
            f"final (y, z) differences ({y_diff:.4f}, {z_diff:.4f}) within "
            f"residual amplitudes ({y_allow:.4f}, {z_allow:.4f}); "
            "all signals finite", t0))
    return results


def sweep_suite() -> list[CheckResult]:
    """Residual-scaling law over the parasitic time scale of the LTI
    block, SWEEP_ETAS on the SWEEP_BASE scenario: each run must satisfy
    the residual bound and the implied constants must agree within a
    fixed spread."""
    base = load_builtin(SWEEP_BASE)
    results: list[CheckResult] = []
    constants = []
    for eta in SWEEP_ETAS:
        t0 = time.perf_counter()
        scenario = with_overrides(base, {"sim.plant_eta": repr(eta)})
        _, _, bound, _ = _run_scenario(scenario)
        constants.append(bound.implied_constant)
        results.append(_timed(f"residual_bound_eta_{eta:g}", bound.passed,
                              _bound_detail(bound), t0))
    t0 = time.perf_counter()
    spread = max(constants) / min(constants) if min(constants) > 0 else math.inf
    results.append(_timed(
        "implied_constant_spread", spread < CONSTANT_SPREAD_LIMIT,
        f"constants {['%.3f' % c for c in constants]}, spread "
        f"{spread:.2f} < {CONSTANT_SPREAD_LIMIT}", t0))
    return results
