"""Closed-loop integration semantics, determinism, guards, backends."""

import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slidingesc import (CascadePlant, ConfigurationError, ControllerParams,
                        ControllerState, LtiSubsystem, QuadraticMap,
                        SimConfig, SimulationAbort, _fastpath, dt_guard_limit,
                        run)
from slidingesc.controller import controller_step
from slidingesc.scenario import (builtin_scenario_dict, load_builtin,
                                 scenario_from_dict, with_overrides)
from slidingesc import sim as sim_module
from slidingesc.sim import BACKENDS

from test_controller import make_params


def guard_limit(plant, params, plant_eta) -> float:
    """``dt_guard_limit`` before a run's step is chosen: the gains it
    reads do not depend on the step or the search schedule."""
    return dt_guard_limit(plant, params.resolve(1e-3, 1), plant_eta)


def beyond_euler(growth, h=1.0, C=None) -> LtiSubsystem:
    """A stable block that escapes under Euler steps of h = dt/plant_eta
    (1 at dt 0.01 and the controller's eta 0.01):
    A = -(growth + 2/h) I is Hurwitz, and each step multiplies x by
    -(1 + h growth), as the unstable block growth I would by 1 + h growth.
    Only a run with ``dt_guard`` off takes such a step."""
    return LtiSubsystem(-(growth + 2.0 / h) * np.eye(2), np.eye(2), C)


def short_config(**overrides) -> SimConfig:
    base = dict(dt=1e-3, horizon=2.0, x0=np.zeros(2), v0=np.zeros(2),
                log_stride=1)
    base.update(overrides)
    return SimConfig(**base)


HUGE = 10**400
# a constructor call, by the field it passes an integer beyond the
# float range
BEYOND_FLOAT_RANGE = {
    "y_star": lambda: QuadraticMap(HUGE, [0.0, 0.0], -np.eye(2)),
    "z_star": lambda: QuadraticMap(2.0, [HUGE, 0.0], -np.eye(2)),
    "coupling": lambda: QuadraticMap.from_coupling(HUGE),
    "p": lambda: make_params(p=HUGE),
    "p0": lambda: make_params(p0=HUGE),
    "lambda": lambda: make_params(lam=HUGE),
    "T_s": lambda: make_params(T_s=HUGE),
    "y_sat": lambda: make_params(y_sat=HUGE),
    "dt": lambda: short_config(dt=HUGE),
    "horizon": lambda: short_config(horizon=HUGE),
    "plant_eta": lambda: short_config(plant_eta=HUGE),
    "log_stride": lambda: short_config(log_stride=HUGE),
}


class TestStep:
    """Steps of the reference loop (``backend="python"``)."""

    def test_single_step_hand_values(self, benchmark_plant):
        # rigged so the relay emits +rho e1: e = 0 -> s = 0 -> sign +1, dir 1
        y0 = benchmark_plant.map.eval(np.array([-2.0, 4.0]))
        params = make_params(p0=y0)  # e = 0 at contact
        # a horizon must exceed one step; row 1 is the state after one
        config = short_config(x0=[-2.0, 4.0], horizon=2e-3, plant_eta=1.0)
        traj = run(benchmark_plant, params, config, backend="python")
        rho = params.resolve(1e-3, 2).rho
        assert np.allclose(traj.u[0], [rho, 0.0])
        # v += dt*u ; x += dt*(A x + B v) with the pre-update v
        assert np.allclose(traj.v[1], [1e-3 * rho, 0.0])
        assert np.allclose(traj.x[1], [-1.996, 4.0])

    def test_equilibrium_stays_put(self, benchmark_plant):
        params = make_params(p0=2.0, y_sat=2.0)  # reference parked at y*
        traj = run(benchmark_plant, params,
                   short_config(horizon=50e-3, plant_eta=1.0),
                   backend="python")
        # relay dithers v but x cannot outrun it; state remains tiny
        assert np.linalg.norm(traj.x[-1]) < 0.1

    def test_hurwitz_decay_under_zero_gain(self, benchmark_lti, benchmark_map):
        # with u forced to 0 the map plays no part; x decays freely
        plant = CascadePlant(benchmark_lti, benchmark_map)
        plant.x = [-2.0, 4.0]
        constants = make_params(p0=0.0, y_sat=0.0).resolve(1e-3, 2)
        state = ControllerState.initial(constants)
        norms = [np.linalg.norm(plant.x)]
        for _ in range(6000):
            u, _ = controller_step(constants, state, plant.y, 1e-3)
            dv, dx = plant.derivative(np.zeros(2))  # open loop: u forced to 0
            plant.x = plant.x + 1e-3 * dx
            norms.append(np.linalg.norm(plant.x))
        assert norms[-1] < 1e-2 * norms[0]


class TestRunBookkeeping:
    def test_sample_count(self, benchmark_plant, benchmark_params):
        traj = run(benchmark_plant, benchmark_params,
                   short_config(horizon=0.01, dt=0.001))
        assert len(traj) == 11
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.01)

    def test_time_strictly_increasing_uniform(self, benchmark_plant, benchmark_params):
        traj = run(benchmark_plant, benchmark_params, short_config(log_stride=5))
        diffs = np.diff(traj.t)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, 5e-3)

    def test_stride_must_divide(self):
        # refused when the config is built, before any plant is seen
        with pytest.raises(ConfigurationError, match="^log_stride"):
            short_config(log_stride=3)

    @pytest.mark.parametrize("stride", [2.5, True, "10", math.nan])
    def test_stride_must_be_whole(self, stride):
        with pytest.raises(ConfigurationError, match="^log_stride must be"):
            short_config(log_stride=stride)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integral_float_stride_taken_as_int(self, benchmark_plant,
                                                benchmark_params, backend):
        config = short_config(log_stride=10.0)
        assert type(config.log_stride) is int and config.log_stride == 10
        traj = run(benchmark_plant, benchmark_params, config, backend=backend)
        assert len(traj) == 2000 // 10 + 1

    def test_config_is_frozen(self):
        # run trusts the checks made when the config was built
        with pytest.raises(dataclasses.FrozenInstanceError):
            short_config().log_stride = 3

    @pytest.mark.parametrize("dt_guard", ["off", 0, 1, None])
    def test_dt_guard_must_be_a_bool(self, dt_guard):
        # "off" would keep the guard on and 0 turn it off; a document
        # refuses both with the same words
        with pytest.raises(ConfigurationError, match=re.escape(
                f"dt_guard: expected true or false, got {dt_guard!r}")):
            short_config(dt_guard=dt_guard)
        assert short_config(dt_guard=False).dt_guard is False

    @pytest.mark.parametrize("plant_eta", [0.0, -1.0, math.inf, math.nan])
    def test_plant_eta_must_be_finite_and_positive(self, plant_eta):
        # at plant_eta = inf the plant would never move, and nothing
        # but a numpy warning would say so
        with pytest.raises(ConfigurationError, match=r"^plant_eta( must be "
                           r"> 0|: expected a finite number)"):
            short_config(plant_eta=plant_eta)

    @pytest.mark.parametrize("field, value, shown", [
        ("x0", [math.nan, 0.0], "nan"), ("v0", [math.inf, 1.0], "inf")])
    def test_start_state_must_be_finite(self, field, value, shown):
        # refused when built, naming the element, not by either loop's
        # finite-escape abort at step 0
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{field}[0]: expected a finite "
                                           f"number, got {shown}")):
            short_config(**{field: value})

    @pytest.mark.parametrize("field", BEYOND_FLOAT_RANGE)
    def test_integer_beyond_float_range_names_field(self, field):
        # an integer too large for a float is refused by the constructor,
        # not by an OverflowError wherever it is first used; a stride
        # that is not a float's whole number is refused as not whole
        message = (rf"^{field}(\[0\])?: expected a finite number"
                   if field != "log_stride"
                   else "^log_stride must be an integer")
        with pytest.raises(ConfigurationError, match=message):
            BEYOND_FLOAT_RANGE[field]()

    def test_horizon_must_be_integer_steps(self):
        with pytest.raises(ConfigurationError, match="^horizon .* integer"):
            short_config(horizon=0.0105)

    def test_search_sub_interval_must_be_integer_steps(self, benchmark_plant):
        params = make_params(T_s=5.0001)
        with pytest.raises(ConfigurationError, match="T_s"):
            run(benchmark_plant, params, short_config())

    def test_controller_constants_resolved_once(self, benchmark_plant,
                                                benchmark_params, monkeypatch):
        # the reference loop reads one record of the run's constants,
        # worked out once for the plant's input count whatever the step
        # count, and the dt guard reads the same record
        calls = []
        real = ControllerParams.resolve

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(ControllerParams, "resolve", counted)
        guarded = []
        real_guard = sim_module.dt_guard_limit

        def guard(plant, constants, plant_eta):
            guarded.append(constants)
            return real_guard(plant, constants, plant_eta)

        monkeypatch.setattr(sim_module, "dt_guard_limit", guard)
        for horizon in (0.2, 2.0):      # 200 and 2000 steps
            calls.clear()
            run(benchmark_plant, benchmark_params,
                short_config(horizon=horizon), backend="python")
            assert calls == [(1e-3, 2)]
        assert guarded == [benchmark_params.resolve(1e-3, 2)] * 2

    def test_one_direction_per_input(self, benchmark_lti, benchmark_map):
        # three inputs into the two-state block: 5 s of search gives each
        # direction 5/3 s, not a whole number of 1 ms steps
        lti = LtiSubsystem(benchmark_lti.A, np.ones((2, 3)))
        with pytest.raises(ConfigurationError, match="T_s / n_dirs"):
            run(CascadePlant(lti, benchmark_map), make_params(),
                short_config(v0=np.zeros(3)))
        traj = run(CascadePlant(lti, benchmark_map), make_params(T_s=6.0),
                   short_config(v0=np.zeros(3), horizon=6.0, log_stride=1))
        assert np.array_equal(traj.dir_index,
                              np.arange(len(traj)) % 6000 // 2000 + 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_direction_follows_step_counter(backend):
    # the benchmark's schedule, 2500 steps per direction, past the steps
    # 2500, 10000 and 12500 where a clock summed from dt falls short of
    # the sub-interval's start
    doc = builtin_scenario_dict("coupled_bowl")
    doc["sim"].update(horizon=12.6, log_stride=1)
    sc = scenario_from_dict(doc)
    traj = run(sc.build_plant(), sc.controller, sc.sim, backend=backend)
    k = np.arange(len(traj))
    assert len(traj) == 12601
    assert np.array_equal(traj.dir_index, k % 5000 // 2500 + 1)


class TestDeterminismAndBackends:
    def test_bit_identical_repeat(self, benchmark_params, benchmark_lti, benchmark_map):
        # the reference loop; TestChunkedBackend reruns the chunked kernel
        runs = []
        for _ in range(2):
            plant = CascadePlant(benchmark_lti, benchmark_map)
            runs.append(run(plant, benchmark_params,
                            short_config(x0=[-2.0, 4.0], v0=[0.5, 1.0]),
                            backend="python"))
        assert_same_trajectory(*runs)


def assert_same_trajectory(first, second) -> None:
    for name in ("t", "v", "x", "z", "y", "y_m", "s", "u", "dir_index"):
        assert np.array_equal(getattr(first, name),
                              getattr(second, name)), name


def assert_chunked_agrees(reference, chunked) -> None:
    """What "chunked agrees with python" means: the clock, reference,
    control and direction logs are identical; the states and the
    signals computed from them agree to rounding (the predicted chunk
    states are not formed step by step)."""
    for name in ("t", "y_m", "u", "dir_index"):
        assert np.array_equal(getattr(reference, name),
                              getattr(chunked, name)), name
    for name in ("v", "x", "z", "y", "s"):
        np.testing.assert_allclose(getattr(chunked, name),
                                   getattr(reference, name),
                                   rtol=0.0, atol=1e-9, err_msg=name)


def matrices(rows, cols, bound=1.0):
    return hnp.arrays(np.float64, (rows, cols),
                      elements=st.floats(-bound, bound))


@st.composite
def closed_loops(draw, sub_steps):
    """A stable plant with n, m in 1..3, a concave quadratic map, a
    controller whose search sub-interval lasts ``sub_steps`` steps, and
    a run, which may be shorter than the shortest chunk."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n_steps = draw(st.sampled_from([2, 9, _fastpath.CHUNK_MIN - 1, 600, 1500]))
    stride = draw(st.sampled_from([d for d in range(1, 8) if n_steps % d == 0]))
    root, skew = draw(matrices(n, n)), draw(matrices(n, n))
    A = (-(root @ root.T) / n - draw(st.floats(0.5, 3.0)) * np.eye(n)
         + 0.5 * (skew - skew.T))
    lti = LtiSubsystem(A, draw(matrices(n, m)),
                       np.eye(n) + 0.2 * draw(matrices(n, n)))
    root = draw(matrices(n, n))
    qmap = QuadraticMap(draw(st.floats(0.0, 3.0)),
                        draw(matrices(1, n, 2.0))[0],
                        -(root @ root.T + 0.5 * np.eye(n)))
    # a reference below its saturation ramps; one that starts at it
    # (p0 = y_sat) holds from step 0
    y_sat = draw(st.sampled_from([3.0, None]))
    p0 = -2.0 if y_sat is None else draw(st.sampled_from([-2.0, y_sat]))
    params = make_params(p0=p0, y_sat=y_sat, eta=draw(st.floats(0.05, 1.0)),
                         epsilon_sw=draw(st.floats(0.01, 0.2)))
    dt = min(1e-3, 0.9 * guard_limit(CascadePlant(lti, qmap), params,
                                      params.eta))
    params = dataclasses.replace(params, T_s=sub_steps * m * dt)
    config = SimConfig(dt=dt, horizon=n_steps * dt,
                       x0=draw(matrices(1, n, 3.0))[0],
                       v0=draw(matrices(1, m))[0], log_stride=stride)
    return lti, qmap, params, config


class TestChunkedBackend:
    """The numpy kernel (what ``auto`` runs) against the reference loop;
    its own reruns are bit-identical."""

    CONFIG = dict(x0=[-2.0, 4.0], v0=[0.5, 1.0], horizon=3.0)

    def _run(self, lti, qmap, params, backend):
        plant = CascadePlant(lti, qmap)
        return run(plant, params, short_config(**self.CONFIG), backend=backend)

    def test_agrees_with_python(self, benchmark_params, benchmark_lti,
                                benchmark_map):
        reference = self._run(benchmark_lti, benchmark_map, benchmark_params,
                              "python")
        chunked = self._run(benchmark_lti, benchmark_map, benchmark_params,
                            "auto")
        assert_chunked_agrees(reference, chunked)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_on_random_plants(self, seed):
        # n and m from 1 to 3, a general C, a log stride, and search
        # sub-intervals of 5 to CHUNK_MAX steps, which end inside chunks
        # that would otherwise have run on
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(1, 4, size=2))
        skew = rng.normal(size=(n, n))
        lti = LtiSubsystem(-rng.uniform(0.5, 3.0) * np.eye(n) + 0.5 * (skew - skew.T),
                           rng.normal(size=(n, m)),
                           np.eye(n) + 0.2 * rng.normal(size=(n, n)))
        root = rng.normal(size=(n, n))
        qmap = QuadraticMap(rng.uniform(0.0, 3.0), rng.normal(size=n),
                            -(root @ root.T + 0.5 * np.eye(n)))
        params = make_params(p0=-2.0, y_sat=3.0, eta=rng.uniform(0.05, 1.0),
                             epsilon_sw=rng.uniform(0.01, 0.2))
        dt = min(1e-3, 0.9 * guard_limit(CascadePlant(lti, qmap), params,
                                          params.eta))
        sub_steps = int(rng.integers(5, _fastpath.CHUNK_MAX + 1))
        params = dataclasses.replace(params, T_s=sub_steps * m * dt)
        config = SimConfig(dt=dt, horizon=2000 * dt, x0=2.0 * rng.normal(size=n),
                           v0=rng.normal(size=m), log_stride=5)
        reference = run(CascadePlant(lti, qmap), params, config,
                        backend="python")
        chunked = run(CascadePlant(lti, qmap), params, config, backend="auto")
        assert_chunked_agrees(reference, chunked)

    # a direction change ends the chunk it falls in: sub-intervals shorter
    # than the shortest chunk end every chunk, longer ones only some
    @pytest.mark.parametrize("sub_steps", [5, 300, 3000])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_on_drawn_loops(self, sub_steps, data):
        lti, qmap, params, config = data.draw(closed_loops(sub_steps))
        reference = run(CascadePlant(lti, qmap), params, config,
                        backend="python")
        chunked = run(CascadePlant(lti, qmap), params, config, backend="auto")
        assert_chunked_agrees(reference, chunked)

    def test_agrees_when_chunks_reach_their_cap(self):
        # hovering at the maximizer the relay holds for thousands of
        # steps, so the chunk length doubles up to CHUNK_MAX and a
        # whole CHUNK_MAX-step chunk is accepted
        doc = builtin_scenario_dict("residual_sweep")
        z_star = doc["plant"]["map"]["z_star"]
        doc["sim"].update(horizon=5.0, log_stride=1,
                          x0=[z_star[0] + 0.03, z_star[1] - 0.02])
        sc = scenario_from_dict(doc)
        reference = run(sc.build_plant(), sc.controller, sc.sim,
                        backend="python")
        changes = np.flatnonzero(np.any(np.diff(reference.u, axis=0) != 0, axis=1)
                                 | (np.diff(reference.dir_index) != 0))
        longest = np.diff(np.concatenate(([0], changes + 1, [len(reference)])))
        assert longest.max() >= 2 * _fastpath.CHUNK_MAX
        chunked = run(sc.build_plant(), sc.controller, sc.sim, backend="auto")
        assert_chunked_agrees(reference, chunked)

    @pytest.mark.parametrize("overrides", [
        {"controller.p0": "2.5"},   # y_sat: the reference starts saturated
        {"sim.v0": "null"}])        # v0 omitted: zeros
    def test_agrees_from_each_start(self, overrides):
        sc = with_overrides(load_builtin("coupled_bowl"), {
            "sim.horizon": "20", "sim.log_stride": "1", **overrides})
        reference = run(sc.build_plant(), sc.controller, sc.sim,
                        backend="python")
        chunked = run(sc.build_plant(), sc.controller, sc.sim, backend="auto")
        assert_chunked_agrees(reference, chunked)

    def test_bit_identical_repeat(self, benchmark_params, benchmark_lti,
                                  benchmark_map):
        first, second = (self._run(benchmark_lti, benchmark_map,
                                   benchmark_params, "auto")
                         for _ in range(2))
        assert_same_trajectory(first, second)

    # chunk boundaries: each chunk starts from the last row the chunk
    # before it accepted, and that row is logged with its own direction
    # and relay sign
    def _agrees_and_repeats(self, plant, params, config):
        reference = run(plant(), params, config, backend="python")
        first, second = (run(plant(), params, config, backend="auto")
                         for _ in range(2))
        assert_chunked_agrees(reference, first)
        assert_same_trajectory(first, second)
        return reference

    @pytest.mark.parametrize("sub_steps", [40, 300])
    def test_every_logged_row_starts_a_direction(self, benchmark_params,
                                                 benchmark_lti, benchmark_map,
                                                 sub_steps):
        # log_stride == sub_steps: every logged row after the first ends
        # a chunk at a direction change and must carry the new u and dir
        params = dataclasses.replace(benchmark_params,
                                     T_s=2 * sub_steps * 1e-3)
        config = short_config(x0=[-2.0, 4.0], v0=[0.5, 1.0], horizon=3.0,
                              log_stride=sub_steps)
        reference = self._agrees_and_repeats(
            lambda: CascadePlant(benchmark_lti, benchmark_map), params, config)
        assert np.array_equal(reference.dir_index,
                              np.arange(len(reference)) % 2 + 1)
        assert np.array_equal(np.nonzero(reference.u)[1] + 1,
                              reference.dir_index)

    def test_last_step_is_a_relay_flip(self, benchmark_params, benchmark_lti,
                                       benchmark_map):
        # the horizon ends on a step whose relay sign differs from the
        # step before it, within one direction
        plant = functools.partial(CascadePlant, benchmark_lti, benchmark_map)
        config = short_config(**self.CONFIG)
        full = run(plant(), benchmark_params, config, backend="python")
        flips = np.flatnonzero(np.any(full.u[1:] != full.u[:-1], axis=1)
                               & (full.dir_index[1:] == full.dir_index[:-1]))
        last = int(flips[flips >= _fastpath.CHUNK_MIN][0]) + 1
        config = short_config(**{**self.CONFIG, "horizon": last * 1e-3})
        reference = self._agrees_and_repeats(plant, benchmark_params, config)
        assert len(reference) == last + 1
        assert np.array_equal(reference.u[-1], -reference.u[-2])

    @pytest.mark.parametrize("log_stride", [1, 2])
    def test_two_step_horizon(self, benchmark_params, benchmark_lti,
                              benchmark_map, log_stride):
        # the shortest run: a single chunk of the two steps, which are
        # also the chunk cap
        config = short_config(x0=[-2.0, 4.0], v0=[0.5, 1.0], horizon=2e-3,
                              log_stride=log_stride)
        reference = self._agrees_and_repeats(
            lambda: CascadePlant(benchmark_lti, benchmark_map),
            benchmark_params, config)
        assert len(reference) == 2 // log_stride + 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leaves_plant_as_it_was(self, benchmark_params, benchmark_lti,
                                    benchmark_map, backend):
        # a finished run, and a run that escapes (A = -202 I, beyond
        # Euler's bound) and aborts, read the caller's plant and never
        # move it
        v, x = np.array([0.3, -0.2]), np.array([0.5, 0.7])
        plant = CascadePlant(benchmark_lti, benchmark_map)
        plant.v, plant.x = v, x
        traj = run(plant, benchmark_params, short_config(**self.CONFIG),
                   backend=backend)
        assert not np.array_equal(traj.x[-1], x)
        assert np.array_equal(plant.v, v) and np.array_equal(plant.x, x)

        plant = CascadePlant(beyond_euler(200.0), benchmark_map)
        plant.v, plant.x = v, x
        config = SimConfig(dt=1e-2, horizon=10.0, x0=[1.0, 1.0],
                           v0=[0.0, 0.0], log_stride=1, dt_guard=False)
        with pytest.raises(SimulationAbort, match="finite-escape"):
            run(plant, make_params(), config, backend=backend)
        assert np.array_equal(plant.v, v) and np.array_equal(plant.x, x)

class TestBackendChoiceLogged:
    def _choices(self, caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "slidingesc.sim" and r.levelname == "INFO"]

    def test_auto_on_quadratic_map(self, benchmark_plant, benchmark_params,
                                   caplog):
        with caplog.at_level("INFO", logger="slidingesc.sim"):
            run(benchmark_plant, benchmark_params, short_config(horizon=0.01))
        assert self._choices(caplog) == [
            "backend: requested auto, used chunked"]

    def test_named_backend(self, benchmark_plant, benchmark_params, caplog):
        with caplog.at_level("INFO", logger="slidingesc.sim"):
            run(benchmark_plant, benchmark_params, short_config(horizon=0.01),
                backend="python")
        assert self._choices(caplog) == ["backend: requested python, used python"]

    def test_unknown_backend_refused(self, benchmark_plant, benchmark_params):
        with pytest.raises(ConfigurationError,
                           match=r"backend must be one of \('auto', 'python'\)"):
            run(benchmark_plant, benchmark_params, short_config(horizon=0.01),
                backend="numba")


class TestGuards:
    def test_dt_guard_aborts(self, benchmark_plant, benchmark_params):
        limit = guard_limit(benchmark_plant, benchmark_params, 0.01)
        bad = short_config(dt=4 * limit, horizon=8 * limit, log_stride=1)
        with pytest.raises(SimulationAbort, match="resolution guard"):
            run(benchmark_plant, benchmark_params, bad)

    @pytest.mark.parametrize("plant_eta", [-0.01, 0.0, math.nan, math.inf,
                                           True])
    def test_dt_guard_limit_refuses_plant_eta(self, benchmark_plant,
                                              benchmark_params, plant_eta):
        # -0.01 would give the limit of +0.01; 0, NaN and inf only a
        # numpy warning
        with pytest.raises(ConfigurationError, match="^plant_eta[: ]"):
            guard_limit(benchmark_plant, benchmark_params, plant_eta)

    def test_run_checks_no_hypothesis(self, benchmark_plant,
                                      benchmark_params, monkeypatch):
        # a plant meets H3 and H4 when built, so a run asks for no report
        def refuse(*args, **kwargs):
            raise AssertionError("a run built a hypothesis report")

        monkeypatch.setattr(CascadePlant, "check_hypotheses", refuse)
        assert len(run(benchmark_plant, benchmark_params,
                       short_config(horizon=0.01))) == 11

    def test_dt_guard_override_runs(self, benchmark_plant, benchmark_params, caplog):
        limit = guard_limit(benchmark_plant, benchmark_params, 0.01)
        bad = SimConfig(dt=2.0 * limit, horizon=20 * limit, x0=np.zeros(2),
                        v0=np.zeros(2), log_stride=1, dt_guard=False)
        with caplog.at_level("WARNING"):
            run(benchmark_plant, benchmark_params, bad)
        warned = [r for r in caplog.records if "GUARD OVERRIDDEN" in r.message]
        assert len(warned) == 1  # once per run

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["auto", "python"])
    @pytest.mark.parametrize("growth", [200.0, 5.0])
    def test_finite_escape_detected(self, benchmark_map, growth, backend):
        # a stable block stepped beyond Euler's bound escapes within the
        # horizon; at growth 5 the output grows so large that the relay's
        # sine argument overflows
        plant = CascadePlant(beyond_euler(growth), benchmark_map)
        config = SimConfig(dt=1e-2, horizon=10.0, x0=[1.0, 1.0],
                           v0=[0.0, 0.0], log_stride=1, dt_guard=False)
        with pytest.raises(SimulationAbort, match="non-finite|finite-escape"):
            run(plant, make_params(), config, backend=backend)

    @staticmethod
    def _abort_time(lti, qmap, x0, **params):
        # the time the finite-escape abort names, after checking that
        # both backends abort with the same message, as they do when the
        # output or the relay argument overflows first
        messages = []
        for backend in ("auto", "python"):
            config = SimConfig(dt=1e-2, horizon=10.0, x0=x0, v0=[0.0, 0.0],
                               log_stride=1, dt_guard=False)
            with pytest.raises(SimulationAbort, match="finite-escape") as info:
                run(CascadePlant(lti, qmap), make_params(**params), config,
                    backend=backend)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        return float(re.search(r"t=([0-9.e+-]+)", messages[0]).group(1))

    @pytest.mark.parametrize("growth, t_fail", [(200.0, 0.67), (5.0, 1.97)])
    def test_finite_escape_names_the_step(self, benchmark_map, growth,
                                          t_fail):
        # both loops stop at the same step: at growth 200 the output turns
        # non-finite, at growth 5 the relay's sine argument overflows first
        assert self._abort_time(beyond_euler(growth), benchmark_map,
                                [1.0, 1.0]) == t_fail

    @pytest.mark.parametrize("c, steps", [
        (1e-170, {"auto": 646, "python": 641}),
        (1e-100, {"auto": 531, "python": 531})])
    def test_state_escape_names_each_loops_step(self, benchmark_map, c,
                                                steps):
        # with C = 1e-170 I the state overflows long before the output:
        # the reference loop forms A x = -400 x before scaling it by dt,
        # which overflows about log_3(133) = 4.5 steps before the kernel's
        # (I + h A) x = -3 x, so each loop names a step of its own; with
        # C = 1e-100 I the output overflows first, at the same step
        lti = beyond_euler(200.0, h=0.01, C=c * np.eye(2))
        config = SimConfig(dt=1e-2, horizon=20.0, x0=[1.0, 1.0],
                           v0=[0.0, 0.0], log_stride=1, plant_eta=1.0,
                           dt_guard=False)
        named = {}
        for backend in BACKENDS:
            with pytest.raises(SimulationAbort, match="finite-escape") as info:
                run(CascadePlant(lti, benchmark_map), make_params(), config,
                    backend=backend)
            named[backend] = int(re.search(r"step (\d+)",
                                           str(info.value)).group(1))
        assert named == steps

    def test_escape_at_step_zero(self, benchmark_lti, benchmark_map):
        # a finite output at the start whose relay argument overflows:
        # both loops stop at step 0, before the first chunk
        assert self._abort_time(benchmark_lti, benchmark_map,
                                [3e153, 3e153]) == 0.0

    def test_escape_of_the_relay_argument_alone(self):
        # a slow escape far out, where the relay's sine argument overflows
        # at step 272 while the predicted states and their squares stay
        # finite: only the sines can show it
        qmap = QuadraticMap(-4e304, np.zeros(2), -np.eye(2))
        assert self._abort_time(beyond_euler(1e-3), qmap, [1e152, 1e152],
                                epsilon_sw=1e-3) == 2.72

    @pytest.mark.parametrize("growth", [200.0, 5.0])
    def test_finite_escape_warns_nothing(self, benchmark_map, growth,
                                         monkeypatch):
        # the chunked kernel reaches the same abort with every numpy
        # RuntimeWarning (overflow, invalid value) turned into an error
        kernel = _fastpath.run_chunked

        def strict(*args):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return kernel(*args)

        monkeypatch.setattr(_fastpath, "run_chunked", strict)
        config = SimConfig(dt=1e-2, horizon=10.0, x0=[1.0, 1.0],
                           v0=[0.0, 0.0], log_stride=1, dt_guard=False)
        with pytest.raises(SimulationAbort, match="finite-escape"):
            run(CascadePlant(beyond_euler(growth), benchmark_map),
                make_params(), config)


class TestQuasiSteadyStart:
    def test_other_string_refused(self):
        with pytest.raises(ConfigurationError, match="v0 must be a vector"):
            short_config(v0="steady")

    def test_v0_solves_balance(self, benchmark_plant, benchmark_params):
        config = short_config(x0=[-2.0, 4.0], v0="quasi_steady",
                              horizon=0.01)
        traj = run(benchmark_plant, benchmark_params, config)
        # B v0 = -A x0 keeps the state put initially: z(0) stays (-2,4)
        assert np.allclose(traj.v[0], [-4.0, 0.0])
        assert np.allclose(traj.z[0], [-2.0, 4.0])
        assert np.allclose(traj.z[1], traj.z[0], atol=1e-2)


class TestTrackingSanity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_linear_objective_tracks_ramp(self, benchmark_lti, backend):
        # a nearly linear objective, h = g.z - c|z|^2/2 with its maximum
        # far beyond the run, and an unbounded reference: the output must
        # lock onto the ramp, with the error settling inside the
        # switching band scale
        slope, c = np.array([1.0, 0.5]), 1e-4
        plant = CascadePlant(benchmark_lti,
                             QuadraticMap(slope @ slope / (2 * c), slope / c,
                                          -c * np.eye(2)))
        params = make_params(y_sat=None)
        config = SimConfig(dt=1e-3, horizon=25.0, x0=[-1.0, -1.0],
                           v0=[0.0, 0.0], log_stride=10)
        traj = run(plant, params, config, backend=backend)
        gains = params.resolve(config.dt, 2)
        e = traj.y - traj.y_m
        late = e[traj.t >= 20.0]
        assert np.abs(late).max() <= 2 * params.epsilon_sw + \
            gains.lambda_eff * config.dt
        # before settling the error magnitude came down monotonically-ish
        early = np.abs(e[traj.t <= 2.0])
        assert early[-1] <= early[0] + 1e-9
