"""Controller pieces: gains, ramp, sliding variable, scheduler, relay."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidingesc import (ConfigurationError, ControllerParams, ControllerState,
                        SimulationAbort, control_law, controller_step,
                        cyclic_direction, reference_step,
                        sliding_variable_step, switching_sign)
from slidingesc.controller import direction_index, whole_steps


def make_params(**overrides) -> ControllerParams:
    base = dict(p=1.0, p0=0.0, y_sat=2.5, lam=4.0, epsilon_sw=0.02,
                gamma=0.1, L_h=0.1, eta=0.01, T_s=5.0)
    base.update(overrides)
    return ControllerParams(**base)


class TestEffectiveGains:
    def test_scaled(self):
        gains = make_params().resolve(1e-3, 2)
        assert gains.p_eff == pytest.approx(0.01)
        assert gains.lambda_eff == pytest.approx(0.04)
        # 0.01/0.1 * 5 + 0.001
        assert gains.rho == pytest.approx(0.501)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="T_s"):
            make_params(T_s=-1.0)
        with pytest.raises(ConfigurationError, match="eta"):
            make_params(eta=1.5)
        with pytest.raises(ConfigurationError, match="y_sat"):
            make_params(y_sat=-1.0, p0=0.0)

    @pytest.mark.parametrize("p0", [math.nan, -math.inf, math.inf])
    def test_non_finite_p0_refused(self, p0):
        # with y_sat = inf, y_sat >= p0 alone would admit p0 = +inf
        with pytest.raises(ConfigurationError, match="p0 must be finite"):
            make_params(p0=p0, y_sat=math.inf)

    def test_unbounded_reference_allowed(self):
        assert make_params(y_sat=math.inf).y_sat == math.inf

    def test_resolve(self):
        params = make_params(p0=0.5)
        constants = params.resolve(1e-3, 2)
        assert (constants.p_eff, constants.lambda_eff, constants.rho) == \
            (0.01 * 1.0, 0.01 * 4.0, 0.01 / 0.1 * (1.0 + 4.0) + 0.01 * 0.1)
        assert (constants.epsilon_sw, constants.y_sat, constants.y_m0) == \
            (0.02, 2.5, 0.5)
        assert (constants.sub_steps, constants.n_dirs) == (2500, 2)
        # the direction count divides the period: 5 s over 4 directions
        assert params.resolve(1e-3, 4).sub_steps == 1250
        assert ControllerState.initial(constants).y_m == 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            constants.rho = 1.0
        # 2.5 s per direction is not a whole number of 3 ms steps
        with pytest.raises(ConfigurationError,
                           match=r"controller\.T_s / n_dirs"):
            params.resolve(3e-3, 2)


class TestReferenceRamp:
    def test_ramp_integration(self):
        state = ControllerState(y_m=0.0)
        for _ in range(100):
            reference_step(state, 0.01, 10.0, 1.0)
        assert state.y_m == pytest.approx(1.0)

    def test_saturation(self):
        state = ControllerState(y_m=1.99)
        assert reference_step(state, 0.01, 2.0, 10.0) == pytest.approx(2.0)

    def test_zero_slope(self):
        state = ControllerState(y_m=0.7)
        reference_step(state, 0.0, 2.0, 5.0)
        assert state.y_m == 0.7


class TestSlidingVariable:
    def test_constant_sign_integration(self):
        state = ControllerState(y_m=0.0)
        dt = 0.05
        for _ in range(5):  # integrate to t = 0.25 with e = 1 throughout
            s = sliding_variable_step(state, 1.0, 4.0, dt)
        assert s == pytest.approx(1.0 + 4.0 * 0.25)

    def test_zero_error_is_inert(self):
        state = ControllerState(y_m=0.0)
        for _ in range(10):
            assert sliding_variable_step(state, 0.0, 4.0, 0.1) == 0.0

    def test_alternating_error_cancels(self):
        state = ControllerState(y_m=0.0)
        for _ in range(7):
            sliding_variable_step(state, 1.0, 4.0, 0.1)
            sliding_variable_step(state, -1.0, 4.0, 0.1)
        assert state.s_int == pytest.approx(0.0, abs=1e-15)

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(1e-4, 0.5)),
                    min_size=1, max_size=50),
           st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_deviation_bounded_by_gain_times_time(self, seq, lam_eff):
        state = ControllerState(y_m=0.0)
        total = 0.0
        for e, dt in seq:
            s = sliding_variable_step(state, e, lam_eff, dt)
            total += dt
            assert abs(s - e) <= lam_eff * total + 1e-9


class TestCyclicDirection:
    def test_start_of_cycle(self):
        idx, sigma = cyclic_direction(0, 2500, 2)
        assert idx == 1 and np.array_equal(sigma, [1.0, 0.0])

    def test_second_half_cycle(self):
        idx, sigma = cyclic_direction(2500, 2500, 2)
        assert idx == 2 and np.array_equal(sigma, [0.0, 1.0])
        assert cyclic_direction(2499, 2500, 2)[0] == 1

    def test_period_wraps(self):
        assert cyclic_direction(4999, 2500, 2)[0] == 2
        assert cyclic_direction(5000, 2500, 2)[0] == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            cyclic_direction(-1, 2500, 2)

    @given(st.integers(0, 10**9), st.integers(1, 10**5), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_periodicity_and_basis(self, k, sub_steps, n_dirs):
        idx, sigma = cyclic_direction(k, sub_steps, n_dirs)
        idx2, sigma2 = cyclic_direction(k + n_dirs * sub_steps, sub_steps,
                                        n_dirs)
        assert 1 <= idx <= n_dirs
        assert sigma.sum() == 1.0 and sigma[idx - 1] == 1.0
        # one period later the schedule repeats, on every step
        assert idx == idx2 and np.array_equal(sigma, sigma2)

    def test_equal_share_over_window(self):
        n, sub_steps = 3, 200
        counts = np.zeros(n)
        for k in range(7 * n * sub_steps, 8 * n * sub_steps):
            idx, _ = cyclic_direction(k, sub_steps, n)
            counts[idx - 1] += 1
        assert np.all(counts == sub_steps)


class TestDirectionIndex:
    @given(st.lists(st.integers(0, 10**9), max_size=20),
           st.lists(st.integers(0, 200), max_size=20),
           st.integers(1, 10**5), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_array_form_matches_scalar_form(self, steps, js, sub_steps,
                                            n_dirs):
        # sub-interval starts, multiples of the period and their
        # neighbours one step away
        starts = np.array([j * sub_steps for j in js], dtype=np.int64)
        cycles = starts * n_dirs
        k = np.concatenate([np.array(steps, dtype=np.int64), starts, cycles,
                            starts + 1, starts - 1, cycles + 1, cycles - 1])
        k = k[k >= 0]
        got = direction_index(k, sub_steps, n_dirs)
        assert got.dtype == np.int64
        expected = [cyclic_direction(x, sub_steps, n_dirs)[0] - 1
                    for x in k.tolist()]
        assert got.tolist() == expected

    @given(st.integers(0, 10**9), st.integers(1, 10**5), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_schedule_definition(self, k, sub_steps, n_dirs):
        # the position in the period, in whole sub-intervals
        period = n_dirs * sub_steps
        assert direction_index(k, sub_steps, n_dirs) == k % period // sub_steps


class TestWholeSteps:
    def test_whole_number(self):
        assert whole_steps(12.6, 1e-3, "horizon") == 12600
        assert make_params().resolve(1e-3, 2).sub_steps == 2500

    @pytest.mark.parametrize("duration", [2.50005, 1e-4, 0.0, 1e308])
    def test_fraction_or_none_names_field(self, duration):
        with pytest.raises(ConfigurationError, match="horizon"):
            whole_steps(duration, 1e-3, "horizon")


class TestControlLaw:
    def test_mid_band_positive(self):
        u = control_law(0.5, np.array([1.0, 0.0]), 0.01, 0.02)
        assert np.allclose(u, [0.5, 0.0])  # sin(pi/2) = 1

    def test_next_band_flips(self):
        u = control_law(0.5, np.array([1.0, 0.0]), 0.03, 0.02)
        assert np.allclose(u, [-0.5, 0.0])  # sin(3pi/2) = -1

    def test_boundary_convention(self):
        assert switching_sign(0.0, 0.02) == 1.0
        u = control_law(0.5, np.array([0.0, 1.0]), 0.0, 0.02)
        assert np.allclose(u, [0.0, 0.5])

    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 1.0),
           st.floats(1e-3, 10.0), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_single_component_of_magnitude_rho(self, s, eps, rho, n):
        sigma = np.zeros(n)
        sigma[n - 1] = 1.0
        u = control_law(rho, sigma, s, eps)
        nonzero = np.nonzero(u)[0]
        assert nonzero.size == 1
        assert abs(u[nonzero[0]]) == pytest.approx(rho, rel=1e-15)

    @given(st.integers(-50, 50), st.floats(0.05, 0.95), st.floats(1e-3, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_constant_sign_within_band(self, band, frac, eps):
        # within the open band (k*eps, (k+1)*eps) the relay cannot flip
        s_a = (band + 0.25) * eps
        s_b = (band + frac * 0.5 + 0.25) * eps
        assert switching_sign(s_a, eps) == switching_sign(s_b, eps)


class TestControllerStep:
    def test_zero_error_composition(self):
        params = make_params()
        state = ControllerState(y_m=1.0)
        constants = params.resolve(1e-3, 2)
        u, tel = controller_step(constants, state, 1.0, 1e-3)
        assert tel.e == 0.0 and tel.s == 0.0
        assert np.allclose(u, [constants.rho, 0.0])

    def test_first_step_of_benchmark(self):
        # y = -26 against a fresh reference: e = s-integral drift puts the
        # relay in the negative half-band, so the first kick is -rho e1
        params = make_params()
        gains = params.resolve(1e-3, 2)
        state = ControllerState.initial(gains)
        u, tel = controller_step(gains, state, -26.0, 1e-3)
        assert tel.y_m == 0.0
        assert tel.e == pytest.approx(-26.0)
        assert tel.s == pytest.approx(-26.0, abs=gains.lambda_eff * 1e-3 * 1.01)
        assert tel.dir_index == 1
        assert np.allclose(u, [-gains.rho, 0.0])

    def test_matches_sub_operations(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dt = float(rng.uniform(1e-4, 0.5))
            n_dirs, sub_steps = (int(d) for d in rng.integers(1, [5, 200]))
            params = make_params(T_s=sub_steps * n_dirs * dt,
                                 eta=float(rng.uniform(1e-3, 1.0)))
            state_a = ControllerState(y_m=float(rng.uniform(-1, 1)),
                                      s_int=float(rng.uniform(-1, 1)),
                                      k=int(rng.integers(0, 10**6)))
            state_b = ControllerState(state_a.y_m, state_a.s_int, state_a.k)
            y = float(rng.uniform(-30, 30))
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

            assert np.array_equal(u, u_manual)
            assert (tel.e, tel.s, tel.dir_index) == (e, s, idx)
            assert (state_a.y_m, state_a.s_int, state_a.k) == \
                   (state_b.y_m, state_b.s_int, state_b.k)

    def test_non_finite_output_aborts(self):
        constants = make_params().resolve(1e-3, 2)
        state = ControllerState.initial(constants)
        state.k = 7
        with pytest.raises(SimulationAbort,
                           match=r"non-finite.*step 7 \(t=0\.007\)"):
            controller_step(constants, state, float("nan"), 1e-3)

    def test_reference_never_decreasing_nor_above_sat(self):
        params = make_params()
        constants = params.resolve(0.5, 2)
        state = ControllerState.initial(constants)
        rng = np.random.default_rng(5)
        prev = state.y_m
        for _ in range(500):
            controller_step(constants, state, float(rng.uniform(-30, 30)), 0.5)
            assert state.y_m >= prev - 1e-15
            assert state.y_m <= params.y_sat + 1e-15
            prev = state.y_m

    def test_rho_dominates_scaled_disturbance_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            params = make_params(
                p=float(rng.uniform(0.05, 5)), lam=float(rng.uniform(0.1, 10)),
                gamma=float(rng.uniform(1e-3, 1)), L_h=float(rng.uniform(1e-2, 2)),
                eta=float(rng.uniform(1e-4, 1.0)))
            rho = params.resolve(1e-3, 2).rho
            floor = params.eta * ((params.p + params.lam) / params.L_h
                                  + params.gamma)
            assert rho >= floor - 1e-12
