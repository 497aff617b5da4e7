"""Plant types, the quasi-steady-state algebra, and the gain chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidingesc import (CascadePlant, ConfigurationError, LtiSubsystem,
                        QuadraticMap, central_difference)


class TestLtiSubsystem:
    def test_benchmark_matrix_is_hurwitz(self, benchmark_lti):
        # characteristic polynomial l^2 + 2l + 4 -> roots -1 +- i sqrt(3)
        assert benchmark_lti.is_hurwitz
        assert np.allclose(sorted(benchmark_lti.eigenvalues.real), [-1.0, -1.0])
        assert np.allclose(sorted(np.abs(benchmark_lti.eigenvalues.imag)),
                           [np.sqrt(3.0)] * 2)

    def test_identity_is_not_hurwitz(self):
        with pytest.raises(ConfigurationError, match="Hurwitz"):
            LtiSubsystem(np.eye(2), np.eye(2))

    def test_allow_unstable_flag(self):
        lti = LtiSubsystem(np.eye(2), np.eye(2), allow_unstable=True)
        assert not lti.is_hurwitz

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="B must have"):
            LtiSubsystem([[-1.0]], np.eye(2))
        with pytest.raises(ConfigurationError, match="square"):
            LtiSubsystem([[0.0, 1.0]], np.eye(2))

    def test_no_inputs_refused(self):
        with pytest.raises(ConfigurationError,
                           match=r"B must have at least one column"):
            LtiSubsystem([[-1.0]], np.zeros((1, 0)))

    def test_steady_state_hand_value(self, benchmark_lti):
        # det A = 4, so -C A^-1 B maps (1,0) to (0.5, -1); checked by hand
        assert np.allclose(benchmark_lti.steady_state_output([1.0, 0.0]),
                           [0.5, -1.0], atol=1e-14)

    def test_steady_state_zero_input(self, benchmark_lti):
        assert np.allclose(benchmark_lti.steady_state_output([0.0, 0.0]), 0.0)

    def test_steady_state_negative_identity(self):
        lti = LtiSubsystem(-np.eye(2), np.eye(2))
        assert np.allclose(lti.steady_state_output([2.0, 3.0]), [2.0, 3.0])

    def test_quasi_steady_state_solves_balance(self, benchmark_lti):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-5, 5, 2)
            x_ss = benchmark_lti.quasi_steady_state(v)
            residual = np.linalg.norm(benchmark_lti.A @ x_ss + benchmark_lti.B @ v)
            assert residual <= 1e-10 * (1.0 + np.linalg.norm(v))


class TestQuadraticMap:
    def test_benchmark_values(self, benchmark_map):
        assert benchmark_map.eval([0.0, 0.0]) == pytest.approx(2.0)
        # 2 - (1 + 1 - 2*0.5*1) and 2 - (4 + 16 + 8), evaluated by hand
        assert benchmark_map.eval([1.0, 1.0]) == pytest.approx(1.0)
        assert benchmark_map.eval([-2.0, 4.0]) == pytest.approx(-26.0)

    def test_gradient_values(self, benchmark_map):
        assert np.allclose(benchmark_map.gradient([0.0, 0.0]), 0.0)
        assert np.allclose(benchmark_map.gradient([1.0, 0.0]), [-2.0, 1.0])

    def test_diagonal_gradient(self):
        bowl = QuadraticMap(0.0, [0.0, 0.0], -2.0 * np.eye(2))
        assert np.allclose(bowl.gradient([3.0, 0.0]), [-6.0, 0.0])

    def test_eval_bounded_by_maximum(self, benchmark_map):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.uniform(-5, 5, 2)
            assert benchmark_map.eval(z) <= benchmark_map.y_star + 1e-12

    def test_unit_coupling_rejected(self):
        with pytest.raises(ConfigurationError, match="negative definite"):
            QuadraticMap.from_coupling(1.0)

    def test_asymmetric_curvature_rejected(self):
        with pytest.raises(ConfigurationError):
            QuadraticMap(0.0, [0.0, 0.0], [[-1.0, 0.5], [0.0, -1.0]])

    @given(st.floats(0.05, 0.95), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradient_matches_finite_differences(self, coupling, seed):
        bowl = QuadraticMap.from_coupling(coupling)
        z = np.random.default_rng(seed).uniform(-5, 5, 2)
        fd = central_difference(bowl.eval, z)
        assert np.allclose(bowl.gradient(z), fd, rtol=1e-6, atol=1e-6)


class TestCascadePlant:
    def test_derivative_hand_value(self, benchmark_plant):
        benchmark_plant.x = [-2.0, 4.0]
        benchmark_plant.v = [0.0, 0.0]
        dv, dx = benchmark_plant.derivative([0.0, 0.0])
        assert np.allclose(dv, 0.0)
        assert np.allclose(dx, [4.0, 0.0])  # A @ (-2,4) by hand

    def test_derivative_equilibrium(self, benchmark_plant):
        dv, dx = benchmark_plant.derivative([0.0, 0.0])
        assert np.allclose(dv, 0.0) and np.allclose(dx, 0.0)

    def test_derivative_input_term(self, benchmark_plant):
        benchmark_plant.v = [1.0, 0.0]
        _, dx = benchmark_plant.derivative([0.0, 0.0])
        assert np.allclose(dx, benchmark_plant.lti.B @ np.array([1.0, 0.0]))

    def test_derivative_dimension_error(self, benchmark_plant):
        with pytest.raises(ConfigurationError, match="dimension"):
            benchmark_plant.derivative([1.0, 0.0, 0.0])

    def test_outputs_always_derived(self, benchmark_plant):
        benchmark_plant.x = [1.0, 2.0]
        assert np.allclose(benchmark_plant.z, [1.0, 2.0])
        benchmark_plant.x = [0.0, 0.0]
        assert benchmark_plant.y == pytest.approx(2.0)

    def test_high_freq_gain_hand_value(self, benchmark_plant):
        # grad h(1,0) = (-2,1); through the dc gain: (-2, -0.5), by hand
        assert np.allclose(benchmark_plant.high_freq_gain([1.0, 0.0]),
                           [-2.0, -0.5], atol=1e-14)

    def test_high_freq_gain_vanishes_at_maximizer(self, benchmark_plant):
        assert np.allclose(benchmark_plant.high_freq_gain([0.0, 0.0]), 0.0)

    def test_high_freq_gain_identity_channel(self, benchmark_map):
        lti = LtiSubsystem(-np.eye(2), np.eye(2))
        plant = CascadePlant(lti, benchmark_map)
        z = np.array([0.3, -1.2])
        assert np.allclose(plant.high_freq_gain(z), benchmark_map.gradient(z))

    def test_map_dimension_checked(self, benchmark_lti):
        with pytest.raises(ConfigurationError, match="dimension"):
            CascadePlant(benchmark_lti, QuadraticMap(0.0, [0.0], [[-1.0]]))


class TestHypothesisReport:
    def test_benchmark_plant_passes(self, benchmark_plant):
        report = benchmark_plant.check_hypotheses(L_h=0.1)
        assert report.ok
        by_name = {c.name: c for c in report.checks}
        assert by_name["H3 stable subsystem"].status == "pass"
        assert by_name["H4 unique maximum"].status == "pass"
        # the bowl [[-2, 1], [1, -2]] curves by -3 and -1
        assert "[-3. -1.]" in by_name["H4 unique maximum"].detail
        assert by_name["H6 gradient lower bound"].status == "assumed"
        assert "L_h=0.1" in by_name["H6 gradient lower bound"].detail

    def test_unstable_matrix_fails_h3(self, benchmark_map):
        lti = LtiSubsystem(np.eye(2), np.eye(2), allow_unstable=True)
        report = CascadePlant(lti, benchmark_map).check_hypotheses()
        assert not report.ok
        assert any(c.name.startswith("H3") and c.status == "fail"
                   for c in report.failures())
