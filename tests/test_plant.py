"""Plant types, the quasi-steady-state algebra, and the gain chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidingesc import (CascadePlant, ConfigurationError, LtiSubsystem,
                        QuadraticMap, fd_gradient_oracle)


class TestLtiSubsystem:
    def test_benchmark_matrix_is_hurwitz(self, benchmark_lti):
        # characteristic polynomial l^2 + 2l + 4 -> roots -1 +- i sqrt(3)
        assert np.allclose(sorted(benchmark_lti.eigenvalues.real), [-1.0, -1.0])
        assert np.allclose(sorted(np.abs(benchmark_lti.eigenvalues.imag)),
                           [np.sqrt(3.0)] * 2)

    def test_identity_is_not_hurwitz(self):
        with pytest.raises(ConfigurationError,
                           match=r"A is not Hurwitz .*eigenvalues \[1\. 1\.\]"):
            LtiSubsystem(np.eye(2), np.eye(2))

    def test_allow_unstable_flag(self):
        # no keyword opts out of H3: every block is stable when built
        with pytest.raises(TypeError, match="allow_unstable"):
            LtiSubsystem(np.eye(2), np.eye(2), allow_unstable=True)

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

    def test_gradient_one_point_or_many(self):
        # eval's shape rule, (..., n) -> (..., n): one point gives
        # H (z - z*) bit for bit, and an array gives each point's gradient
        qmap = QuadraticMap(1.0, [0.5, -1.0], [[-2.0, 0.6], [0.6, -1.0]])
        points = np.random.default_rng(3).uniform(-5.0, 5.0, (4, 3, 2))
        one = points[0, 0]
        assert np.array_equal(qmap.gradient(one), qmap.H @ (one - qmap.z_star))
        each = [[qmap.gradient(point) for point in row] for row in points]
        assert np.array_equal(qmap.gradient(points), each)
        assert qmap.gradient([[1.0, 0.0]]).shape == (1, 2)

    def test_eval_bounded_by_maximum(self, benchmark_map):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.uniform(-5, 5, 2)
            assert benchmark_map.eval(z) <= benchmark_map.y_star + 1e-12

    def test_eval_one_point_or_a_grid(self, benchmark_map):
        # one point gives a float; a (61, 61, 2) grid gives the (61, 61)
        # values of its points, bit for bit
        assert type(benchmark_map.eval([1.0, 1.0])) is float
        grid = np.linspace(-5.0, 5.0, 61)
        points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
        values = benchmark_map.eval(points)
        assert values.shape == (61, 61)
        each = [[benchmark_map.eval(point) for point in row] for row in points]
        assert np.array_equal(values, each)

    @pytest.mark.parametrize("shape", [(3,), (1,), (61, 61, 3), ()])
    def test_eval_wrong_last_dimension(self, benchmark_map, shape):
        with pytest.raises(ConfigurationError, match="z must have last "
                                                     "dimension 2"):
            benchmark_map.eval(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3,), (1,), (61, 61, 3), ()])
    def test_gradient_wrong_last_dimension(self, benchmark_map, shape):
        with pytest.raises(ConfigurationError, match="z must have last "
                                                     "dimension 2"):
            benchmark_map.gradient(np.zeros(shape))

    @pytest.mark.parametrize("y_star, z_star, field", [
        (np.nan, [0.0, 0.0], "y_star"), (-np.inf, [0.0, 0.0], "y_star"),
        (0.0, [np.nan, 0.0], "z_star"), (0.0, [0.0, np.inf], "z_star")])
    def test_non_finite_maximum_rejected(self, y_star, z_star, field):
        # eval would return NaN or inf everywhere
        with pytest.raises(ConfigurationError,
                           match=rf"^{field}.*: expected a finite number"):
            QuadraticMap(y_star, z_star, -np.eye(2))

    def test_unit_coupling_rejected(self):
        with pytest.raises(ConfigurationError, match="negative definite"):
            QuadraticMap.from_coupling(1.0)

    def test_curvature_shape_checked(self):
        with pytest.raises(ConfigurationError,
                           match=r"H must be 2x2, got \(1, 1\)"):
            QuadraticMap(2.0, [0, 0], [[-1.0]])

    def test_asymmetric_curvature_rejected(self):
        with pytest.raises(ConfigurationError):
            QuadraticMap(0.0, [0.0, 0.0], [[-1.0, 0.5], [0.0, -1.0]])

    @given(st.floats(0.05, 0.95), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradient_matches_finite_differences(self, coupling, seed):
        # through the identity channel (A = -I, B = I) the gain oracle's
        # finite differences are those of the map itself
        bowl = QuadraticMap.from_coupling(coupling)
        plant = CascadePlant(LtiSubsystem(-np.eye(2), np.eye(2)), bowl)
        z = np.random.default_rng(seed).uniform(-5, 5, (8, 2))
        assert np.allclose(bowl.gradient(z), fd_gradient_oracle(plant, z),
                           rtol=1e-6, atol=1e-6)


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
        with pytest.raises(ConfigurationError,
                           match=r"^u must be one point of shape \(2,\), "
                                 r"got \(1, 2\)$"):
            benchmark_plant.derivative([[1.0, 0.0]])

    @pytest.mark.parametrize("u", [[True, 0.0], [False, 1], (0.0, True)])
    def test_derivative_refuses_non_real_entries(self, benchmark_plant, u):
        with pytest.raises(ConfigurationError,
                           match=r"^u: expected real numbers, got (True|False)"):
            benchmark_plant.derivative(u)

    @pytest.mark.parametrize("name, value, message", [
        ("x", ["1", "2"], r"x\[0\]: expected a number, got '1'"),
        ("v", [np.nan, 0.0], r"v\[0\]: expected a finite number, got nan"),
        ("x", [[1.0, 2.0]], r"x: expected a vector, got an array of shape "
                            r"\(1, 2\)"),
        ("v", 1.0, r"v: expected a vector, got an array of shape \(\)"),
        ("v", [1.0, 2.0, 3.0], r"v must have last dimension 2, got \(3,\)")])
    def test_state_setters_take_one_finite_point(self, benchmark_plant, name,
                                                 value, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            setattr(benchmark_plant, name, value)
        assert np.array_equal(getattr(benchmark_plant, name), [0.0, 0.0])
        setattr(benchmark_plant, name, np.array([1, 2]))
        assert getattr(benchmark_plant, name).tolist() == [1.0, 2.0]

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

    def test_repr(self, benchmark_plant):
        assert repr(benchmark_plant) == (
            "CascadePlant(LtiSubsystem(n=2, m=2), "
            "map=QuadraticMap)")

    def test_map_dimension_checked(self, benchmark_lti):
        with pytest.raises(ConfigurationError, match="dimension"):
            CascadePlant(benchmark_lti, QuadraticMap(0.0, [0.0], [[-1.0]]))


class TestHypothesisReport:
    def test_benchmark_plant_passes(self, benchmark_plant):
        checks = benchmark_plant.check_hypotheses(L_h=0.1)
        assert [c.name[:2] for c in checks] == [f"H{k}" for k in range(1, 7)]
        by_name = {c.name: c for c in checks}
        assert {c.status for c in checks} == {"pass", "assumed"}
        assert by_name["H3 stable subsystem"].status == "pass"
        assert "checked when the block is built" in (
            by_name["H3 stable subsystem"].detail)
        assert by_name["H4 unique maximum"].status == "pass"
        # the bowl [[-2, 1], [1, -2]] curves by -3 and -1
        assert "[-3. -1.]" in by_name["H4 unique maximum"].detail
        assert by_name["H6 gradient lower bound"].status == "assumed"
        assert "L_h=0.1" in by_name["H6 gradient lower bound"].detail


class TestShapeRule:
    """Every evaluator of the plant takes one point of shape (dim,) or a
    batch of shape (..., dim), and names its argument when refusing."""

    @staticmethod
    def plant():
        # three states and two inputs, so that no evaluator can mix up
        # the input and the output dimension
        lti = LtiSubsystem([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3],
                            [0.2, 0.0, -3.0]],
                           [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        bowl = QuadraticMap(1.0, [0.5, -1.0, 0.2],
                            [[-2.0, 0.3, 0.0], [0.3, -1.0, 0.1],
                             [0.0, 0.1, -1.5]])
        return CascadePlant(lti, bowl)

    # (evaluator, its argument's name, the dimension of its points)
    EVALUATORS = {
        "steady_state_output": (lambda p: p.lti.steady_state_output, "v", 2),
        "quasi_steady_state": (lambda p: p.lti.quasi_steady_state, "v", 2),
        "eval": (lambda p: p.map.eval, "z", 3),
        "gradient": (lambda p: p.map.gradient, "z", 3),
        "high_freq_gain": (lambda p: p.high_freq_gain, "z", 3),
        "fd_gradient_oracle": (
            lambda p: lambda v: fd_gradient_oracle(p, v), "v", 2),
    }

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_batch_equals_one_point_calls(self, evaluator):
        make, _, dim = self.EVALUATORS[evaluator]
        fn = make(self.plant())
        points = np.random.default_rng(5).uniform(-5.0, 5.0, (7, dim))
        batch = fn(points)
        assert np.array_equal(batch, [fn(point) for point in points])
        assert np.array_equal(fn(list(points)), batch)  # a list of arrays
        assert np.array_equal(fn(points.reshape(7, 1, dim)),
                              batch.reshape(7, 1, *batch.shape[1:]))

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    @pytest.mark.parametrize("shape", [(4, 1), (1,), ()])
    def test_wrong_last_axis_names_argument(self, evaluator, shape):
        make, name, dim = self.EVALUATORS[evaluator]
        shape = shape + (dim + 1,) if shape else shape
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} must have last dimension {dim}, "
                                 rf"got \({', '.join(map(str, shape))}"):
            make(self.plant())(np.zeros(shape))

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    @pytest.mark.parametrize("value", ["1", True, 1j])
    def test_non_real_entries_refused(self, evaluator, value):
        # alone, and among numbers, where numpy would read [True, 2.0]
        # as the numbers [1.0, 2.0]
        make, name, dim = self.EVALUATORS[evaluator]
        fn = make(self.plant())
        mixed = [value] + [2.0] * (dim - 1)
        for point in ([value] * dim, np.array([value] * dim), mixed,
                      [[2.0] * dim, mixed],
                      [np.zeros(dim), np.array([value] * dim)]):
            with pytest.raises(ConfigurationError,
                               match=rf"^{name}: expected real numbers"):
                fn(point)

    def test_non_finite_points_pass(self):
        # the closed loops' finite-escape guard, not the rule, stops an
        # escaping plant
        plant = self.plant()
        z = plant.lti.steady_state_output([np.nan, 0.0])
        assert np.isnan(z).all()
        assert np.isnan(plant.map.eval(z))
        dv, _ = plant.derivative([np.inf, 0.0])
        assert dv.tolist() == [np.inf, 0.0]
