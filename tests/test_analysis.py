"""Sliding detection, metrics, the residual bound, and the gain oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidingesc import (CascadePlant, LtiSubsystem, Metrics, QuadraticMap,
                        Trajectory, convergence_metrics, detect_sliding,
                        fd_gradient_oracle, residual_bound_check)


def reference_detect_sliding(t, s, epsilon_sw, min_duration):
    """The per-sample loop ``detect_sliding`` was first written as."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.size == 0:
        return []
    band_tol = 0.25 * epsilon_sw

    band = np.round(s / epsilon_sw)
    inside = np.abs(s - band * epsilon_sw) <= band_tol

    segments = []
    start = None
    for i in range(t.size):
        if inside[i] and (start is None or band[i] == band[start]):
            if start is None:
                start = i
            continue
        if start is not None and t[i - 1] - t[start] >= min_duration:
            segments.append((t[start], t[i - 1], int(band[start])))
        start = i if inside[i] else None
    if start is not None and t[-1] - t[start] >= min_duration:
        segments.append((t[start], t[-1], int(band[start])))
    return segments


EPS = 0.02
# band centres, ties between bands (round half to even), the band-edge
# tolerance exactly, signed zeros and non-finite samples
S_SPECIAL = [0.0, -0.0, EPS, -EPS, 2 * EPS, 0.5 * EPS, -0.5 * EPS, 1.5 * EPS,
             0.25 * EPS, -0.25 * EPS, 0.75 * EPS, 1.25 * EPS,
             math.nan, math.inf, -math.inf]
s_runs = st.lists(
    st.tuples(st.one_of(st.sampled_from(S_SPECIAL),
                        st.floats(-0.1, 0.1, allow_nan=False)),
              st.integers(1, 8)),
    max_size=25)


def synthetic_trajectory(t, z, y, s) -> Trajectory:
    n = len(t)
    z = np.asarray(z, dtype=float)
    return Trajectory(
        t=np.asarray(t, dtype=float), v=np.zeros((n, 2)), x=z.copy(), z=z,
        y=np.asarray(y, dtype=float), y_m=np.zeros(n), e=np.zeros(n),
        s=np.asarray(s, dtype=float), u=np.zeros((n, 2)),
        dir_index=np.ones(n, dtype=np.int64), rho=np.full(n, 0.5))


class TestDetectSliding:
    def test_constant_on_band(self):
        t = np.arange(0.0, 10.0, 0.01)
        segs = detect_sliding(t, np.full(t.size, 0.04), epsilon_sw=0.02,
                              min_duration=0.5)
        assert len(segs) == 1
        assert segs[0].band_index == 2
        assert segs[0].t_start == 0.0
        assert segs[0].t_end == pytest.approx(t[-1])

    def test_fast_ramp_reports_nothing(self):
        # a unit-slope ramp spends 2*band_tol/1 = 0.01 s near each band,
        # far below a 50-sample duration
        t = np.arange(0.0, 10.0, 0.01)
        assert detect_sliding(t, t.copy(), epsilon_sw=0.02,
                              min_duration=0.5) == []

    def test_two_distinct_bands(self):
        t = np.arange(0.0, 20.0, 0.01)
        s = np.where(t < 10.0, 0.02, 0.06)
        segs = detect_sliding(t, s, epsilon_sw=0.02, min_duration=1.0)
        assert [seg.band_index for seg in segs] == [1, 3]

    def test_band_tolerance_respected(self):
        # a quarter of the band width either side of it counts as on it
        t = np.arange(0.0, 5.0, 0.01)
        s = np.full(t.size, 0.02 + 0.006)  # 0.3*eps off the band
        assert detect_sliding(t, s, epsilon_sw=0.02, min_duration=0.5) == []
        s = np.full(t.size, 0.02 - 0.004)  # 0.2*eps off the band
        assert len(detect_sliding(t, s, epsilon_sw=0.02,
                                  min_duration=0.5)) == 1

    def test_empty_trace(self):
        assert detect_sliding(np.array([]), np.array([]), 0.02, 0.5) == []

    @given(s_runs, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, runs, data):
        s = np.array([value for value, count in runs for _ in range(count)])
        t = np.cumsum(data.draw(st.lists(
            st.sampled_from([0.0, 0.01, 0.01, 0.01, 0.02, 0.5]),
            min_size=s.size, max_size=s.size)))
        min_duration = data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.5]))
        with np.errstate(invalid="ignore"):  # inf - inf for infinite s
            got = detect_sliding(t, s, EPS, min_duration=min_duration)
            want = reference_detect_sliding(t, s, EPS,
                                            min_duration=min_duration)
        assert [(g.t_start, g.t_end, g.band_index) for g in got] == want
        for g in got:
            assert isinstance(g.t_start, float) and isinstance(g.t_end, float)
            assert type(g.band_index) is int


class TestConvergenceMetrics:
    def test_constant_converged_trace(self):
        t = np.linspace(0.0, 10.0, 101)
        z = np.zeros((101, 2))
        traj = synthetic_trajectory(t, z, np.full(101, 2.0), np.zeros(101))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                trailing_fraction=0.1, min_duration=5.0)
        assert m.t_reach_delta == 0.0
        assert m.residual_amp == 0.0
        assert m.mean_residual == 0.0
        assert m.bounded

    def test_default_delta_is_sqrt_epsilon(self):
        t = np.linspace(0.0, 10.0, 101)
        dist = np.linspace(1.0, 0.0, 101)            # |z| shrinks linearly
        z = np.column_stack([dist, np.zeros(101)])
        traj = synthetic_trajectory(t, z, np.full(101, 2.0), np.zeros(101))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                trailing_fraction=0.1, min_duration=5.0)
        expected = math.sqrt(0.02)                   # ~0.1414
        first = t[np.argmax(dist < expected)]
        assert m.t_reach_delta == pytest.approx(first)

    def test_never_reaching(self):
        t = np.linspace(0.0, 1.0, 11)
        z = np.ones((11, 2))
        traj = synthetic_trajectory(t, z, np.zeros(11), np.zeros(11))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                trailing_fraction=0.1, min_duration=5.0)
        assert m.t_reach_delta is None

    def test_trailing_window_stats(self):
        t = np.linspace(0.0, 10.0, 100)
        y = np.full(100, 2.0)
        y[-10:] = [2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.2, 2.0, 1.8, 2.0]
        traj = synthetic_trajectory(t, np.zeros((100, 2)), y, np.zeros(100))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                trailing_fraction=0.1, min_duration=5.0)
        assert m.residual_amp == pytest.approx(0.2)
        assert m.mean_residual == pytest.approx(np.abs(y[-10:] - 2.0).mean())
        assert m.residual_amp >= m.mean_residual >= 0.0


class TestResidualBound:
    def test_pass_with_unit_constant(self):
        m = Metrics(t_reach_delta=1.0, residual_amp=0.12, mean_residual=0.05)
        result = residual_bound_check(m, eta=0.01, epsilon_sw=0.02,
                                      c_bound=2.5)
        assert result.passed
        assert result.bound == pytest.approx(0.3)
        assert result.implied_constant == pytest.approx(1.0)

    def test_zero_residual(self):
        m = Metrics(t_reach_delta=0.0, residual_amp=0.0, mean_residual=0.0)
        result = residual_bound_check(m, eta=0.04, epsilon_sw=0.02,
                                      c_bound=2.5)
        assert result.passed and result.implied_constant == 0.0

    def test_not_converged_fails(self):
        m = Metrics(t_reach_delta=None, residual_amp=0.01, mean_residual=0.0)
        result = residual_bound_check(m, eta=0.01, epsilon_sw=0.02,
                                      c_bound=2.5)
        assert not result.passed
        assert "vicinity" in result.reason

    def test_exceeding_bound_fails(self):
        m = Metrics(t_reach_delta=1.0, residual_amp=0.5, mean_residual=0.3)
        assert not residual_bound_check(m, eta=0.01, epsilon_sw=0.02,
                                        c_bound=2.5).passed


class TestGainOracle:
    def test_matches_hand_value(self, benchmark_plant):
        # v = (0, 4) lands the channel at z = (1, 0); gain (-2, -0.5)
        v = np.array([0.0, 4.0])
        assert np.allclose(benchmark_plant.lti.steady_state_output(v), [1.0, 0.0])
        oracle = fd_gradient_oracle(benchmark_plant, v)
        assert np.allclose(oracle, [-2.0, -0.5], atol=1e-6)

    def test_vanishes_at_optimum_preimage(self, benchmark_plant):
        oracle = fd_gradient_oracle(benchmark_plant, np.zeros(2))
        assert np.all(np.abs(oracle) < 1e-6)

    def test_identity_channel_equals_map_gradient(self, benchmark_map):
        lti = LtiSubsystem(-np.eye(2), np.eye(2))
        plant = CascadePlant(lti, benchmark_map)
        v = np.array([0.7, -1.3])
        assert np.allclose(fd_gradient_oracle(plant, v),
                           benchmark_map.gradient(v), atol=1e-6)

    def test_agreement_at_random_points(self, benchmark_plant):
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.uniform(-5.0, 5.0, 2)
            z = benchmark_plant.lti.steady_state_output(v)
            analytic = benchmark_plant.high_freq_gain(z)
            brute = fd_gradient_oracle(benchmark_plant, v)
            scale = max(1.0, np.linalg.norm(analytic))
            assert np.linalg.norm(analytic - brute) / scale <= 1e-6

    def test_flat_dict_field_names(self):
        m = Metrics(t_reach_delta=1.0, residual_amp=0.1, mean_residual=0.05)
        flat = m.to_flat_dict()
        assert set(flat) == {"t_reach_delta", "residual_amp",
                             "mean_residual", "sliding_segments", "bounded"}
