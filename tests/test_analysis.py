"""Sliding detection, metrics, the residual bound, and the gain oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidingesc import (AnalysisParams, CascadePlant, ConfigurationError,
                        LtiSubsystem, Metrics, QuadraticMap, Trajectory,
                        convergence_metrics, detect_sliding,
                        fd_gradient_oracle, residual_bound_check)
from slidingesc import analysis
from slidingesc.analysis import SLIDING_MIN_STEPS


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
        y=np.asarray(y, dtype=float), y_m=np.zeros(n),
        s=np.asarray(s, dtype=float), u=np.zeros((n, 2)),
        dir_index=np.ones(n, dtype=np.int64))


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

    @pytest.mark.parametrize("name, value", [
        ("epsilon_sw", 0.0), ("epsilon_sw", -0.02), ("epsilon_sw", math.nan),
        ("epsilon_sw", True), ("min_duration", -0.5),
        ("min_duration", math.nan), ("min_duration", True)])
    def test_inputs_refused(self, name, value):
        # a band of width <= 0 has no samples on it, and a negative
        # floor counts every lone sample as sliding
        t = np.arange(0.0, 1.0, 0.01)
        args = {"epsilon_sw": 0.02, "min_duration": 0.5, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name}[: ]"):
            detect_sliding(t, np.zeros(t.size), **args)

    @pytest.mark.parametrize("t, s, shapes", [
        (np.arange(3.0), np.zeros(5), "(3,) and (5,)"),
        (np.arange(5.0), np.zeros(3), "(5,) and (3,)"),
        (np.zeros((5, 1)), np.zeros(5), "(5, 1) and (5,)")])
    def test_t_and_s_shapes_refused(self, t, s, shapes):
        # t shorter or longer than s, or not 1-D: no one time per sample
        with pytest.raises(ConfigurationError,
                           match=rf"^t and s: .*shapes {re.escape(shapes)}$"):
            detect_sliding(t, s, 0.02, 0.0)

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
                                dt=0.1, params=AnalysisParams())
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
                                dt=0.1, params=AnalysisParams())
        expected = math.sqrt(0.02)                   # ~0.1414
        first = t[np.argmax(dist < expected)]
        assert m.t_reach_delta == pytest.approx(first)

    def test_never_reaching(self):
        t = np.linspace(0.0, 1.0, 11)
        z = np.ones((11, 2))
        traj = synthetic_trajectory(t, z, np.zeros(11), np.zeros(11))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                dt=0.1, params=AnalysisParams())
        assert m.t_reach_delta is None

    def test_trailing_window_stats(self):
        t = np.linspace(0.0, 10.0, 100)
        y = np.full(100, 2.0)
        y[-10:] = [2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.2, 2.0, 1.8, 2.0]
        traj = synthetic_trajectory(t, np.zeros((100, 2)), y, np.zeros(100))
        m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                dt=0.1, params=AnalysisParams())
        assert m.residual_amp == pytest.approx(0.2)
        assert m.mean_residual == pytest.approx(np.abs(y[-10:] - 2.0).mean())
        assert m.residual_amp >= m.mean_residual >= 0.0

    def test_sliding_floor_is_in_steps_of_dt(self):
        # s sits on band 0 for 4.9 s, then between bands: a segment at a
        # floor of 50 steps of 0.09 s, none at 50 steps of 0.1 s
        t = np.linspace(0.0, 10.0, 101)
        s = np.where(t < 4.95, 0.0, 0.01)
        traj = synthetic_trajectory(t, np.zeros((101, 2)), np.full(101, 2.0),
                                    s)
        for dt, count in ((0.09, 1), (0.1, 0)):
            m = convergence_metrics(traj, [0.0, 0.0], 2.0, epsilon_sw=0.02,
                                    dt=dt, params=AnalysisParams())
            assert len(m.sliding_segments) == count

    @pytest.mark.parametrize("fraction, n, samples", [
        (0.1, 100, 10), (0.1, 3, 1), (0.1, 1, 1), (1.0, 7, 7), (0.25, 10, 2)])
    def test_trailing_samples(self, fraction, n, samples):
        params = AnalysisParams(trailing_fraction=fraction)
        assert params.trailing_samples(n) == samples

    @pytest.mark.parametrize("name, value", [
        ("epsilon_sw", -0.02), ("epsilon_sw", 0.0), ("epsilon_sw", math.inf),
        ("dt", -1.0), ("dt", 0.0), ("dt", math.nan), ("dt", True)])
    def test_inputs_refused(self, name, value):
        # a negative dt would make the sliding floor negative, counting
        # every lone sample on a band as a segment
        t = np.linspace(0.0, 2.0, 201)
        traj = synthetic_trajectory(t, np.zeros((201, 2)), np.full(201, 2.0),
                                    np.zeros(201))
        args = {"epsilon_sw": 0.02, "dt": 0.01, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name}[: ]"):
            convergence_metrics(traj, [0.0, 0.0], 2.0,
                                params=AnalysisParams(), **args)

    @pytest.mark.parametrize("rows, trailing_fraction, message", [
        (0, 0.1, "trajectory is empty"),
        (11, 0.0, r"trailing_fraction must be in \(0, 1\], got 0.0")])
    def test_refused(self, rows, trailing_fraction, message):
        traj = synthetic_trajectory(np.linspace(0.0, 1.0, rows),
                                    np.zeros((rows, 2)), np.zeros(rows),
                                    np.zeros(rows))
        # the record refuses a fraction before it reaches the metrics
        with pytest.raises(ValueError, match=message):
            convergence_metrics(
                traj, [0.0, 0.0], 2.0, epsilon_sw=0.02, dt=0.1,
                params=AnalysisParams(trailing_fraction=trailing_fraction))


def reference_metrics(traj, z_star, y_star, epsilon_sw, dt, params):
    """``convergence_metrics`` as first written, on whole columns: the
    vicinity entry, the residual amplitude and mean, and the sliding
    segments of ``reference_detect_sliding``."""
    delta = math.sqrt(epsilon_sw) if params.delta is None else params.delta
    dist = np.linalg.norm(traj.z - np.asarray(z_star, dtype=float), axis=1)
    hits = np.nonzero(dist < delta)[0]
    tail_dev = np.abs(traj.y[-params.trailing_samples(len(traj)):] - y_star)
    return (float(traj.t[hits[0]]) if hits.size else None,
            float(tail_dev.max()), float(tail_dev.mean()),
            reference_detect_sliding(traj.t, traj.s, epsilon_sw,
                                     SLIDING_MIN_STEPS * dt))


def random_log(rng, rows, dim, hit, edge):
    """A log of ``rows`` rows whose z is outside the vicinity of 0 (or
    NaN, or -0.0 in some columns) up to its first hit at row ``hit``
    (None: no hit), and whose s holds runs on bands, off them,
    at ties between them, at +-0, NaN and +-inf, one of them on a band
    from 30 rows before row ``edge`` to 30 after it."""
    z = rng.uniform(0.2, 3.0, (rows, dim)) * rng.choice([-1.0, 1.0],
                                                         (rows, dim))
    z[rng.random(rows) < 0.05] = np.nan
    z[:, 1:][rng.random((rows, dim - 1)) < 0.3] = -0.0  # and 0.0 below
    if hit is not None:
        z[hit] = rng.uniform(-0.05, 0.05, dim)
        z[hit, ::2] = -0.0
        z[hit + 1:] = rng.uniform(-0.3, 0.3, (rows - hit - 1, dim))
    s = np.concatenate([np.full(count, rng.choice(S_SPECIAL)
                                if rng.random() < 0.5
                                else rng.uniform(-0.1, 0.1))
                        for count in rng.integers(1, 40, rows)])[:rows]
    s[max(0, edge - 30):edge + 30] = 3 * EPS + 0.1 * EPS
    t = np.cumsum(rng.choice([0.01, 0.01, 0.01, 0.02], rows))
    y = rng.standard_normal(rows)
    return synthetic_trajectory(t, z, y, s)


class TestBlockScans:
    """The scans of the log in blocks of ``SCAN_ROWS`` rows against the
    whole-column reference: a first hit before, at and after a block
    edge, on a last row alone in its block, or none; a segment across a
    block edge; blocks down to one row."""

    @pytest.mark.parametrize("scan_rows", [1, 2, 7, 64])
    @pytest.mark.parametrize("where", [-1, 0, 1, "last", None])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_whole_columns(self, monkeypatch, scan_rows, where,
                                   seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(analysis, "SCAN_ROWS", scan_rows)
        # a block edge 40 rows or more from the start
        blocks = 40 // scan_rows + 1
        edge = scan_rows * int(rng.integers(blocks, blocks + 4))
        if where == "last":
            rows, hit = edge + 1, edge
        else:
            rows = edge + int(rng.integers(40, 300))
            hit = None if where is None else edge + where
        traj = random_log(rng, rows, int(rng.integers(1, 11)), hit, edge)
        params = AnalysisParams(trailing_fraction=rng.choice([0.1, 1.0]))
        with np.errstate(invalid="ignore"):  # inf - inf for infinite s
            got = convergence_metrics(traj, np.zeros(traj.z.shape[1]), 0.5,
                                      epsilon_sw=EPS, dt=1e-3, params=params)
            want = reference_metrics(traj, np.zeros(traj.z.shape[1]), 0.5,
                                     EPS, 1e-3, params)
        assert (got.t_reach_delta, got.residual_amp,
                got.mean_residual) == want[:3]
        assert got.t_reach_delta == (None if hit is None else traj.t[hit])
        assert [(g.t_start, g.t_end, g.band_index)
                for g in got.sliding_segments] == want[3]
        assert any(g.t_start <= traj.t[edge - 1] and traj.t[edge] <= g.t_end
                   for g in got.sliding_segments)

    def test_default_blocks(self):
        # three blocks of the default size, the hit in the last one
        rows = 2 * analysis.SCAN_ROWS + 500
        traj = random_log(np.random.default_rng(7), rows, 2,
                          2 * analysis.SCAN_ROWS + 3, analysis.SCAN_ROWS)
        params = AnalysisParams()
        with np.errstate(invalid="ignore"):
            got = convergence_metrics(traj, [0.0, 0.0], 0.5, epsilon_sw=EPS,
                                      dt=1e-3, params=params)
            want = reference_metrics(traj, [0.0, 0.0], 0.5, EPS, 1e-3,
                                     params)
        assert got.t_reach_delta == traj.t[2 * analysis.SCAN_ROWS + 3]
        assert (got.t_reach_delta, got.residual_amp, got.mean_residual,
                [(g.t_start, g.t_end, g.band_index)
                 for g in got.sliding_segments]) == want

    @pytest.mark.parametrize("rows", [151, 200])
    def test_segment_across_three_blocks(self, monkeypatch, rows):
        # from row 50 of the first block through the second to row 150
        # of the third, the last row of the log or not
        monkeypatch.setattr(analysis, "SCAN_ROWS", 64)
        t = np.arange(rows) * 0.01
        s = np.full(rows, 0.5 * EPS)
        s[50:151] = -2 * EPS + 0.1 * EPS
        s[20:40] = EPS  # and a run within the first block
        got = detect_sliding(t, s, EPS, min_duration=0.1)
        assert [(g.t_start, g.t_end, g.band_index) for g in got] == [
            (t[20], t[39], 1), (t[50], t[150], -2)]
        assert reference_detect_sliding(t, s, EPS, 0.1) == [
            (g.t_start, g.t_end, g.band_index) for g in got]


@pytest.mark.parametrize("off_band, segments", [
    ((0, 3, 6, 9, 12), 4000), (tuple(range(0, 100, 2)), 0)],
    ids=["5_runs_in_100_rows", "every_other_row"])
def test_heap_budget_of_convergence_metrics(off_band, segments):
    """Working memory of a block's arrays and the kept segments on top
    of the log, whether s steps onto a band now and then (a dense
    coupled_bowl log has 2388 runs in 50001 rows) or every other
    sample: within the budget of 16 bytes a row and half a megabyte."""
    rows = 400_001
    k = np.arange(rows)
    r = np.linspace(1.0, 0.0, rows)  # enters the vicinity at 86 %
    z = np.column_stack([r * np.cos(k / 500), r * np.sin(k / 500)])
    s = EPS * (k // 2000)
    s[np.isin(k % 100, off_band)] += 0.5 * EPS
    traj = synthetic_trajectory(k * 1e-3, z, 2.0 - r ** 2, s)
    args = dict(epsilon_sw=EPS, dt=1e-3, params=AnalysisParams())
    convergence_metrics(traj, [0.0, 0.0], 2.0, **args)  # first-call costs
    tracemalloc.start()
    try:
        metrics = convergence_metrics(traj, [0.0, 0.0], 2.0, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics.t_reach_delta is not None
    assert len(metrics.sliding_segments) == segments
    assert peak <= 16 * rows + 0.5e6


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

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, True])
    @pytest.mark.parametrize("name", ["eta", "epsilon_sw", "c_bound"])
    def test_bound_inputs_refused(self, name, value):
        # an infinite c_bound would pass any residual, and an epsilon_sw
        # of -sqrt(eta) divides by zero
        m = Metrics(t_reach_delta=1.0, residual_amp=1e9, mean_residual=1e9)
        args = {"eta": 0.01, "epsilon_sw": 0.02, "c_bound": 2.5, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name}[: ]"):
            residual_bound_check(m, **args)


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
