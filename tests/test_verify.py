"""The controller-invariant draws of the oracle suite: the batched calls
replay the stream of one scalar call per value, so the same draws are
examined."""

import numpy as np

from slidingesc import verify

DRAWS = 50


def scalar_invariant_draws(rng, draws):
    """The draws of _controller_invariants, one scalar call per value."""
    for _ in range(draws):
        p0 = float(rng.uniform(-2.0, 2.0))
        params = dict(
            p=float(rng.uniform(0.05, 5.0)),
            p0=p0,
            y_sat=max(p0, p0 + float(rng.uniform(-1.0, 3.0))),
            lam=float(rng.uniform(0.1, 10.0)),
            epsilon_sw=float(rng.uniform(1e-3, 0.5)),
            gamma=float(rng.uniform(1e-3, 1.0)),
            L_h=float(rng.uniform(1e-2, 2.0)),
            eta=float(rng.uniform(1e-4, 1.0)),
        )
        dt = float(rng.uniform(1e-4, 0.1))
        n_dirs = int(rng.integers(1, 6))
        sub_steps = int(rng.integers(1, 65))
        params.update(T_s=sub_steps * n_dirs * dt, n_dirs=n_dirs)
        k = int(rng.integers(0, 3 * n_dirs * sub_steps))
        s = float(rng.uniform(-50.0, 50.0))
        ramp = [float(rng.uniform(1e-4, 1.0)) for _ in range(20)]
        sliding = []
        for _ in range(20):
            dt = float(rng.uniform(1e-4, 0.5))
            e = float(rng.uniform(-5.0, 5.0))
            sliding.append((e, dt))
        yield params, (k, sub_steps, n_dirs), s, ramp, sliding


def recorder(monkeypatch, name, record):
    """Replace verify.<name> by a wrapper that logs its arguments."""
    original = getattr(verify, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, wrapper)


def test_invariant_draws_replay_scalar_stream(monkeypatch):
    seen = {"params": [], "k": [], "s": [], "ramp": [], "sliding": []}
    recorder(monkeypatch, "ControllerParams",
             lambda **kw: seen["params"].append(kw))
    # called at k and at k + period: the drawn step is the first
    recorder(monkeypatch, "cyclic_direction",
             lambda k, sub_steps, n: seen["k"].append((k, sub_steps, n)))
    recorder(monkeypatch, "control_law",
             lambda rho, sigma, s, eps: seen["s"].append(s))
    recorder(monkeypatch, "reference_step",
             lambda state, p_eff, y_sat, dt: seen["ramp"].append(dt))
    recorder(monkeypatch, "sliding_variable_step",
             lambda state, e, lam, dt: seen["sliding"].append((e, dt)))
    ok, _ = verify._controller_invariants(
        np.random.default_rng(verify.ORACLE_SEED), DRAWS)
    assert ok

    expected = list(scalar_invariant_draws(
        np.random.default_rng(verify.ORACLE_SEED), DRAWS))
    assert seen["params"] == [params for params, *_ in expected]
    assert seen["k"][::2] == [k for _, k, *_ in expected]
    assert seen["s"] == [s for _, _, s, *_ in expected]
    assert seen["ramp"] == [dt for *_, ramp, _ in expected for dt in ramp]
    assert seen["sliding"] == [pair for *_, sliding in expected
                               for pair in sliding]

