"""The verify suites: the controller-invariant draws of the oracle
suite are read from tables drawn up front, in the documented order, and
those tables cover their ranges and stay small; every check of the
oracle suite, the two numeric oracles included, can fail; the scenario
and sweep suites read their variants and plant_eta as their runs do."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from slidingesc import CascadePlant, LtiSubsystem, load_builtin, verify
from slidingesc.scenario import scenario_from_dict

DRAWS = 50

# (low, high) of the nine parameter uniforms of an invariant draw
PARAM_BOUNDS = {"p0": (-2.0, 2.0), "p": (0.05, 5.0), "sat_offset": (-1.0, 3.0),
                "lam": (0.1, 10.0), "epsilon_sw": (1e-3, 0.5),
                "gamma": (1e-3, 1.0), "L_h": (1e-2, 2.0), "eta": (1e-4, 1.0),
                "dt": (1e-4, 0.1)}


def table_invariant_draws(rng, draws):
    """The draws of _controller_invariants: one table call per input,
    every draw's values at once, in the documented order."""
    low, high = np.array(list(PARAM_BOUNDS.values())).T
    uniforms = rng.uniform(low, high, (draws, 9))
    n_dirs = rng.integers(1, 6, draws)
    sub_steps = rng.integers(1, 65, draws)
    k = rng.integers(0, 3 * n_dirs * sub_steps)
    s = rng.uniform(-50.0, 50.0, draws)
    ramp = rng.uniform(1e-4, 1.0, (draws, 20))
    sliding = rng.uniform((1e-4, -5.0), (0.5, 5.0), (draws, 20, 2))
    for i in range(draws):
        u = dict(zip(PARAM_BOUNDS, uniforms[i].tolist()))
        dt = u.pop("dt")
        u["y_sat"] = max(u["p0"], u["p0"] + u.pop("sat_offset"))
        u["T_s"] = int(sub_steps[i]) * int(n_dirs[i]) * dt
        yield (u, (int(k[i]), int(sub_steps[i]), int(n_dirs[i])),
               float(s[i]), ramp[i].tolist(),
               [(e, dt) for dt, e in sliding[i].tolist()])


def recorder(monkeypatch, name, record):
    """Replace verify.<name> by a wrapper that logs its arguments."""
    original = getattr(verify, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, wrapper)


def test_invariant_draws_replay_table_stream(monkeypatch):
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

    expected = list(table_invariant_draws(
        np.random.default_rng(verify.ORACLE_SEED), DRAWS))
    assert seen["params"] == [params for params, *_ in expected]
    assert seen["k"][::2] == [k for _, k, *_ in expected]
    assert seen["s"] == [s for _, _, s, *_ in expected]
    assert seen["ramp"] == [dt for *_, ramp, _ in expected for dt in ramp]
    assert seen["sliding"] == [pair for *_, sliding in expected
                               for pair in sliding]


def test_invariant_tables_cover_their_ranges(monkeypatch):
    # the tables the oracle suite's 1000 draws read, after its two
    # 100-point oracles took their draws from the same generator
    tables = []
    drawn = verify._invariant_tables

    def kept(rng, draws):
        tables.append(drawn(rng, draws))
        return tables[-1]

    monkeypatch.setattr(verify, "_invariant_tables", kept)
    assert all(r.passed for r in verify.oracle_suite())
    params, n_dirs, sub_steps, k, s, ramp, sliding = tables[-1]

    assert len(params) == 1000
    assert set(n_dirs.tolist()) == {1, 2, 3, 4, 5}
    assert {1, 64} <= set(sub_steps.tolist()) <= set(range(1, 65))
    assert np.all((0 <= k) & (k < 3 * n_dirs * sub_steps))
    for column, (low, high) in zip(params.T, PARAM_BOUNDS.values()):
        assert np.all((low <= column) & (column < high))
    for values, low, high in ((s, -50.0, 50.0), (ramp, 1e-4, 1.0),
                              (sliding[..., 0], 1e-4, 0.5),
                              (sliding[..., 1], -5.0, 5.0)):
        assert np.all((low <= values) & (values < high))


@pytest.mark.parametrize("check", [
    lambda: verify._controller_invariants(
        np.random.default_rng(verify.ORACLE_SEED), 1000),
    lambda: verify.composition_check(200)], ids=["invariants", "composition"])
def test_draw_tables_stay_small(check):
    # the tables are arrays converted a row per draw; held as Python
    # lists, the invariants' tables alone take several MB
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_variants_read_back_to_their_records(monkeypatch):
    # the dt-halving and plant_eta variants of the scenario and sweep
    # suites are documents read again: each document reads back to the
    # records its run took (the suites run 20 s horizons here)
    derive = verify.with_overrides
    monkeypatch.setattr(verify, "load_builtin", lambda name: derive(
        load_builtin(name), {"sim.horizon": "20"}))
    variants, ran = [], []

    def variant(scenario, overrides):
        variants.append(derive(scenario, overrides))
        return variants[-1]

    run = verify.run

    def recorded(plant, params, config, **kwargs):
        ran.append((params, config))
        return run(plant, params, config, **kwargs)

    monkeypatch.setattr(verify, "with_overrides", variant)
    monkeypatch.setattr(verify, "run", recorded)
    verify.scenario_suite()
    verify.sweep_suite()

    assert [v.document["sim"]["dt"] for v in variants[:2]] == [5e-4, 5e-4]
    assert [v.document["sim"]["plant_eta"] for v in variants[2:]] == list(
        verify.SWEEP_ETAS)
    for v in variants:
        assert any(params is v.controller and config is v.sim
                   for params, config in ran)
        again = scenario_from_dict(v.document)
        for record in ("controller", "sim", "analysis"):
            ours, read = getattr(v, record), getattr(again, record)
            for field in dataclasses.fields(ours):
                assert np.array_equal(getattr(ours, field.name),
                                      getattr(read, field.name)), field.name


def test_residual_bound_reads_the_runs_plant_eta(monkeypatch):
    # a scenario whose plant_eta differs from the controller's eta: the
    # scenario suite bounds its residual at the plant_eta its runs took
    derive = verify.with_overrides
    monkeypatch.setattr(verify, "SCENARIO_NAMES", ("coupled_bowl",))
    monkeypatch.setattr(verify, "load_builtin", lambda name: derive(
        load_builtin(name), {"sim.horizon": "20", "sim.plant_eta": "0.04"}))
    bounded, ran = [], []
    recorder(monkeypatch, "residual_bound_check",
             lambda metrics, eta, *args: bounded.append(eta))
    recorder(monkeypatch, "run",
             lambda plant, params, config, **kwargs: ran.append(
                 config.resolved_plant_eta(params.eta)))
    verify.scenario_suite()

    assert load_builtin("coupled_bowl").controller.eta == 0.01
    # the run and its dt-halved rerun, each bounded where it is made
    assert bounded == [0.04, 0.04]
    assert ran == [0.04, 0.04]


def invariants():
    return verify._controller_invariants(
        np.random.default_rng(verify.ORACLE_SEED), 5)


def composition():
    result = verify.composition_check(5)
    return result.passed, result.detail


def oracle(name):
    """The check ``name`` of the oracle suite (five invariant draws)."""
    def check():
        result, = [r for r in verify.oracle_suite(draws=5) if r.name == name]
        return result.passed, result.detail
    return check


def changed(change):
    """A stand-in for a function whose result passes through ``change``,
    which is also given the function's arguments."""
    return lambda original: lambda *args: change(original(*args), *args)


def resolved(**changes):
    """A stand-in for ``ControllerParams.resolve`` with each field of
    ``changes`` passed through its function."""
    return changed(lambda constants, *_: dataclasses.replace(constants, **{
        name: change(getattr(constants, name))
        for name, change in changes.items()}))


# each failure branch of the oracle checks: the name a faulty stand-in
# replaces, the stand-in, the check and the detail it fails with
FAULTS = {
    "input gain": (CascadePlant, "high_freq_gain",
                   changed(lambda gain, *_: 1.01 * gain),
                   oracle("gain_matches_fd_oracle"),
                   r"max relative deviation \S+ \(tol 1e-6, 100 points\)"),
    "quasi-steady state": (LtiSubsystem, "quasi_steady_state",
                           changed(lambda x, *_: x + 1e-6),
                           oracle("steady_state_residual"),
                           r"max scaled residual \S+ \(tol 1e-10, "
                           r"100 points\)"),
    "rho floor": (verify.ControllerParams, "resolve",
                  resolved(rho=lambda rho: 0.5 * rho), invariants,
                  r"draw 0: rho \S+ below bound \S+"),
    "sub-step count": (verify.ControllerParams, "resolve",
                       resolved(sub_steps=lambda n: n + 1), invariants,
                       r"draw 0: T_s does not give \d+ steps"),
    "scheduler period": (verify, "cyclic_direction",
                         changed(lambda result, k, *_: (k, result[1])),
                         invariants,
                         r"draw 0: scheduler not periodic at k=\d+"),
    "direction shares": (verify, "direction_index",
                         changed(lambda index, *_: index[1:]), invariants,
                         r"draw 0: direction shares \[.*\] not equal"),
    "control law": (verify, "control_law", changed(lambda u, *_: 2.0 * u),
                    invariants,
                    r"draw 0: u=\[.*\] not a single \+-rho component"),
    "reference": (verify, "reference_step",
                  changed(lambda y_m, *_: y_m - 1.0), invariants,
                  r"draw 0: reference not monotone/saturated"),
    "sliding variable": (verify, "sliding_variable_step",
                         changed(lambda s, state, e, lambda_eff, dt:
                                 s + 100.0 * lambda_eff + 1.0), invariants,
                         r"draw 0: \|s-e\| exceeds lambda_eff\*t"),
    "composition": (verify, "controller_step",
                    changed(lambda result, *_: (-result[0], result[1])),
                    composition, r"draw 0: composition mismatch"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_oracle_check_can_fail(monkeypatch, fault):
    owner, name, stand_in, check, detail = FAULTS[fault]
    assert check()[0]
    monkeypatch.setattr(owner, name, stand_in(getattr(owner, name)))
    passed, got = check()
    assert not passed
    assert re.fullmatch(detail, got), got
