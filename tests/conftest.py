"""Shared fixtures: the benchmark plant and cached heavy suite runs."""

import numpy as np
import pytest

from slidingesc import (CascadePlant, ControllerParams, LtiSubsystem,
                        QuadraticMap)

BENCHMARK_A = [[0.0, 1.0], [-4.0, -2.0]]


@pytest.fixture
def benchmark_lti() -> LtiSubsystem:
    return LtiSubsystem(BENCHMARK_A, np.eye(2), np.eye(2))


@pytest.fixture
def benchmark_map() -> QuadraticMap:
    return QuadraticMap.from_coupling(0.5)


@pytest.fixture
def benchmark_plant(benchmark_lti, benchmark_map) -> CascadePlant:
    return CascadePlant(benchmark_lti, benchmark_map)


@pytest.fixture
def benchmark_params() -> ControllerParams:
    return ControllerParams(p=1.0, p0=0.0, y_sat=2.5, lam=4.0,
                            epsilon_sw=0.02, gamma=0.1, L_h=0.1, eta=0.01,
                            T_s=5.0)


# Heavy suites, executed once per session and shared by the acceptance
# tests (each involves multi-minute-horizon closed-loop runs).

@pytest.fixture(scope="session")
def oracle_results():
    from slidingesc.verify import oracle_suite
    return {r.name: r for r in oracle_suite(draws=1000)}


@pytest.fixture(scope="session")
def scenario_results():
    from slidingesc.verify import scenario_suite
    return {r.name: r for r in scenario_suite()}


@pytest.fixture(scope="session")
def sweep_results():
    from slidingesc.verify import sweep_suite
    return {r.name: r for r in sweep_suite()}
