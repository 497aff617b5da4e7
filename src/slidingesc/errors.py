"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid matrices, dimensions or parameter values."""


class SimulationAbort(RuntimeError):
    """A run was stopped: non-finite signals, a failed hypothesis check,
    or a time step that violates the resolution guard."""


def finite_escape(t: float) -> SimulationAbort:
    """The abort of either closed loop at the step ending at time ``t``."""
    return SimulationAbort(f"non-finite state after step at t={t:.6g} "
                           "(finite-escape guard)")
