"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid matrices, dimensions or parameter values."""


class SimulationAbort(RuntimeError):
    """A run was stopped by non-finite signals, or a run or scenario load
    by a time step that violates the resolution guard."""


def real(value, name: str) -> float:
    """``value`` as a float; ConfigurationError naming the field ``name``
    for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be finite, got an integer "
                                 "beyond the float range") from None


def finite_escape(k: int, dt: float) -> SimulationAbort:
    """The abort of either closed loop at step ``k`` of step size ``dt``,
    whose output, relay argument or updated state is non-finite."""
    return SimulationAbort(f"non-finite signal at step {k} (t={k * dt:.6g}), "
                           "finite-escape guard")
