"""Exception types shared across the package, and the one rule for a
valid number that scenario documents and the library's records apply."""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid matrices, dimensions or parameter values."""


class SimulationAbort(RuntimeError):
    """A run was stopped by non-finite signals, or a run or scenario load
    by a time step that violates the resolution guard."""


def real(value, name: str, *, finite: bool = True) -> float:
    """``value`` as a float: a real number, not a bool or a string, and
    finite (2, 2.5 and 1e-3 pass; True, "2", None, NaN, inf and an
    integer beyond the float range do not); ConfigurationError naming
    the field ``name``.  ``finite=False`` admits +-inf, never NaN."""
    if type(value) is float and value - value == 0.0:  # a finite float
        return value
    # float and int first, as the numbers.Real test alone is slow
    if (isinstance(value, bool)
            or not isinstance(value, (float, int, numbers.Real))):
        raise ConfigurationError(f"{name}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.nan
    if not math.isfinite(number) and (finite or math.isnan(number)):
        raise ConfigurationError(
            f"{name}: expected a finite number, got {value!r}")
    return number


def reals(value, name: str) -> np.ndarray:
    """``value``, a number or a rectangular nested list of numbers, as
    a float array; each element is checked as ``real`` checks one, and
    ConfigurationError names the first it refuses (``A[1][0]``)."""
    if isinstance(value, np.ndarray):  # a 0-d array gives its one number
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            reals(item, f"{name}[{i}]")
    else:
        real(value, name)
    try:  # numpy refuses a ragged nesting
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ConfigurationError(f"{name}: expected a rectangular array, got "
                                 f"entries of unequal shapes") from None


def vector(value, name: str) -> np.ndarray:
    """``value`` as ``reals`` reads it, refused unless it is 1-D."""
    vec = reals(value, name)
    if vec.ndim != 1:
        raise ConfigurationError(
            f"{name}: expected a vector, got an array of shape {vec.shape}")
    return vec


def finite_escape(k: int, dt: float) -> SimulationAbort:
    """The abort of either closed loop at step ``k`` of step size ``dt``,
    whose output, relay argument or updated state is non-finite."""
    return SimulationAbort(f"non-finite signal at step {k} (t={k * dt:.6g}), "
                           "finite-escape guard")
