"""Exception types shared across the package, and every rule for a
valid input: a number, one > 0, a whole one, a flag, an array and a
point."""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid matrices, dimensions or parameter values."""


class SimulationAbort(RuntimeError):
    """A run was stopped by non-finite signals, or a run or scenario load
    by a time step that violates the resolution guard."""


def real(value, name: str) -> float:
    """``value`` as a float: a real number, not a bool or a string, and
    finite (2, 2.5 and 1e-3 pass; True, "2", None, NaN, inf and an
    integer beyond the float range do not); ConfigurationError naming
    the field ``name``."""
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
    if not math.isfinite(number):
        raise ConfigurationError(
            f"{name}: expected a finite number, got {value!r}")
    return number


def positive(value, name: str) -> float:
    """``value`` as ``real`` reads it, refused unless it is > 0."""
    number = real(value, name)
    if number > 0.0:
        return number
    raise ConfigurationError(f"{name} must be > 0, got {value}")


def whole(value, name: str) -> int:
    """``value`` as an int >= 1: 3 and 3.0 pass as 3; 2.5, True, "3",
    NaN and 0 do not."""
    try:
        integral = real(value, name).is_integer()
    except ConfigurationError:
        integral = False
    if not integral:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if int(value) < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {int(value)}")
    return int(value)


def flag(value, name: str) -> bool:
    """``value``, a bool: True and False pass; 0, 1, "off" and None do
    not."""
    if isinstance(value, bool):
        return value
    raise ConfigurationError(f"{name}: expected true or false, got {value!r}")


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


def points(value, dim: int, name: str) -> np.ndarray:
    """``value`` as a float array of real numbers whose last axis is
    ``dim``, one point ``(dim,)`` or a batch ``(..., dim)``, else a
    ConfigurationError naming ``name``.  Non-finite values pass, for the
    closed loops' finite-escape guard to see an escaping plant."""
    if isinstance(value, (list, tuple)):
        # numpy reads [True, 2] as the integers [1, 2], so a list is
        # judged entry by entry by the number rule's type test (finite or
        # not), and an array by its dtype below
        for entry in np.asarray(value, dtype=object).flat:
            if isinstance(entry, bool) or not isinstance(entry, numbers.Real):
                raise ConfigurationError(
                    f"{name}: expected real numbers, got {entry!r}")
    points = np.asarray(value)
    if points.dtype.kind not in "fiu":
        raise ConfigurationError(
            f"{name}: expected real numbers, got an array of {points.dtype}")
    if points.shape[-1:] != (dim,):
        raise ConfigurationError(
            f"{name} must have last dimension {dim}, got {points.shape}")
    return points.astype(float, copy=False)


def finite_escape(k: int, dt: float) -> SimulationAbort:
    """The abort of either closed loop at step ``k`` of step size ``dt``,
    whose output, relay argument or updated state is non-finite."""
    return SimulationAbort(f"non-finite signal at step {k} (t={k * dt:.6g}), "
                           "finite-escape guard")
