"""Plant models: integrator + stable LTI subsystem + static objective map.

The controlled system is the cascade

    v' = u,   x' = A x + B v,   z = C x,   y = h(z),

where u is the switched control, v the continuous virtual input produced
by the input-side integrator, and h the unknown static objective.  The
quasi-steady state of the LTI block is x = -A^{-1} B v, which gives the
DC gain G = -C A^{-1} B of the v -> z channel and the input-to-output
gain k_p(z) = G^T grad h(z) used by the analysis oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

HURWITZ_TOL = -1e-9
FD_STEP = 1e-5


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(mat)):
        raise ConfigurationError(f"{name} must contain only finite values")
    return mat


def _as_vector(value, dim: int, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape != (dim,):
        raise ConfigurationError(f"{name} must have dimension {dim}, got {vec.shape}")
    return vec


def central_difference(fn: Callable[[np.ndarray], float],
                       point: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function of a vector.

    The step FD_STEP is scaled by max(1, ||point||) to balance
    truncation and rounding error.
    """
    point = np.asarray(point, dtype=float)
    h = FD_STEP * max(1.0, float(np.linalg.norm(point)))
    grad = np.empty_like(point)
    for i in range(point.size):
        offset = np.zeros_like(point)
        offset[i] = h
        grad[i] = (fn(point + offset) - fn(point - offset)) / (2.0 * h)
    return grad


class LtiSubsystem:
    """Stable linear block x' = A x + B v, z = C x.

    Parameters
    ----------
    A : array_like, shape (n, n)
        State matrix.  Must be invertible; must be Hurwitz unless
        ``allow_unstable`` is set.
    B : array_like, shape (n, m)
        Input matrix, m >= 1.
    C : array_like, shape (n, n), optional
        Output matrix, identity by default.
    allow_unstable : bool
        Skip the Hurwitz requirement (the stability check is still
        reported by :meth:`CascadePlant.check_hypotheses`).
    """

    def __init__(self, A, B, C=None, *, allow_unstable: bool = False) -> None:
        self.A = _as_matrix(A, "A")
        self.B = _as_matrix(B, "B")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ConfigurationError(
                f"B must have {n} rows to match A, got {self.B.shape}")
        if self.B.shape[1] == 0:
            raise ConfigurationError(
                f"B must have at least one column (one per input), got "
                f"{self.B.shape}")
        self.C = np.eye(n) if C is None else _as_matrix(C, "C")
        if self.C.shape != (n, n):
            raise ConfigurationError(f"C must be {n}x{n}, got {self.C.shape}")

        self.n = n
        self.m = self.B.shape[1]
        self.eigenvalues = np.linalg.eigvals(self.A)
        self.is_hurwitz = bool(np.max(self.eigenvalues.real) < HURWITZ_TOL)
        if not self.is_hurwitz and not allow_unstable:
            raise ConfigurationError(
                "A is not Hurwitz (eigenvalues must lie in the open left "
                f"half-plane): eigenvalues {self.eigenvalues}")

        # invertibility gate for the quasi-steady-state algebra
        cond = np.linalg.cond(self.A)
        if not np.isfinite(cond) or cond > 1e12:
            raise ConfigurationError(
                f"A is singular or ill-conditioned (cond={cond:.3g}); the "
                "quasi-steady state x = -A^-1 B v is undefined")
        # solve once, never form the explicit inverse
        self._neg_Ainv_B = -np.linalg.solve(self.A, self.B)
        self.dc_gain = self.C @ self._neg_Ainv_B

        self.A.flags.writeable = False
        self.B.flags.writeable = False
        self.C.flags.writeable = False
        self.dc_gain.flags.writeable = False

    def steady_state_output(self, v) -> np.ndarray:
        """Quasi-steady output z_ss = -C A^{-1} B v for a frozen input v."""
        v = _as_vector(v, self.m, "v")
        return self.dc_gain @ v

    def quasi_steady_state(self, v) -> np.ndarray:
        """The x solving A x + B v = 0."""
        v = _as_vector(v, self.m, "v")
        return self._neg_Ainv_B @ v

    def __repr__(self) -> str:
        return (f"LtiSubsystem(n={self.n}, m={self.m}, "
                f"hurwitz={self.is_hurwitz})")


class QuadraticMap:
    """Concave quadratic objective h(z) = y* + (z - z*)^T H (z - z*) / 2.

    Parameters
    ----------
    y_star : float
        Value at the maximizer.
    z_star : array_like
        Maximizer location.
    H : array_like, shape (n, n)
        Symmetric negative definite curvature matrix, so that z* is the
        unique maximizer.
    """

    def __init__(self, y_star: float, z_star, H) -> None:
        self.y_star = float(y_star)
        self.z_star = np.asarray(z_star, dtype=float).reshape(-1)
        self.H = _as_matrix(H, "H")
        self.dim = self.z_star.size
        if self.H.shape != (self.dim, self.dim):
            raise ConfigurationError(
                f"H must be {self.dim}x{self.dim}, got {self.H.shape}")
        sym_err = float(np.max(np.abs(self.H - self.H.T)))
        symmetric = sym_err <= 1e-12 * max(1.0, float(np.max(np.abs(self.H))))
        self.curvature_eigs = np.linalg.eigvalsh(0.5 * (self.H + self.H.T))
        if not (symmetric and np.max(self.curvature_eigs) < 0.0):
            raise ConfigurationError(
                "H must be symmetric negative definite for a unique maximum; "
                f"symmetry error {sym_err:.3g}, eigenvalues {self.curvature_eigs}")
        self.z_star.flags.writeable = False
        self.H.flags.writeable = False

    @classmethod
    def from_coupling(cls, coupling: float, y_star: float = 2.0,
                      z_star: Sequence[float] = (0.0, 0.0)) -> "QuadraticMap":
        """Two-input benchmark bowl h(z) = y* - (z1^2 + z2^2 - 2 c z1 z2).

        Concave for |coupling| < 1.  Curvature matrix [[-2, 2c], [2c, -2]].
        """
        c = float(coupling)
        H = np.array([[-2.0, 2.0 * c], [2.0 * c, -2.0]])
        return cls(y_star, z_star, H)

    def eval(self, z) -> float:
        d = _as_vector(z, self.dim, "z") - self.z_star
        return self.y_star + 0.5 * float(d @ (self.H @ d))

    def gradient(self, z) -> np.ndarray:
        d = _as_vector(z, self.dim, "z") - self.z_star
        return self.H @ d


@dataclass
class HypothesisCheck:
    name: str
    status: str          # "pass" | "fail" | "assumed"
    detail: str


@dataclass
class HypothesisReport:
    """Outcome of the structural checks on a plant.

    Machine-checkable items report pass/fail; the remaining assumptions
    are listed as "assumed" together with the configured gradient lower
    bound so that a run's premises are on record.
    """

    checks: list[HypothesisCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if c.status == "fail"]

    def __str__(self) -> str:
        width = max(len(c.name) for c in self.checks) if self.checks else 1
        return "\n".join(f"{c.name:<{width}}  [{c.status:^7}]  {c.detail}"
                         for c in self.checks)


class CascadePlant:
    """Integrator + LTI block + static map, with explicit mutable state.

    The outputs z = C x and y = h(z) are always derived from the current
    state, never stored.  All operations are pure in their inputs except
    the explicit state setters, so instances are safe to share read-only.
    """

    def __init__(self, lti: LtiSubsystem, objective: QuadraticMap,
                 v=None, x=None) -> None:
        if objective.dim != lti.n:
            raise ConfigurationError(
                f"objective dimension {objective.dim} != LTI output "
                f"dimension {lti.n}")
        self.lti = lti
        self.map = objective
        self._v = np.zeros(lti.m) if v is None else _as_vector(v, lti.m, "v")
        self._x = np.zeros(lti.n) if x is None else _as_vector(x, lti.n, "x")

    @property
    def v(self) -> np.ndarray:
        return self._v

    @v.setter
    def v(self, value) -> None:
        self._v = _as_vector(value, self.lti.m, "v")

    @property
    def x(self) -> np.ndarray:
        return self._x

    @x.setter
    def x(self, value) -> None:
        self._x = _as_vector(value, self.lti.n, "x")

    @property
    def z(self) -> np.ndarray:
        return self.lti.C @ self._x

    @property
    def y(self) -> float:
        return self.map.eval(self.z)

    def derivative(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side (v', x') = (u, A x + B v) at the current state."""
        u = _as_vector(u, self.lti.m, "u")
        dv = u.copy()
        dx = self.lti.A @ self._x + self.lti.B @ self._v
        return dv, dx

    def high_freq_gain(self, z) -> np.ndarray:
        """Input-to-output-rate gain k_p with k_p = G^T grad h(z).

        Under the quasi-steady state the measured output obeys
        y' = k_p(z)^T u, which is what the finite-difference oracle in
        the analysis module checks.
        """
        return self.lti.dc_gain.T @ self.map.gradient(z)

    def check_hypotheses(self, L_h: Optional[float] = None) -> HypothesisReport:
        """Structural report: the stability check, the maximum's shape
        (which every map has by construction) and the assumptions that
        cannot be machine-verified."""
        rep = HypothesisReport()
        recorded = f"L_h={L_h if L_h is not None else 'unset'}"
        rep.checks.append(HypothesisCheck(
            "H1 parameter set", "assumed",
            "uncertain plant parameters lie in a compact set; not machine-checkable"))
        rep.checks.append(HypothesisCheck(
            "H2 smoothness", "pass", "quadratic objective is smooth everywhere"))
        eig_str = np.array2string(self.lti.eigenvalues, precision=4)
        rep.checks.append(HypothesisCheck(
            "H3 stable subsystem", "pass" if self.lti.is_hurwitz else "fail",
            f"eigenvalues of A: {eig_str}"))
        rep.checks.append(HypothesisCheck(
            "H4 unique maximum", "pass",
            "curvature eigenvalues "
            f"{np.array2string(self.map.curvature_eigs, precision=4)}, all "
            "negative (checked when the map is built)"))
        rep.checks.append(HypothesisCheck(
            "H5 radial unboundedness", "assumed",
            "boundedness of |y| must imply boundedness of the state; " + recorded))
        rep.checks.append(HypothesisCheck(
            "H6 gradient lower bound", "assumed",
            "gradient norm at least L_h outside the vicinity; " + recorded))
        return rep

    def __repr__(self) -> str:
        return f"CascadePlant({self.lti!r}, map={type(self.map).__name__})"
