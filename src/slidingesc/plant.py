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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, points, real, reals, vector

HURWITZ_TOL = -1e-9


class LtiSubsystem:
    """Stable linear block x' = A x + B v, z = C x.

    Parameters
    ----------
    A : array_like, shape (n, n)
        State matrix.  Must be Hurwitz (hypothesis H3) and well
        conditioned.
    B : array_like, shape (n, m)
        Input matrix, m >= 1.
    C : array_like, shape (n, n), optional
        Output matrix, identity by default.
    """

    def __init__(self, A, B, C=None) -> None:
        self.A = np.atleast_2d(reals(A, "A"))
        self.B = np.atleast_2d(reals(B, "B"))
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
        self.C = np.eye(n) if C is None else np.atleast_2d(reals(C, "C"))
        if self.C.shape != (n, n):
            raise ConfigurationError(f"C must be {n}x{n}, got {self.C.shape}")

        self.n = n
        self.m = self.B.shape[1]
        self.eigenvalues = np.linalg.eigvals(self.A)
        if not np.max(self.eigenvalues.real) < HURWITZ_TOL:
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
        """Quasi-steady output z_ss = -C A^{-1} B v for a frozen input v
        of shape (m,), or for each of a batch of shape (..., m)."""
        # a matrix times each point, a column: a batch's rows equal the
        # one-point products bit for bit, which points @ M.T does not
        return (self.dc_gain @ points(v, self.m, "v")[..., None])[..., 0]

    def quasi_steady_state(self, v) -> np.ndarray:
        """The x solving A x + B v = 0, for v as in steady_state_output."""
        return (self._neg_Ainv_B @ points(v, self.m, "v")[..., None])[..., 0]

    def __repr__(self) -> str:
        return f"LtiSubsystem(n={self.n}, m={self.m})"


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
        self.y_star = real(y_star, "y_star")
        self.z_star = vector(z_star, "z_star")
        self.H = np.atleast_2d(reals(H, "H"))
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
        c = real(coupling, "coupling")
        H = np.array([[-2.0, 2.0 * c], [2.0 * c, -2.0]])
        return cls(y_star, z_star, H)

    def _offset(self, z) -> np.ndarray:
        """z - z* for one point of shape (n,) or points of shape (..., n)."""
        return points(z, self.dim, "z") - self.z_star

    def eval(self, z):
        """h at one point z of shape (n,), a float, or at every point of
        an array of shape (..., n), an array of shape (...)."""
        d = self._offset(z)
        h = self.y_star + 0.5 * np.vecdot(d, (self.H @ d[..., None])[..., 0])
        return float(h) if d.ndim == 1 else h

    def gradient(self, z) -> np.ndarray:
        """grad h = H (z - z*) at one point of shape (n,) or at every
        point of an array of shape (..., n), with the shape of z."""
        return (self.H @ self._offset(z)[..., None])[..., 0]


@dataclass
class HypothesisCheck:
    name: str
    status: str          # "pass" | "assumed"
    detail: str


class CascadePlant:
    """Integrator + LTI block + static map, with explicit mutable state.

    The outputs z = C x and y = h(z) are always derived from the current
    state, never stored.  All operations are pure in their inputs except
    the explicit state setters, so instances are safe to share read-only.
    """

    def __init__(self, lti: LtiSubsystem, objective: QuadraticMap) -> None:
        if objective.dim != lti.n:
            raise ConfigurationError(
                f"objective dimension {objective.dim} != LTI output "
                f"dimension {lti.n}")
        self.lti = lti
        self.map = objective
        self._v = np.zeros(lti.m)
        self._x = np.zeros(lti.n)

    @property
    def v(self) -> np.ndarray:
        return self._v

    @v.setter
    def v(self, value) -> None:
        self._v = points(vector(value, "v"), self.lti.m, "v")

    @property
    def x(self) -> np.ndarray:
        return self._x

    @x.setter
    def x(self, value) -> None:
        self._x = points(vector(value, "x"), self.lti.n, "x")

    @property
    def z(self) -> np.ndarray:
        return self.lti.C @ self._x

    @property
    def y(self) -> float:
        return self.map.eval(self.z)

    def derivative(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side (v', x') = (u, A x + B v) at the current state."""
        u = points(u, self.lti.m, "u")
        if u.ndim != 1:
            raise ConfigurationError(
                f"u must be one point of shape ({self.lti.m},), got {u.shape}")
        dv = u.copy()
        dx = self.lti.A @ self._x + self.lti.B @ self._v
        return dv, dx

    def high_freq_gain(self, z) -> np.ndarray:
        """Input-to-output-rate gain k_p with k_p = G^T grad h(z), at one
        z of shape (n,) or at each of a batch of shape (..., n).

        Under the quasi-steady state the measured output obeys
        y' = k_p(z)^T u, which is what the finite-difference oracle in
        the analysis module checks.
        """
        return (self.lti.dc_gain.T @ self.map.gradient(z)[..., None])[..., 0]

    def check_hypotheses(self, L_h: Optional[float] = None
                         ) -> list[HypothesisCheck]:
        """The structural checks on the plant, for a caller that asks;
        no run asks.

        Each check is "pass", for a hypothesis that every plant meets by
        construction (the stability of the LTI block, the maximum's
        shape), or "assumed", for one the code cannot decide; the H5
        and H6 rows give the gradient lower bound ``L_h`` passed.
        """
        recorded = f"L_h={L_h if L_h is not None else 'unset'}"
        eigs, curvature = (np.array2string(values, precision=4) for values
                           in (self.lti.eigenvalues, self.map.curvature_eigs))
        return [HypothesisCheck(*row) for row in (
            ("H1 parameter set", "assumed", "uncertain plant parameters lie "
             "in a compact set; not machine-checkable"),
            ("H2 smoothness", "pass",
             "quadratic objective is smooth everywhere"),
            ("H3 stable subsystem", "pass",
             f"eigenvalues of A: {eigs}, all with negative real part "
             "(checked when the block is built)"),
            ("H4 unique maximum", "pass",
             f"curvature eigenvalues {curvature}, all negative (checked "
             "when the map is built)"),
            ("H5 radial unboundedness", "assumed", "boundedness of |y| must "
             "imply boundedness of the state; " + recorded),
            ("H6 gradient lower bound", "assumed",
             "gradient norm at least L_h outside the vicinity; " + recorded),
        )]

    def __repr__(self) -> str:
        return f"CascadePlant({self.lti!r}, map={type(self.map).__name__})"
