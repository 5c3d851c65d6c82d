"""Uniform B-spline grids: basis evaluation and least-squares fitting.

Knot vectors are uniform over the domain with ``order`` extension knots
continuing the same spacing on each side, so the basis stays defined (and
polynomially extrapolates) slightly outside the domain. For degree ``k`` and
``G`` intervals there are ``G + k`` basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDomainError,
    LengthMismatchError,
    RankDeficientError,
)

RIDGE_DAMPING = 1e-8


@dataclass(frozen=True)
class KnotGrid:
    """Uniform knot partition of [domain_min, domain_max]."""

    domain_min: float
    domain_max: float
    num_intervals: int
    order: int
    knots: np.ndarray

    @property
    def num_basis(self) -> int:
        return self.num_intervals + self.order


@dataclass
class SplineCoeffs:
    """Trainable coefficients paired with a KnotGrid."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("spline coefficients must be finite")


def make_grid(domain_min: float, domain_max: float, num_intervals: int,
              order: int = 3) -> KnotGrid:
    """Build a uniform grid with `order` extension knots on each side."""
    if not domain_min < domain_max:
        raise InvalidDomainError(
            f"domain_min ({domain_min}) must be < domain_max ({domain_max})")
    if num_intervals < 1:
        raise InvalidArgumentError("num_intervals must be >= 1")
    if order < 0:
        raise InvalidArgumentError("order must be >= 0")
    h = (domain_max - domain_min) / num_intervals
    idx = np.arange(-order, num_intervals + order + 1)
    knots = domain_min + h * idx
    return KnotGrid(float(domain_min), float(domain_max),
                    int(num_intervals), int(order), knots)


def _cox_de_boor(grid: KnotGrid, xs, want_deriv: bool):
    """All order-k bases at each x, and their first derivatives if asked.

    The degree-0 indicators clamp the interval index, so the recursion
    extrapolates the first or last polynomial piece for x beyond the knot
    span instead of returning 0. The derivatives come from the degree k-1
    bases of the last step.
    """
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    t = grid.knots
    m = len(t) - 1
    j = np.clip(np.searchsorted(t, x, side="right") - 1, 0, m - 1)
    basis = np.zeros((x.size, m))
    basis[np.arange(x.size), j] = 1.0
    for k in range(1, grid.order + 1):
        lower = basis
        left = (x[:, None] - t[None, :m - k]) / (t[k:m] - t[:m - k])
        right = (t[k + 1:m + 1] - x[:, None]) / (t[k + 1:m + 1] - t[1:m - k + 1])
        basis = left * lower[:, :m - k] + right * lower[:, 1:m - k + 1]
    if not want_deriv:
        return basis, None
    k = grid.order
    if k == 0:
        return basis, np.zeros_like(basis)
    dcoef_l = k / (t[k:m] - t[:m - k])
    dcoef_r = k / (t[k + 1:m + 1] - t[1:m - k + 1])
    return basis, dcoef_l * lower[:, :m - k] - dcoef_r * lower[:, 1:m - k + 1]


def basis_matrix(grid: KnotGrid, xs) -> np.ndarray:
    """Evaluate all basis functions at each x. Returns (n, G + k)."""
    return _cox_de_boor(grid, xs, want_deriv=False)[0]


def basis_and_deriv_matrix(grid: KnotGrid, xs) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and first derivatives, both (n, G + k)."""
    return _cox_de_boor(grid, xs, want_deriv=True)


def spline_eval(grid: KnotGrid, coeffs: SplineCoeffs, x) -> float | np.ndarray:
    """Evaluate sum_i c_i B_i(x)."""
    c = coeffs.values
    if c.shape[0] != grid.num_basis:
        raise LengthMismatchError(
            f"coeff length {c.shape[0]} != basis count {grid.num_basis}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = basis_matrix(grid, x) @ c
    return float(out[0]) if scalar else out


def fit_coeffs_least_squares(grid: KnotGrid, xs, ys) -> SplineCoeffs:
    """Least-squares coefficients via ridge-damped normal equations."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise LengthMismatchError("xs and ys must have equal length")
    if xs.size < grid.num_basis:
        raise InvalidArgumentError(
            f"need at least {grid.num_basis} samples, got {xs.size}")
    a = basis_matrix(grid, xs)
    gram = a.T @ a + RIDGE_DAMPING * np.eye(grid.num_basis)
    rhs = a.T @ ys
    try:
        c = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError("damped normal equations are singular") from exc
    if not np.all(np.isfinite(c)):
        raise RankDeficientError("least-squares solution is not finite")
    return SplineCoeffs(c)

