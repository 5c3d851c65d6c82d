"""Uniform B-spline grids: basis evaluation and least-squares fitting.

Knot vectors are uniform over the domain with ``order`` extension knots
continuing the same spacing on each side, so the basis stays defined (and
polynomially extrapolates) slightly outside the domain. For degree ``k`` and
``G`` intervals there are ``G + k`` basis functions.

One Cox-de Boor recursion, ``_cox_de_boor``, evaluates the bases of E grids
at once from their stacked knots (a ``KnotStack``), computing at each point
only the k + 1 bases that can be nonzero there; a single ``KnotGrid`` is a
stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDomainError,
    LengthMismatchError,
    RankDeficientError,
    is_count,
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


@dataclass(frozen=True)
class KnotStack:
    """The knot vectors of E grids that share (num_intervals, order), one
    row each, continued by ``order`` more knots of the same spacing past
    either end, so that every point's band of knots can be read without
    bounds checks."""

    padded: np.ndarray  # (E, G + 4k + 1)
    order: int


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
    if not (math.isfinite(domain_min) and math.isfinite(domain_max)):
        raise InvalidDomainError(
            f"domain bounds must be finite, got [{domain_min}, {domain_max}]")
    if not domain_min < domain_max:
        raise InvalidDomainError(
            f"domain_min ({domain_min}) must be < domain_max ({domain_max})")
    for name, value, least in (("num_intervals", num_intervals, 1),
                               ("order", order, 0)):
        if not is_count(value, least):
            raise InvalidArgumentError(
                f"{name} must be an integer >= {least}, got {value!r}")
    h = (domain_max - domain_min) / num_intervals
    idx = np.arange(-order, num_intervals + order + 1)
    knots = domain_min + h * idx
    return KnotGrid(float(domain_min), float(domain_max),
                    int(num_intervals), int(order), knots)


def stack_grids(grids) -> KnotStack:
    """Stack grids that share (num_intervals, order), one row each."""
    grids = list(grids)
    if len({(g.num_intervals, g.order) for g in grids}) != 1:
        raise InvalidArgumentError(
            "stacked grids must share one (num_intervals, order)")
    t = np.stack([g.knots for g in grids])
    k = grids[0].order
    h = (t[:, 1:2] - t[:, :1]) * np.arange(1, k + 1)
    return KnotStack(np.concatenate((t[:, :1] - h[:, ::-1], t, t[:, -1:] + h),
                                    axis=1), k)


def _cox_de_boor(stack: KnotStack, xs: np.ndarray, want_deriv: bool):
    """All order-k bases at each x of xs (E, N) on the stack's E grids, and
    their first derivatives if asked, as (E*N, G + k) arrays: grid e's
    sample s is row e*N + s.

    Only the k + 1 bases that can be nonzero at x are computed, by the
    recursion on the knots t_{j-k} .. t_{j+k+1} around x's interval j; the
    others are 0. The interval index counts the interior knots at or below
    x, so x beyond the knot span takes the first or last interval and the
    recursion extrapolates its polynomial piece instead of returning 0. The
    derivatives come from the degree k-1 bases of the last step.
    """
    tp, k = stack.padded, stack.order
    width = tp.shape[1]
    m = width - 1 - 2 * k  # intervals between the unpadded knots
    x = xs.reshape(-1)
    j = np.concatenate([np.searchsorted(row[k + 1:k + m], xr, side="right")
                        for row, xr in zip(tp, xs)])
    # t[s] = t_{j-k+s}, s = 0 .. 2k + 1, read from the padded rows
    t = tp.reshape(-1)[np.arange(0, tp.size, width).repeat(xs.shape[1]) + j
                       + np.arange(2 * k + 2)[:, None]]
    zero = np.zeros((1, x.size))
    basis = lower = np.ones((1, x.size))
    for d in range(1, k + 1):
        lower = np.concatenate((zero, basis, zero))
        den = t[k:k + d + 2] - t[k - d:k + 2]  # t_{q+d} - t_q, q = j-d..j+1
        left = (x - t[k - d:k + 1]) / den[:-1]
        right = (t[k + 1:k + d + 2] - x) / den[1:]
        basis = left * lower[:-1] + right * lower[1:]
    bands = [basis]
    if want_deriv:
        bands.append(k / den[:-1] * lower[:-1] - k / den[1:] * lower[1:]
                     if k else np.zeros_like(basis))
    # band entry r is basis j - k + r: column j + r of a row padded by k
    cols = (np.arange(0, x.size * (m + k), m + k) + j
            + np.arange(k + 1)[:, None])
    out = []
    for band in bands:
        full = np.zeros((x.size, m + k))
        full.reshape(-1)[cols] = band
        out.append(np.ascontiguousarray(full[:, k:m]))
    return out[0], out[1] if want_deriv else None


def _stacked(grid, xs):
    """A KnotGrid and 1-D xs as a stack of one; a KnotStack and its xs (E, N)
    as they are."""
    if isinstance(grid, KnotGrid):
        return stack_grids([grid]), np.asarray(xs, dtype=float).reshape(1, -1)
    return grid, np.asarray(xs, dtype=float)


def basis_matrix(grid, xs) -> np.ndarray:
    """All basis functions at each x: (n, G + k) for a KnotGrid and n xs,
    (E*N, G + k) for a KnotStack and xs (E, N), as ``_cox_de_boor``."""
    return _cox_de_boor(*_stacked(grid, xs), want_deriv=False)[0]


def basis_and_deriv_matrix(grid, xs) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and first derivatives, each shaped as ``basis_matrix``."""
    return _cox_de_boor(*_stacked(grid, xs), want_deriv=True)


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

