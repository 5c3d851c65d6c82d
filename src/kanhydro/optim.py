"""Deterministic BFGS with strong Wolfe line search, plus affine curve fitting.

The minimiser takes one callback, ``fun(x) -> (f, g)``: the objective and
its gradient from one evaluation. g is not read where f is not finite, so
``(inf, None)`` marks a point outside the objective's domain.

Everything here is pure and seed-free: identical inputs give bit-identical
results, which the grid-search harness relies on for reproducible sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidArgumentError,
    LengthMismatchError,
    NonFiniteObjectiveError,
)

STATUS_CONVERGED_GRAD = "converged-grad"
STATUS_CONVERGED_F = "converged-f"
STATUS_MAX_ITERS = "max-iters"
STATUS_LINE_SEARCH_FAILURE = "line-search-failure"

ZERO_VARIANCE_TOL = 1e-12

# the fewest samples an affine-wrap fit, and so a snap, takes
MIN_SAMPLES = 4

# coarse SSEs within this share of syy (the centred targets' sum of squares)
# of the least tie: mathematically tied points (every (a, b) for x, every b
# for exp) spread by up to 1.6e-14 of syy over criterion 5's sweep
COARSE_TIE_TOL = 1e-12

# strong Wolfe conditions: sufficient decrease (c1) and curvature (c2),
# 0 < c1 < c2 < 1, and the most trial steps one line search takes
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINE_SEARCH_STEPS = 40


@dataclass(frozen=True)
class OptimOptions:
    max_iters: int = 200
    grad_tol: float = 1e-8
    f_rel_tol: float = 1e-12

    def __post_init__(self):
        if self.grad_tol <= 0 or self.f_rel_tol <= 0:
            raise InvalidArgumentError("tolerances must be positive")


@dataclass
class OptimResult:
    x_star: np.ndarray
    f_star: float
    iterations: int
    status: str


def _interpolate(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi=None):
    """Cubic (or quadratic) interpolation of the line function minimum."""
    span = a_hi - a_lo
    if d_hi is not None:
        # cubic through (f_lo, d_lo) and (f_hi, d_hi)
        d1 = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
        disc = d1 * d1 - d_lo * d_hi
        if disc >= 0.0:
            d2 = np.sign(span) * np.sqrt(disc)
            denom = d_hi - d_lo + 2.0 * d2
            if denom != 0.0:
                cand = a_hi - (a_hi - a_lo) * (d_hi + d2 - d1) / denom
                if np.isfinite(cand):
                    return cand
    denom = f_hi - f_lo - d_lo * span
    if denom != 0.0:
        cand = a_lo - 0.5 * d_lo * span * span / denom
        if np.isfinite(cand):
            return cand
    return a_lo + 0.5 * span


def _zoom(probe, a_lo, a_hi, f_lo, g_lo, d_lo, f_hi, d_hi, f0, d0):
    """Nocedal-Wright zoom; returns (alpha, f, g) or None."""
    for _ in range(MAX_LINE_SEARCH_STEPS):
        lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
        width = hi - lo
        a = _interpolate(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
        if not (lo + 0.1 * width <= a <= hi - 0.1 * width):
            a = 0.5 * (a_lo + a_hi)
        fa, ga, da = probe(a)
        if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * d0 or fa >= f_lo:
            a_hi, f_hi, d_hi = a, fa, None
        else:
            if abs(da) <= -WOLFE_C2 * d0:
                return a, fa, ga
            if da * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
            a_lo, f_lo, g_lo, d_lo = a, fa, ga, da
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    if f_lo < f0 and a_lo > 0.0:
        return a_lo, f_lo, g_lo
    return None


def _line_search_wolfe(probe, f0, g0, d0):
    """Strong Wolfe line search from the point with value f0, gradient g0
    and slope d0. Returns (alpha, f, g) or None."""
    a_prev, f_prev, g_prev, d_prev = 0.0, f0, g0, d0
    a = 1.0
    for it in range(MAX_LINE_SEARCH_STEPS):
        fa, ga, da = probe(a)
        if not np.isfinite(fa):
            a = 0.5 * (a_prev + a)
            continue
        if fa > f0 + WOLFE_C1 * a * d0 or (it > 0 and fa >= f_prev):
            return _zoom(probe, a_prev, a, f_prev, g_prev, d_prev, fa, None,
                         f0, d0)
        if abs(da) <= -WOLFE_C2 * d0:
            return a, fa, ga
        if da >= 0.0:
            return _zoom(probe, a, a_prev, fa, ga, da, f_prev, d_prev,
                         f0, d0)
        a_prev, f_prev, g_prev, d_prev = a, fa, ga, da
        a = 2.0 * a
    return None


def bfgs_minimize(fun, x0, opts: OptimOptions | None = None) -> OptimResult:
    """Minimize with BFGS; accepted iterates never increase the objective.

    ``fun(x)`` returns ``(f, g)``, the objective and its gradient at x, from
    one evaluation. g is not read where f is not finite: ``(inf, None)`` is
    a wall the line search steps back from.
    """
    opts = opts or OptimOptions()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f, g = fun(x)
    f = float(f)
    if not np.isfinite(f):
        raise NonFiniteObjectiveError(f"objective is {f} at x0")
    g = np.asarray(g, dtype=float)
    h_inv = np.eye(n)
    status = STATUS_MAX_ITERS
    iterations = 0
    for it in range(opts.max_iters):
        if np.max(np.abs(g)) <= opts.grad_tol:
            status = STATUS_CONVERGED_GRAD
            break
        p = -h_inv @ g
        d0 = float(p @ g)
        if d0 >= 0.0:  # lost positive definiteness numerically; restart
            h_inv = np.eye(n)
            p = -g
            d0 = float(p @ g)
            if d0 >= 0.0:
                status = STATUS_CONVERGED_GRAD
                break

        def probe(a):
            """(f, g, slope along p) at x + a*p; (f, None, None) where f is
            not finite."""
            fa, ga = fun(x + a * p)
            fa = float(fa)
            if not np.isfinite(fa):
                return fa, None, None
            ga = np.asarray(ga, dtype=float)
            return fa, ga, float(ga @ p)

        res = _line_search_wolfe(probe, f, g, d0)
        if res is None:
            status = STATUS_LINE_SEARCH_FAILURE
            break
        alpha, f_new, g_new = res
        s = alpha * p
        y = g_new - g
        x = x + s
        iterations = it + 1
        sy = float(s @ y)
        if it == 0 and sy > 0.0:
            h_inv *= sy / float(y @ y)
        # norms and outer products written out: np.linalg.norm and np.outer
        # cost more in call overhead than in arithmetic at these sizes
        if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(y @ y):
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv -= rho * (s[:, None] * hy + hy[:, None] * s)
            h_inv += rho * (1.0 + rho * float(y @ hy)) * (s[:, None] * s)
        f_drop = f - f_new
        f, g = f_new, g_new
        if 0.0 <= f_drop <= opts.f_rel_tol * max(1.0, abs(f + f_drop)):
            status = STATUS_CONVERGED_F
            break
    if np.max(np.abs(g)) <= opts.grad_tol and status == STATUS_MAX_ITERS:
        status = STATUS_CONVERGED_GRAD
    return OptimResult(x_star=x, f_star=f, iterations=iterations, status=status)


@dataclass(frozen=True)
class AffineSearchGrid:
    """A snap fit's search, the one every fit runs by default: the coarse
    (a, b) grid, the samples it takes (None: all) and the polish options."""

    a_magnitudes: np.ndarray = field(
        default_factory=lambda: np.geomspace(0.1, 10.0, 21))
    b_values: np.ndarray = field(
        default_factory=lambda: np.linspace(-10.0, 10.0, 21))
    max_samples: int | None = 80  # subsample the coarse pass, not the polish
    polish: OptimOptions = OptimOptions(max_iters=20, grad_tol=1e-8)


_SEARCH = AffineSearchGrid()


def _check_samples(xs, ys):  # xs (n,) and target rows ys (E, n)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 2 or ys.shape[1] != xs.size:
        raise LengthMismatchError("xs and ys must have equal length")
    if xs.size < MIN_SAMPLES:
        raise InvalidArgumentError(f"need at least {MIN_SAMPLES} samples")
    return xs, ys


@dataclass(frozen=True)
class CoarseGrid:
    """An (a, b) search grid laid over a snap's samples xs, (n,), and its
    target rows ys, (E, n), which it carries; ``over`` is the snap's one
    check of them. Its x-only half (u, span) serves every candidate and
    every row; the rows' sub-samples ride along as sub_ys.
    """

    xs: np.ndarray  # every sample, shape (n,)
    ys: np.ndarray  # every target row, shape (E, n)
    a_vals: np.ndarray
    b_vals: np.ndarray
    u: np.ndarray  # a*x + b over the sub-samples, shape (a, b, sample)
    sub_ys: np.ndarray  # sub-sampled target rows, shape (E, sample)
    syy: np.ndarray  # each sub_ys row's centred sum of squares, shape (E,)
    span: np.ndarray  # (lo, hi) of a*x + b over every sample, shape (2, a, b)

    @staticmethod
    def over(xs, ys, search: AffineSearchGrid | None = None) -> "CoarseGrid":
        xs, ys = _check_samples(xs, ys)
        grid = search or _SEARCH
        a_vals = np.asarray(grid.a_magnitudes, dtype=float)
        a_vals = np.concatenate([a_vals, -a_vals])
        b_vals = np.asarray(grid.b_values, dtype=float)
        # a*x + b over every sample spans its values at the two extreme x
        ends = np.sort(np.multiply.outer(a_vals, [xs.min(), xs.max()]))
        span = ends.T[:, :, None] + b_vals
        sub_xs, sub_ys = xs, ys
        if grid.max_samples is not None and xs.size > grid.max_samples:
            idx = np.linspace(0, xs.size - 1, grid.max_samples).astype(int)
            sub_xs, sub_ys = xs[idx], ys[:, idx]
        u = a_vals[:, None, None] * sub_xs + b_vals[None, :, None]
        syy = [y @ y for y in sub_ys - sub_ys.mean(axis=1, keepdims=True)]
        return CoarseGrid(xs, ys, a_vals, b_vals, u, sub_ys, np.array(syy),
                          span)

    def mirror_half(self) -> "CoarseGrid":
        """The a > 0 rows of this grid, as views; the grid itself when its
        b values are not symmetric about 0.

        With b_vals == -b_vals[::-1], the point (-a, -b) of ``over``'s
        [mags, -mags] lays u' = -u exactly, so an even or odd f fits it with
        the same SSE as (a, b), and the a > 0 rows alone hold a best point.
        """
        half = self.a_vals.size // 2
        if not np.array_equal(self.b_vals, -self.b_vals[::-1]):
            return self
        return replace(self, a_vals=self.a_vals[:half], u=self.u[:half],
                       span=self.span[:, :half])


def _solve_cd(z, ys):
    """Closed-form (c, d) of min ||c z + d - y||^2 along z's last axis, and
    the SSE, for each row y of ys, (E, m), each of shape z.shape[:-1] + (E,),
    from centred sums, which stay exact where z is near-constant: c = S(zc,
    yc) / S(zc, zc), d = ybar - c zbar, SSE = S(yc, yc) - c S(zc, yc). A z
    constant up to rounding fits c = 0, d = ybar; a non-finite z or an
    overflowed sum gives a NaN SSE. z's sums serve every row; z is centred
    and squared in place: a second array of the coarse grid's size costs
    more than the arithmetic."""
    m, ybar = z.shape[-1], ys.mean(axis=1)
    yc, zbar = ys - ybar[:, None], z.mean(axis=-1, keepdims=True)
    zc = np.subtract(z, zbar, out=z)
    szy = np.stack([zc @ y for y in yc], axis=-1)  # one gemv per row
    sz = zc.sum(axis=-1, keepdims=True)
    # zbar's rounding shifts every zc by sz / m, which S(zc, zc) must not
    # count where z spreads by less than 1e-8 of zbar
    szz = np.square(zc, out=zc).sum(axis=-1, keepdims=True) - sz * sz / m
    # guard per z against near-constant z; a global threshold would let one
    # overflowing (a, b) point mask every reasonable candidate
    safe = szz > 1e-24 * (szz + m * zbar ** 2) + 1e-300
    c = np.where(safe, szy / np.where(safe, szz, 1.0), 0.0)
    syy = np.array([y @ y for y in yc])
    return c, ybar - c * zbar, np.maximum(syy - c * szy, 0.0)


def _first_least(sse, syy):
    """The index of the first SSE, in grid order, within COARSE_TIE_TOL * syy
    of the least, so that ties up to rounding resolve alike on any BLAS."""
    near = sse <= sse.min() + COARSE_TIE_TOL * syy
    return np.unravel_index(int(np.argmax(near)), sse.shape)


# f and the sums overflow at grid points far from the data (exp, cosh, large
# targets); those points come out non-finite and are skipped
@np.errstate(all="ignore")
def affine_start(f, coarse: CoarseGrid, *, domain):
    """The coarse pass of a snap fit for each row y of coarse.ys: the grid
    (a, b) whose closed-form (c, d) (_solve_cd) fits y's coarse samples
    best (_first_least), with (c, d) then solved on all of coarse.xs. A
    point is feasible where ``domain`` holds over the range of a*x + b on
    all of xs (``coarse.span``, at the two extreme x): f and the sums are
    taken there only, once for every row. A row skips the points where its
    coarse SSE is not finite, as the polish requires. Returns per row
    ([a, b, c, d], the SSE of that fit on all of xs, inf where not finite),
    or None where no point is left, as where no point is feasible."""
    feas = domain(*coarse.span)
    at = np.flatnonzero(feas)  # the feasible points, in grid order
    if not at.size:
        return [None] * len(coarse.ys)
    z = f(coarse.u if at.size == feas.size else coarse.u[feas])
    _, _, sse = _solve_cd(z.copy() if np.shares_memory(z, coarse.u) else z,
                          coarse.sub_ys)
    starts = []
    for y, row, syy in zip(coarse.ys, sse.reshape(-1, len(coarse.ys)).T,
                           coarse.syy):
        # NaN, from a non-finite f(u) or an overflowed sum, cannot rank
        row = np.where(np.isfinite(row), row, np.inf)
        (k,) = _first_least(row, syy)
        if row[k] == np.inf:
            starts.append(None)
            continue
        ia, ib = np.unravel_index(at[k], feas.shape)
        a0, b0 = float(coarse.a_vals[ia]), float(coarse.b_vals[ib])
        (c0,), (d0,), (sse0,) = _solve_cd(f(a0 * coarse.xs + b0), y[None])
        starts.append((np.array([a0, b0, c0, d0]),
                       float(sse0) if math.isfinite(sse0) else math.inf))
    return starts


def fit_r2(sse: float, ys) -> float:
    """1 - SSres/SStot; a constant target takes the zero-variance convention
    (R^2 = 1 iff the fit is exact)."""
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    if sstot < ZERO_VARIANCE_TOL:
        return 1.0 if sse < ZERO_VARIANCE_TOL else -np.inf
    return 1.0 - sse / sstot


def fit_affine_wrap(f, xs, ys, ab_grid: AffineSearchGrid | None = None, *,
                    deriv, domain, start):
    """Polish y = c*f(a*x + b) + d by BFGS on all four parameters and every
    sample, with ab_grid's polish options, from ``start``, the [a, b, c, d]
    of an affine_start call on the same samples; deriv is f's derivative.
    Returns (a, b, c, d, r2 of the polished fit).
    """
    xs, (ys,) = _check_samples(xs, [ys])
    grid = ab_grid or _SEARCH
    p0 = np.asarray(start, dtype=float)

    n = xs.size

    def fun(p):
        """Mean squared residual and its gradient at p = [a, b, c, d]; inf
        where a*x + b leaves f's domain or the SSE is not finite."""
        uu = p[0] * xs + p[1]
        if not domain(uu.min(), uu.max()):
            return np.inf, None
        fu = f(uu)
        cc, dd = p[2], p[3]
        r = cc * fu + dd - ys
        sse = float(r @ r)  # not finite iff fu is not, or it overflowed
        if not np.isfinite(sse):
            return np.inf, None
        fpu = deriv(uu)
        fpu = np.where(np.isfinite(fpu), fpu, 0.0)
        return sse / n, np.array([
            2.0 * float(r @ (cc * fpu * xs)) / n,
            2.0 * float(r @ (cc * fpu)) / n,
            2.0 * float(r @ fu) / n,
            2.0 * float(r.sum()) / n,
        ])

    # f may overflow or leave its domain anywhere along the search, and
    # fun turns that into inf, so floating-point errors are expected
    with np.errstate(all="ignore"):
        try:
            res = bfgs_minimize(fun, p0, grid.polish)
            (a, b, cc, dd), best_sse = res.x_star, res.f_star * n
        except NonFiniteObjectiveError:  # keep the coarse start
            (a, b, cc, dd), best_sse = p0, np.inf

    return float(a), float(b), float(cc), float(dd), float(fit_r2(best_sse, ys))
