"""Deterministic BFGS with strong Wolfe line search, plus affine curve fitting.

Everything here is pure and seed-free: identical inputs give bit-identical
results, which the grid-search harness relies on for reproducible sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    LengthMismatchError,
    NoValidCandidateError,
    NonFiniteObjectiveError,
)

STATUS_CONVERGED_GRAD = "converged-grad"
STATUS_CONVERGED_F = "converged-f"
STATUS_MAX_ITERS = "max-iters"
STATUS_LINE_SEARCH_FAILURE = "line-search-failure"

ZERO_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class OptimOptions:
    max_iters: int = 200
    grad_tol: float = 1e-8
    f_rel_tol: float = 1e-12
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search_steps: int = 40

    def __post_init__(self):
        if not 0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0:
            raise InvalidArgumentError("need 0 < c1 < c2 < 1")
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


def _zoom(phi, dphi, a_lo, a_hi, f_lo, d_lo, f_hi, d_hi, f0, d0, opts):
    """Nocedal-Wright zoom; returns (alpha, f, grad_dot) or None."""
    c1, c2 = opts.wolfe_c1, opts.wolfe_c2
    for _ in range(opts.max_line_search_steps):
        lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
        width = hi - lo
        a = _interpolate(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
        if not (lo + 0.1 * width <= a <= hi - 0.1 * width):
            a = 0.5 * (a_lo + a_hi)
        fa = phi(a)
        if not np.isfinite(fa) or fa > f0 + c1 * a * d0 or fa >= f_lo:
            a_hi, f_hi, d_hi = a, fa, None
        else:
            da = dphi(a)
            if abs(da) <= -c2 * d0:
                return a, fa, da
            if da * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
            a_lo, f_lo, d_lo = a, fa, da
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    if f_lo < f0 and a_lo > 0.0:
        return a_lo, f_lo, d_lo
    return None


def _line_search_wolfe(phi, dphi, f0, d0, opts):
    """Strong Wolfe line search. Returns (alpha, f, grad_dot) or None."""
    c1, c2 = opts.wolfe_c1, opts.wolfe_c2
    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    for it in range(opts.max_line_search_steps):
        fa = phi(a)
        if not np.isfinite(fa):
            a = 0.5 * (a_prev + a)
            continue
        if fa > f0 + c1 * a * d0 or (it > 0 and fa >= f_prev):
            return _zoom(phi, dphi, a_prev, a, f_prev, d_prev, fa, None,
                         f0, d0, opts)
        da = dphi(a)
        if abs(da) <= -c2 * d0:
            return a, fa, da
        if da >= 0.0:
            return _zoom(phi, dphi, a, a_prev, fa, da, f_prev, d_prev,
                         f0, d0, opts)
        a_prev, f_prev, d_prev = a, fa, da
        a = 2.0 * a
    return None


def _last_call(fun):
    """``fun`` of an array, remembering its result at the latest point."""
    last: dict[bytes, object] = {}

    def at(x):
        key = x.tobytes()
        if key not in last:
            last.clear()
            last[key] = fun(x)
        return last[key]

    return at


def shared_evaluation(fun):
    """Split ``fun(x) -> (f, g)`` into objective and gradient callbacks.

    The line search asks for the objective and then the gradient at one
    point; the gradient callback reuses the call the objective made there.
    """
    at = _last_call(fun)
    return (lambda x: at(x)[0]), (lambda x: at(x)[1])


def bfgs_minimize(objective, gradient, x0, opts: OptimOptions | None = None) -> OptimResult:
    """Minimize with BFGS; accepted iterates never increase the objective."""
    opts = opts or OptimOptions()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f = float(objective(x))
    if not np.isfinite(f):
        raise NonFiniteObjectiveError(f"objective is {f} at x0")
    g = np.asarray(gradient(x), dtype=float)
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

        # line search along p; gradient at the accepted point is recomputed
        # once more below only if needed
        g_cache = {}

        def phi(a):
            return float(objective(x + a * p))

        def dphi(a):
            ga = np.asarray(gradient(x + a * p), dtype=float)
            g_cache[a] = ga
            return float(ga @ p)

        res = _line_search_wolfe(phi, dphi, f, d0, opts)
        if res is None:
            status = STATUS_LINE_SEARCH_FAILURE
            break
        alpha, f_new, _ = res
        g_new = g_cache.get(alpha)
        if g_new is None:
            g_new = np.asarray(gradient(x + alpha * p), dtype=float)
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
    else:
        status = STATUS_MAX_ITERS
    if np.max(np.abs(g)) <= opts.grad_tol and status == STATUS_MAX_ITERS:
        status = STATUS_CONVERGED_GRAD
    return OptimResult(x_star=x, f_star=f, iterations=iterations, status=status)


@dataclass(frozen=True)
class AffineSearchGrid:
    """Coarse (a, b) search specification for fit_affine_wrap."""

    a_magnitudes: np.ndarray = field(
        default_factory=lambda: np.geomspace(0.1, 10.0, 41))
    b_values: np.ndarray = field(
        default_factory=lambda: np.linspace(-10.0, 10.0, 41))
    max_samples: int | None = None  # subsample the coarse pass, not the polish
    polish: "OptimOptions | None" = None  # overrides the default polish options


def _check_samples(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise LengthMismatchError("xs and ys must have equal length")
    if xs.size < 4:
        raise InvalidArgumentError("need at least 4 samples")
    return xs, ys


def _everywhere(u):
    return np.ones_like(u, dtype=bool)


@dataclass(frozen=True)
class CoarseGrid:
    """An (a, b) search grid laid over (sub-sampled) data.

    It depends on the data and the search only, so one serves every
    candidate fitted to the same samples.
    """

    a_vals: np.ndarray
    b_vals: np.ndarray
    u: np.ndarray  # a*x + b, shape (a, b, sample)
    yc: np.ndarray  # centered sub-sampled targets
    syy: float

    @staticmethod
    def over(xs, ys, ab_grid: AffineSearchGrid | None = None) -> "CoarseGrid":
        xs, ys = _check_samples(xs, ys)
        grid = ab_grid or AffineSearchGrid()
        if grid.max_samples is not None and xs.size > grid.max_samples:
            idx = np.linspace(0, xs.size - 1, grid.max_samples).astype(int)
            xs, ys = xs[idx], ys[idx]
        a_vals = np.asarray(grid.a_magnitudes, dtype=float)
        a_vals = np.concatenate([a_vals, -a_vals])
        b_vals = np.asarray(grid.b_values, dtype=float)
        u = a_vals[:, None, None] * xs[None, None, :] + b_vals[None, :, None]
        yc = ys - ys.mean()
        return CoarseGrid(a_vals, b_vals, u, yc, float(yc @ yc))


def _solve_cd(z, ys):
    """Closed-form (c, d) for min ||c z + d - y||^2, plus the SSE."""
    m = ys.size
    sz, sy = z.sum(), ys.sum()
    szz, szy = float(z @ z), float(z @ ys)
    denom = m * szz - sz * sz
    if abs(denom) < 1e-12:
        c, d = 0.0, sy / m
    else:
        c = (m * szy - sz * sy) / denom
        d = (sy - c * sz) / m
    r = c * z + d - ys
    return c, d, float(r @ r)


# f and the sums overflow at grid points far from the data (exp, cosh, large
# targets); those points come out non-finite and are skipped
@np.errstate(all="ignore")
def affine_start(f, xs, ys, coarse: CoarseGrid, *, domain=None):
    """The coarse pass of fit_affine_wrap.

    Picks the grid (a, b) whose closed-form (c, d) fits the coarse samples
    best, then solves (c, d) on all of xs. Returns ([a, b, c, d], the SSE of
    that fit on all of xs).
    """
    xs, ys = _check_samples(xs, ys)
    domain = domain or _everywhere
    u = coarse.u
    feas = domain(u).all(axis=2)
    if not feas.any():
        raise NoValidCandidateError("no feasible (a, b) grid point")
    z = f(u)
    is_finite = np.isfinite(z)
    finite = is_finite.all(axis=2)
    feas &= finite
    if not feas.any():
        raise NoValidCandidateError("f not finite at any feasible grid point")
    if not finite.all():
        z = np.where(is_finite, z, 0.0)

    # centered sums keep the closed-form SSE stable when z is near-constant
    m = u.shape[2]
    zmean = z.mean(axis=2, keepdims=True)
    zc = z - zmean
    szz = (zc * zc).sum(axis=2)
    szy = zc @ coarse.yc
    # guard against near-constant z per grid point; a global threshold would
    # let one overflowing (a, b) point mask every reasonable candidate
    scale = szz + m * zmean[:, :, 0] ** 2  # = sum of z*z
    safe = szz > 1e-24 * scale + 1e-300
    c = np.where(safe, szy / np.where(safe, szz, 1.0), 0.0)
    sse = np.maximum(coarse.syy - c * szy, 0.0)
    # an overflowed sum leaves a NaN, which np.argmin would pick
    feas &= np.isfinite(sse)
    if not feas.any():
        raise NoValidCandidateError("no feasible grid point gives a finite fit")
    sse = np.where(feas, sse, np.inf)
    a_vals, b_vals = coarse.a_vals, coarse.b_vals
    best_flat = int(np.argmin(sse))
    ia, ib = np.unravel_index(best_flat, sse.shape)
    a0, b0 = float(a_vals[ia]), float(b_vals[ib])
    u0 = a0 * xs + b0
    if not domain(u0).all():
        # coarse subsample was feasible but the full set is not; fall back to
        # scanning feasible grid points against the full data
        order = np.argsort(sse, axis=None)
        for flat in order:
            ia, ib = np.unravel_index(int(flat), sse.shape)
            if not np.isfinite(sse[ia, ib]):
                raise NoValidCandidateError("no grid point feasible on full data")
            a0, b0 = float(a_vals[ia]), float(b_vals[ib])
            if domain(a0 * xs + b0).all():
                break
        u0 = a0 * xs + b0
    c0, d0, sse0 = _solve_cd(f(u0), ys)
    return np.array([a0, b0, c0, d0]), sse0


def fit_r2(sse: float, ys) -> float:
    """1 - SSres/SStot; a constant target takes the zero-variance convention
    (R^2 = 1 iff the fit is exact)."""
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    if sstot < ZERO_VARIANCE_TOL:
        return 1.0 if sse < ZERO_VARIANCE_TOL else -np.inf
    return 1.0 - sse / sstot


def fit_affine_wrap(f, xs, ys, ab_grid: AffineSearchGrid | None = None, *,
                    domain=None, deriv=None, start=None):
    """Fit y = c*f(a*x + b) + d; returns (a, b, c, d, r2).

    A coarse (a, b) grid with closed-form (c, d) seeds a joint BFGS polish of
    all four parameters; ``start``, the [a, b, c, d] of an affine_start call
    on the same samples, skips the coarse pass. r2 is fit_r2 of the polished
    fit.
    """
    xs, ys = _check_samples(xs, ys)
    grid = ab_grid or AffineSearchGrid()
    domain = domain or _everywhere
    if start is None:
        start, _ = affine_start(f, xs, ys, CoarseGrid.over(xs, ys, grid),
                                domain=domain)
    p0 = np.asarray(start, dtype=float)

    n = xs.size

    # not shared_evaluation: that would also evaluate deriv at every line
    # search probe, where most points never get asked for a gradient
    @_last_call
    def f_at(p):
        """(in domain, f(a*x + b), a*x + b) at p; the gradient reuses the
        objective's evaluation at the same point."""
        uu = p[0] * xs + p[1]
        return bool(domain(uu).all()), f(uu), uu

    def objective(p):
        ok, fu, _ = f_at(p)
        if not ok:
            return np.inf
        r = p[2] * fu + p[3] - ys
        sse = float(r @ r)  # not finite iff fu is not, or it overflowed
        return sse / n if np.isfinite(sse) else np.inf

    def grad(p):
        # asked for only where the objective is finite, so fu is finite
        _, fu, uu = f_at(p)
        cc, dd = p[2], p[3]
        if deriv is not None:
            fpu = deriv(uu)
        else:
            h = 1e-6
            fpu = (f(uu + h) - f(uu - h)) / (2 * h)
        fpu = np.where(np.isfinite(fpu), fpu, 0.0)
        r = cc * fu + dd - ys
        return np.array([
            2.0 * float(r @ (cc * fpu * xs)) / n,
            2.0 * float(r @ (cc * fpu)) / n,
            2.0 * float(r @ fu) / n,
            2.0 * float(r.sum()) / n,
        ])

    a, b, cc, dd = p0
    # f may overflow or leave its domain anywhere along the search; the
    # objective turns that into inf, so floating-point errors are expected
    with np.errstate(all="ignore"):
        best_sse = objective(p0) * n
        try:
            res = bfgs_minimize(objective, grad, p0,
                                grid.polish
                                or OptimOptions(max_iters=100, grad_tol=1e-10))
            if np.isfinite(res.f_star) and res.f_star * n <= best_sse:
                a, b, cc, dd = res.x_star
                best_sse = res.f_star * n
        except NonFiniteObjectiveError:
            pass

    return float(a), float(b), float(cc), float(dd), float(fit_r2(best_sse, ys))
