"""Tests for the BFGS minimizer and the affine-wrap curve fitter."""

import warnings

import numpy as np
import pytest

from kanhydro import optim
from kanhydro.errors import (
    InvalidArgumentError,
    LengthMismatchError,
    NoValidCandidateError,
    NonFiniteObjectiveError,
)


class TestBfgs:
    def test_quadratic_converges_fast(self):
        target = np.array([1.0, -2.0, 3.0])

        def f(x):
            return float(np.sum((x - target) ** 2))

        def g(x):
            return 2.0 * (x - target)

        res = optim.bfgs_minimize(f, g, np.zeros(3))
        assert res.x_star == pytest.approx(target, abs=1e-8)
        assert res.iterations <= 5

    def test_rosenbrock(self):
        def f(p):
            x, y = p
            return float((1 - x) ** 2 + 100 * (y - x**2) ** 2)

        def g(p):
            x, y = p
            return np.array([-2 * (1 - x) - 400 * x * (y - x**2),
                             200 * (y - x**2)])

        res = optim.bfgs_minimize(f, g, np.array([-1.2, 1.0]))
        assert res.x_star == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_already_optimal(self):
        res = optim.bfgs_minimize(lambda x: float(x @ x),
                                  lambda x: 2.0 * x, np.zeros(2))
        assert res.status == optim.STATUS_CONVERGED_GRAD
        assert res.iterations == 0

    def test_nonfinite_start(self):
        with pytest.raises(NonFiniteObjectiveError):
            optim.bfgs_minimize(lambda x: np.inf, lambda x: x, np.zeros(2))

    def test_monotone_objective(self):
        seen = []

        def f(p):
            x, y = p
            return float((1 - x) ** 2 + 100 * (y - x**2) ** 2)

        def g(p):
            x, y = p
            return np.array([-2 * (1 - x) - 400 * x * (y - x**2),
                             200 * (y - x**2)])

        base_f = f

        def tracking(p):
            v = base_f(p)
            seen.append(v)
            return v

        res = optim.bfgs_minimize(tracking, g, np.array([-1.2, 1.0]))
        # the accepted iterate never exceeds the start value
        assert res.f_star <= seen[0]

    def test_result_consistency(self):
        def f(x):
            return float(x @ x + 1.0)

        res = optim.bfgs_minimize(f, lambda x: 2.0 * x, np.array([3.0, -4.0]))
        assert res.f_star == pytest.approx(f(res.x_star))
        assert res.f_star <= f(np.array([3.0, -4.0]))

    def test_determinism(self):
        def f(p):
            x, y = p
            return float((1 - x) ** 2 + 100 * (y - x**2) ** 2)

        def g(p):
            x, y = p
            return np.array([-2 * (1 - x) - 400 * x * (y - x**2),
                             200 * (y - x**2)])

        r1 = optim.bfgs_minimize(f, g, np.array([-1.2, 1.0]))
        r2 = optim.bfgs_minimize(f, g, np.array([-1.2, 1.0]))
        assert np.array_equal(r1.x_star, r2.x_star)
        assert r1.f_star == r2.f_star
        assert r1.iterations == r2.iterations

    def test_bad_options(self):
        with pytest.raises(InvalidArgumentError):
            optim.OptimOptions(wolfe_c1=0.9, wolfe_c2=0.1)


class TestFitAffineWrap:
    def test_exact_tanh_recovery(self):
        xs = np.linspace(-2.0, 2.0, 200)
        ys = 2.0 * np.tanh(3.0 * xs - 1.0) + 0.5
        a, b, c, d, r2 = optim.fit_affine_wrap(np.tanh, xs, ys,
                                               deriv=lambda u: 1 - np.tanh(u)**2)
        assert (a, b, c, d) == pytest.approx((3.0, -1.0, 2.0, 0.5), abs=1e-4)
        assert r2 >= 1.0 - 1e-9

    def test_constant_target(self):
        xs = np.linspace(-2.0, 2.0, 50)
        ys = np.full(50, 1.5)
        a, b, c, d, r2 = optim.fit_affine_wrap(np.tanh, xs, ys)
        fit = c * np.tanh(a * xs + b) + d
        assert np.max(np.abs(fit - 1.5)) < 1e-6
        assert r2 == 1.0  # exact fit of a zero-variance target

    def test_infeasible_domain(self):
        xs = np.linspace(100.0, 200.0, 50)  # a*x + b <= 0 unreachable? no:
        # use a domain predicate that always fails instead
        with pytest.raises(NoValidCandidateError):
            optim.fit_affine_wrap(np.log, xs, xs,
                                  domain=lambda u: np.zeros_like(u, dtype=bool))

    def test_r2_deterministic(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, 80)
        ys = np.sin(xs) + rng.normal(0, 0.05, 80)
        r1 = optim.fit_affine_wrap(np.sin, xs, ys, deriv=np.cos)
        r2 = optim.fit_affine_wrap(np.sin, xs, ys, deriv=np.cos)
        assert r1 == r2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            optim.fit_affine_wrap(np.tanh, np.zeros(5), np.zeros(6))

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            optim.fit_affine_wrap(np.tanh, np.zeros(3), np.zeros(3))

    def test_coarse_pass_skips_overflowed_grid_points(self):
        # exp of large a*x + b overflows the coarse sums at some grid points
        # and leaves NaN SSEs there; the start must be the best finite one
        xs = np.linspace(0.0, 70.0, 80)
        ys = 1000.0 * np.exp(-xs / 70.0)
        grid = optim.AffineSearchGrid(a_magnitudes=np.geomspace(0.1, 10.0, 21),
                                      b_values=np.linspace(-10.0, 10.0, 21),
                                      max_samples=80)
        coarse = optim.CoarseGrid.over(xs, ys, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p0, sse0 = optim.affine_start(np.exp, xs, ys, coarse)
        assert np.all(np.isfinite(p0)) and np.isfinite(sse0)
        with np.errstate(all="ignore"):
            sses = [optim._solve_cd(np.exp(a * xs + b), ys)[2]
                    for a in coarse.a_vals for b in coarse.b_vals]
        best = min(s for s in sses if np.isfinite(s))
        assert sse0 == pytest.approx(best, rel=1e-9)
