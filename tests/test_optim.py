"""Tests for the BFGS minimizer and the affine-wrap curve fitter."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanhydro import optim
from kanhydro.errors import (
    InvalidArgumentError,
    LengthMismatchError,
    NoValidCandidateError,
    NonFiniteObjectiveError,
)
from kanhydro.symbolic import candidate_by_name, candidate_library


def dtanh(u):
    return 1.0 - np.tanh(u) ** 2


EVERYWHERE = candidate_by_name("x").domain


def fit_affine(f, xs, ys, *, deriv, domain=EVERYWHERE):
    """The snap's two steps: the coarse start, then the polish."""
    [(start, _)] = optim.affine_start(f, xs, [ys],
                                      optim.CoarseGrid.over(xs, [ys]),
                                      domain=domain)
    return optim.fit_affine_wrap(f, xs, ys, deriv=deriv, domain=domain,
                                 start=start)


def rosenbrock(p):
    x, y = p
    return (float((1 - x) ** 2 + 100 * (y - x**2) ** 2),
            np.array([-2 * (1 - x) - 400 * x * (y - x**2),
                      200 * (y - x**2)]))


class TestBfgs:
    def test_quadratic_converges_fast(self):
        target = np.array([1.0, -2.0, 3.0])

        def fun(x):
            return float(np.sum((x - target) ** 2)), 2.0 * (x - target)

        res = optim.bfgs_minimize(fun, np.zeros(3))
        assert res.x_star == pytest.approx(target, abs=1e-8)
        assert res.iterations <= 5

    def test_rosenbrock(self):
        res = optim.bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert res.x_star == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_already_optimal(self):
        res = optim.bfgs_minimize(lambda x: (float(x @ x), 2.0 * x),
                                  np.zeros(2))
        assert res.status == optim.STATUS_CONVERGED_GRAD
        assert res.iterations == 0

    def test_nonfinite_start(self):
        with pytest.raises(NonFiniteObjectiveError):
            optim.bfgs_minimize(lambda x: (np.inf, None), np.zeros(2))

    def test_monotone_objective(self):
        seen = []

        def tracking(p):
            v, g = rosenbrock(p)
            seen.append(v)
            return v, g

        res = optim.bfgs_minimize(tracking, np.array([-1.2, 1.0]))
        # the accepted iterate never exceeds the start value
        assert res.f_star <= seen[0]

    def test_result_consistency(self):
        def f(x):
            return float(x @ x + 1.0)

        res = optim.bfgs_minimize(lambda x: (f(x), 2.0 * x),
                                  np.array([3.0, -4.0]))
        assert res.f_star == pytest.approx(f(res.x_star))
        assert res.f_star <= f(np.array([3.0, -4.0]))

    def test_determinism(self):
        r1 = optim.bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
        r2 = optim.bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert np.array_equal(r1.x_star, r2.x_star)
        assert r1.f_star == r2.f_star
        assert r1.iterations == r2.iterations

    def test_inf_outside_a_ball_is_a_wall(self):
        # the curvature makes the first full step leave the unit ball, where
        # fun cannot be evaluated; BFGS must step back inside and converge,
        # never reading a gradient it was not given
        target = np.array([0.5, 0.0])

        def fun(x):
            if x @ x > 1.0:
                return np.inf, None
            return 5.0 * float((x - target) @ (x - target)), 10.0 * (x - target)

        x0 = np.array([-0.5, 0.5])
        assert not np.isfinite(fun(x0 - 10.0 * (x0 - target))[0])
        res = optim.bfgs_minimize(fun, x0)
        assert res.status == optim.STATUS_CONVERGED_GRAD
        assert res.x_star == pytest.approx(target, abs=1e-8)

    def test_no_point_is_evaluated_twice(self):
        calls = []

        def counting(p):
            calls.append(p.tobytes())
            return rosenbrock(p)

        res = optim.bfgs_minimize(counting, np.array([-1.2, 1.0]))
        assert res.iterations > 10
        assert len(calls) == len(set(calls))

    def test_bad_options(self):
        with pytest.raises(InvalidArgumentError):
            optim.OptimOptions(grad_tol=0.0)
        with pytest.raises(InvalidArgumentError):
            optim.OptimOptions(f_rel_tol=-1e-12)


class TestFitAffineWrap:
    def test_exact_tanh_recovery(self):
        xs = np.linspace(-2.0, 2.0, 200)
        ys = 2.0 * np.tanh(3.0 * xs - 1.0) + 0.5
        a, b, c, d, r2 = fit_affine(np.tanh, xs, ys, deriv=dtanh)
        assert (a, b, c, d) == pytest.approx((3.0, -1.0, 2.0, 0.5), abs=1e-4)
        assert r2 >= 1.0 - 1e-9

    def test_constant_target(self):
        xs = np.linspace(-2.0, 2.0, 50)
        ys = np.full(50, 1.5)
        a, b, c, d, r2 = fit_affine(np.tanh, xs, ys, deriv=dtanh)
        fit = c * np.tanh(a * xs + b) + d
        assert np.max(np.abs(fit - 1.5)) < 1e-6
        assert r2 == 1.0  # exact fit of a zero-variance target

    def test_infeasible_domain(self):
        xs = np.linspace(100.0, 200.0, 50)  # a*x + b <= 0 unreachable? no:
        # use a domain predicate that always fails instead
        with pytest.raises(NoValidCandidateError):
            fit_affine(np.log, xs, xs, deriv=np.reciprocal,
                       domain=lambda lo, hi: np.zeros(np.shape(lo), bool))

    def test_r2_deterministic(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, 80)
        ys = np.sin(xs) + rng.normal(0, 0.05, 80)
        r1 = fit_affine(np.sin, xs, ys, deriv=np.cos)
        r2 = fit_affine(np.sin, xs, ys, deriv=np.cos)
        assert r1 == r2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            fit_affine(np.tanh, np.zeros(5), np.zeros(6), deriv=dtanh)

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            fit_affine(np.tanh, np.zeros(3), np.zeros(3), deriv=dtanh)

    def test_a_row_whose_sums_overflow_gets_no_start(self):
        # the rows share f(u) and its sums; a row fits no grid point
        # finitely when its own sums overflow, and the other rows keep the
        # starts they get alone
        xs = np.linspace(0.2, 5.0, 60)
        law = np.tanh(1.42 * xs - 0.82)
        rows = np.array([law, 1e200 * law, 2.0 - law])
        with np.errstate(over="ignore"):  # the huge row's sum of squares
            coarse = optim.CoarseGrid.over(xs, rows)
        for cand in candidate_library():
            grid = coarse.mirror_half() if cand.parity else coarse
            try:
                got = optim.affine_start(cand.fn, xs, rows, grid,
                                         domain=cand.domain)
            except NoValidCandidateError:
                continue
            assert got[1] is None, cand.name
            for e in (0, 2):
                alone = optim.CoarseGrid.over(xs, rows[e:e + 1])
                [want] = optim.affine_start(
                    cand.fn, xs, rows[e:e + 1],
                    alone.mirror_half() if cand.parity else alone,
                    domain=cand.domain)
                assert np.array_equal(got[e][0], want[0]), cand.name
                assert got[e][1] == want[1], cand.name

    def test_coarse_pass_skips_overflowed_grid_points(self):
        # exp of large a*x + b overflows the coarse sums at some grid points
        # and leaves NaN SSEs there; the start must be the best finite one
        xs = np.linspace(0.0, 70.0, 80)
        ys = 1000.0 * np.exp(-xs / 70.0)
        coarse = optim.CoarseGrid.over(xs, [ys])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(p0, sse0)] = optim.affine_start(np.exp, xs, [ys], coarse,
                                              domain=EVERYWHERE)
        assert np.all(np.isfinite(p0)) and np.isfinite(sse0)
        with np.errstate(all="ignore"):
            sses = [optim._solve_cd(np.exp(a * xs + b), ys[None])[2][0]
                    for a in coarse.a_vals for b in coarse.b_vals]
        best = min(s for s in sses if np.isfinite(s))
        assert sse0 == pytest.approx(best, rel=1e-9)


class TestCoarseTies:
    """Grid points whose SSEs tie up to rounding resolve to the first in
    grid order, however the sums were grouped."""

    def test_ulp_shifts_of_tied_sses_keep_the_start(self):
        sse, syy = np.full((4, 5), 3.0), 10.0
        tied = [(1, 3), (2, 0), (3, 4)]
        for shifts in itertools.product(range(-4, 5), repeat=len(tied)):
            for ij, k in zip(tied, shifts):
                sse[ij] = 1.0 + k * np.spacing(1.0)
            assert optim._first_least(sse, syy) == (1, 3), shifts
        # a later point better by more than rounding still wins
        sse[3, 4] = 1.0 - 1e-9 * syy
        assert optim._first_least(sse, syy) == (3, 4)

    def test_flat_candidates_start_at_the_first_grid_point(self):
        # every (a, b) fits x equally, and every b fits exp at one a; the
        # start must not depend on the order in which the samples are summed,
        # so the coarse pass runs without sub-sampling, on the same samples
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.2, 5.0, 120)
        ys = np.tanh(xs - 1.0) + 0.01 * rng.standard_normal(120)
        perm = rng.permutation(120)
        every = optim.AffineSearchGrid(max_samples=None)
        for name in ("x", "exp"):
            cand = candidate_by_name(name)
            starts = [optim.affine_start(
                cand.fn, x, [y], optim.CoarseGrid.over(x, [y], every),
                domain=cand.domain)[0][0][:2] for x, y in
                ((xs, ys), (xs[perm], ys[perm]))]
            assert np.array_equal(*starts), name
            if name == "x":
                assert starts[0][0] == 0.1 and starts[0][1] == -10.0


class TestMirrorHalf:
    """An even or odd f fits (-a, -b) as it fits (a, b), so the snap
    searches the a > 0 half of a grid whose b values are symmetric."""

    targets = [
        (np.linspace(0.2, 5.0, 90),
         lambda x: 0.39 - 0.34 * np.tanh(1.42 * x - 0.82)),
        (np.linspace(-2.0, 3.0, 70), lambda x: np.exp(-(x - 0.4) ** 2)),
        (np.linspace(-1.0, 1.0, 50), lambda x: 0.5 * x ** 3 - x + 2.0),
    ]

    @staticmethod
    def _starts(cand, xs, ys, coarse):
        try:
            [start] = optim.affine_start(cand.fn, xs, [ys], coarse,
                                         domain=cand.domain)
            return start
        except NoValidCandidateError:
            return None

    def _pairs(self, parity, grid=None):
        for xs, law in self.targets:
            ys = law(xs) + 0.01 * np.sin(7.0 * xs)
            coarse = optim.CoarseGrid.over(xs, [ys], grid)
            half = coarse.mirror_half()
            assert half.a_vals.size * 2 == coarse.a_vals.size
            assert np.all(half.a_vals > 0.0)
            assert np.shares_memory(half.u, coarse.u)
            for cand in candidate_library():
                if cand.parity == parity:
                    yield (cand.name, self._starts(cand, xs, ys, half),
                           self._starts(cand, xs, ys, coarse))

    def test_even_candidates_match_the_full_grid_exactly(self):
        # f(-u) == f(u), so the mirror point fits the same (c, d) and SSE bit
        # for bit; the full grid may still pick the a < 0 copy, because the
        # matrix-vector product behind the centred sums groups rows by their
        # position and can round the two copies' sums differently
        for name, got, want in self._pairs("even"):
            assert (got is None) == (want is None), name
            if want is not None:
                (a, b, c, d), sse = got
                assert (a, b) in ((want[0][0], want[0][1]),
                                  (-want[0][0], -want[0][1])), name
                assert (c, d, sse) == (want[0][2], want[0][3], want[1]), name

    def test_odd_candidates_reach_the_full_grid_sse(self):
        # a mirrored pair can differ in its last bits (the matrix-vector
        # product groups rows by position), so the start may be the mirror
        for name, got, want in self._pairs("odd"):
            assert (got is None) == (want is None), name
            if want is not None:
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0), \
                    name

    def test_asymmetric_b_keeps_the_full_grid(self):
        xs, law = self.targets[0]
        ys = law(xs)
        grid = optim.AffineSearchGrid(b_values=np.linspace(-10.0, 9.0, 20))
        coarse = optim.CoarseGrid.over(xs, [ys], grid)
        assert coarse.mirror_half() is coarse
        for cand in candidate_library():
            got = self._starts(cand, xs, ys, coarse.mirror_half())
            want = self._starts(cand, xs, ys, coarse)
            assert (got is None) == (want is None), cand.name
            if want is not None:
                assert np.array_equal(got[0], want[0]), cand.name
                assert got[1] == want[1], cand.name

    def test_f_returning_its_argument_leaves_the_grid_intact(self):
        # the coarse pass centres and squares f(u) in place
        xs = np.linspace(0.0, 1.0, 20)
        coarse = optim.CoarseGrid.over(xs, [2.0 * xs + 1.0])
        before = coarse.u.copy()
        [(p0, sse0)] = optim.affine_start(lambda u: u, xs, [2.0 * xs + 1.0],
                                          coarse, domain=EVERYWHERE)
        assert np.array_equal(coarse.u, before)
        assert sse0 == pytest.approx(0.0, abs=1e-12)


@np.errstate(all="ignore")
def masked_affine_start(f, xs, ys, coarse, *, domain):
    """affine_start for one target row on the whole grid, with a finite mask
    besides the SSE test: f(u) is taken at every grid point, feasible or
    not, and a point where it is not finite is masked out, and its f(u)
    zero-filled, before ``_solve_cd`` takes the sums."""
    xs, ys = optim._check_samples(xs, ys)
    feas = domain(*coarse.span)
    if not feas.any():
        raise NoValidCandidateError("no feasible (a, b) grid point")
    z = f(coarse.u)
    is_finite = np.isfinite(z)
    feas &= is_finite.all(axis=2)
    if not feas.any():
        raise NoValidCandidateError("f not finite at any feasible grid point")
    _, _, sse = optim._solve_cd(np.where(is_finite, z, 0.0), coarse.ys)
    sse = sse[..., 0]
    feas &= np.isfinite(sse)
    if not feas.any():
        raise NoValidCandidateError("no feasible grid point gives a finite fit")
    ia, ib = optim._first_least(np.where(feas, sse, np.inf), coarse.syy[0])
    a0, b0 = float(coarse.a_vals[ia]), float(coarse.b_vals[ib])
    (c0,), (d0,), (sse0,) = optim._solve_cd(f(a0 * xs + b0), ys)
    return [(np.array([a0, b0, c0, d0]), float(sse0))]


class TestOneFeasibilityRule:
    """A non-finite f(u) makes a grid point's SSE NaN, so the SSE test alone
    drops every point that a finite mask on f(u) would."""

    @staticmethod
    def _start(fit, cand, xs, ys, coarse):
        try:
            [hit] = fit(cand.fn, xs, [ys], coarse, domain=cand.domain)
        except NoValidCandidateError:
            return None
        return None if hit is None else np.append(*hit)

    # x from lo to hi crosses 0, so sqrt, log and the 1/x rows go NaN or inf
    # on part of the grid; at |x| near 50 the sums of exp and cosh overflow,
    # and past |x| = 70 (a = 10) f(u) itself does, where the domain holds;
    # on x in [-0.01, 5] most of the grid leaves the domains of arcsin,
    # arctanh, tan and 1/sqrt, so the pass takes their feasible points only
    @settings(max_examples=30, deadline=None)
    @given(lo=st.floats(-100.0, -0.01), hi=st.floats(0.01, 100.0),
           n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    @example(lo=-50.0, hi=50.0, n=40, seed=0, scale=1.0)
    @example(lo=-0.5, hi=100.0, n=40, seed=0, scale=1.0)
    @example(lo=-0.01, hi=5.0, n=40, seed=0, scale=1.0)
    def test_the_sse_test_keeps_every_start(self, lo, hi, n, seed, scale):
        rng = np.random.default_rng(seed)
        xs = np.linspace(lo, hi, n)
        ys = scale * (np.tanh(xs / 10.0) + 0.1 * rng.standard_normal(n))
        coarse = optim.CoarseGrid.over(xs, [ys])
        half = coarse.mirror_half()
        for cand in candidate_library():
            grid = half if cand.parity else coarse
            got = self._start(optim.affine_start, cand, xs, ys, grid)
            want = self._start(masked_affine_start, cand, xs, ys, grid)
            assert (got is None) == (want is None), cand.name
            if want is not None:
                assert np.array_equal(got, want, equal_nan=True), cand.name


def exact_cd(z, ys):
    """(c, SSE, syy) of the least-squares c z + d ~ ys in exact rational
    arithmetic on the float inputs, with _solve_cd's near-constant guard
    (c = 0 where S(z - zbar, z - zbar) <= 1e-24 S(z, z)), and that guard's
    ratio to its threshold."""
    z = [Fraction(v) for v in z.tolist()]
    y = [Fraction(v) for v in ys.tolist()]
    zbar, ybar = sum(z) / len(z), sum(y) / len(y)
    zc, yc = [v - zbar for v in z], [v - ybar for v in y]
    szz = sum(v * v for v in zc)
    szy = sum(a * b for a, b in zip(zc, yc))
    syy = sum(v * v for v in yc)
    scale = Fraction(1e-24) * sum(v * v for v in z)
    ratio = szz / scale if scale else Fraction(0)
    c = szy / szz if ratio > 1 else Fraction(0)
    return float(c), float(syy - c * szy), float(syy), float(ratio)


class TestOneClosedForm:
    """_solve_cd's centred sums give (c, d) and the SSE of c f(a x + b) + d
    on all samples as exactly as the coarse pass ranks them, where f(a x + b)
    is near-constant: saturated tanh, gaussian tails, exp at large b."""

    @staticmethod
    def near_constant(kind, spread, depth, x):
        """f(a x + b) for x in [0, 1] at depth ``depth`` into f's flat part,
        varying by about ``spread`` of its mean."""
        if kind == "tanh":  # 1 - tanh(u) ~ 2 exp(-2u)
            b = 0.5 * math.log(2.0 * (1.0 - math.exp(-2.0)) / spread)
            return np.tanh(x + b)
        if kind == "-tanh":
            b = 0.5 * math.log(2.0 * (1.0 - math.exp(-2.0)) / spread)
            return np.tanh(-x - b)
        if kind == "gaussian":  # d log f / du = -2u at u = depth
            return np.exp(-(spread / (2.0 * depth) * x + depth) ** 2)
        return np.exp(spread * x + 5.0 * depth)  # exp at b up to 40

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["tanh", "-tanh", "gaussian", "exp"]),
           log_spread=st.floats(-12.0, -3.0), depth=st.floats(3.0, 8.0),
           n=st.integers(4, 120), seed=st.integers(0, 2**32 - 1),
           noise=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3))
    @example(kind="tanh", log_spread=-9.0, depth=3.0, n=80, seed=0,
             noise=0.1, scale=1.0)
    @example(kind="exp", log_spread=-6.0, depth=4.0, n=80, seed=0,
             noise=0.1, scale=1.0)
    @example(kind="gaussian", log_spread=-3.0, depth=7.0, n=80, seed=0,
             noise=0.1, scale=1.0)
    def test_matches_exact_arithmetic(self, kind, log_spread, depth, n, seed,
                                      noise, scale):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        z = self.near_constant(kind, 10.0 ** log_spread, depth, x)
        ys = scale * (x + noise * rng.standard_normal(n))
        c_ref, sse_ref, syy, ratio = exact_cd(z, ys)
        # the guard's decision is compared only away from its threshold
        if abs(ratio - 1.0) < 1e-6:
            return
        (c,), (d,), (sse,) = optim._solve_cd(z.copy(), ys[None])
        assert abs(sse - sse_ref) <= 1e-10 * syy
        assert c == pytest.approx(c_ref, rel=1e-6, abs=0.0)
        assert d == pytest.approx(ys.mean() - c_ref * z.mean(), rel=1e-6,
                                  abs=1e-9 * math.sqrt(syy / n))

    def test_constant_z_fits_the_mean(self):
        ys = np.array([1.0, 3.0, 2.0, 6.0])
        for z in (np.full(4, 0.7), np.full(4, 1e300), np.zeros(4)):
            with np.errstate(over="ignore"):  # the guard's sum of z * z
                (c,), (d,), (sse,) = optim._solve_cd(z, ys[None])
            assert (c, d, sse) == (0.0, 3.0, 14.0)

    def test_one_call_per_row_of_the_coarse_grid(self):
        # on a stack of z rows and two target rows, each pair is fitted as
        # on its own, and each target row exactly as in a call of its own
        rng = np.random.default_rng(1)
        z, ys = rng.standard_normal((3, 4, 9)), rng.standard_normal((2, 9))
        c, d, sse = optim._solve_cd(z.copy(), ys)
        assert c.shape == d.shape == sse.shape == (3, 4, 2)
        for i, j, e in itertools.product(range(3), range(4), range(2)):
            row = optim._solve_cd(z[i, j].copy(), ys[e:e + 1])
            assert np.allclose(np.ravel(row), (c[i, j, e], d[i, j, e],
                                               sse[i, j, e]),
                               rtol=1e-12, atol=0.0)
        for e in range(2):
            alone = optim._solve_cd(z.copy(), ys[e:e + 1])
            assert all(np.array_equal(v[..., 0], w[..., e])
                       for v, w in zip(alone, (c, d, sse)))

    def test_start_sse_is_the_coarse_sse(self):
        # without sub-sampling the coarse pass sees every sample, so the
        # start's SSE is the one it ranked the start by; on exp(-x), tanh
        # and sigmoid start saturated
        xs = np.linspace(0.2, 5.0, 90)
        laws = (np.exp(-xs), 1.0 - 1e-6 * xs,
                0.39 - 0.34 * np.tanh(1.42 * xs - 0.82),
                np.exp(-((xs - 0.4) ** 2)))
        for law, cand in itertools.product(laws, candidate_library()):
            ys = law + 1e-3 * np.sin(7.0 * xs)
            coarse = optim.CoarseGrid.over(
                xs, [ys], optim.AffineSearchGrid(max_samples=None))
            assert coarse.u.shape[2] == xs.size
            grid = coarse.mirror_half() if cand.parity else coarse
            try:
                [((a, b, _, _), sse)] = optim.affine_start(
                    cand.fn, xs, [ys], grid, domain=cand.domain)
            except NoValidCandidateError:
                continue
            ia = int(np.flatnonzero(grid.a_vals == a)[0])
            ib = int(np.flatnonzero(grid.b_vals == b)[0])
            with np.errstate(all="ignore"):
                z = cand.fn(grid.u[ia, ib])
            _, sse_ref, syy, _ = exact_cd(z, ys)
            assert abs(sse - sse_ref) <= 1e-12 * syy, (cand.name, a, b)
