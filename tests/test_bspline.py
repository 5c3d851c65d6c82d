"""Tests for B-spline grids, basis evaluation, fitting, and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanhydro import bspline
from kanhydro.errors import (
    InvalidArgumentError,
    InvalidDomainError,
    LengthMismatchError,
)


class TestMakeGrid:
    def test_degenerate_single_interval_degree_zero(self):
        grid = bspline.make_grid(0.0, 1.0, 1, 0)
        assert np.array_equal(grid.knots, [0.0, 1.0])
        assert grid.num_basis == 1

    def test_cubic_grid_counts_and_span(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        assert len(grid.knots) == 12
        assert grid.knots[0] == pytest.approx(-2.2)
        assert grid.knots[-1] == pytest.approx(2.2)
        assert grid.num_basis == 8

    def test_uniform_spacing(self):
        grid = bspline.make_grid(0.0, 10.0, 10, 3)
        assert grid.spacing == pytest.approx(1.0)
        assert np.allclose(np.diff(grid.knots), 1.0)

    def test_knots_strictly_increasing(self):
        grid = bspline.make_grid(-2.0, 3.0, 7, 2)
        assert np.all(np.diff(grid.knots) > 0)

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomainError):
            bspline.make_grid(1.0, 1.0, 5, 3)
        with pytest.raises(InvalidDomainError):
            bspline.make_grid(2.0, 1.0, 5, 3)

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            bspline.make_grid(0.0, 1.0, 0, 3)
        with pytest.raises(InvalidArgumentError):
            bspline.make_grid(0.0, 1.0, 5, -1)


class TestBasisEval:
    def test_cubic_values_at_interior_knot(self):
        grid = bspline.make_grid(0.0, 5.0, 5, 3)
        vals = bspline.basis_eval(grid, 2.0)
        active = vals[np.abs(vals) > 1e-14]
        assert active == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-12)

    def test_partition_of_unity(self):
        xs = np.linspace(-0.999, 0.999, 1000)
        for g in (1, 3, 7, 20):
            for k in range(4):
                grid = bspline.make_grid(-1.0, 1.0, g, k)
                sums = bspline.basis_matrix(grid, xs).sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(order=st.integers(0, 3), intervals=st.integers(1, 20),
           lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
           ts=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=40))
    def test_values_and_derivatives_share_one_recursion(self, order, intervals,
                                                        lo, width, ts):
        # x = lo + t * width: t in [0, 1] is inside the domain, the rest of
        # [-2, 3] lies on the extension knots or beyond them
        grid = bspline.make_grid(lo, lo + width, intervals, order)
        xs = lo + np.array(ts) * width
        basis, _ = bspline.basis_and_deriv_matrix(grid, xs)
        assert basis.tobytes() == bspline.basis_matrix(grid, xs).tobytes()
        inside = (xs >= grid.domain_min) & (xs <= grid.domain_max)
        assert np.max(np.abs(basis[inside].sum(axis=1) - 1.0),
                      initial=0.0) < 1e-9

    def test_degree_zero_indicator(self):
        grid = bspline.make_grid(0.0, 4.0, 4, 0)
        vals = bspline.basis_eval(grid, 2.5)
        assert np.count_nonzero(vals) == 1
        assert vals[2] == 1.0

    def test_non_negative(self):
        grid = bspline.make_grid(-1.0, 1.0, 6, 3)
        mat = bspline.basis_matrix(grid, np.linspace(-1, 1, 500))
        assert np.all(mat >= 0)

    def test_local_support(self):
        grid = bspline.make_grid(-1.0, 1.0, 10, 3)
        mat = bspline.basis_matrix(grid, np.linspace(-0.99, 0.99, 200))
        assert np.max(np.count_nonzero(mat > 1e-14, axis=1)) <= 4

    def test_derivative_matches_finite_differences(self):
        grid = bspline.make_grid(-2.0, 2.0, 6, 3)
        xs = np.linspace(-1.9, 1.9, 50)
        h = 1e-6
        _, deriv = bspline.basis_and_deriv_matrix(grid, xs)
        fd = (bspline.basis_matrix(grid, xs + h)
              - bspline.basis_matrix(grid, xs - h)) / (2 * h)
        assert np.max(np.abs(deriv - fd)) < 1e-6


class TestSplineEval:
    def test_all_ones_coeffs(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        coeffs = bspline.SplineCoeffs(np.ones(grid.num_basis))
        assert bspline.spline_eval(grid, coeffs, 0.37) == pytest.approx(1.0)

    def test_zero_coeffs(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        coeffs = bspline.SplineCoeffs(np.zeros(grid.num_basis))
        assert bspline.spline_eval(grid, coeffs, 0.37) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = rng.normal(size=grid.num_basis)
        v1 = bspline.spline_eval(grid, bspline.SplineCoeffs(c), 0.2)
        v2 = bspline.spline_eval(grid, bspline.SplineCoeffs(2 * c), 0.2)
        assert v2 == pytest.approx(2 * v1, rel=1e-14)

    def test_length_mismatch(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        with pytest.raises(LengthMismatchError):
            bspline.spline_eval(grid, bspline.SplineCoeffs(np.ones(3)), 0.0)

    def test_nonfinite_coeffs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bspline.SplineCoeffs([1.0, np.nan, 2.0])


class TestFitLeastSquares:
    def test_recovers_own_span(self):
        rng = np.random.default_rng(7)
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = rng.normal(size=grid.num_basis)
        xs = np.linspace(-1, 1, 100)
        ys = bspline.spline_eval(grid, bspline.SplineCoeffs(c), xs)
        fit = bspline.fit_coeffs_least_squares(grid, xs, ys)
        # the small ridge damping keeps coefficients from matching exactly,
        # but the fitted curve must reproduce the target
        assert fit.values == pytest.approx(c, abs=1e-5)
        refit = bspline.spline_eval(grid, fit, xs)
        assert refit == pytest.approx(ys, abs=1e-6)

    def test_constant_target(self):
        grid = bspline.make_grid(0.0, 1.0, 4, 3)
        xs = np.linspace(0, 1, 50)
        fit = bspline.fit_coeffs_least_squares(grid, xs, np.full(50, 3.0))
        vals = bspline.spline_eval(grid, fit, np.linspace(0.05, 0.95, 30))
        assert vals == pytest.approx(3.0, abs=1e-6)

    def test_sine_approximation(self):
        grid = bspline.make_grid(-np.pi, np.pi, 20, 3)
        xs = np.linspace(-np.pi, np.pi, 400)
        fit = bspline.fit_coeffs_least_squares(grid, xs, np.sin(xs))
        resid = bspline.spline_eval(grid, fit, xs) - np.sin(xs)
        assert np.max(np.abs(resid)) < 1e-3

    def test_too_few_samples(self):
        grid = bspline.make_grid(0.0, 1.0, 10, 3)
        with pytest.raises(InvalidArgumentError):
            bspline.fit_coeffs_least_squares(grid, np.array([0.1, 0.5]),
                                             np.array([1.0, 2.0]))


class TestExtendGrid:
    def _spline(self, g=5, seed=11):
        rng = np.random.default_rng(seed)
        grid = bspline.make_grid(-1.0, 1.0, g, 3)
        return grid, bspline.SplineCoeffs(rng.normal(size=grid.num_basis))

    def test_refinement_preserves_values(self):
        grid, coeffs = self._spline()
        new_grid, new_coeffs = bspline.extend_grid(grid, coeffs, 10)
        xs = np.linspace(-0.99, 0.99, 100)
        old = bspline.spline_eval(grid, coeffs, xs)
        new = bspline.spline_eval(new_grid, new_coeffs, xs)
        assert np.max(np.abs(old - new)) < 1e-6

    def test_identity_refinement(self):
        grid, coeffs = self._spline()
        _, new_coeffs = bspline.extend_grid(grid, coeffs, 5)
        assert new_coeffs.values == pytest.approx(coeffs.values, abs=1e-6)

    def test_coarsening_exact_for_cubic(self):
        grid = bspline.make_grid(-1.0, 1.0, 10, 3)
        xs = np.linspace(-1, 1, 300)
        poly = 0.5 * xs**3 - xs**2 + 0.25 * xs + 2.0
        coeffs = bspline.fit_coeffs_least_squares(grid, xs, poly)
        new_grid, new_coeffs = bspline.extend_grid(grid, coeffs, 3)
        vals = bspline.spline_eval(new_grid, new_coeffs, xs)
        assert np.max(np.abs(vals - poly)) < 1e-6

    def test_invalid_target(self):
        grid, coeffs = self._spline()
        with pytest.raises(InvalidArgumentError):
            bspline.extend_grid(grid, coeffs, 0)
