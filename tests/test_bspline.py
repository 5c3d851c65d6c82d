"""Tests for B-spline grids, basis evaluation, and fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanhydro import bspline
from kanhydro.errors import InvalidArgumentError, InvalidDomainError


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
        vals = bspline.basis_matrix(grid, [2.0])[0]
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
        vals = bspline.basis_matrix(grid, [2.5])[0]
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


def full_recursion(grid, xs):
    """The textbook Cox-de Boor recursion over every basis at once, with the
    interval index held to the knot span: the reference for the banded
    evaluation, bases and derivatives."""
    x, t = np.asarray(xs, dtype=float), grid.knots
    m = len(t) - 1
    basis = np.zeros((x.size, m))
    basis[np.arange(x.size),
          np.clip(np.searchsorted(t, x, side="right") - 1, 0, m - 1)] = 1.0
    lower = basis
    for k in range(1, grid.order + 1):
        lower = basis
        d_left, d_right = t[k:m] - t[:m - k], t[k + 1:] - t[1:m - k + 1]
        left = (x[:, None] - t[None, :m - k]) / d_left
        right = (t[k + 1:] - x[:, None]) / d_right
        basis = left * lower[:, :m - k] + right * lower[:, 1:m - k + 1]
    if grid.order == 0:
        return basis, np.zeros_like(basis)
    k = grid.order
    return basis, (k / d_left * lower[:, :m - k]
                   - k / d_right * lower[:, 1:m - k + 1])


class TestStackedBasis:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_rows_equal_per_row_calls(self, order):
        # three grids of one (intervals, order) over different domains; each
        # row's points hit every knot of its grid and lie beyond its span
        rng = np.random.default_rng(order)
        grids = [bspline.make_grid(lo, hi, 5, order)
                 for lo, hi in ((-1.0, 2.0), (0.3, 0.9), (-40.0, 7.5))]
        xs = np.stack([np.concatenate((
            g.knots, rng.uniform(g.knots[0] - 3.0, g.knots[-1] + 3.0, 30),
            [g.knots[0] - 1e3, g.knots[-1] + 1e3])) for g in grids])
        stack = bspline.stack_grids(grids)
        basis, deriv = bspline.basis_and_deriv_matrix(stack, xs)
        n = xs.shape[1]
        assert basis.shape == deriv.shape == (3 * n, grids[0].num_basis)
        assert bspline.basis_matrix(stack, xs).tobytes() == basis.tobytes()
        for e, (grid, x) in enumerate(zip(grids, xs)):
            row_basis, row_deriv = bspline.basis_and_deriv_matrix(grid, x)
            assert basis[e * n:(e + 1) * n].tobytes() == row_basis.tobytes()
            assert deriv[e * n:(e + 1) * n].tobytes() == row_deriv.tobytes()
            # only the band is computed, yet it is the full recursion's
            ref_basis, ref_deriv = full_recursion(grid, x)
            assert np.array_equal(row_basis, ref_basis)
            assert np.array_equal(row_deriv, ref_deriv)

    def test_grids_must_share_intervals_and_order(self):
        with pytest.raises(InvalidArgumentError):
            bspline.stack_grids([bspline.make_grid(0.0, 1.0, 5, 3),
                                 bspline.make_grid(0.0, 1.0, 4, 3)])


class TestSplineEval:
    """A spline's values are its bases times its coefficients."""

    def test_all_ones_coeffs(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = np.ones(grid.num_basis)
        assert bspline.basis_matrix(grid, [0.37]) @ c == pytest.approx([1.0])

    def test_zero_coeffs(self):
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = np.zeros(grid.num_basis)
        assert (bspline.basis_matrix(grid, [0.37]) @ c).tolist() == [0.0]

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = rng.normal(size=grid.num_basis)
        v1 = bspline.basis_matrix(grid, [0.2]) @ c
        v2 = bspline.basis_matrix(grid, [0.2]) @ (2 * c)
        assert v2 == pytest.approx(2 * v1, rel=1e-14)

    def test_nonfinite_coeffs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bspline.SplineCoeffs([1.0, np.nan, 2.0])


class TestFitLeastSquares:
    def test_recovers_own_span(self):
        rng = np.random.default_rng(7)
        grid = bspline.make_grid(-1.0, 1.0, 5, 3)
        c = rng.normal(size=grid.num_basis)
        xs = np.linspace(-1, 1, 100)
        ys = bspline.basis_matrix(grid, xs) @ c
        fit = bspline.fit_coeffs_least_squares(grid, xs, ys)
        # the small ridge damping keeps coefficients from matching exactly,
        # but the fitted curve must reproduce the target
        assert fit.values == pytest.approx(c, abs=1e-5)
        refit = bspline.basis_matrix(grid, xs) @ fit.values
        assert refit == pytest.approx(ys, abs=1e-6)

    def test_constant_target(self):
        grid = bspline.make_grid(0.0, 1.0, 4, 3)
        xs = np.linspace(0, 1, 50)
        fit = bspline.fit_coeffs_least_squares(grid, xs, np.full(50, 3.0))
        vals = (bspline.basis_matrix(grid, np.linspace(0.05, 0.95, 30))
                @ fit.values)
        assert vals == pytest.approx(3.0, abs=1e-6)

    def test_sine_approximation(self):
        grid = bspline.make_grid(-np.pi, np.pi, 20, 3)
        xs = np.linspace(-np.pi, np.pi, 400)
        fit = bspline.fit_coeffs_least_squares(grid, xs, np.sin(xs))
        resid = bspline.basis_matrix(grid, xs) @ fit.values - np.sin(xs)
        assert np.max(np.abs(resid)) < 1e-3

    def test_too_few_samples(self):
        grid = bspline.make_grid(0.0, 1.0, 10, 3)
        with pytest.raises(InvalidArgumentError):
            bspline.fit_coeffs_least_squares(grid, np.array([0.1, 0.5]),
                                             np.array([1.0, 2.0]))

