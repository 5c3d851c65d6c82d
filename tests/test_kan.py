"""Tests for the network: evaluation, losses, gradients, prune/snap/refine."""

import json
import warnings

import numpy as np
import pytest

from kanhydro import bspline, kan, symbolic
from kanhydro.errors import (
    DataValidationError,
    DimMismatchError,
    DomainViolationError,
    InvalidArgumentError,
    InvalidShapeError,
    NonFiniteObjectiveError,
    UnlockedEdgesError,
)
from kanhydro.kan import (
    SymbolicLock,
    adapt_grids,
    extract_formula,
    forward_batch,
    init_network,
    loss_and_gradient,
    prune,
    refine_affine,
    snap_edge,
    zero_lock,
)
from kanhydro.optim import AffineSearchGrid, CoarseGrid, affine_start
from kanhydro.symbolic import candidate_by_name, eval_expression


def lock_edge(net, layer, j, i, name, a, b, c, d):
    net.layers[layer].edges[j][i].lock = SymbolicLock(
        candidate_by_name(name), a, b, c, d)


def loss(net, xs, ys, lam=0.0):
    return loss_and_gradient(net, xs, ys, lam)[0]


def edge_value(edge, x):
    """The activation of a lone edge at x: a [1,1] network's output."""
    net = init_network([1, 1], 3, seed=0)
    net.layers[0].edges[0][0] = edge
    return forward_batch(net, [x])[0, 0]


def identity_locked(shape):
    net = init_network(shape, 3, seed=0)
    for l, j, i, _ in net.iter_edges():
        lock_edge(net, l, j, i, "x", 1.0, 0.0, 1.0, 0.0)
    return net


class TestInit:
    def test_deterministic(self):
        n1 = init_network([1, 2, 1], 5, seed=0)
        n2 = init_network([1, 2, 1], 5, seed=0)
        assert np.array_equal(n1.get_params(), n2.get_params())

    def test_seed_changes_init(self):
        n1 = init_network([1, 2, 1], 5, seed=0)
        n2 = init_network([1, 2, 1], 5, seed=1)
        assert not np.array_equal(n1.get_params(), n2.get_params())

    def test_edge_count(self):
        net = init_network([1, 2, 1], 3, seed=0)
        assert len(net.layers) == 2
        assert sum(1 for _ in net.iter_edges()) == 4

    def test_invalid_shape(self):
        with pytest.raises(InvalidShapeError):
            init_network([1], 3, seed=0)
        with pytest.raises(InvalidShapeError):
            init_network([1, 0, 1], 3, seed=0)

    @pytest.mark.parametrize("grid_intervals, seed",
                             [(0, 0), (2.5, 0), (3, -1), (3, True)])
    def test_invalid_grid_or_seed(self, grid_intervals, seed):
        with pytest.raises(InvalidArgumentError):
            init_network([1, 1], grid_intervals, seed=seed)


class TestActivationEval:
    def test_silu_at_zero(self):
        edge = init_network([1, 1], 3, seed=0).layers[0].edges[0][0]
        edge.w_b, edge.w_c = 1.0, 0.0
        assert edge_value(edge, 0.0) == pytest.approx(0.0)

    def test_partition_of_unity_spline(self):
        edge = init_network([1, 1], 5, seed=0).layers[0].edges[0][0]
        edge.w_b, edge.w_c = 0.0, 1.0
        edge.coeffs = bspline.SplineCoeffs(np.ones(edge.grid.num_basis))
        assert edge_value(edge, 0.4) == pytest.approx(1.0)

    def test_locked_tanh_at_root(self):
        edge = init_network([1, 1], 3, seed=0).layers[0].edges[0][0]
        edge.lock = SymbolicLock(candidate_by_name("tanh"),
                                 1.42, -0.82, -0.34, 0.39)
        assert edge_value(edge, 0.57746) == pytest.approx(0.39, abs=1e-4)


class TestForward:
    def test_single_edge_equals_activation(self):
        # w_b * silu(x) + w_c * spline(x), computed outside the network
        net = init_network([1, 1], 5, seed=3)
        edge = net.layers[0].edges[0][0]
        edge.w_b, edge.w_c = 0.7, 1.3
        xs = np.random.default_rng(0).uniform(-3, 3, 1000)
        expect = (edge.w_b * xs / (1.0 + np.exp(-xs)) + edge.w_c
                  * (bspline.basis_matrix(edge.grid, xs) @ edge.coeffs.values))
        assert forward_batch(net, xs)[:, 0] == pytest.approx(
            expect, rel=1e-12, abs=1e-12)

    def test_all_zero_locked(self):
        net = init_network([2, 3, 1], 3, seed=0)
        for l, j, i, e in net.iter_edges():
            e.lock = zero_lock()
        assert forward_batch(net, [[1.0, 2.0]])[0, 0] == pytest.approx(0.0)

    def test_identity_locked_doubles(self):
        net = identity_locked([1, 2, 1])
        xs = np.array([-1.0, 0.5, 2.0])
        assert forward_batch(net, xs)[:, 0] == pytest.approx(2 * xs)

    def test_locked_pole_between_samples(self):
        # 1/(x - 0.55) is finite at each sample, but its pole lies between
        # 0.4 and 0.6: the lock is outside 1/x's domain over the edge's
        # inputs, and the snap's coarse pass does not start there either
        xs = np.array([0.2, 0.4, 0.6, 0.8])
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "1/x", 1.0, -0.55, 1.0, 0.0)
        with pytest.raises(DomainViolationError):
            forward_batch(net, xs)
        inv, ys = candidate_by_name("1/x"), 1.0 / (xs - 0.55)
        grid = AffineSearchGrid(a_magnitudes=np.array([1.0]),
                                b_values=np.array([-0.55, 0.55]))
        [((a, b, _, _), _)] = affine_start(inv.fn, xs, [ys],
                                           CoarseGrid.over(xs, [ys], grid),
                                           domain=inv.domain)
        assert np.sign(a * xs + b).min() == np.sign(a * xs + b).max()

    def test_dim_mismatch(self):
        net = init_network([2, 1], 3, seed=0)
        with pytest.raises(DimMismatchError):
            forward_batch(net, [[1.0]])

    def test_batch_of_one_dimensional_input(self):
        # a 1-D xs is one input column, as in train and the losses
        net = init_network([1, 2, 1], 3, seed=0)
        xs = np.linspace(-2.0, 2.0, 7)
        assert np.array_equal(forward_batch(net, xs),
                              forward_batch(net, xs.reshape(-1, 1)))
        with pytest.raises(DimMismatchError):
            forward_batch(init_network([2, 1], 3, seed=0), xs)


class TestLosses:
    def test_perfect_predictions(self):
        net = identity_locked([1, 1])
        xs = np.linspace(-1, 1, 10).reshape(-1, 1)
        assert loss(net, xs, xs[:, 0]) == pytest.approx(0.0)

    def test_unit_residuals(self):
        net = identity_locked([1, 1])
        xs = np.array([[1.0], [2.0]])
        ys = np.array([2.0, 1.0])  # residuals +1, -1
        assert loss(net, xs, ys) == pytest.approx(1.0)

    def test_hand_rmse(self):
        net = identity_locked([1, 1])
        xs = np.array([[0.0], [0.0], [0.0]])
        ys = np.array([-1.0, -2.0, -3.0])
        assert loss(net, xs, ys) == pytest.approx(np.sqrt(14 / 3))

    def test_lambda_zero_equals_rmse(self):
        net = init_network([1, 2, 1], 5, seed=1)
        xs = np.linspace(-2, 2, 20).reshape(-1, 1)
        ys = np.sin(xs[:, 0])
        rmse = np.sqrt(np.mean((forward_batch(net, xs)[:, 0] - ys) ** 2))
        assert loss(net, xs, ys, 0.0) == pytest.approx(rmse, rel=1e-12)

    def test_single_edge_entropy_is_zero(self):
        net = init_network([1, 1], 5, seed=1)
        xs = np.linspace(-2, 2, 20).reshape(-1, 1)
        ys = np.zeros(20)
        lam = 0.1
        penalty = loss(net, xs, ys, lam) - loss(net, xs, ys)
        imp = kan.edge_importances(net, xs)
        assert penalty == pytest.approx(lam * imp.sum())

    def test_doubling_edge_output_doubles_importance(self):
        net = init_network([1, 2, 1], 5, seed=2)
        xs = np.linspace(-2, 2, 30).reshape(-1, 1)
        # doubling the w_b/w_c mixing weights of a layer-0 edge doubles its
        # output, so its importance must double too
        edge = net.layers[0].edges[0][0]
        imp1 = kan.edge_importances(net, xs)
        doubled = net.clone()
        dedge = doubled.layers[0].edges[0][0]
        dedge.w_b = 2.0 * edge.w_b
        dedge.w_c = 2.0 * edge.w_c
        imp2 = kan.edge_importances(doubled, xs)
        assert imp2[0] == pytest.approx(2.0 * imp1[0])

    def test_overflowing_loss_is_inf_without_warnings(self):
        # a locked edge far outside its useful range: the squared residual
        # overflows; the loss is inf, the gradient NaN, and numpy stays silent
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "exp", 1.0, 0.0, 1.0, 0.0)
        xs = np.array([[1.0], [460.0]])
        ys = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = loss_and_gradient(net, xs, ys, 0.0)
            assert value == np.inf and np.all(np.isnan(grad))
            assert loss(net, xs, ys, 1e-3) == np.inf
            refined = refine_affine(net, xs[:1], ys[:1])
        assert np.isfinite(loss(refined, xs[:1], ys[:1]))


class TestGradient:
    def test_cached_layer0_inputs_bit_identical(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.2, 5.0, (60, 1))
        ys = np.tanh(xs[:, 0]) + rng.normal(0.0, 0.02, 60)
        net = adapt_grids(init_network([1, 3, 1], 5, seed=1), xs)
        plan = kan._plan(net, xs)  # the per-minimisation constants
        assert plan[0].inputs is not None  # layer 0's bases at xs
        for _ in range(2):
            # the cache stays valid while training moves the parameters
            value, grad = loss_and_gradient(net, xs, ys, 1e-3)
            value_c, grad_c = loss_and_gradient(
                net, xs, ys, 1e-3, _fixed=(plan, net.get_params()))
            assert value_c == value
            assert np.array_equal(grad_c, grad)
            net.set_params(net.get_params() + rng.normal(0.0, 0.05,
                                                         net.num_params))

    @pytest.mark.parametrize("shape", [[1, 1], [1, 2, 1], [1, 3, 3, 1]])
    def test_matches_finite_differences(self, shape):
        rng = np.random.default_rng(17)
        net = init_network(shape, 4, seed=5)
        xs = rng.uniform(-2, 2, (32, shape[0]))
        ys = rng.uniform(-1, 1, 32)
        lam = 1e-3
        analytic = loss_and_gradient(net, xs, ys, lam)[1]
        p0 = net.get_params()
        h = 1e-5
        for idx in rng.choice(p0.size, size=min(12, p0.size), replace=False):
            probe = net.clone()
            pp, pm = p0.copy(), p0.copy()
            pp[idx] += h
            pm[idx] -= h
            probe.set_params(pp)
            fp = loss(probe, xs, ys, lam)
            probe.set_params(pm)
            fm = loss(probe, xs, ys, lam)
            fd = (fp - fm) / (2 * h)
            scale = max(1e-8, abs(fd))
            assert abs(analytic[idx] - fd) / scale < 1e-5

    def test_penalty_additivity(self):
        rng = np.random.default_rng(3)
        net = init_network([1, 2, 1], 4, seed=2)
        xs = rng.uniform(-2, 2, (16, 1))
        ys = rng.uniform(-1, 1, 16)
        g0 = loss_and_gradient(net, xs, ys, 0.0)[1]
        g1 = loss_and_gradient(net, xs, ys, 1e-2)[1]
        assert not np.allclose(g0, g1)
        # the difference is linear in lambda
        g2 = loss_and_gradient(net, xs, ys, 2e-2)[1]
        assert g2 - g1 == pytest.approx(g1 - g0, rel=1e-9, abs=1e-12)


def reference_pass(net, xs, ys, lam):
    """The network evaluated one edge at a time, forward and backward: its
    output, the loss and the gradient in flattening order."""
    n = xs.shape[0]
    acts, outs, caches, starts = [xs], [], [], [0]
    for layer in net.layers:
        node = np.zeros((n, layer.out_dim))
        for j in range(layer.out_dim):
            for i in range(layer.in_dim):
                e, x = layer.edges[j][i], acts[-1][:, i]
                if e.lock is not None:
                    lk = e.lock
                    u = lk.a * x + lk.b
                    fu = lk.candidate.fn(u)
                    o = lk.c * fu + lk.d
                    caches.append((x, fu, lk.candidate.deriv(u)))
                else:
                    basis, dbasis = bspline.basis_and_deriv_matrix(e.grid, x)
                    s = 1.0 / (1.0 + np.exp(-x))
                    spl = basis @ e.coeffs.values
                    o = e.w_b * (x * s) + e.w_c * spl
                    caches.append((basis, dbasis, spl, x * s,
                                   s * (1.0 + x * (1.0 - s))))
                node[:, j] += o
                outs.append(o)
        acts.append(node)
        starts.append(len(outs))
    resid = acts[-1][:, 0] - ys
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    mags = np.array([np.mean(np.abs(o)) for o in outs])
    total = float(mags.sum())
    p = mags / total
    nz = p > 0.0
    log_p = np.log(p[nz])
    entropy = float(-np.sum(p[nz] * log_p))
    weights = np.zeros_like(mags)
    weights[nz] = 1.0 + (-log_p - entropy) / total
    node_grad = (resid / (n * rmse)).reshape(-1, 1)
    grads = [None] * len(outs)
    for l in range(len(net.layers) - 1, -1, -1):
        layer, down = net.layers[l], np.zeros((n, net.layers[l].in_dim))
        for j in range(layer.out_dim):
            for i in range(layer.in_dim):
                k, e = starts[l] + j * layer.in_dim + i, layer.edges[j][i]
                go = node_grad[:, j] + lam * weights[k] * np.sign(outs[k]) / n
                if e.lock is not None:
                    x, fu, fpu = caches[k]
                    cf = e.lock.c * fpu
                    grads[k] = [go @ (cf * x), go @ cf, go @ fu, go.sum()]
                    down[:, i] += go * (cf * e.lock.a)
                else:
                    basis, dbasis, spl, silu, dsilu = caches[k]
                    grads[k] = [go @ silu, go @ spl,
                                *(e.w_c * (basis.T @ go))]
                    down[:, i] += go * (e.w_b * dsilu + e.w_c
                                        * (dbasis @ e.coeffs.values))
        node_grad = down
    loss_value = rmse + lam * (total + entropy)
    return acts[-1], loss_value, np.concatenate(grads)


class TestStackedPass:
    """Each layer's edges run as one pass over stacked rows; a per-edge
    evaluation must see the same numbers."""

    def network(self):
        xs = np.random.default_rng(4).uniform(-2.0, 2.0, (40, 1))
        net = adapt_grids(init_network([1, 3, 3, 1], 4, seed=2), xs)
        # mixed layers: unlocked splines, unfrozen locks of four candidates
        # and frozen zero locks, with a dead hidden node's pattern
        lock_edge(net, 0, 2, 0, "gaussian", 0.8, 0.1, 0.5, -0.2)
        lock_edge(net, 1, 0, 0, "tanh", 1.1, -0.3, 0.7, 0.05)
        lock_edge(net, 1, 1, 2, "sin", 0.6, 0.4, -0.9, 0.1)
        lock_edge(net, 2, 0, 1, "x^2", 0.5, 0.2, 0.3, -0.1)
        for l, j, i in [(1, 2, 1), (2, 0, 2)]:
            net.layers[l].edges[j][i].lock = zero_lock()
        return net, xs, np.sin(xs[:, 0])

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_matches_per_edge_reference(self, lam):
        net, xs, ys = self.network()
        out, ref_loss, ref_grad = reference_pass(net, xs, ys, lam)
        value, grad = loss_and_gradient(net, xs, ys, lam)
        assert np.array_equal(forward_batch(net, xs), out)
        assert value == ref_loss
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)

    def test_importances_follow_flattening_order(self):
        net, xs, _ = self.network()
        imps = kan.edge_importances(net, xs)
        assert imps.shape == (3 + 9 + 3,)
        flat = [(l, j, i) for l, j, i, _ in net.iter_edges()]
        for key in [(1, 2, 1), (2, 0, 2)]:  # the zero locks
            assert imps[flat.index(key)] == 0.0
        assert np.all(np.delete(imps, [flat.index((1, 2, 1)),
                                       flat.index((2, 0, 2))]) > 0.0)


class TestPrune:
    def test_threshold_zero_is_identity(self):
        net = init_network([1, 2, 1], 5, seed=4)
        xs = np.linspace(-2, 2, 20).reshape(-1, 1)
        pruned = prune(net, 0.0, xs)
        assert np.array_equal(pruned.get_params(), net.get_params())

    def test_total_pruning(self):
        net = init_network([1, 2, 1], 5, seed=4)
        xs = np.linspace(-2, 2, 20).reshape(-1, 1)
        pruned = prune(net, 1e9, xs)
        assert forward_batch(pruned, [1.0])[0, 0] == pytest.approx(0.0)

    def test_weak_path_removed(self):
        net = init_network([1, 2, 1], 5, seed=6)
        # scale one hidden path down to insignificance
        for layer, j, i in ((0, 1, 0), (1, 0, 1)):
            e = net.layers[layer].edges[j][i]
            e.w_b *= 1e-6
            e.w_c *= 1e-6
        xs = np.linspace(-2, 2, 50).reshape(-1, 1)
        imps = kan.edge_importances(net, xs)
        threshold = np.sort(imps)[len(imps) // 2]  # between the two paths
        before = forward_batch(net, xs)
        pruned = prune(net, threshold / imps.max(), xs)
        assert pruned.layers[0].edges[1][0].lock is not None
        assert pruned.layers[1].edges[0][1].lock is not None
        assert pruned.layers[0].edges[0][0].lock is None
        after = forward_batch(pruned, xs)
        weak_mean = imps[1]
        assert np.mean(np.abs(after - before)) <= 2 * weak_mean + 1e-9

    def test_negative_threshold(self):
        net = init_network([1, 1], 3, seed=0)
        with pytest.raises(InvalidArgumentError):
            prune(net, -1.0, np.zeros((4, 1)))


class TestSnap:
    def _edge_fitted_to(self, fn, lo=-2.0, hi=2.0, g=8):
        net = init_network([1, 1], g, seed=0)
        edge = net.layers[0].edges[0][0]
        xs = np.linspace(lo, hi, 200)
        edge.w_b = 0.0
        edge.w_c = 1.0
        edge.grid = bspline.make_grid(lo, hi, g, 3)
        edge.coeffs = bspline.fit_coeffs_least_squares(edge.grid, xs, fn(xs))
        return net, xs

    def test_tanh_fitted_edge(self):
        net, xs = self._edge_fitted_to(np.tanh)
        _, [(_, ranked)] = snap_edge(net, 0, xs.reshape(-1, 1))
        assert ranked[0][0] == "tanh"
        assert ranked[0][5] > 0.999

    def test_square_beats_linear(self):
        net, xs = self._edge_fitted_to(np.square)
        _, [(_, ranked)] = snap_edge(net, 0, xs.reshape(-1, 1))
        ranks = {row[0]: i for i, row in enumerate(ranked)}
        assert ranks["x^2"] < ranks["x"]

    def test_constant_zero_edge(self):
        net = init_network([1, 1], 3, seed=0)
        edge = net.layers[0].edges[0][0]
        edge.w_b = 0.0
        edge.w_c = 0.0
        xs = np.linspace(-1, 1, 30).reshape(-1, 1)
        _, [(_, ranked)] = snap_edge(net, 0, xs)
        assert ranked[0][0] == "0"
        assert ranked[0][5] == 1.0

    def test_snapped_network_reproduces_fit(self):
        net, xs = self._edge_fitted_to(np.tanh)
        snapped, [(_, ranked)] = snap_edge(net, 0, xs.reshape(-1, 1))
        name, a, b, c, d, _ = ranked[0]
        expect = c * np.tanh(a * xs + b) + d
        got = forward_batch(snapped, xs.reshape(-1, 1))[:, 0]
        assert got == pytest.approx(expect, abs=1e-12)

    def test_locked_layer_unchanged(self):
        net = identity_locked([1, 1])
        assert snap_edge(net, 0, np.zeros((5, 1))) == (net, [])

    @pytest.mark.parametrize("shape", [[1, 3, 1], [2, 2, 1]])
    def test_layer_matches_edge_by_edge(self, shape):
        # a reference that snaps one edge at a time, each on the samples of
        # its own forward pass; the (l, 0, 0) edges start zero-locked
        xs = np.random.default_rng(1).uniform(0.2, 2.0, (60, shape[0]))
        net = adapt_grids(init_network(shape, 4, seed=3), xs)
        for l in range(len(shape) - 1):
            net.layers[l].edges[0][0].lock = zero_lock()
        ref, want = net.clone(), []
        for l, j, i, e in list(ref.iter_edges()):
            if e.lock is None:
                acts, outs, _ = kan._forward(ref, xs, want_cache=False)
                [ranked] = symbolic.rank_candidates(
                    acts[l][i], [outs[l][j * shape[l] + i]])
                lock_edge(ref, l, j, i, *ranked[0][:5])
                want.append(((l, j, i), ranked))
        got = []
        for l in range(len(shape) - 1):
            net, snaps = snap_edge(net, l, xs)
            got += snaps
        assert got == want
        assert [e.lock for *_, e in net.iter_edges()] == [
            e.lock for *_, e in ref.iter_edges()]


class TestRefine:
    def test_stationary_when_optimal(self):
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "tanh", 1.42, -0.82, -0.34, 0.39)
        xs = np.linspace(0.2, 5, 100).reshape(-1, 1)
        ys = 0.39 - 0.34 * np.tanh(1.42 * xs[:, 0] - 0.82)
        before = net.get_params()
        refined = refine_affine(net, xs, ys)
        assert refined.get_params() == pytest.approx(before, abs=1e-5)
        assert loss(refined, xs, ys) <= 1e-10

    def test_perturbed_scale_recovers(self):
        xs = np.linspace(0.2, 5, 100).reshape(-1, 1)
        ys = 0.39 - 0.34 * np.tanh(1.42 * xs[:, 0] - 0.82)
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "tanh", 1.42, -0.82, -0.34 * 1.05, 0.39)
        refined = refine_affine(net, xs, ys)
        assert loss(refined, xs, ys) < 1e-6

    def test_requires_locked_edge(self):
        net = init_network([1, 1], 3, seed=0)
        with pytest.raises(InvalidArgumentError):
            refine_affine(net, np.zeros((5, 1)), np.zeros(5))

    def test_partly_locked_rejected_naming_edge(self):
        net = init_network([1, 2, 1], 3, seed=0)
        for l, j, i in [(0, 0, 0), (0, 1, 0), (1, 0, 0)]:
            lock_edge(net, l, j, i, "x", 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError, match=r"\(1, 0, 1\)"):
            refine_affine(net, np.zeros((5, 1)), np.zeros(5))

    def test_infinite_start_raises(self):
        # log of a negative argument: the starting loss is an inf wall
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "log", 1.0, 0.0, 1.0, 0.0)
        xs = np.linspace(-2.0, -1.0, 10).reshape(-1, 1)
        with pytest.raises(NonFiniteObjectiveError):
            refine_affine(net, xs, np.zeros(10))

    def test_frozen_zero_locks_untouched(self):
        net = init_network([1, 2, 1], 3, seed=0)
        xs = np.linspace(-2, 2, 40).reshape(-1, 1)
        net = prune(net, 1e9, xs)  # everything becomes a frozen zero-lock
        refined = refine_affine(net, xs, np.zeros(40))
        assert np.array_equal(refined.get_params(), net.get_params())


class TestExtractFormula:
    def test_paper_structure(self):
        net = init_network([1, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "tanh", 1.42, -0.82, -0.34, 0.39)
        tree = extract_formula(net)
        assert symbolic.print_expression(tree, 2) == \
            "0.39 - 0.34*tanh(1.42*x - 0.82)"

    def test_all_zero_locked(self):
        net = init_network([1, 2, 1], 3, seed=0)
        for l, j, i, e in net.iter_edges():
            e.lock = zero_lock()
        assert symbolic.print_expression(extract_formula(net), 2) == "0"

    def test_identity_composition(self):
        tree = extract_formula(identity_locked([1, 2, 1]))
        assert symbolic.print_expression(tree, 2) == "2*x"

    def test_tree_matches_forward(self):
        net = init_network([1, 2, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "tanh", 1.1, -0.3, 0.8, 0.1)
        lock_edge(net, 0, 1, 0, "x^2", 0.5, 0.0, -0.2, 0.4)
        lock_edge(net, 1, 0, 0, "sin", 0.9, 0.2, 1.3, -0.1)
        lock_edge(net, 1, 0, 1, "x", 1.0, 0.0, 0.7, 0.2)
        tree = extract_formula(net)
        rng = np.random.default_rng(8)
        xs = rng.uniform(-2, 2, (100, 1))
        got = eval_expression(tree, xs)
        expect = forward_batch(net, xs)[:, 0]
        assert got == pytest.approx(expect, abs=1e-9)

    def test_unlocked_edges_error(self):
        net = init_network([1, 2, 1], 3, seed=0)
        lock_edge(net, 0, 0, 0, "x", 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(UnlockedEdgesError) as err:
            extract_formula(net)
        assert err.value.edges


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        net = init_network([1, 2, 1], 5, seed=9)
        lock_edge(net, 1, 0, 1, "tanh", 1.2345678901234567, -0.1, 2.0, 0.5)
        text = net.to_json()
        back = kan.KanNetwork.from_json(text)
        assert back.to_json() == text
        assert np.array_equal(back.get_params(), net.get_params())

    def test_schema_version(self):
        net = init_network([1, 2, 1], 5, seed=9)
        doc = json.loads(net.to_json())
        assert doc["schema"] == 1
        # a checkpoint written before the field existed reads as version 1
        del doc["schema"]
        back = kan.KanNetwork.from_json(json.dumps(doc))
        assert back.to_json() == net.to_json()
        doc["schema"] = 2
        with pytest.raises(DataValidationError, match="'schema'"):
            kan.KanNetwork.from_json(json.dumps(doc))

    def test_unlocked_edges_of_a_layer_share_one_grid(self):
        # a layer's unlocked edges evaluate as one stack, which needs one
        # (num_intervals, order); a hand-edited checkpoint breaks that
        doc = json.loads(init_network([1, 2, 1], 5, seed=9).to_json())
        rec = next(r for r in doc["edges"]
                   if (r["layer"], r["out"], r["in"]) == (0, 1, 0))
        rec["grid"]["num_intervals"] = 4
        rec["coeffs"] = rec["coeffs"][:7]
        with pytest.raises(DataValidationError,
                           match=r"checkpoint edge \(0, 1, 0\)"):
            kan.KanNetwork.from_json(json.dumps(doc))
        # a locked edge is not stacked, so fully locked checkpoints, which
        # fit writes, load whatever their grids
        for r in doc["edges"]:
            r["lock"] = {"candidate": "x", "a": 1.0, "b": 0.0, "c": 1.0,
                         "d": 0.0, "frozen": False}
        net = kan.KanNetwork.from_json(json.dumps(doc))
        assert net.layers[0].edges[1][0].grid.num_intervals == 4
        assert forward_batch(net, [0.5])[0, 0] == pytest.approx(1.0)

    def test_grid_rescaling_on_data(self):
        net = init_network([1, 1], 5, seed=0)
        xs = np.linspace(0.2, 5.0, 50).reshape(-1, 1)
        adapted = adapt_grids(net, xs)
        grid = adapted.layers[0].edges[0][0].grid
        assert grid.domain_min < 0.2
        assert grid.domain_max > 5.0
        assert grid.domain_min == pytest.approx(0.2 - 0.48)
        assert grid.domain_max == pytest.approx(5.0 + 0.48)


class TestTraining:
    def test_train_reduces_loss(self):
        rng = np.random.default_rng(1)
        xs = np.sort(rng.uniform(0.2, 5.0, 80)).reshape(-1, 1)
        ys = 0.39 - 0.34 * np.tanh(1.42 * xs[:, 0] - 0.82)
        net = adapt_grids(init_network([1, 1], 5, seed=0), xs)
        before = loss(net, xs, ys, 1e-3)
        trained = kan.train(net, xs, ys, 1e-3)
        after = loss(trained, xs, ys, 1e-3)
        assert after < before
        assert loss(trained, xs, ys) < 0.01

    def test_frozen_locks_bit_identical(self):
        # hidden node 1 zero-locked as prune leaves a dead node; the penalty
        # gradient reaches the frozen locks' offsets, which must not move
        xs = np.linspace(-2, 2, 40).reshape(-1, 1)
        ys = np.tanh(xs[:, 0])
        net = adapt_grids(init_network([1, 2, 1], 3, seed=0), xs)
        for l, j, i in [(0, 1, 0), (1, 0, 1)]:
            net.layers[l].edges[j][i].lock = zero_lock()
        trained = kan.train(net, xs, ys, 1e-3)
        for (_, _, _, e), (_, _, _, t) in zip(net.iter_edges(),
                                              trained.iter_edges()):
            if e.lock is not None:
                assert ((t.lock.a, t.lock.b, t.lock.c, t.lock.d)
                        == (e.lock.a, e.lock.b, e.lock.c, e.lock.d))
            else:
                assert t.w_b != e.w_b  # the spline edges did train
