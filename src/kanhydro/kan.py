"""KAN networks: spline-edge activations, training losses and gradients,
pruning, symbolic locking, and closed-form extraction.

Each edge evaluates ``w_b * silu(x) + w_c * sum_i c_i B_i(x)`` (the edge form
of Liu et al. 2024, "KAN: Kolmogorov-Arnold Networks", arXiv:2404.19756) until
it is locked to a symbolic candidate, after which it evaluates
``c*f(a*x + b) + d``. One loop, ``_forward``, evaluates every edge; training,
grid adaptation, importances and snapping all go through it. One minimiser,
``_minimize_free``, runs BFGS on the free parameters for both ``train`` and
``refine_affine``.
The trainable-parameter flattening order is layer-major, then (out_idx,
in_idx), then ``[w_b, w_c, c_0, ...]`` for spline edges or ``[a, b, c, d]``
for locked ones.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from . import bspline
from .bspline import KnotGrid, SplineCoeffs
from .errors import (
    DataValidationError,
    DimMismatchError,
    DomainViolationError,
    InvalidArgumentError,
    InvalidShapeError,
    UnlockedEdgesError,
)
from .optim import OptimOptions, bfgs_minimize
from .symbolic import (
    AffineSearchGrid,
    CandidateFunction,
    Sum,
    Unary,
    Var,
    candidate_by_name,
    fold,
    rank_candidates,
)

DEFAULT_GRID_DOMAIN = (-3.0, 3.0)
DEFAULT_ORDER = 3
COEFF_INIT_SCALE = 0.1
CHECKPOINT_SCHEMA = 1  # the "schema" field of to_json's document
GRID_MARGIN = 0.1


@dataclass
class SymbolicLock:
    """Locked symbolic mode: the edge evaluates c*f(a*x + b) + d."""

    candidate: CandidateFunction
    a: float
    b: float
    c: float
    d: float
    frozen: bool = False  # pruning locks are frozen and never refined


def zero_lock() -> SymbolicLock:
    return SymbolicLock(candidate_by_name("0"), 1.0, 0.0, 0.0, 0.0, frozen=True)


@dataclass
class EdgeActivation:
    w_b: float
    w_c: float
    grid: KnotGrid
    coeffs: SplineCoeffs
    lock: SymbolicLock | None = None

    @property
    def num_params(self) -> int:
        return 4 if self.lock is not None else 2 + self.coeffs.values.size


@dataclass
class KanLayer:
    in_dim: int
    out_dim: int
    edges: list  # edges[j][i] -> EdgeActivation


@dataclass
class KanNetwork:
    layers: list
    shape: list
    rng_seed: int

    def clone(self) -> "KanNetwork":
        return copy.deepcopy(self)

    def iter_edges(self):
        """Yield (layer_idx, out_idx, in_idx, edge) in flattening order."""
        for l, layer in enumerate(self.layers):
            for j in range(layer.out_dim):
                for i in range(layer.in_dim):
                    yield l, j, i, layer.edges[j][i]

    @property
    def num_params(self) -> int:
        return sum(e.num_params for _, _, _, e in self.iter_edges())

    def get_params(self) -> np.ndarray:
        out = []
        for _, _, _, e in self.iter_edges():
            if e.lock is not None:
                out.extend([e.lock.a, e.lock.b, e.lock.c, e.lock.d])
            else:
                out.extend([e.w_b, e.w_c])
                out.extend(e.coeffs.values.tolist())
        return np.array(out)

    def set_params(self, vec) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.size != self.num_params:
            raise DimMismatchError(
                f"expected {self.num_params} parameters, got {vec.size}")
        pos = 0
        for _, _, _, e in self.iter_edges():
            k = e.num_params
            block = vec[pos:pos + k]
            if e.lock is not None:
                e.lock.a, e.lock.b, e.lock.c, e.lock.d = block
            else:
                e.w_b, e.w_c = float(block[0]), float(block[1])
                e.coeffs = SplineCoeffs(block[2:].copy())
            pos += k

    def to_json(self) -> str:
        edges = []
        for l, j, i, e in self.iter_edges():
            rec = {
                "layer": l, "out": j, "in": i,
                "w_b": e.w_b, "w_c": e.w_c,
                "grid": {
                    "domain_min": e.grid.domain_min,
                    "domain_max": e.grid.domain_max,
                    "num_intervals": e.grid.num_intervals,
                    "order": e.grid.order,
                },
                "coeffs": e.coeffs.values.tolist(),
            }
            if e.lock is not None:
                rec["lock"] = {
                    "candidate": e.lock.candidate.name,
                    "a": e.lock.a, "b": e.lock.b,
                    "c": e.lock.c, "d": e.lock.d,
                    "frozen": e.lock.frozen,
                }
            edges.append(rec)
        doc = {"schema": CHECKPOINT_SCHEMA, "shape": list(self.shape),
               "seed": self.rng_seed, "edges": edges}
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "KanNetwork":
        """Inverse of to_json; a document that is not JSON, lacks a field,
        has another schema or a bad value (an unknown candidate, say) raises
        DataValidationError naming it. No schema field means version 1."""
        where = "checkpoint"
        try:
            doc = json.loads(text)
            schema = doc["schema"] if "schema" in doc else 1
            if type(schema) is not int or schema != CHECKPOINT_SCHEMA:
                raise DataValidationError(
                    f"checkpoint 'schema' is {schema!r}; this version reads "
                    f"{CHECKPOINT_SCHEMA}")
            net = init_network(doc["shape"], grid_intervals=1,
                               seed=doc["seed"])
            lookup = {(r["layer"], r["out"], r["in"]): r
                      for r in doc["edges"]}
            for l, j, i, _ in net.iter_edges():
                where = f"checkpoint edge {(l, j, i)}"
                rec = lookup[(l, j, i)]
                g = rec["grid"]
                grid = bspline.make_grid(g["domain_min"], g["domain_max"],
                                         g["num_intervals"], g["order"])
                lock = None
                if "lock" in rec:
                    lk = rec["lock"]
                    lock = SymbolicLock(candidate_by_name(lk["candidate"]),
                                        lk["a"], lk["b"], lk["c"], lk["d"],
                                        frozen=lk["frozen"])
                net.layers[l].edges[j][i] = EdgeActivation(
                    rec["w_b"], rec["w_c"], grid,
                    SplineCoeffs(np.array(rec["coeffs"])), lock)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"checkpoint is not JSON: {exc}") from exc
        except KeyError as exc:  # a field, or an edge as (layer, out, in)
            raise DataValidationError(
                f"checkpoint lacks {exc.args[0]!r}") from exc
        except (TypeError, InvalidArgumentError) as exc:  # a bad value
            raise DataValidationError(f"{where}: {exc}") from exc
        return net


def init_network(shape, grid_intervals: int, seed: int = 0) -> KanNetwork:
    """Fresh network with small-random spline coefficients, w_b = w_c = 1."""
    shape = [int(s) for s in shape]
    if len(shape) < 2 or any(s < 1 for s in shape):
        raise InvalidShapeError(f"unusable shape {shape}")
    if grid_intervals < 1:
        raise InvalidArgumentError("grid_intervals must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(len(shape) - 1):
        in_dim, out_dim = shape[l], shape[l + 1]
        edges = []
        for _ in range(out_dim):
            row = []
            for _ in range(in_dim):
                grid = bspline.make_grid(*DEFAULT_GRID_DOMAIN,
                                         grid_intervals, DEFAULT_ORDER)
                coeffs = SplineCoeffs(
                    rng.normal(0.0, COEFF_INIT_SCALE, grid.num_basis))
                row.append(EdgeActivation(1.0, 1.0, grid, coeffs))
            edges.append(row)
        layers.append(KanLayer(in_dim, out_dim, edges))
    return KanNetwork(layers, shape, int(seed))


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _silu_deriv(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _spline_inputs(grid: KnotGrid, x: np.ndarray, want_grad: bool):
    """What a spline edge computes from its input alone: the basis values and
    silu(x), plus their derivatives when a backward pass follows."""
    if want_grad:
        basis, dbasis = bspline.basis_and_deriv_matrix(grid, x)
        return basis, dbasis, _silu(x), _silu_deriv(x)
    return bspline.basis_matrix(grid, x), None, _silu(x), None


def layer0_inputs(net: KanNetwork, xs: np.ndarray) -> list:
    """Per layer-0 edge, indexed [out_idx][in_idx] like the edges, its
    ``_spline_inputs`` with derivatives, or None for a locked edge.

    Layer-0 inputs are the data, so these stay valid for as long as the data
    and the layer-0 grids do: a whole ``_minimize_free`` call.
    """
    return [[None if e.lock is not None
             else _spline_inputs(e.grid, xs[:, i], want_grad=True)
             for i, e in enumerate(row)] for row in net.layers[0].edges]


def _edge_eval(edge: EdgeActivation, x: np.ndarray, want_grad: bool,
               inputs=None):
    """Evaluate one edge on a batch; optionally return the backward cache.

    ``inputs`` are the edge's precomputed ``_spline_inputs`` at x, if any.
    """
    if edge.lock is not None:
        lk = edge.lock
        u = lk.a * x + lk.b
        ok = np.asarray(lk.candidate.domain(u))
        if not np.all(ok):
            raise DomainViolationError(
                f"locked candidate {lk.candidate.name!r} undefined at "
                f"argument {np.asarray(u)[~ok][:1]}")
        fu = lk.candidate.fn(u)
        out = lk.c * fu + lk.d
        if not want_grad:
            return out, None
        return out, ("lock", fu, lk.candidate.deriv(u), x)
    basis, dbasis, silu, dsilu = inputs or _spline_inputs(edge.grid, x,
                                                          want_grad)
    spl = basis @ edge.coeffs.values
    out = edge.w_b * silu + edge.w_c * spl
    if not want_grad:
        return out, None
    return out, ("spline", basis, dbasis, spl, silu, dsilu)


def _fit_grid(edge: EdgeActivation, x: np.ndarray) -> None:
    """Rescale an unlocked edge's grid to its inputs x with a 10% margin,
    refitting the coefficients so the spline keeps its shape."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span < 1e-9:
        span = 1.0
    lo -= GRID_MARGIN * span
    hi += GRID_MARGIN * span
    new_grid = bspline.make_grid(lo, hi, edge.grid.num_intervals,
                                 edge.grid.order)
    dense = np.linspace(lo, hi, max(200, 20 * new_grid.num_basis))
    vals = bspline.spline_eval(edge.grid, edge.coeffs, dense)
    edge.grid = new_grid
    edge.coeffs = bspline.fit_coeffs_least_squares(new_grid, dense, vals)


# overflow in the edges (silu far below zero is -0.0, cosh far from the data
# inf) and inf - inf in their sum are legitimate: callers check the result
@np.errstate(over="ignore", invalid="ignore")
def _forward(net: KanNetwork, xs: np.ndarray, want_cache: bool,
             layer0=None, fit_grids: bool = False):
    """Layer activations, per-edge outputs (flattening order) and, with
    want_cache, the backward caches. With fit_grids, each unlocked edge's
    grid is first fitted to the inputs it sees (see adapt_grids)."""
    n = xs.shape[0]
    if xs.shape[1] != net.shape[0]:
        raise DimMismatchError(
            f"input dim {xs.shape[1]} != shape[0] = {net.shape[0]}")
    acts = [xs]
    edge_outs = []
    caches = []
    for l, layer in enumerate(net.layers):
        out = np.zeros((n, layer.out_dim))
        for j in range(layer.out_dim):
            for i in range(layer.in_dim):
                edge, x = layer.edges[j][i], acts[-1][:, i]
                if fit_grids and edge.lock is None:
                    _fit_grid(edge, x)
                pre = layer0[j][i] if l == 0 and layer0 else None
                o, cache = _edge_eval(edge, x, want_cache, pre)
                out[:, j] += o
                edge_outs.append(o)
                caches.append(cache)
        acts.append(out)
    return acts, edge_outs, caches


def forward_batch(net: KanNetwork, xs) -> np.ndarray:
    """Evaluate on a batch (n, in_dim), or 1-D xs as one column: (n, out)."""
    acts, _, _ = _forward(net, _as_batch(xs), want_cache=False)
    return acts[-1]


def _as_batch(xs) -> np.ndarray:
    """xs as a float (n, in_dim) array; a 1-D xs is one input column."""
    xs = np.asarray(xs, dtype=float)
    return xs.reshape(-1, 1) if xs.ndim == 1 else xs


def _check_batch(net, xs, ys):
    xs = _as_batch(xs)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] != ys.shape[0] or ys.ndim != 1 or xs.shape[0] < 1:
        raise DimMismatchError("xs rows and ys length must match and be >= 1")
    if net.shape[-1] != 1:
        raise DimMismatchError("loss functions require a single output head")
    return xs, ys


def _magnitudes(edge_outs) -> np.ndarray:
    """Per-edge mean |output| over the batch."""
    return np.array([float(np.mean(np.abs(o))) for o in edge_outs])


def _penalty(edge_outs):
    """The sparsity penalty, the sum of the edge magnitudes plus their
    entropy, and its derivative with respect to each magnitude."""
    mags = _magnitudes(edge_outs)
    total = float(mags.sum())
    weights = np.zeros_like(mags)
    if total <= 0.0:
        return 0.0, weights
    p = mags / total
    nz = p > 0.0
    log_p = np.log(p[nz])
    entropy = float(-np.sum(p[nz] * log_p))
    s = float(np.sum(np.where(nz, p * np.log(np.maximum(p, 1e-300)), 0.0)))
    weights[nz] = 1.0 + (-log_p + s) / total
    return total + entropy, weights


def loss_and_gradient(net: KanNetwork, xs, ys, lam: float, *, _layer0=None):
    """RMSE of the single output head plus lam * (sum of the edge
    magnitudes + their entropy), and its analytic gradient (reverse
    accumulation). An overflowing loss is inf, with a NaN gradient.

    ``_layer0`` is for ``_minimize_free`` only: ``layer0_inputs(net, xs)``
    computed earlier for the same xs and layer-0 grids, which saves
    rebuilding the layer-0 bases. It is not checked against either; a stale
    one gives a wrong loss and gradient.
    """
    if lam < 0:
        raise InvalidArgumentError("lambda must be >= 0")
    xs, ys = _check_batch(net, xs, ys)
    n = xs.shape[0]
    acts, edge_outs, caches = _forward(net, xs, want_cache=True,
                                       layer0=_layer0)
    out = acts[-1][:, 0]
    resid = out - ys
    # overflow to inf is fine: line searches treat a non-finite loss as a
    # wall and never ask for the gradient there
    with np.errstate(over="ignore"):
        mse = float(np.mean(resid ** 2))
    rmse = float(np.sqrt(mse))
    if not np.isfinite(rmse):
        return rmse, np.full(net.num_params, np.nan)

    loss = rmse
    edge_weights = None
    if lam > 0.0:
        penalty, edge_weights = _penalty(edge_outs)
        loss += lam * penalty

    # upstream gradient on the output node
    if rmse > 0.0:
        node_grad = (resid / (n * rmse)).reshape(-1, 1)
    else:
        node_grad = np.zeros((n, 1))

    grads = [None] * len(caches)
    edge_idx = len(caches)
    for l in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[l]
        first = edge_idx - layer.out_dim * layer.in_dim
        down_grad = np.zeros((n, layer.in_dim))
        k = first
        for j in range(layer.out_dim):
            for i in range(layer.in_dim):
                edge = layer.edges[j][i]
                go = node_grad[:, j].copy()
                if edge_weights is not None and edge_weights[k] != 0.0:
                    go += lam * edge_weights[k] * np.sign(edge_outs[k]) / n
                cache = caches[k]
                if cache[0] == "lock":
                    _, fu, fpu, x = cache
                    lk = edge.lock
                    grads[k] = np.array([
                        float(go @ (lk.c * fpu * x)),
                        float(go @ (lk.c * fpu)),
                        float(go @ fu),
                        float(go.sum()),
                    ])
                    down_grad[:, i] += go * (lk.c * fpu * lk.a)
                else:
                    _, basis, dbasis, spl, silu, dsilu = cache
                    g_wb = float(go @ silu)
                    g_wc = float(go @ spl)
                    g_c = edge.w_c * (basis.T @ go)
                    grads[k] = np.concatenate(([g_wb, g_wc], g_c))
                    dpsi_dx = (edge.w_b * dsilu
                               + edge.w_c * (dbasis @ edge.coeffs.values))
                    down_grad[:, i] += go * dpsi_dx
                k += 1
        node_grad = down_grad
        edge_idx = first
    return loss, np.concatenate(grads)


def adapt_grids(net: KanNetwork, xs) -> KanNetwork:
    """Rescale each edge's grid to its observed inputs with a 10% margin.

    Layers are processed in order so later layers see activations computed
    with already-rescaled grids. Coefficients are refit so the spline keeps
    its current shape over the new domain.
    """
    net = net.clone()
    _forward(net, _as_batch(xs), want_cache=False, fit_grids=True)
    return net


def _minimize_free(net: KanNetwork, xs, ys, lam: float,
                   opts: OptimOptions | None) -> KanNetwork:
    """BFGS on a clone's free parameters, every spline edge's and every
    unfrozen lock's, against the loss of ``loss_and_gradient``. A lock
    evaluated outside its candidate's domain is an inf wall. With nothing
    free, the clone is returned as it is."""
    net = net.clone()
    xs, ys = _check_batch(net, xs, ys)
    edges = [e for _, _, _, e in net.iter_edges()]
    free = np.repeat([e.lock is None or not e.lock.frozen for e in edges],
                     [e.num_params for e in edges])
    if not free.any():
        return net
    base = net.get_params()
    layer0 = layer0_inputs(net, xs)  # the parameters move, the grids do not

    def loss_grad(sub):
        p = base.copy()
        p[free] = sub
        net.set_params(p)
        try:
            loss, grad = loss_and_gradient(net, xs, ys, lam, _layer0=layer0)
        except DomainViolationError:
            return np.inf, None
        return loss, grad[free]

    res = bfgs_minimize(loss_grad, base[free], opts)
    base[free] = res.x_star
    net.set_params(base)
    return net


def train(net: KanNetwork, xs, ys, lam: float,
          opts: OptimOptions | None = None) -> KanNetwork:
    """Full-batch BFGS minimization of the regularized loss; frozen locks
    stay put."""
    return _minimize_free(net, xs, ys, lam, opts)


def edge_importances(net: KanNetwork, xs) -> np.ndarray:
    """Mean |activation output| per edge over the batch, flattening order."""
    _, edge_outs, _ = _forward(net, _as_batch(xs), want_cache=False)
    return _magnitudes(edge_outs)


def prune(net: KanNetwork, threshold: float, xs) -> KanNetwork:
    """Zero-lock weak edges, those below threshold times the largest edge
    importance, and dead hidden nodes; shape is preserved."""
    if threshold < 0:
        raise InvalidArgumentError("threshold must be >= 0")
    imps = edge_importances(net, xs)
    threshold *= float(imps.max())
    net = net.clone()
    imp = {(l, j, i): v for (l, j, i, _), v in zip(net.iter_edges(), imps)}

    kill = {key for key, v in imp.items() if v < threshold}
    # a hidden node dies when its best incoming or best outgoing edge is weak
    for l in range(1, len(net.shape) - 1):
        for node in range(net.shape[l]):
            max_in = max(imp[(l - 1, node, i)]
                         for i in range(net.shape[l - 1]))
            max_out = max(imp[(l, j, node)]
                          for j in range(net.shape[l + 1]))
            if max_in < threshold or max_out < threshold:
                for i in range(net.shape[l - 1]):
                    kill.add((l - 1, node, i))
                for j in range(net.shape[l + 1]):
                    kill.add((l, j, node))
    for l, j, i, edge in net.iter_edges():
        if (l, j, i) in kill:
            net.layers[l].edges[j][i] = EdgeActivation(
                edge.w_b, edge.w_c, edge.grid, edge.coeffs, zero_lock())
    return net


def snap_edge(net: KanNetwork, layer: int, out_idx: int, in_idx: int, xs,
              search: AffineSearchGrid | None = None):
    """Lock one edge to its best-fitting symbolic candidate.

    Returns (new network, SnapResult). The fit uses the edge's empirical
    (input, output) pairs under forward passes of xs.
    """
    if net.layers[layer].edges[out_idx][in_idx].lock is not None:
        raise InvalidArgumentError(
            f"edge ({layer},{out_idx},{in_idx}) is already locked")
    acts, edge_outs, _ = _forward(net, _as_batch(xs), want_cache=False)
    flat = (sum(lay.out_dim * lay.in_dim for lay in net.layers[:layer])
            + out_idx * net.layers[layer].in_dim + in_idx)
    result = rank_candidates(acts[layer][:, in_idx], edge_outs[flat], search)
    name, a, b, c, d, _ = result.best
    net = net.clone()
    net.layers[layer].edges[out_idx][in_idx].lock = SymbolicLock(
        candidate_by_name(name), a, b, c, d)
    return net, result


def refine_affine(net: KanNetwork, xs, ys) -> KanNetwork:
    """BFGS re-optimization of a fully locked network's unfrozen lock
    parameters against RMSE."""
    unlocked = [(l, j, i) for l, j, i, e in net.iter_edges() if e.lock is None]
    if unlocked:
        raise InvalidArgumentError(
            f"refine_affine requires every edge locked; unlocked: {unlocked}")
    return _minimize_free(net, xs, ys, 0.0, OptimOptions(max_iters=200))


def extract_formula(net: KanNetwork):
    """Fold the locked network into a symbolic expression tree."""
    unlocked = [(l, j, i) for l, j, i, e in net.iter_edges() if e.lock is None]
    if unlocked:
        raise UnlockedEdgesError(
            f"{len(unlocked)} edge(s) still unlocked: {unlocked}",
            edges=unlocked)
    if net.shape[-1] != 1:
        raise InvalidArgumentError("formula extraction needs one output head")
    exprs = [Var(i) for i in range(net.shape[0])]
    for layer in net.layers:
        nxt = []
        for j in range(layer.out_dim):
            terms = []
            for i in range(layer.in_dim):
                lk = layer.edges[j][i].lock
                terms.append(Unary(lk.candidate.name, lk.a, lk.b,
                                   lk.c, lk.d, exprs[i]))
            nxt.append(fold(Sum(tuple(terms))))
        exprs = nxt
    return exprs[0]
