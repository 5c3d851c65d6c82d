"""KAN networks: spline-edge activations, training losses and gradients,
pruning, symbolic locking, and closed-form extraction.

Each edge evaluates ``w_b * silu(x) + w_c * sum_i c_i B_i(x)`` (the edge form
of Liu et al. 2024, "KAN: Kolmogorov-Arnold Networks", arXiv:2404.19756) until
it is locked to a symbolic candidate, after which it evaluates
``c*f(a*x + b) + d``. The trainable-parameter flattening order is
layer-major, then (out_idx, in_idx), then ``[w_b, w_c, c_0, ...]`` for spline
edges or ``[a, b, c, d]`` for locked ones.

A layer's edges run as one pass over stacked rows (``_layer_pass``, backward
``_layer_back``), as efficient-kan lays a layer out: edge (out_idx, in_idx)
is row ``out_idx * in_dim + in_idx`` of its (E, N) outputs, so ``_plan`` maps
the rows onto their blocks of the flat vector in order, and the node sums
are one reshape-and-sum. ``_forward`` serves training, importances and
snapping, one pass per snapped layer (``adapt_grids`` refits a layer before
it passes it);
``_minimize_free`` runs BFGS for ``train`` and ``refine_affine``.
"""

from __future__ import annotations

import copy
import json
import math
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
    is_count,
)
from .optim import OptimOptions, bfgs_minimize
from .symbolic import (
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
_GRID_FIELDS = ("domain_min", "domain_max", "num_intervals", "order")


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
        return np.array([v for _, _, _, e in self.iter_edges() for v in (
            (e.lock.a, e.lock.b, e.lock.c, e.lock.d) if e.lock is not None
            else (e.w_b, e.w_c, *e.coeffs.values.tolist()))])

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
            rec = {"layer": l, "out": j, "in": i, "w_b": e.w_b, "w_c": e.w_c,
                   "grid": {f: getattr(e.grid, f) for f in _GRID_FIELDS},
                   "coeffs": e.coeffs.values.tolist()}
            if e.lock is not None:
                rec["lock"] = {f: getattr(e.lock, f) for f in "abcd"} | {
                    "candidate": e.lock.candidate.name,
                    "frozen": e.lock.frozen}
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
            stacked = {}  # layer -> its unlocked edges' (intervals, order)
            for l, j, i, _ in net.iter_edges():
                where = f"checkpoint edge {(l, j, i)}"
                rec = lookup[(l, j, i)]
                grid = bspline.make_grid(*(rec["grid"][f]
                                           for f in _GRID_FIELDS))
                coeffs = [_finite(v, "coeffs") for v in rec["coeffs"]]
                if len(coeffs) != grid.num_basis:
                    raise InvalidArgumentError(
                        f"'coeffs' holds {len(coeffs)} values; its grid has "
                        f"{grid.num_basis} bases")
                if "lock" in rec:
                    lk = rec["lock"]
                    if not isinstance(lk["frozen"], bool):
                        raise InvalidArgumentError(
                            f"'frozen' must be true or false, got "
                            f"{lk['frozen']!r}")
                    lock = SymbolicLock(candidate_by_name(lk["candidate"]),
                                        *(_finite(lk[f], f) for f in "abcd"),
                                        frozen=lk["frozen"])
                else:
                    lock, key = None, (grid.num_intervals, grid.order)
                    if stacked.setdefault(l, key) != key:
                        raise DataValidationError(
                            f"{where}: grid (num_intervals, order) {key} "
                            f"differs from {stacked[l]}, its layer's other "
                            "unlocked edges'")
                net.layers[l].edges[j][i] = EdgeActivation(
                    _finite(rec["w_b"], "w_b"), _finite(rec["w_c"], "w_c"),
                    grid, SplineCoeffs(np.array(coeffs)), lock)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"checkpoint is not JSON: {exc}") from exc
        except KeyError as exc:  # a field, or an edge as (layer, out, in)
            raise DataValidationError(
                f"checkpoint lacks {exc.args[0]!r}") from exc
        except (TypeError, OverflowError, InvalidArgumentError) as exc:
            # a bad value; OverflowError: an int too large for a float
            raise DataValidationError(f"{where}: {exc}") from exc
        return net


def _finite(value, field: str):
    """A checkpoint number: a finite int or float, not a bool."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):  # not a number; an int past float
        pass
    raise InvalidArgumentError(
        f"{field!r} must be a finite number, got {value!r}")


def init_network(shape, grid_intervals: int, seed: int = 0) -> KanNetwork:
    """Fresh network with small-random spline coefficients, w_b = w_c = 1."""
    shape = list(shape)
    if len(shape) < 2 or not all(is_count(s, 1) for s in shape):
        raise InvalidShapeError(f"unusable shape {shape}")
    if not is_count(seed, 0):
        raise InvalidArgumentError(
            f"seed must be an integer >= 0, got {seed!r}")
    shape = [int(s) for s in shape]
    rng = np.random.default_rng(seed)
    grid = bspline.make_grid(*DEFAULT_GRID_DOMAIN, grid_intervals,
                             DEFAULT_ORDER)

    def edge():
        return EdgeActivation(1.0, 1.0, grid, SplineCoeffs(
            rng.normal(0.0, COEFF_INIT_SCALE, grid.num_basis)))

    layers = [KanLayer(n_in, n_out, [[edge() for _ in range(n_in)]
                                     for _ in range(n_out)])
              for n_in, n_out in zip(shape, shape[1:])]
    return KanNetwork(layers, shape, int(seed))


@dataclass
class _Layer:
    """A layer's edges as stacked rows, edge (j, i) being row j * in_dim + i
    of its (E, N) outputs. ``spl`` and ``lck`` are the spline and the lock
    rows as ``_rows`` gives them, and ``knots`` the spline rows' grids
    stacked. ``live`` lists each lock row whose candidate is not the zero
    one, as (its index among the lock rows, the candidate); a zero lock row
    outputs its d. ``inputs`` is layer 0's ``_spline_rows`` at the xs given
    to ``_plan``, else None."""

    in_dim: int
    out_dim: int
    spl: tuple
    knots: bspline.KnotStack | None
    lck: tuple
    live: list
    inputs: tuple | None = None


def _rows(layer: KanLayer, rows: list, par: list):
    """Some edge rows of a layer as indices: the rows, the node values they
    read and, a row each, their parameters' positions in the flat vector."""
    def index(rs, n):  # slice(None) when rs are 0 .. n-1 in order
        return slice(None) if rs == list(range(n)) else np.array(rs, int)
    return (index(rows, layer.in_dim * layer.out_dim),
            index([r % layer.in_dim for r in rows], layer.in_dim),
            np.array(par, int).reshape(len(rows), -1 if rows else 0))


def _plan(net: KanNetwork, xs: np.ndarray | None = None) -> list:
    """Each layer's ``_Layer``; with xs, layer 0's with its inputs at xs."""
    plan, pos = [], 0
    for layer in net.layers:
        rows, par, grids, live = ([], []), ([], []), [], []
        for r, e in enumerate(e for row in layer.edges for e in row):
            locked = e.lock is not None
            if not locked:
                grids.append(e.grid)
            elif e.lock.candidate.role != "zero":
                live.append((len(rows[1]), e.lock.candidate))
            rows[locked].append(r)
            par[locked].append(range(pos, pos + e.num_params))
            pos += e.num_params
        plan.append(_Layer(layer.in_dim, layer.out_dim,
                           _rows(layer, rows[0], par[0]),
                           bspline.stack_grids(grids) if grids else None,
                           _rows(layer, rows[1], par[1]), live))
    if xs is not None and plan[0].knots is not None:
        plan[0].inputs = _spline_rows(plan[0].knots, xs.T[plan[0].spl[1]],
                                      True)
    return plan


def _spline_rows(knots: bspline.KnotStack, x: np.ndarray, want_grad: bool):
    """What spline rows compute from their inputs x (S, N) alone: the bases
    (S, N, G + k) and silu(x), plus their derivatives if asked."""
    shape, s = x.shape + (-1,), 1.0 / (1.0 + np.exp(-x))  # silu(x) = x * s
    if not want_grad:
        return bspline.basis_matrix(knots, x).reshape(shape), None, x * s, None
    basis, dbasis = bspline.basis_and_deriv_matrix(knots, x)
    return (basis.reshape(shape), dbasis.reshape(shape), x * s,
            s * (1.0 + x * (1.0 - s)))


def _layer_pass(lay: _Layer, p: np.ndarray, x: np.ndarray, want_cache: bool):
    """A layer at flat parameters p on its node values x (in_dim, N): the
    edge outputs (E, N), the node sums (out_dim, N) and, with want_cache,
    what ``_layer_back`` needs."""
    outs = np.empty((lay.out_dim * lay.in_dim, x.shape[1]))
    cache = [None, None]
    if lay.knots is not None:
        at, src, par = lay.spl
        basis, dbasis, silu, dsilu = lay.inputs or _spline_rows(
            lay.knots, x[src], want_cache)
        w = p[par]
        # matmul runs per row the same BLAS product as one edge's basis @ c
        spl = (basis @ w[:, 2:, None])[..., 0]
        outs[at] = w[:, :1] * silu + w[:, 1:2] * spl
        cache[0] = w, basis, dbasis, silu, dsilu, spl
    if lay.lck[2].size:
        at, src, par = lay.lck
        a, b, c, d = p[par].T[:, :, None]
        u = a * x[src] + b
        fu, fpu = np.zeros(u.shape), np.zeros(u.shape)
        for r, cand in lay.live:
            lo, hi = u[r].min(), u[r].max()
            if not cand.domain(lo, hi):
                raise DomainViolationError(
                    f"locked candidate {cand.name!r} undefined on arguments "
                    f"[{lo}, {hi}]")
            fu[r] = cand.fn(u[r])
            if want_cache:
                fpu[r] = cand.deriv(u[r])
        outs[at] = c * fu + d
        cache[1] = x[src], a, c, fu, fpu
    nodes = outs if lay.in_dim == 1 else outs.reshape(
        lay.out_dim, lay.in_dim, -1).sum(axis=1)
    return outs, nodes, cache if want_cache else None


def _layer_back(lay: _Layer, cache: list, go: np.ndarray,
                grad: np.ndarray) -> np.ndarray:
    """From the gradient go on a layer's edge outputs (E, N), write its
    parameters' gradient into grad; return the gradient on its node values
    (in_dim, N). Row dots run as matmuls, the same BLAS dot as one edge's."""
    down = np.empty_like(go)
    if lay.knots is not None:
        (at, _, par), (w, basis, dbasis, silu, dsilu, spl) = lay.spl, cache[0]
        g = go[at]
        dots = [(g[:, None] @ v[..., None])[:, 0] for v in (silu, spl)]
        grad[par] = np.concatenate(
            dots + [w[:, 1:2] * (g[:, None] @ basis)[:, 0]], axis=1)
        down[at] = g * (w[:, :1] * dsilu
                        + w[:, 1:2] * (dbasis @ w[:, 2:, None])[..., 0])
    if lay.lck[2].size:
        (at, _, par), (xl, a, c, fu, fpu) = lay.lck, cache[1]
        g, cf = go[at], c * fpu
        dots = [(g[:, None] @ v[..., None])[:, 0] for v in (cf * xl, cf, fu)]
        grad[par] = np.concatenate(dots + [g.sum(axis=1)[:, None]], axis=1)
        down[at] = g * (cf * a)
    return down if lay.out_dim == 1 else down.reshape(
        lay.out_dim, lay.in_dim, -1).sum(axis=0)


# overflow in the edges (silu far below zero is -0.0, cosh far from the data
# inf) and inf - inf in their sum are legitimate: callers check the result
@np.errstate(over="ignore", invalid="ignore")
def _forward(net: KanNetwork, xs: np.ndarray, want_cache: bool, fixed=None):
    """Node values and edge outputs per layer as rows, (dim, N) and (E, N),
    and the backward caches if wanted, at ``fixed`` = (plan, flat parameters)
    if given."""
    plan, p = fixed or (_plan(net), net.get_params())
    acts, outs, caches = [xs.T], [], []
    for l in range(len(net.layers)):
        o, nodes, cache = _layer_pass(plan[l], p, acts[-1], want_cache)
        acts.append(nodes)
        outs.append(o)
        caches.append(cache)
    return acts, outs, caches


def forward_batch(net: KanNetwork, xs) -> np.ndarray:
    """Evaluate on a batch (n, in_dim), or 1-D xs as one column: (n, out)."""
    acts, _, _ = _forward(net, _as_batch(net, xs), want_cache=False)
    return acts[-1].T


def _as_batch(net: KanNetwork, xs) -> np.ndarray:
    """xs as a float (n, in_dim) array for net; a 1-D xs is one column."""
    xs = np.asarray(xs, dtype=float)
    xs = xs.reshape(-1, 1) if xs.ndim == 1 else xs
    if xs.shape[1] != net.shape[0]:
        raise DimMismatchError(
            f"input dim {xs.shape[1]} != shape[0] = {net.shape[0]}")
    return xs


def _check_batch(net, xs, ys):
    xs = _as_batch(net, xs)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] != ys.shape[0] or ys.ndim != 1 or xs.shape[0] < 1:
        raise DimMismatchError("xs rows and ys length must match and be >= 1")
    if net.shape[-1] != 1:
        raise DimMismatchError("loss functions require a single output head")
    return xs, ys


def _magnitudes(outs) -> np.ndarray:
    """Per-edge mean |output| over the batch (as np.mean, sum / n)."""
    return np.concatenate([np.abs(o).sum(axis=1) / o.shape[1] for o in outs])


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
    weights[nz] = 1.0 + (-log_p - entropy) / total
    return total + entropy, weights


def loss_and_gradient(net: KanNetwork, xs, ys, lam: float, *, _fixed=None):
    """RMSE of the single output head plus lam * (sum of the edge
    magnitudes + their entropy), and its analytic gradient (reverse
    accumulation). An overflowing loss is inf, with a NaN gradient.

    ``_fixed`` is for ``_minimize_free`` only: a (plan, flat parameters)
    pair that stands in for the network's own, the plan being ``_plan(net,
    xs)`` for the same xs, grids and locks. It is not checked; a stale one
    gives a wrong loss and gradient.
    """
    if lam < 0:
        raise InvalidArgumentError("lambda must be >= 0")
    xs, ys = _check_batch(net, xs, ys)
    n = xs.shape[0]
    plan, p = _fixed or (_plan(net), net.get_params())
    acts, outs, caches = _forward(net, xs, want_cache=True, fixed=(plan, p))
    resid = acts[-1][0] - ys
    # overflow to inf is fine: line searches treat a non-finite loss as a
    # wall and never ask for the gradient there
    with np.errstate(over="ignore"):
        mse = float((resid ** 2).sum() / n)
    rmse = float(np.sqrt(mse))
    if not np.isfinite(rmse):
        return rmse, np.full(p.size, np.nan)

    loss = rmse
    if lam > 0.0:
        penalty, weights = _penalty(outs)
        loss += lam * penalty
        ends = np.cumsum([len(o) for o in outs])

    node_grad = (resid / (n * rmse) if rmse > 0.0 else np.zeros(n))[None]
    grad = np.empty(p.size)
    for l in range(len(outs) - 1, -1, -1):
        go = node_grad.repeat(plan[l].in_dim, axis=0)
        if lam > 0.0:
            w = weights[ends[l] - len(outs[l]):ends[l]]
            go += (lam * w)[:, None] * np.sign(outs[l]) / n
        node_grad = _layer_back(plan[l], caches[l], go, grad)
    return loss, grad


@np.errstate(over="ignore", invalid="ignore")  # as in _forward
def adapt_grids(net: KanNetwork, xs) -> KanNetwork:
    """Rescale each unlocked edge's grid to its observed inputs with a 10%
    margin, refitting its coefficients to the old spline (one stacked basis
    call a layer) on a dense sample of the new domain. Layers go in order,
    so a layer sees inputs from the layers before it on their new grids."""
    net = net.clone()
    x = _as_batch(net, xs).T
    for l, layer in enumerate(net.layers):
        edges = [(r, e) for r, e in enumerate(e for row in layer.edges
                                              for e in row) if e.lock is None]
        grids, dense = [], []
        for r, e in edges:
            xr = x[r % layer.in_dim]
            lo, hi = float(xr.min()), float(xr.max())
            span = 1.0 if hi - lo < 1e-9 else hi - lo
            lo, hi = lo - GRID_MARGIN * span, hi + GRID_MARGIN * span
            grids.append(bspline.make_grid(lo, hi, e.grid.num_intervals,
                                           e.grid.order))
            dense.append(np.linspace(lo, hi, max(200, 20 * e.grid.num_basis)))
        if edges:
            old = bspline.basis_matrix(
                bspline.stack_grids([e.grid for _, e in edges]),
                np.stack(dense)).reshape(len(edges), len(dense[0]), -1)
            c = np.stack([e.coeffs.values for _, e in edges])
            vals = (old @ c[:, :, None])[..., 0]
            for (_, e), grid, d, v in zip(edges, grids, dense, vals):
                e.grid = grid
                e.coeffs = bspline.fit_coeffs_least_squares(grid, d, v)
        if l + 1 < len(net.layers):
            x = _layer_pass(_plan(net)[l], net.get_params(), x, False)[1]
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
    plan = _plan(net, xs)  # the parameters move; the grids and locks do not

    def loss_grad(sub):
        p = base.copy()
        p[free] = sub
        try:
            loss, grad = loss_and_gradient(net, xs, ys, lam,
                                           _fixed=(plan, p))
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
    _, edge_outs, _ = _forward(net, _as_batch(net, xs), want_cache=False)
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
            ins = [(l - 1, node, i) for i in range(net.shape[l - 1])]
            outs = [(l, j, node) for j in range(net.shape[l + 1])]
            if (max(imp[k] for k in ins) < threshold
                    or max(imp[k] for k in outs) < threshold):
                kill.update(ins + outs)
    for l, j, i, edge in net.iter_edges():
        if (l, j, i) in kill:
            net.layers[l].edges[j][i] = EdgeActivation(
                edge.w_b, edge.w_c, edge.grid, edge.coeffs, zero_lock())
    return net


def snap_edge(net: KanNetwork, layer: int, xs):
    """Lock each unlocked edge of a layer to its best candidate under the
    default search, on the edge's (input, output) samples from one forward
    pass of xs, ranking the edges that read one node in one call; a lock
    changes no other edge of its layer. Returns (new network, [((layer, out,
    in), ranked rows), ...]) in edge order; a layer with nothing unlocked
    comes back as it is, with no rows."""
    lay = net.layers[layer]
    todo = [r for r, e in enumerate(e for row in lay.edges for e in row)
            if e.lock is None]
    if not todo:
        return net, []
    acts, edge_outs, _ = _forward(net, _as_batch(net, xs), want_cache=False)
    found = []
    for i in {r % lay.in_dim for r in todo}:  # edge (j, i) reads node i
        rs = [r for r in todo if r % lay.in_dim == i]
        found += zip(rs, rank_candidates(acts[layer][i], edge_outs[layer][rs]))
    snaps = [((layer, *divmod(r, lay.in_dim)), ranked)
             for r, ranked in sorted(found)]
    net = net.clone()
    for (_, j, i), ranked in snaps:
        name, a, b, c, d, _ = ranked[0]
        net.layers[layer].edges[j][i].lock = SymbolicLock(
            candidate_by_name(name), a, b, c, d)
    return net, snaps


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
        exprs = [fold(Sum(tuple(
            Unary(e.lock.candidate.name, e.lock.a, e.lock.b, e.lock.c,
                  e.lock.d, exprs[i]) for i, e in enumerate(row))))
            for row in layer.edges]
    return exprs[0]
