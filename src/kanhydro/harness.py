"""End-to-end pipeline: splits, 10-fold cross-validated grid search over KAN
hyperparameters, the five-step train/prune/snap/refine/extract procedure,
and report/plot-data emission.

All randomness flows from explicit seeds and the (hyperparameter x fold) job
set is merged in a fixed order, so serial and parallel sweeps, and repeated
runs, produce identical reports (the wall-clock field aside).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import kan, metrics, symbolic
from .errors import (
    InvalidArgumentError,
    KanHydroError,
    TooSmallDatasetError,
)
from .hydro import AridityModel, CatchmentDataset
from .optim import AffineSearchGrid, OptimOptions

TARGETS = ("qb_over_p", "qd_over_p", "qb", "qd")

# coarser-than-default snap search used inside the sweep; the BFGS polish in
# fit_affine_wrap still runs on the full edge data
PIPELINE_SNAP_SEARCH = AffineSearchGrid(
    a_magnitudes=np.geomspace(0.1, 10.0, 21),
    b_values=np.linspace(-10.0, 10.0, 21),
    max_samples=80,
    polish=OptimOptions(max_iters=20, grad_tol=1e-8),
)


@dataclass
class GridSearchConfig:
    shapes: list = field(default_factory=lambda: [[1, 1], [1, 2, 1], [1, 3, 1]])
    grid_intervals: list = field(default_factory=lambda: [3, 5, 10])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    lambda_: float = 1e-3
    prune_threshold: float = 1e-2  # relative to the max edge importance
    folds: int = 10
    split_ratio: float = 0.8
    split_seed: int = 0
    train_max_iters: int = 100

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidArgumentError("folds must be >= 2")
        if not 0.0 < self.split_ratio < 1.0:
            raise InvalidArgumentError("split_ratio must be in (0, 1)")
        if not (self.shapes and self.grid_intervals and self.seeds):
            raise InvalidArgumentError("hyperparameter lists must be nonempty")

    @staticmethod
    def from_json(text: str) -> "GridSearchConfig":
        doc = json.loads(text)
        known = {"shapes", "grid_intervals", "seeds", "lambda_",
                 "prune_threshold", "folds", "split_ratio", "split_seed",
                 "train_max_iters"}
        unknown = set(doc) - known
        if unknown:
            raise InvalidArgumentError(f"unknown config keys {sorted(unknown)}")
        return GridSearchConfig(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class HyperPoint:
    shape: list
    grid_intervals: int
    seed: int


@dataclass
class PipelineResult:
    network: kan.KanNetwork
    formula: object  # expression tree
    formula_str: str
    validation_r2: float | None
    presnap_r2: float | None
    snap_results: list


@dataclass
class FitReport:
    target: str
    hyperparameters: dict
    per_fold_r2: list
    mean_r2: float
    formula: str
    parameters: list
    train_metrics: dict
    test_metrics: dict
    wall_clock_seconds: float
    config: dict
    provenance: str
    score_table: list
    checkpoint: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "FitReport":
        return FitReport(**json.loads(text))


def split_indices(n: int, ratio: float, seed: int):
    """Deterministic shuffled 2-way split; train gets ceil(ratio * n) rows."""
    if not 0.0 < ratio < 1.0:
        raise InvalidArgumentError("ratio must be in (0, 1)")
    if n < 5:
        raise TooSmallDatasetError(f"need at least 5 records, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = math.ceil(ratio * n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def train_test_split(ds, ratio: float, seed: int):
    """Split a dataset (or (X, y) pair) into disjoint covering parts."""
    if isinstance(ds, CatchmentDataset):
        tr, te = split_indices(len(ds), ratio, seed)
        return ds.subset(tr), ds.subset(te)
    xs, ys = ds
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    tr, te = split_indices(ys.size, ratio, seed)
    return (xs[tr], ys[tr]), (xs[te], ys[te])


def kfold_split(n: int, k: int, seed: int):
    """k near-equal folds; remainder goes to the earliest folds.

    Returns a list of (train_idx, val_idx) index-array pairs.
    """
    if n < k:
        raise TooSmallDatasetError(f"need at least {k} records, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    base, rem = divmod(n, k)
    pairs = []
    start = 0
    for f in range(k):
        size = base + (1 if f < rem else 0)
        val = perm[start:start + size]
        train = np.concatenate([perm[:start], perm[start + size:]])
        pairs.append((np.sort(train), np.sort(val)))
        start += size
    return pairs


def run_pipeline(x_pre, y_pre, x_val, y_val, hp: HyperPoint, *,
                 lambda_: float = 1e-3, prune_threshold: float = 1e-2,
                 train_max_iters: int = 100,
                 snap_search: AffineSearchGrid | None = None) -> PipelineResult:
    """The five-step procedure: train, prune, snap, refine, extract.

    prune_threshold is relative to the maximum edge importance. When a
    validation set is given, the snapped formula's R^2 on it is reported
    (with the pre-snap network's score alongside).
    """
    x_pre = np.asarray(x_pre, dtype=float).reshape(len(y_pre), -1)
    y_pre = np.asarray(y_pre, dtype=float)
    snap_search = snap_search or PIPELINE_SNAP_SEARCH

    net = kan.init_network(hp.shape, hp.grid_intervals, hp.seed)
    net = kan.adapt_grids(net, x_pre)
    opts = OptimOptions(max_iters=train_max_iters, grad_tol=1e-6,
                        f_rel_tol=1e-10)
    net = kan.train(net, x_pre, y_pre, lambda_, opts)

    importances = kan.edge_importances(net, x_pre)
    threshold = prune_threshold * float(importances.max())
    net = kan.prune(net, threshold, x_pre)

    snap_results = []
    for l, j, i, edge in list(net.iter_edges()):
        if edge.lock is None:
            net, snap = kan.snap_edge(net, l, j, i, None, x_pre,
                                      search=snap_search)
            snap_results.append({"edge": [l, j, i], "best": list(snap.best)})

    presnap_r2 = None
    if any(not e.lock.frozen for _, _, _, e in net.iter_edges()):
        net = kan.refine_affine(net, x_pre, y_pre)
    tree = kan.extract_formula(net)
    formula_str = symbolic.print_expression(tree, precision=6)

    val_r2 = None
    if x_val is not None and len(np.atleast_1d(y_val)):
        x_val = np.asarray(x_val, dtype=float).reshape(len(y_val), -1)
        pred = symbolic.eval_expression(tree, x_val)
        val_r2 = metrics.r_squared((np.asarray(y_val, float), pred))
        presnap = kan.forward_batch(net, x_val)[:, 0]
        try:
            presnap_r2 = metrics.r_squared((np.asarray(y_val, float), presnap))
        except KanHydroError:
            presnap_r2 = None
    return PipelineResult(net, tree, formula_str, val_r2, presnap_r2,
                          snap_results)


def _point_label(hp: HyperPoint) -> dict:
    return {"shape": list(hp.shape), "grid_intervals": hp.grid_intervals,
            "seed": hp.seed}


def grid_search(config: GridSearchConfig, x_train, y_train, *,
                threads: int = 1):
    """Exhaustive sweep; returns (best HyperPoint, score table).

    A failed (point, fold) job scores -inf instead of aborting the sweep.
    Ties break in Cartesian order (shapes, then grid intervals, then seeds).
    """
    x_train = np.asarray(x_train, dtype=float).reshape(len(y_train), -1)
    y_train = np.asarray(y_train, dtype=float)
    points = [HyperPoint(list(s), g, sd) for s, g, sd in
              itertools.product(config.shapes, config.grid_intervals,
                                config.seeds)]
    folds = kfold_split(y_train.size, config.folds, config.split_seed)

    jobs = []
    for p_idx, hp in enumerate(points):
        for f_idx, (tr, va) in enumerate(folds):
            jobs.append((p_idx, f_idx, hp, tr, va))

    def run_job(job):
        _, _, hp, tr, va = job
        try:
            res = run_pipeline(x_train[tr], y_train[tr],
                               x_train[va], y_train[va], hp,
                               lambda_=config.lambda_,
                               prune_threshold=config.prune_threshold,
                               train_max_iters=config.train_max_iters)
            score = res.validation_r2
            if score is None or not np.isfinite(score):
                return -np.inf, None
            return float(score), res.presnap_r2
        except Exception:
            return -np.inf, None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_job, jobs))
    else:
        outcomes = [run_job(j) for j in jobs]

    table = []
    scores = np.full((len(points), config.folds), -np.inf)
    for (p_idx, f_idx, _, _, _), (score, _) in zip(jobs, outcomes):
        scores[p_idx, f_idx] = score
    for p_idx, hp in enumerate(points):
        fold_scores = scores[p_idx].tolist()
        mean = float(np.mean(scores[p_idx]))
        table.append({**_point_label(hp), "fold_r2": fold_scores,
                      "mean_r2": mean})
    means = np.array([row["mean_r2"] for row in table])
    if not np.any(np.isfinite(means)):
        raise KanHydroError("every hyperparameter point failed")
    best_idx = int(np.argmax(means))  # argmax takes the first maximum
    return points[best_idx], table


def finalize(best_hp: HyperPoint, x_train, y_train, x_test, y_test,
             target: str, config: GridSearchConfig, *,
             score_table=None, provenance: str = "") -> FitReport:
    """Refit on the full training set and report train/test metrics."""
    t0 = time.perf_counter()
    x_train = np.asarray(x_train, dtype=float).reshape(len(y_train), -1)
    x_test = np.asarray(x_test, dtype=float).reshape(len(y_test), -1)
    y_train = np.asarray(y_train, dtype=float)
    y_test = np.asarray(y_test, dtype=float)

    res = run_pipeline(x_train, y_train, None, None, best_hp,
                       lambda_=config.lambda_,
                       prune_threshold=config.prune_threshold,
                       train_max_iters=config.train_max_iters)
    pred_train = symbolic.eval_expression(res.formula, x_train)
    pred_test = symbolic.eval_expression(res.formula, x_test)
    train_m = metrics.all_metrics(y_train, pred_train)
    test_m = metrics.all_metrics(y_test, pred_test)

    table = score_table or []
    best_row = next((row for row in table
                     if row["shape"] == list(best_hp.shape)
                     and row["grid_intervals"] == best_hp.grid_intervals
                     and row["seed"] == best_hp.seed), None)
    per_fold = best_row["fold_r2"] if best_row else []
    mean_r2 = best_row["mean_r2"] if best_row else float("nan")

    params = []
    for l, j, i, edge in res.network.iter_edges():
        lk = edge.lock
        params.append({"edge": [l, j, i], "candidate": lk.candidate.name,
                       "a": lk.a, "b": lk.b, "c": lk.c, "d": lk.d})

    return FitReport(
        target=target,
        hyperparameters=_point_label(best_hp),
        per_fold_r2=per_fold,
        mean_r2=mean_r2,
        formula=res.formula_str,
        parameters=params,
        train_metrics=train_m,
        test_metrics=test_m,
        wall_clock_seconds=time.perf_counter() - t0,
        config=config.to_dict(),
        provenance=provenance,
        score_table=table,
        checkpoint=res.network.to_json(),
    )


def fit(ds: CatchmentDataset, target: str, config: GridSearchConfig, *,
        threads: int = 1) -> FitReport:
    """Full run: split, grid-search, finalize. Target picks the y column."""
    if target not in TARGETS:
        raise InvalidArgumentError(f"target must be one of {TARGETS}")
    phi = ds.column("phi")
    y = ds.column(target)
    tr, te = split_indices(len(ds), config.split_ratio, config.split_seed)
    best_hp, table = grid_search(config, phi[tr], y[tr], threads=threads)
    return finalize(best_hp, phi[tr], y[tr], phi[te], y[te], target, config,
                    score_table=table, provenance=ds.provenance)


def emit_plot_data(models, ds, phi_spec, out_path) -> str:
    """Write model curves over a phi grid plus an observation scatter file.

    `models` is a list of (name, callable) pairs or AridityModel instances;
    phi_spec is (lo, hi, step). Returns the scatter companion path.
    """
    lo, hi, step = phi_spec
    if not (lo < hi and step > 0):
        raise InvalidArgumentError("need lo < hi and step > 0")
    n = int(round((hi - lo) / step)) + 1
    phis = np.linspace(lo, hi, n)
    named = []
    for m in models:
        if isinstance(m, AridityModel):
            named.append((m.family, m))
        else:
            named.append(m)
    curves = [np.asarray(fn(phis), dtype=float) for _, fn in named]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["phi"] + [name for name, _ in named]) + "\n")
        for row in zip(phis, *curves):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    scatter_path = str(out_path) + ".scatter.csv"
    with open(scatter_path, "w", encoding="utf-8") as fh:
        fh.write("phi,qb_over_p,qd_over_p,qb,qd\n")
        if ds is not None:
            for rec, d in zip(ds.records, ds.derived):
                fh.write(f"{d.phi:.10g},{d.qb_over_p:.10g},"
                         f"{d.qd_over_p:.10g},{rec.qb:.10g},{rec.qd:.10g}\n")
    return scatter_path
