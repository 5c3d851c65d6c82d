"""End-to-end pipeline: splits, 10-fold cross-validated grid search over KAN
hyperparameters, the five-step train/prune/snap/refine/extract procedure,
and report/plot-data emission.

All randomness flows from explicit seeds and the (hyperparameter x fold) job
set is merged in a fixed order, so serial and parallel sweeps, and repeated
runs, produce identical reports (the wall-clock field aside).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import hydro, kan, metrics, symbolic
from .errors import (
    DomainViolationError,
    InvalidArgumentError,
    KanHydroError,
    TooSmallDatasetError,
    is_count,
)
from .optim import MIN_SAMPLES, OptimOptions

TARGETS = ("qb_over_p", "qd_over_p", "qb", "qd")

# the most points a plot-data phi grid may hold (the default grid has 481)
MAX_PLOT_POINTS = 10**6


# the JSON values a GridSearchConfig field accepts, by its annotation
_JSON_TYPES = {"list": list, "int": int, "float": (int, float)}


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
        if not 0.0 < self.split_ratio < 1.0:
            raise InvalidArgumentError("split_ratio must be in (0, 1)")
        if not (self.shapes and self.grid_intervals and self.seeds):
            raise InvalidArgumentError("hyperparameter lists must be nonempty")
        for shape in self.shapes:
            if not (isinstance(shape, (list, tuple)) and len(shape) >= 2):
                raise InvalidArgumentError(
                    f"config key 'shapes' must hold lists of at least 2 "
                    f"widths, got {shape!r}")
        for key, values, least in (
                ("shapes", [w for shape in self.shapes for w in shape], 1),
                ("grid_intervals", self.grid_intervals, 1),
                ("seeds", self.seeds, 0),
                ("folds", [self.folds], 2),
                ("split_seed", [self.split_seed], 0),
                ("train_max_iters", [self.train_max_iters], 1)):
            for value in values:
                if not is_count(value, least):
                    raise InvalidArgumentError(
                        f"config key {key!r} must hold integers >= {least}, "
                        f"got {value!r}")
        for key in ("lambda_", "prune_threshold"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidArgumentError(
                    f"config key {key!r} must be finite and >= 0, "
                    f"got {value!r}")

    @staticmethod
    def from_json(text) -> "GridSearchConfig":
        """A config from a JSON object (str or UTF-8 bytes) of some of its
        fields; anything else raises InvalidArgumentError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidArgumentError(f"config is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidArgumentError("config is not a JSON object")
        types = {f.name: f.type for f in fields(GridSearchConfig)}
        unknown = set(doc) - set(types)
        if unknown:
            raise InvalidArgumentError(f"unknown config keys {sorted(unknown)}")
        for key, value in doc.items():
            if (isinstance(value, bool)
                    or not isinstance(value, _JSON_TYPES[types[key]])):
                raise InvalidArgumentError(
                    f"config key {key!r} must be {types[key]}, got {value!r}")
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
        """The report as strict JSON (RFC 8259): a non-finite score, such as
        a failed fold's -inf, is written as null; any other non-finite
        number raises ValueError."""
        doc = asdict(self)
        doc["mean_r2"] = _json_score(doc["mean_r2"])
        doc["per_fold_r2"] = [_json_score(v) for v in doc["per_fold_r2"]]
        for row in doc["score_table"]:
            row["mean_r2"] = _json_score(row["mean_r2"])
            row["fold_r2"] = [_json_score(v) for v in row["fold_r2"]]
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _json_score(value):
    """A score, or None where it is None or not finite."""
    return value if value is not None and math.isfinite(value) else None


def split_indices(n: int, ratio: float, seed: int):
    """Deterministic shuffled 2-way split; train gets ceil(ratio * n) rows,
    and the test side must keep enough rows to be scored."""
    if not 0.0 < ratio < 1.0:
        raise InvalidArgumentError("ratio must be in (0, 1)")
    if n < 5:
        raise TooSmallDatasetError(f"need at least 5 records, got {n}")
    n_train = math.ceil(ratio * n)
    if n - n_train < metrics.MIN_POINTS:
        raise TooSmallDatasetError(
            f"a {ratio} split of {n} records leaves {n - n_train} test "
            f"record(s); need at least {metrics.MIN_POINTS}")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


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


@contextlib.contextmanager
def naming_rows(describe):
    """Re-raise a DomainViolationError raised at a batch row with
    ``describe(row)`` before its message."""
    try:
        yield
    except DomainViolationError as exc:
        if exc.row is None:
            raise
        raise DomainViolationError(f"{describe(exc.row)}: {exc}",
                                   exc.node_path, exc.row) from exc


def run_pipeline(x_pre, y_pre, x_val, y_val, hp: HyperPoint, *,
                 lambda_: float = 1e-3, prune_threshold: float = 1e-2,
                 train_max_iters: int = 100) -> PipelineResult:
    """The five-step procedure: train, prune, snap, refine, extract.

    prune_threshold is relative to the maximum edge importance. When a
    validation set is given, the snapped formula's R^2 on it is reported
    (with the pre-snap network's score alongside).
    """
    x_pre = np.asarray(x_pre, dtype=float).reshape(len(y_pre), -1)
    y_pre = np.asarray(y_pre, dtype=float)

    net = kan.init_network(hp.shape, hp.grid_intervals, hp.seed)
    net = kan.adapt_grids(net, x_pre)
    opts = OptimOptions(max_iters=train_max_iters, grad_tol=1e-6,
                        f_rel_tol=1e-10)
    net = kan.train(net, x_pre, y_pre, lambda_, opts)

    net = kan.prune(net, prune_threshold, x_pre)
    has_val = x_val is not None and len(np.atleast_1d(y_val))
    if has_val:
        x_val = np.asarray(x_val, dtype=float).reshape(len(y_val), -1)
        presnap = kan.forward_batch(net, x_val)[:, 0]

    snap_results = []
    for l in range(len(net.layers)):
        net, snaps = kan.snap_edge(net, l, x_pre)
        snap_results += [{"edge": list(edge), "best": list(ranked[0])}
                         for edge, ranked in snaps]

    net = kan.refine_affine(net, x_pre, y_pre)
    tree = kan.extract_formula(net)
    formula_str = symbolic.print_expression(tree, precision=6)

    val_r2 = presnap_r2 = None
    if has_val:
        pred = symbolic.eval_expression(tree, x_val)
        val_r2 = metrics.r_squared((np.asarray(y_val, float), pred))
        try:
            presnap_r2 = metrics.r_squared((np.asarray(y_val, float), presnap))
        except KanHydroError:
            presnap_r2 = None
    return PipelineResult(net, tree, formula_str, val_r2, presnap_r2,
                          snap_results)


def _fold_score(config, x, y, hp: HyperPoint, fold) -> float:
    """One (point, fold) job's validation R^2. A package error (a singular
    least-squares system among them, as RankDeficientError) or a
    non-finite score gives -inf instead."""
    tr, va = fold
    try:
        score = run_pipeline(x[tr], y[tr], x[va], y[va], hp,
                             lambda_=config.lambda_,
                             prune_threshold=config.prune_threshold,
                             train_max_iters=config.train_max_iters
                             ).validation_r2
    except KanHydroError:
        return -np.inf
    return score if np.isfinite(score) else -np.inf


def grid_search(config: GridSearchConfig, x_train, y_train, *,
                threads: int = 1):
    """Exhaustive sweep; returns (best HyperPoint, score table).

    The sweep maps _fold_score over the (point, fold) jobs, point-major,
    on `threads` threads; any exception but a failed job's propagates.
    Each table row is a point's fields, its fold R^2 and their mean.
    Ties break in Cartesian order (shapes, then grid intervals, then seeds).
    A split whose folds are too small to train or score raises
    TooSmallDatasetError before any job runs.
    """
    if threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    x_train = np.asarray(x_train, dtype=float).reshape(len(y_train), -1)
    y_train = np.asarray(y_train, dtype=float)
    for shape in config.shapes:
        if shape[0] != x_train.shape[1] or shape[-1] != 1:
            raise InvalidArgumentError(
                f"config key 'shapes': {list(shape)!r} must start with the "
                f"{x_train.shape[1]} input column(s) and end with 1 output")
    points = [HyperPoint(list(s), g, sd) for s, g, sd in
              itertools.product(config.shapes, config.grid_intervals,
                                config.seeds)]
    folds = kfold_split(y_train.size, config.folds, config.split_seed)
    least_val = min(va.size for _, va in folds)
    least_train = min(tr.size for tr, _ in folds)
    if least_val < metrics.MIN_POINTS or least_train < MIN_SAMPLES:
        raise TooSmallDatasetError(
            f"{y_train.size} training rows in {config.folds} folds leave "
            f"{least_val} validation and {least_train} training rows in the "
            f"smallest folds; each fold needs at least {metrics.MIN_POINTS} "
            f"validation and {MIN_SAMPLES} training rows")

    score = functools.partial(_fold_score, config, x_train, y_train)
    hps, job_folds = zip(*itertools.product(points, folds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scores = list(pool.map(score, hps, job_folds))
    else:
        scores = list(map(score, hps, job_folds))
    scores = np.reshape(scores, (len(points), config.folds))
    means = scores.mean(axis=1)
    table = [{**asdict(hp), "fold_r2": row.tolist(), "mean_r2": float(mean)}
             for hp, row, mean in zip(points, scores, means)]
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
    with naming_rows(lambda r: f"row {r} of the test split (aridity index "
                               f"{float(x_test[r, 0])!r})"):
        pred_test = symbolic.eval_expression(res.formula, x_test)
    train_m = metrics.all_metrics(y_train, pred_train)
    test_m = metrics.all_metrics(y_test, pred_test)

    table = score_table or []
    label = asdict(best_hp)
    best_row = next((row for row in table if label.items() <= row.items()),
                    None)
    per_fold = best_row["fold_r2"] if best_row else []
    mean_r2 = best_row["mean_r2"] if best_row else float("nan")

    params = []
    for l, j, i, edge in res.network.iter_edges():
        lk = edge.lock
        params.append({"edge": [l, j, i], "candidate": lk.candidate.name,
                       "a": lk.a, "b": lk.b, "c": lk.c, "d": lk.d})

    return FitReport(
        target=target,
        hyperparameters=label,
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


def fit(ds: hydro.CatchmentDataset, target: str, config: GridSearchConfig, *,
        threads: int = 1) -> FitReport:
    """Full run: split, grid-search, finalize. Target picks the y column.

    The report's wall clock spans all three steps.
    """
    if target not in TARGETS:
        raise InvalidArgumentError(f"target must be one of {TARGETS}")
    t0 = time.perf_counter()
    phi = ds.column("phi")
    y = ds.column(target)
    tr, te = split_indices(len(ds), config.split_ratio, config.split_seed)
    best_hp, table = grid_search(config, phi[tr], y[tr], threads=threads)
    report = finalize(best_hp, phi[tr], y[tr], phi[te], y[te], target, config,
                      score_table=table, provenance=ds.provenance)
    report.wall_clock_seconds = time.perf_counter() - t0
    return report


def emit_plot_data(models, ds, phi_spec, out_path) -> str:
    """Write model curves over a phi grid plus an observation scatter file.

    `models` is a list of (name, callable) pairs; phi_spec is
    (lo, hi, step), and the grid holds at most MAX_PLOT_POINTS points. A
    model that leaves its domain raises naming the phi grid value. Returns
    the scatter companion path.
    """
    lo, hi, step = phi_spec
    if not all(math.isfinite(v) for v in phi_spec):
        raise InvalidArgumentError(
            f"phi grid bounds and step must be finite, got {phi_spec}")
    if not (lo < hi and step > 0):
        raise InvalidArgumentError("need lo < hi and step > 0")
    count = (hi - lo) / step
    if not math.isfinite(count):
        raise InvalidArgumentError(
            f"phi grid ({hi} - {lo}) / {step} has no finite point count")
    n = int(round(count)) + 1
    if n > MAX_PLOT_POINTS:
        raise InvalidArgumentError(
            f"phi grid ({hi} - {lo}) / {step} asks for {n:.7g} points; "
            f"at most {MAX_PLOT_POINTS}")
    phis = np.linspace(lo, hi, n)
    curves = []
    for name, fn in models:
        with naming_rows(
                lambda r: f"{name} at phi grid value {float(phis[r])!r}"):
            curves.append(np.asarray(fn(phis), dtype=float))
    write_csv(out_path, ["phi"] + [name for name, _ in models],
              ",".join(["%.10g"] * (1 + len(curves))), [phis, *curves])
    scatter_path = str(out_path) + ".scatter.csv"
    columns = ["phi", "qb_over_p", "qd_over_p", "qb", "qd"]
    write_csv(scatter_path, columns, ",".join(["%.10g"] * 5),
              [] if ds is None else [ds.column(c) for c in columns])
    return scatter_path


def write_csv(path, header, row_format, columns) -> None:
    """Write a header line, then each row of the equal-length columns
    (arrays or lists) through one %-format string.

    The rows are formatted and written one block of hydro.BLOCK_ROWS rows
    at a time, so at most one block is held as text."""
    line = (row_format + "\n").__mod__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]) if columns else 0,
                           hydro.BLOCK_ROWS):
            stop = start + hydro.BLOCK_ROWS
            rows = zip(*(c[start:stop].tolist() if isinstance(c, np.ndarray)
                         else c[start:stop] for c in columns))
            fh.write("".join(map(line, rows)))
