"""Command-line surface: fit, evaluate, synth, metrics, plotdata.

Exit codes: 0 success, 1 validation error, 2 runtime/optimizer failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, hydro, kan, metrics, symbolic
from .errors import (
    CsvParseError,
    DataValidationError,
    ExpressionParseError,
    InvalidArgumentError,
    KanHydroError,
    LengthMismatchError,
    TooSmallDatasetError,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

_VALIDATION_ERRORS = (InvalidArgumentError, DataValidationError,
                      CsvParseError, ExpressionParseError,
                      LengthMismatchError, TooSmallDatasetError)


def _summary_text(report: harness.FitReport) -> str:
    lines = [
        f"target            {report.target}",
        f"hyperparameters   shape={report.hyperparameters['shape']} "
        f"grid={report.hyperparameters['grid_intervals']} "
        f"seed={report.hyperparameters['seed']}",
        f"mean fold R2      {report.mean_r2:.6f}",
        f"formula           {report.formula}",
        "",
        f"{'metric':<8}{'train':>12}{'test':>12}",
    ]
    for key in ("nse", "kge", "rmse", "r2"):
        lines.append(f"{key:<8}{report.train_metrics[key]:>12.5f}"
                     f"{report.test_metrics[key]:>12.5f}")
    return "\n".join(lines) + "\n"


def _cmd_fit(args) -> int:
    ds = hydro.load_catchments(args.data, strict=args.strict)
    for w in ds.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.config:
        config = harness.GridSearchConfig.from_json(
            Path(args.config).read_text(encoding="utf-8"))
    else:
        config = harness.GridSearchConfig()
    report = harness.fit(ds, args.target, config, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "summary.txt").write_text(_summary_text(report), encoding="utf-8")
    print(_summary_text(report), end="")
    return EXIT_OK


def _model_callable(spec: str):
    if spec.startswith("checkpoint:"):
        path = spec.split(":", 1)[1]
        net = kan.KanNetwork.from_json(Path(path).read_text(encoding="utf-8"))
        tree = kan.extract_formula(net)
        return (lambda phi: symbolic.eval_expression(
            tree, np.atleast_1d(np.asarray(phi, float)).reshape(-1, 1))), None
    if spec in hydro.FIXED_MODELS:
        return hydro.FIXED_MODELS[spec], hydro.MODEL_TARGETS[spec]
    raise InvalidArgumentError(
        f"unknown model {spec!r}; expected one of "
        f"{sorted(hydro.FIXED_MODELS)} or checkpoint:PATH")


def _cmd_evaluate(args) -> int:
    ds = hydro.load_catchments(args.data, strict=args.strict)
    fn, default_target = _model_callable(args.model)
    target = args.target or default_target
    if target is None:
        raise InvalidArgumentError("--target is required for checkpoints")
    phi = ds.column("phi")
    obs = ds.column(target)
    pred = np.asarray(fn(phi), dtype=float)
    result = {"model": args.model, "target": target, "n": len(ds),
              "metrics": metrics.all_metrics(obs, pred)}
    if args.repeats:
        # the model is not refit: the same predictions are scored on the
        # test rows of repeated random 80/20 splits
        stats = []
        for rep in range(args.repeats):
            tr, te = harness.split_indices(len(ds), 0.8, rep)
            stats.append(metrics.nse((obs[te], pred[te])))
        result["repeat_test_nse"] = {"mean": float(np.mean(stats)),
                                     "std": float(np.std(stats)),
                                     "n_repeats": args.repeats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr,"
                     "phi,prediction\n")
            for rec, d, p in zip(ds.records, ds.derived, pred):
                fh.write(f"{rec.gauge_id},{rec.p:.10g},{rec.pet:.10g},"
                         f"{rec.qb:.10g},{rec.qd:.10g},{d.phi:.10g},"
                         f"{p:.10g}\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_synth(args) -> int:
    formula = args.formula
    if formula in hydro.FIXED_MODELS:
        fn = hydro.FIXED_MODELS[formula]
    else:
        fn = formula  # expression string, parsed by synth_generate
    phi, ys = hydro.synth_generate(fn, args.n, (args.phi_min, args.phi_max),
                                   args.sigma, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("phi,y\n")
        for p, y in zip(phi, ys):
            fh.write(f"{float(p)!r},{float(y)!r}\n")
    print(f"wrote {args.n} rows to {args.out}")
    return EXIT_OK


def _read_columns(path, names):
    import csv as _csv
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.DictReader(fh)
        rows = list(reader)
    cols = []
    for name in names:
        if not rows or name not in rows[0]:
            raise CsvParseError(f"{path}: missing column {name!r}")
        try:
            cols.append(np.array([float(r[name]) for r in rows]))
        except ValueError as exc:
            raise CsvParseError(f"{path}: non-numeric value in {name!r}: "
                                f"{exc}") from exc
    return cols


def _cmd_metrics(args) -> int:
    obs, sim = _read_columns(args.data, [args.obs_col, args.sim_col])
    print(json.dumps(metrics.all_metrics(obs, sim), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    models = []
    for name in args.models.split(","):
        name = name.strip()
        fn, _ = _model_callable(name)
        models.append((name, fn))
    scatter = None
    if args.data:
        scatter = hydro.load_catchments(args.data, strict=False)
    companion = harness.emit_plot_data(models, scatter,
                                       (args.phi_min, args.phi_max, args.step),
                                       args.out)
    print(f"wrote curves to {args.out} and scatter to {companion}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanhydro",
        description="KAN-based symbolic regression for aridity-index "
                    "baseflow models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="grid-search and fit a KAN pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True, choices=harness.TARGETS)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="score a fixed model or checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=None, choices=harness.TARGETS)
    p.add_argument("--out", default=None)
    p.add_argument("--repeats", type=int, default=0)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   default=False)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic (phi, y) samples")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi-min", type=float, default=0.2)
    p.add_argument("--phi-max", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("metrics", help="compute NSE/KGE/RMSE/R2 for two columns")
    p.add_argument("--data", required=True)
    p.add_argument("--obs-col", required=True)
    p.add_argument("--sim-col", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("plotdata", help="export model curves over a phi grid")
    p.add_argument("--models", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--phi-min", type=float, default=0.2)
    p.add_argument("--phi-max", type=float, default=5.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KanHydroError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
