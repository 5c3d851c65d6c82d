"""Span tracing of kanhydro from the outside, by wrapping module attributes.

Each wrapped function records a span (label, duration, the label of the span
that called it) when it returns or raises. Spans are aggregated in memory per
(parent label, label) pair, so self time (duration minus the time covered by
child spans) and parent links survive without keeping one record per call.

Functions are wrapped where their callers look them up: a name imported with
``from ... import`` lives in the importing module (``kan.rank_candidates``,
``kan.bfgs_minimize``, ``symbolic.fit_affine_wrap``), so that is the attribute
replaced. Every original is restored when the ``Tracer`` context exits.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from kanhydro import (bspline, cli, harness, hydro, kan, metrics, optim,
                      symbolic)
from kanhydro.errors import NoValidCandidateError
from kanhydro.optim import STATUS_LINE_SEARCH_FAILURE

# The 24-candidate library, fixed here so the per-layer metric names are.
CANDIDATES = ("x", "x^2", "x^3", "x^4", "1/x", "1/x^2", "1/x^3", "1/x^4",
              "sqrt", "1/sqrt", "exp", "log", "abs", "sin", "tan", "tanh",
              "sigmoid", "sign", "arcsin", "arctan", "arctanh", "0",
              "gaussian", "cosh")
METRIC_FUNCS = ("nse", "kge", "rmse", "r_squared", "all_metrics")
STAGES = ("kan.adapt_grids", "kan.train", "kan.prune", "kan.snap_edge",
          "kan.refine_affine")


def metric_name(candidate: str) -> str:
    """Candidate name made legal as part of a metric name (1/x^2 -> inv_x2)."""
    return candidate.replace("1/", "inv_").replace("^", "")


class Tracer:
    """Context manager that wraps kanhydro's layer boundaries.

    Statistics accumulate across every ``with`` block of one instance.
    """

    def __init__(self):
        self.calls = Counter()          # (parent, label) -> calls
        self.total = defaultdict(float)  # (parent, label) -> seconds
        self.self_s = defaultdict(float)  # (parent, label) -> self seconds
        self.iters = Counter()          # BFGS caller label -> iterations
        self.line_search_failures = 0
        self.affine_infeasible = 0
        self.basis_rows = 0
        self.basis_bytes = 0
        self.load_rows = 0
        self.job_s = []
        self.jobs_failed = 0
        self.failure_classes = Counter()
        self.commands_failed = 0
        self._stack = [["<root>", 0.0]]
        self._patches = []
        self._cand_names = {id(c.fn): c.name
                            for c in symbolic.candidate_library()}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, module, attr, hook=None, tag=None):
        orig = getattr(module, attr)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        stack = self._stack
        calls, total, self_s = self.calls, self.total, self.self_s

        def wrapper(*args, **kwargs):
            name = label if tag is None else f"{label}[{tag(args)}]"
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            result = err = None
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                key = (parent[0], name)
                calls[key] += 1
                total[key] += dur
                self_s[key] += dur - frame[1]
                parent[1] += dur
                if hook is not None:
                    hook(parent[0], args, result, err, dur)
                # the traceback holds this frame; drop the frame's link back
                # so the exception and its frames are freed without a
                # cyclic collection
                err = None

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def __enter__(self):
        w = self._wrap
        w(bspline, "basis_matrix", hook=self._on_basis)
        w(bspline, "basis_and_deriv_matrix", hook=self._on_basis)
        w(bspline, "fit_coeffs_least_squares")
        w(optim, "bfgs_minimize", hook=self._on_bfgs)
        w(symbolic, "fit_affine_wrap", hook=self._on_affine,
          tag=lambda args: self._cand_names.get(id(args[0]), "?"))
        w(symbolic, "eval_expression")
        w(kan, "rank_candidates")
        w(kan, "bfgs_minimize", hook=self._on_bfgs)
        for attr in ("train", "loss_and_gradient", "adapt_grids",
                     "edge_importances", "prune", "snap_edge",
                     "refine_affine", "forward_batch"):
            w(kan, attr)
        w(hydro, "load_catchments", hook=self._on_load)
        w(hydro, "synth_generate")
        for attr in METRIC_FUNCS:
            w(metrics, attr)
        w(harness, "grid_search")
        w(harness, "run_pipeline", hook=self._on_pipeline)
        w(harness, "finalize")
        w(cli, "main", hook=self._on_command)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)
        return False

    # -- hooks --------------------------------------------------------------

    def _on_basis(self, parent, args, result, err, dur):
        if err is None:
            arrays = result if isinstance(result, tuple) else (result,)
            self.basis_rows += arrays[0].shape[0]
            self.basis_bytes += sum(a.size * a.itemsize for a in arrays)

    def _on_bfgs(self, parent, args, result, err, dur):
        if err is None:
            self.iters[parent] += result.iterations
            if result.status == STATUS_LINE_SEARCH_FAILURE:
                self.line_search_failures += 1

    def _on_affine(self, parent, args, result, err, dur):
        if isinstance(err, NoValidCandidateError):
            self.affine_infeasible += 1

    def _on_load(self, parent, args, result, err, dur):
        if err is None:
            self.load_rows += len(result)

    def _on_pipeline(self, parent, args, result, err, dur):
        if parent != "harness.grid_search":
            return
        # one (hyperpoint, fold) job; grid_search turns an exception or a
        # missing/non-finite validation score into a -inf fold score
        self.job_s.append(dur)
        if err is not None:
            self.jobs_failed += 1
            self.failure_classes[type(err).__name__] += 1
        elif (result.validation_r2 is None
              or not np.isfinite(result.validation_r2)):
            self.jobs_failed += 1
            self.failure_classes["non-finite score"] += 1

    def _on_command(self, parent, args, result, err, dur):
        if err is not None or result != 0:
            self.commands_failed += 1

    # -- aggregation --------------------------------------------------------

    def _sum(self, table, label=None, prefix=None, parent=None,
             not_parent=None):
        out = 0
        for (par, name), value in table.items():
            if label is not None and name != label:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if parent is not None and not par.startswith(parent):
                continue
            if not_parent is not None and par.startswith(not_parent):
                continue
            out += value
        return out

    def layer_metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        c, t, s = self.calls, self.total, self.self_s
        out = {}
        rank_calls = self._sum(c, "kan.rank_candidates")
        affine_calls = self._sum(c, prefix="symbolic.fit_affine_wrap[")
        out["symbolic.rank_calls"] = (rank_calls, "count")
        out["symbolic.rank_s"] = (self._sum(t, "kan.rank_candidates"), "s")
        for cand in CANDIDATES:
            tag = f"symbolic.fit_affine_wrap[{cand}]"
            name = metric_name(cand)
            out[f"symbolic.cand.{name}.coarse_s"] = (self._sum(s, tag), "s")
            out[f"symbolic.cand.{name}.polish_s"] = (
                self._sum(t, "optim.bfgs_minimize", parent=tag), "s")
        out["symbolic.snap_useful_ratio"] = (
            rank_calls / affine_calls if affine_calls else 0.0, "frac")

        polish_parent = "symbolic.fit_affine_wrap["
        out["optim.affine_calls"] = (affine_calls, "count")
        out["optim.affine_infeasible"] = (self.affine_infeasible, "count")
        out["optim.affine_coarse_s"] = (
            self._sum(s, prefix=polish_parent), "s")
        out["optim.polish_s"] = (
            self._sum(t, "optim.bfgs_minimize", parent=polish_parent), "s")
        out["optim.polish_iters"] = (
            sum(n for caller, n in self.iters.items()
                if caller.startswith(polish_parent)), "count")
        out["optim.line_search_failures"] = (self.line_search_failures,
                                             "count")

        out["kan.train_s"] = (self._sum(t, "kan.train"), "s")
        out["kan.train_iters"] = (self.iters["kan.train"], "count")
        out["kan.loss_grad_calls"] = (self._sum(c, "kan.loss_and_gradient"),
                                      "count")
        out["kan.loss_grad_self_s"] = (
            self._sum(s, "kan.loss_and_gradient"), "s")
        out["kan.adapt_grids_s"] = (self._sum(t, "kan.adapt_grids"), "s")
        # prune = the importance pass the harness runs for the threshold,
        # plus prune itself (which runs its own importance pass)
        out["kan.prune_s"] = (
            self._sum(t, "kan.prune")
            + self._sum(t, "kan.edge_importances", not_parent="kan.prune"),
            "s")
        out["kan.snap_s"] = (self._sum(t, "kan.snap_edge"), "s")
        out["kan.snap_edges"] = (self._sum(c, "kan.snap_edge"), "count")
        out["kan.refine_s"] = (self._sum(t, "kan.refine_affine"), "s")
        out["kan.refine_iters"] = (self.iters["kan.refine_affine"], "count")
        out["kan.forward_s"] = (self._sum(t, "kan.forward_batch"), "s")

        basis = ("bspline.basis_matrix", "bspline.basis_and_deriv_matrix")
        out["bspline.basis_calls"] = (sum(self._sum(c, b) for b in basis),
                                      "count")
        out["bspline.basis_rows"] = (self.basis_rows, "count")
        out["bspline.basis_s"] = (sum(self._sum(t, b) for b in basis), "s")
        # computed from the output array shapes, not measured traffic
        out["bspline.basis_mb"] = (self.basis_bytes / 1e6, "MB_computed")
        out["bspline.lsq_s"] = (
            self._sum(t, "bspline.fit_coeffs_least_squares"), "s")

        out["hydro.load_rows"] = (self.load_rows, "count")
        out["hydro.load_s"] = (self._sum(t, "hydro.load_catchments"), "s")
        out["hydro.synth_s"] = (self._sum(t, "hydro.synth_generate"), "s")
        out["metrics.calls"] = (
            self._sum(c, prefix="metrics.", not_parent="metrics."), "count")
        out["metrics.s"] = (
            self._sum(t, prefix="metrics.", not_parent="metrics."), "s")
        out["cli.commands"] = (self._sum(c, "cli.main"), "count")
        out["cli.commands_failed"] = (self.commands_failed, "count")
        out["cli.self_s"] = (self._sum(s, "cli.main"), "s")
        out["symbolic.eval_calls"] = (self._sum(c, "symbolic.eval_expression"),
                                      "count")
        out["symbolic.eval_s"] = (self._sum(t, "symbolic.eval_expression"),
                                  "s")

        jobs_ms = np.sort(np.array(self.job_s)) * 1e3
        tail_pct = tail_percentile(jobs_ms.size)
        out["harness.jobs"] = (len(self.job_s), "count")
        out["harness.jobs_failed"] = (self.jobs_failed, "count")
        out["harness.job_ms_p50"] = (
            float(np.percentile(jobs_ms, 50)) if jobs_ms.size else 0.0, "ms")
        out["harness.job_ms_tail"] = (
            float(np.percentile(jobs_ms, tail_pct)) if jobs_ms.size else 0.0,
            "ms")
        out["harness.job_ms_tail_pct"] = (tail_pct, "pct")
        out["harness.sweep_s"] = (self._sum(t, "harness.grid_search"), "s")
        # the refit outside the sweep: finalize(), or a run_pipeline called
        # directly by the workload
        out["harness.finalize_s"] = (
            self._sum(t, "harness.finalize")
            + self._sum(t, "harness.run_pipeline", parent="<root>"), "s")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out

    def stage_seconds(self) -> dict:
        """Total seconds per pipeline stage (outermost calls only)."""
        return {st: self._sum(self.total, st, not_parent=st) for st in STAGES}

    def coarse_ms_per_call(self) -> dict:
        """Mean coarse (self) milliseconds of one fit per candidate."""
        out = {}
        for cand in CANDIDATES:
            tag = f"symbolic.fit_affine_wrap[{cand}]"
            n = self._sum(self.calls, tag)
            if n:
                out[cand] = 1e3 * self._sum(self.self_s, tag) / n
        return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    if n <= 10:
        return 0
    return int(np.floor(100.0 * (n - 10) / n))
