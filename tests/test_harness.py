"""Tests for splits, the five-step pipeline, grid search, and reporting."""

import io
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from kanhydro import harness, hydro, kan, metrics
from kanhydro.errors import (
    DomainViolationError,
    InvalidArgumentError,
    TooSmallDatasetError,
)
from kanhydro.harness import (
    FitReport,
    GridSearchConfig,
    HyperPoint,
    emit_plot_data,
    finalize,
    grid_search,
    kfold_split,
    run_pipeline,
    split_indices,
)
from kanhydro.optim import OptimOptions

FORMULA = "0.39 - 0.34*tanh(1.42*x - 0.82)"


def small_config(**kw):
    base = dict(shapes=[[1, 1]], grid_intervals=[3], seeds=[0], folds=3,
                train_max_iters=60)
    base.update(kw)
    return GridSearchConfig(**base)


def synth(n=120, sigma=0.02, seed=7):
    return hydro.synth_generate(FORMULA, n, (0.2, 5.0), sigma, seed=seed)


class TestSplits:
    def test_paper_sizes(self):
        tr, te = split_indices(378, 0.8, 0)
        assert len(tr) == 303 and len(te) == 75

    def test_deterministic(self):
        a = split_indices(100, 0.8, 4)
        b = split_indices(100, 0.8, 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_partition(self):
        tr, te = split_indices(57, 0.8, 1)
        merged = np.sort(np.concatenate([tr, te]))
        assert np.array_equal(merged, np.arange(57))

    def test_ratio_bounds(self):
        with pytest.raises(InvalidArgumentError):
            split_indices(100, 1.0, 0)

    def test_too_small(self):
        with pytest.raises(TooSmallDatasetError):
            split_indices(4, 0.8, 0)

    def test_dataset_split(self):
        _, ys = synth(50)
        tr, te = split_indices(len(ys), 0.8, 0)
        assert len(ys[tr]) == 40 and len(ys[te]) == 10


class TestKfold:
    def test_even_folds(self):
        pairs = kfold_split(300, 10, 0)
        assert [len(v) for _, v in pairs] == [30] * 10

    def test_remainder_to_earliest_folds(self):
        pairs = kfold_split(303, 10, 0)
        assert [len(v) for _, v in pairs] == [31, 31, 31] + [30] * 7

    def test_exact_partition(self):
        pairs = kfold_split(47, 5, 3)
        seen = np.sort(np.concatenate([v for _, v in pairs]))
        assert np.array_equal(seen, np.arange(47))
        for tr, va in pairs:
            assert np.intersect1d(tr, va).size == 0
            assert len(tr) + len(va) == 47

    def test_too_small(self):
        with pytest.raises(TooSmallDatasetError):
            kfold_split(5, 10, 0)


class TestRunPipeline:
    def test_linear_data_recovered(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0.2, 5.0, 80))
        ys = 0.3 * xs + 0.1
        res = run_pipeline(xs, ys, xs, ys, HyperPoint([1, 1], 3, 0))
        assert res.validation_r2 >= 1.0 - 1e-6

    def test_tanh_recovery_single_edge(self):
        phi, ys = synth(240, 0.01)
        res = run_pipeline(phi, ys, phi, ys, HyperPoint([1, 1], 5, 0))
        assert res.snap_results
        assert res.snap_results[0]["best"][0] == "tanh"
        assert "tanh" in res.formula_str

    def test_targets_in_mm_per_year_raise_no_overflow_warning(self):
        # FB targets are hundreds of mm/yr, so hidden activations reach far
        # below zero, where silu's exp(-x) overflows (to the right -0.0)
        phi, y = hydro.synth_generate(hydro.FIXED_MODELS["FB"], 302,
                                      (0.2, 5), 20, 42)
        tr, va = kfold_split(302, 2, 0)[0]
        res = run_pipeline(phi[tr], y[tr], phi[va], y[va],
                           HyperPoint([1, 2, 1], 3, 0))
        assert res.validation_r2 > 0.9

    def test_records_presnap_score(self):
        phi, ys = synth(150)
        res = run_pipeline(phi, ys, phi, ys, HyperPoint([1, 1], 5, 1))
        assert res.presnap_r2 is not None
        assert 0.9 < res.presnap_r2 <= 1.0

    def test_presnap_score_is_the_pruned_networks(self):
        phi, ys = synth(150)
        xs = phi.reshape(-1, 1)
        tr, va = kfold_split(150, 3, 0)[0]
        hp = HyperPoint([1, 1], 5, 1)
        res = run_pipeline(xs[tr], ys[tr], xs[va], ys[va], hp)
        # the same train and prune as run_pipeline's defaults, by hand
        net = kan.init_network(hp.shape, hp.grid_intervals, hp.seed)
        net = kan.adapt_grids(net, xs[tr])
        net = kan.train(net, xs[tr], ys[tr], 1e-3,
                        OptimOptions(max_iters=100, grad_tol=1e-6,
                                     f_rel_tol=1e-10))
        net = kan.prune(net, 1e-2, xs[tr])
        presnap = kan.forward_batch(net, xs[va])[:, 0]
        assert res.presnap_r2 == metrics.r_squared((ys[va], presnap))
        assert res.presnap_r2 != res.validation_r2

    def test_locked_edges_overflowing_to_opposite_infinities(self):
        # refine's line search probes points where two locked cosh edges
        # overflow to +inf and -inf; their sum makes the loss NaN, which the
        # search treats as a wall, and raises no RuntimeWarning
        phi, y = hydro.synth_generate(hydro.FIXED_MODELS["FD"], 302,
                                      (0.2, 5.0), 20.0, 0)
        tr, _ = split_indices(302, 0.8, 0)
        phi, y = phi[tr], y[tr]
        fit, va = kfold_split(len(y), 2, 0)[1]
        res = run_pipeline(phi[fit], y[fit], phi[va], y[va],
                           HyperPoint([1, 3, 1], 5, 0))
        assert res.validation_r2 > 0.9


class TestGridSearch:
    def test_single_point(self):
        phi, ys = synth(100)
        cfg = small_config()
        best, table = grid_search(cfg, phi, ys)
        assert best.shape == [1, 1]
        assert len(table) == 1

    def test_argmax_and_table_shape(self):
        phi, ys = synth(120)
        cfg = small_config(grid_intervals=[3, 5], seeds=[0, 1])
        best, table = grid_search(cfg, phi, ys)
        assert len(table) == 4
        means = [row["mean_r2"] for row in table]
        chosen = next(row for row in table
                      if row["grid_intervals"] == best.grid_intervals
                      and row["seed"] == best.seed)
        assert chosen["mean_r2"] == max(means)
        assert all(len(row["fold_r2"]) == cfg.folds for row in table)

    def test_failed_point_scores_neg_inf(self, monkeypatch):
        def failing(x_pre, y_pre, x_val, y_val, hp, **kwargs):
            if hp.shape == [1, 2, 1]:
                raise DomainViolationError("a job failure")
            return run_pipeline(x_pre, y_pre, x_val, y_val, hp, **kwargs)

        monkeypatch.setattr(harness, "run_pipeline", failing)
        phi, ys = synth(100)
        cfg = small_config(shapes=[[1, 1], [1, 2, 1]])
        best, table = grid_search(cfg, phi, ys)
        assert best.shape == [1, 1]
        bad = next(row for row in table if row["shape"] == [1, 2, 1])
        assert bad["mean_r2"] == -np.inf

    @pytest.mark.parametrize("shape", [[2, 1], [1, 2]])
    def test_shape_not_fitting_the_data_rejected_before_any_job(
            self, monkeypatch, shape):
        def broken(*args, **kwargs):
            raise TypeError("a job ran")

        monkeypatch.setattr(harness, "run_pipeline", broken)
        phi, ys = synth(100)
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"'shapes': {shape!r}")):
            grid_search(small_config(shapes=[[1, 1], shape]), phi, ys)

    def test_programming_error_escapes(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a job failure")

        monkeypatch.setattr(harness, "run_pipeline", broken)
        phi, ys = synth(100)
        with pytest.raises(TypeError, match="not a job failure"):
            grid_search(small_config(), phi, ys)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one(self, monkeypatch, threads):
        def broken(*args, **kwargs):
            raise TypeError("a job ran")

        monkeypatch.setattr(harness, "run_pipeline", broken)
        phi, ys = synth(100)
        with pytest.raises(InvalidArgumentError,
                           match=f"threads must be >= 1, got {threads}"):
            grid_search(small_config(), phi, ys, threads=threads)

    def test_parallel_matches_serial(self):
        phi, ys = synth(100)
        cfg = small_config(grid_intervals=[3, 5])
        best1, table1 = grid_search(cfg, phi, ys, threads=1)
        best4, table4 = grid_search(cfg, phi, ys, threads=4)
        assert best1 == best4
        assert table1 == table4


class TestFinalize:
    def test_degenerate_test_equals_train(self):
        phi, ys = synth(100)
        cfg = small_config()
        report = finalize(HyperPoint([1, 1], 3, 0), phi, ys, phi, ys,
                          "qb_over_p", cfg)
        assert report.train_metrics == report.test_metrics

    def test_report_roundtrip(self):
        phi, ys = synth(100)
        cfg = small_config()
        report = finalize(HyperPoint([1, 1], 3, 0), phi, ys, phi, ys,
                          "qb_over_p", cfg)
        text = report.to_json()
        assert FitReport(**json.loads(text)).to_json() == text

    def test_noise_floor_quality(self):
        phi, ys = synth(302, 0.02, seed=7)
        tr, te = split_indices(302, 0.8, 0)
        cfg = small_config(grid_intervals=[5], folds=5)
        report = finalize(HyperPoint([1, 1], 5, 0), phi[tr], ys[tr],
                          phi[te], ys[te], "qb_over_p", cfg)
        truth = 0.39 - 0.34 * np.tanh(1.42 * phi[te] - 0.82)
        from kanhydro import symbolic
        pred = symbolic.eval_expression(
            symbolic.parse_expression(report.formula),
            phi[te].reshape(-1, 1))
        nse = 1 - np.sum((truth - pred) ** 2) / np.sum(
            (truth - truth.mean()) ** 2)
        assert nse >= 0.95


class TestFit:
    def test_wall_clock_covers_the_sweep(self, monkeypatch):
        phi, ys = synth(60)
        rows = ["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"]
        for k, (p, y) in enumerate(zip(phi.tolist(), ys.tolist())):
            rows.append(f"g{k:03d},1000.0,{1000.0 * p!r},"
                        f"{1000.0 * max(y, 1e-3)!r},10.0")
        ds = hydro.load_catchments(io.StringIO("\n".join(rows) + "\n"))
        sweep = harness.grid_search

        def slow_sweep(*args, **kwargs):
            time.sleep(0.2)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(harness, "grid_search", slow_sweep)
        report = harness.fit(ds, "qb_over_p", small_config())
        assert report.wall_clock_seconds >= 0.2


class TestConfig:
    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig.from_json('{"bogus": 1}')

    @pytest.mark.parametrize("text, message", [
        ("{folds: 3}", "not JSON"),
        (b"{\"folds\": \"\xff\"}", "not JSON"),
        ("[1, 2]", "not a JSON object"),
        ('"folds"', "not a JSON object"),
        ('{"folds": "ten"}', "'folds' must be int"),
        ('{"folds": 2.5}', "'folds' must be int"),
        ('{"folds": true}', "'folds' must be int"),
        ('{"lambda_": "0.1"}', "'lambda_' must be float"),
        ('{"shapes": 3}', "'shapes' must be list"),
        ('{"shapes": [[1]]}', r"'shapes'.*\[1\]"),
        ('{"shapes": [[1, "a"]]}', "'shapes'.*'a'"),
        ('{"shapes": [[1, 1.5]]}', "'shapes'.*1.5"),
        ('{"shapes": [[0, 1]]}', "'shapes'.*0"),
        ('{"grid_intervals": [0]}', "'grid_intervals'.*0"),
        ('{"grid_intervals": [true]}', "'grid_intervals'.*True"),
        ('{"seeds": [-1]}', "'seeds'.*-1"),
        ('{"split_seed": -1}', "'split_seed'.*-1"),
        ('{"lambda_": -1}', "'lambda_'.*-1"),
        ('{"lambda_": NaN}', "'lambda_'.*nan"),
        ('{"prune_threshold": -0.5}', "'prune_threshold'.*-0.5"),
        ('{"prune_threshold": Infinity}', "'prune_threshold'.*inf"),
        ('{"train_max_iters": -5}', "'train_max_iters'.*-5"),
        ('{"train_max_iters": 0}', "'train_max_iters'.*0"),
    ])
    def test_from_json_rejects_malformed(self, text, message):
        with pytest.raises(InvalidArgumentError, match=message):
            GridSearchConfig.from_json(text)

    def test_from_json_accepts_int_for_float(self):
        assert GridSearchConfig.from_json('{"lambda_": 0}').lambda_ == 0

    def test_from_json_roundtrip(self):
        cfg = small_config()
        back = GridSearchConfig.from_json(json.dumps(cfg.to_dict()))
        assert back == cfg

    @pytest.mark.parametrize("folds", [2.5, True, 1])
    def test_folds_an_integer_from_2(self, folds):
        # a fractional count once passed here and failed in kfold_split
        with pytest.raises(InvalidArgumentError, match=(
                rf"'folds' must hold integers >= 2, got {folds}")):
            GridSearchConfig(folds=folds)

    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(folds=1)
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(split_ratio=1.5)
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(shapes=[])


class TestEmitPlotData:
    @pytest.mark.parametrize("spec", [(0.2, np.inf, 0.01),
                                      (-np.inf, 5.0, 0.01),
                                      (0.2, 5.0, np.nan), (np.nan, 5.0, 0.1),
                                      (0.2, 1e300, 1e-300)])
    def test_non_finite_grid(self, tmp_path, spec):
        # the last: finite bounds and step, but an overflowing point count
        out = tmp_path / "curves.csv"
        with pytest.raises(InvalidArgumentError, match="finite"):
            emit_plot_data([("kan_fb", hydro.eval_kan_fB)], None, spec, out)
        assert not out.exists()

    def test_curve_row_count_and_values(self, tmp_path):
        out = tmp_path / "curves.csv"
        models = [("original_fb", hydro.eval_original_fB),
                  ("kan_fb", hydro.eval_kan_fB)]
        emit_plot_data(models, None, (0.2, 5.0, 0.01), out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "phi,original_fb,kan_fb"
        assert len(lines) == 482  # header + 481 grid rows
        # the kan_fb column crosses 0.39 where the tanh argument is zero
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        # nearest grid point is 0.58, so allow the discretization error
        at = np.argmin(np.abs(rows[:, 0] - 0.57746))
        assert rows[at, 2] == pytest.approx(0.39, abs=2e-3)

    def test_empty_model_list(self, tmp_path):
        out = tmp_path / "curves.csv"
        emit_plot_data([], None, (0.2, 5.0, 0.1), out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "phi"

    def test_scatter_companion(self, tmp_path):
        import io
        from kanhydro.hydro import load_catchments
        ds = load_catchments(io.StringIO(
            "gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
            "g1,1000,800,300,200\n"
            "g2,900,1100,150,100\n"))
        out = tmp_path / "curves.csv"
        scatter = emit_plot_data([], ds, (0.2, 5.0, 0.1), out)
        with open(scatter, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "phi,qb_over_p,qd_over_p,qb,qd"
        assert len(lines) == 3


def catchment_columns(n):
    """The columns of n balanced catchments, in REQUIRED_COLUMNS order."""
    rng = np.random.default_rng(n)
    p = rng.uniform(300.0, 2500.0, n)
    return [[f"g{k:06d}" for k in range(n)], p, p * rng.uniform(0.2, 5.0, n),
            p * rng.uniform(0.0, 0.4, n), p * rng.uniform(0.0, 0.4, n)]


def transient_bytes(fn, *args):
    """fn(*args)'s traced peak beyond what is still allocated after it,
    with its result held."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


class TestWriteCsv:
    ROW_FORMAT = "%s,%r,%r,%.10g,%s"

    def test_rows_across_blocks_equal_one_format_per_row(self, tmp_path):
        columns = catchment_columns(2 * hydro.BLOCK_ROWS + 3)
        out = tmp_path / "rows.csv"
        harness.write_csv(out, hydro.REQUIRED_COLUMNS, self.ROW_FORMAT,
                          columns)
        rows = zip(columns[0], *(c.tolist() for c in columns[1:]))
        assert out.read_bytes() == (
            ",".join(hydro.REQUIRED_COLUMNS) + "\n"
            + "".join(self.ROW_FORMAT % row + "\n" for row in rows)).encode()


class TestBlockMemory:
    """The CSV reader and writer hold one block of rows as text, so the
    memory they use beyond their result does not grow with the file's
    text."""

    def test_write_csv_transient_does_not_grow_with_rows(self, tmp_path):
        small, big = (
            transient_bytes(harness.write_csv, tmp_path / f"{n}.csv",
                            hydro.REQUIRED_COLUMNS, "%s,%r,%r,%r,%r",
                            catchment_columns(n))
            for n in (5_000, 20_000))
        assert big - small < 2**19

    def test_load_catchments_transient_bound(self, tmp_path):
        # the loader still keeps O(rows) memory that is not text: line
        # numbers, the id set of the duplicate check, and the joined blocks
        path = tmp_path / "80k.csv"
        harness.write_csv(path, hydro.REQUIRED_COLUMNS, "%s,%r,%r,%r,%r",
                          catchment_columns(80_000))
        assert transient_bytes(hydro.load_catchments, path) < 15 * 2**20
