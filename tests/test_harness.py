"""Tests for splits, the five-step pipeline, grid search, and reporting."""

import json

import numpy as np
import pytest

from kanhydro import hydro
from kanhydro.errors import InvalidArgumentError, TooSmallDatasetError
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
    train_test_split,
)

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
        phi, ys = synth(50)
        (xt, yt), (xe, ye) = train_test_split((phi, ys), 0.8, 0)
        assert len(yt) == 40 and len(ye) == 10


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

    def test_records_presnap_score(self):
        phi, ys = synth(150)
        res = run_pipeline(phi, ys, phi, ys, HyperPoint([1, 1], 5, 1))
        assert res.presnap_r2 is not None
        assert 0.9 < res.presnap_r2 <= 1.0


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

    def test_failed_point_scores_neg_inf(self):
        phi, ys = synth(100)
        cfg = small_config(shapes=[[1, 1], [1]])  # [1] is unusable
        best, table = grid_search(cfg, phi, ys)
        assert best.shape == [1, 1]
        bad = next(row for row in table if row["shape"] == [1])
        assert bad["mean_r2"] == -np.inf

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
        back = FitReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()

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


class TestConfig:
    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig.from_json('{"bogus": 1}')

    def test_from_json_roundtrip(self):
        cfg = small_config()
        back = GridSearchConfig.from_json(json.dumps(cfg.to_dict()))
        assert back == cfg

    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(folds=1)
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(split_ratio=1.5)
        with pytest.raises(InvalidArgumentError):
            GridSearchConfig(shapes=[])


class TestEmitPlotData:
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
