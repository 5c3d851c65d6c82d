"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from kanhydro import cli, kan, symbolic

GOOD_CSV = """gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr
g01,1000,500,300,200
g02,900,1100,150,100
g03,1200,600,500,300
g04,800,1300,100,80
g05,1100,700,400,250
g06,950,950,200,150
g07,1050,550,450,280
g08,700,1500,60,50
g09,1300,650,550,320
g10,850,1200,120,90
"""


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "catchments.csv"
    path.write_text(GOOD_CSV)
    return str(path)


class TestEvaluate:
    def test_fixed_model(self, data_file, capsys):
        code = cli.main(["evaluate", "--data", data_file,
                         "--model", "kan_fb"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target"] == "qb_over_p"
        assert set(out["metrics"]) == {"nse", "kge", "rmse", "r2"}

    def test_prediction_file(self, data_file, tmp_path, capsys):
        out_csv = tmp_path / "pred.csv"
        code = cli.main(["evaluate", "--data", data_file, "--model",
                         "original_fb", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].endswith("phi,prediction")
        assert len(lines) == 11

    def test_unknown_model(self, data_file, capsys):
        assert cli.main(["evaluate", "--data", data_file,
                         "--model", "nope"]) == 1

    def test_missing_data_file(self, capsys):
        assert cli.main(["evaluate", "--data", "/no/such.csv",
                         "--model", "kan_fb"]) == 1


class TestSynthAndMetrics:
    def test_synth_then_metrics(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = cli.main(["synth", "--formula",
                         "0.39 - 0.34*tanh(1.42*x - 0.82)",
                         "--n", "50", "--sigma", "0.01", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "phi,y"
        assert len(lines) == 51
        capsys.readouterr()
        code = cli.main(["metrics", "--data", str(out),
                         "--obs-col", "y", "--sim-col", "y"])
        assert code == 0
        vals = json.loads(capsys.readouterr().out)
        assert vals["nse"] == pytest.approx(1.0)
        assert vals["rmse"] == 0.0

    def test_synth_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--formula", "kan_fb", "--n", "30", "--sigma",
                "0.05", "--seed", "9"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_formula(self, tmp_path):
        assert cli.main(["synth", "--formula", "frobnicate(x",
                         "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1


class TestPlotData:
    def test_curves_and_scatter(self, data_file, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = cli.main(["plotdata", "--models", "original_fb,kan_fb",
                         "--data", data_file, "--phi-min", "0.2",
                         "--phi-max", "5.0", "--step", "0.01",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 482
        scatter = tmp_path / "curves.csv.scatter.csv"
        assert len(scatter.read_text().strip().split("\n")) == 11

    def test_checkpoint_curve(self, tmp_path, capsys):
        # a checkpoint locked to kan_fb's published tanh must plot as kan_fb
        net = kan.init_network([1, 1], grid_intervals=3, seed=0)
        net.layers[0].edges[0][0].lock = kan.SymbolicLock(
            symbolic.candidate_by_name("tanh"), 1.42, -0.82, -0.34, 0.39)
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(net.to_json())
        out = tmp_path / "c.csv"
        code = cli.main(["plotdata", "--models", f"kan_fb,checkpoint:{ckpt}",
                         "--out", str(out)])
        assert code == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (481, 3)
        np.testing.assert_allclose(table[:, 2], table[:, 1], rtol=0,
                                   atol=1e-9)


class TestFit:
    def test_small_grid_fit(self, tmp_path, capsys):
        # synthetic data shaped like the catchment schema so `fit` sees a
        # learnable qb_over_p(phi) signal
        rng = np.random.default_rng(0)
        rows = ["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"]
        for k in range(60):
            p = 1000.0
            phi = rng.uniform(0.2, 5.0)
            fb = 0.39 - 0.34 * np.tanh(1.42 * phi - 0.82)
            qb = p * max(fb + rng.normal(0, 0.01), 0.001)
            rows.append(f"g{k:03d},{p},{phi * p},{qb:.6f},10.0")
        data = tmp_path / "synth_catchments.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "shapes": [[1, 1]], "grid_intervals": [3], "seeds": [0],
            "folds": 3, "train_max_iters": 60,
        }))
        out_dir = tmp_path / "out"
        code = cli.main(["fit", "--data", str(data), "--target", "qb_over_p",
                         "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["target"] == "qb_over_p"
        # tiny budget, so only check that a usable formula came out
        assert report["test_metrics"]["nse"] > 0.9
        assert (out_dir / "summary.txt").exists()

    def test_bad_config_key(self, data_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"bogus": true}')
        assert cli.main(["fit", "--data", data_file, "--target", "qb_over_p",
                         "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
