"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanhydro import cli, harness, hydro, kan, symbolic
from kanhydro.errors import CsvParseError

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


@pytest.fixture
def arcsin_checkpoint(tmp_path):
    """A [1, 1] network locked to arcsin(x), defined for x <= 1 only."""
    net = kan.init_network([1, 1], grid_intervals=3, seed=0)
    net.layers[0].edges[0][0].lock = kan.SymbolicLock(
        symbolic.candidate_by_name("arcsin"), 1.0, 0.0, 1.0, 0.0)
    path = tmp_path / "ck.json"
    path.write_text(net.to_json())
    return f"checkpoint:{path}"


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

    def test_strict_exclusion_is_warned_about(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        data.write_text("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
                        "g1,1000,500,300,200\n"
                        "g2,100,800,90,30\n"
                        "g3,900,1100,150,100\n"
                        "g4,1200,600,500,300\n")
        assert cli.main(["evaluate", "--data", str(data), "--model",
                         "kan_fb", "--strict"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["n"] == 3
        assert ("warning: line 3: gauge 'g2' has qb + qd > p" in err
                and "warning: excluded 1 water-balance-violating row(s)"
                in err)
        assert cli.main(["plotdata", "--models", "kan_fb", "--data",
                         str(data), "--out", str(tmp_path / "p.csv")]) == 0
        assert ("warning: line 3: gauge 'g2' has qb + qd > p"
                in capsys.readouterr().err)

    def test_checkpoint_off_its_domain_names_the_gauge(self, tmp_path,
                                                       arcsin_checkpoint,
                                                       capsys):
        # aridity indices 0.2 .. 1.5; g4's 1.5 is the first past arcsin's 1
        data = tmp_path / "c.csv"
        data.write_text("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
                        + "".join(f"g{k},1000,{1000 * phi},100,50\n"
                                  for k, phi in enumerate(
                                      [0.2, 0.5, 0.8, 1.5, 0.9, 1.2], 1)))
        assert cli.main(["evaluate", "--data", str(data), "--model",
                         arcsin_checkpoint, "--target", "qb_over_p"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: gauge 'g4' (aridity index 1.5): arcsin undefined "
            "at argument 1.5\n")

    def test_negative_repeats_rejected(self, data_file, capsys):
        assert cli.main(["evaluate", "--data", data_file, "--model",
                         "kan_fb", "--repeats", "-2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--repeats" in err and "-2" in err


class TestGoldenOutput:
    """Byte-for-byte output of the row writers on a small fixed table: a
    leading-zero id, long mantissas, -0, a padded field, a blank line, a
    water-balance violation and an aridity index above 10 (both kept, as
    evaluate and plotdata load leniently)."""

    CSV = ("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
           "01013500,1000,500,300,200\n"
           "b2,812.3456789012,1234.5678901234,101.25,0.001\n"
           "c3,1500.5,3000.25,-0,1e-5\n"
           "\n"
           "d4,100,1500,60,50\n"
           "e5, 2.5e3 ,7,1999.99999999999,0.3333333333333333\n")

    @pytest.fixture(params=[2, hydro.BLOCK_ROWS], autouse=True,
                    ids=lambda rows: f"block{rows}")
    def block_rows(self, request, monkeypatch):
        """Read and write in blocks of two rows too, so that the table's
        rows, its blank line and its warned rows fall on both sides of a
        block edge."""
        monkeypatch.setattr(hydro, "BLOCK_ROWS", request.param)

    def test_evaluate_out(self, tmp_path, capsys):
        data, out = tmp_path / "c.csv", tmp_path / "pred.csv"
        data.write_text(self.CSV)
        assert cli.main(["evaluate", "--data", str(data), "--model",
                         "kan_fb", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr,phi,prediction\n"
            b"01013500,1000,500,300,200,0.5,0.4272498799\n"
            b"b2,812.3456789,1234.56789,101.25,0.001,1.519756825,"
            b"0.09379056672\n"
            b"c3,1500.5,3000.25,-0,1e-05,1.999500167,0.06177576175\n"
            b"d4,100,1500,60,50,15,0.05\n"
            b"e5,2500,7,2000,0.3333333333,0.0028,0.6187860008\n")

    def test_plotdata_scatter(self, tmp_path, capsys):
        data, out = tmp_path / "c.csv", tmp_path / "curves.csv"
        data.write_text(self.CSV)
        assert cli.main(["plotdata", "--models", "kan_fb", "--data",
                         str(data), "--out", str(out)]) == 0
        scatter = tmp_path / "curves.csv.scatter.csv"
        assert scatter.read_bytes() == (
            b"phi,qb_over_p,qd_over_p,qb,qd\n"
            b"0.5,0.3,0.2,300,200\n"
            b"1.519756825,0.1246390578,1.23100304e-06,101.25,0.001\n"
            b"1.999500167,-0,6.664445185e-09,-0,1e-05\n"
            b"15,0.6,0.5,60,50\n"
            b"0.0028,0.8,0.0001333333333,2000,0.3333333333\n")


_EDGE = "checkpoint edge (0, 0, 0): "


class TestCorruptCheckpoint:
    """A checkpoint that is not a KanNetwork document is a validation
    error (exit 1) naming what is wrong with it."""

    def _evaluate(self, data_file, ckpt):
        return cli.main(["evaluate", "--data", data_file, "--model",
                         f"checkpoint:{ckpt}", "--target", "qb_over_p"])

    def test_truncated(self, data_file, tmp_path, capsys):
        text = kan.init_network([1, 1], grid_intervals=3, seed=0).to_json()
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(text[:len(text) // 2])
        assert self._evaluate(data_file, ckpt) == 1
        err = capsys.readouterr().err
        assert "checkpoint is not JSON" in err

    def test_missing_edges(self, data_file, tmp_path, capsys):
        doc = json.loads(
            kan.init_network([1, 1], grid_intervals=3, seed=0).to_json())
        del doc["edges"]
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        assert self._evaluate(data_file, ckpt) == 1
        err = capsys.readouterr().err
        assert "checkpoint lacks 'edges'" in err

    @pytest.mark.parametrize("schema", [2, 0, "1", None, True])
    def test_unknown_schema(self, data_file, tmp_path, capsys, schema):
        doc = json.loads(
            kan.init_network([1, 1], grid_intervals=3, seed=0).to_json())
        doc["schema"] = schema
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        assert self._evaluate(data_file, ckpt) == 1
        assert "checkpoint 'schema' is" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sinh", 5])
    def test_unknown_candidate(self, data_file, tmp_path, capsys, name):
        net = kan.init_network([1, 1], grid_intervals=3, seed=0)
        net.layers[0].edges[0][0].lock = kan.SymbolicLock(
            symbolic.candidate_by_name("tanh"), 1.0, 0.0, 1.0, 0.0)
        text = net.to_json().replace('"tanh"', json.dumps(name))
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(text)
        assert self._evaluate(data_file, ckpt) == 1
        err = capsys.readouterr().err
        assert f"unknown candidate function {name!r}" in err

    def test_sigmoid_names_the_edge(self, data_file, tmp_path, capsys):
        # sigmoid left the library (it spans tanh's affine family); a
        # checkpoint that still names it is rejected, not converted
        net = kan.init_network([1, 2, 1], grid_intervals=3, seed=0)
        net.layers[1].edges[0][1].lock = kan.SymbolicLock(
            symbolic.candidate_by_name("tanh"), 1.0, 0.0, 1.0, 0.0)
        ckpt = tmp_path / "sigmoid.json"
        ckpt.write_text(net.to_json().replace('"tanh"', '"sigmoid"'))
        assert self._evaluate(data_file, ckpt) == 1
        err = capsys.readouterr().err
        assert ("checkpoint edge (1, 0, 1): unknown candidate function "
                "'sigmoid'") in err

    @pytest.mark.parametrize("path, value, message", [
        (("edges", 0, "lock", "a"), "x",
         f"{_EDGE}'a' must be a finite number, got 'x'"),
        (("edges", 0, "lock", "d"), float("nan"),
         f"{_EDGE}'d' must be a finite number, got nan"),
        (("edges", 0, "lock", "c"), True,
         f"{_EDGE}'c' must be a finite number, got True"),
        (("edges", 0, "lock", "frozen"), "no",
         f"{_EDGE}'frozen' must be true or false, got 'no'"),
        (("edges", 0, "lock", "b"), 10 ** 400,
         f"{_EDGE}'b' must be a finite number, got 1000"),
        (("edges", 0, "w_b"), "x", f"{_EDGE}'w_b' must be a finite number"),
        (("edges", 0, "w_c"), float("inf"),
         f"{_EDGE}'w_c' must be a finite number, got inf"),
        (("edges", 0, "coeffs"), [0.1, 0.2],
         f"{_EDGE}'coeffs' holds 2 values; its grid has 6 bases"),
        (("edges", 0, "coeffs", 0), "x",
         f"{_EDGE}'coeffs' must be a finite number, got 'x'"),
        (("edges", 0, "grid", "num_intervals"), 2.5,
         f"{_EDGE}num_intervals must be an integer >= 1, got 2.5"),
        (("edges", 0, "grid", "order"), 1.5,
         f"{_EDGE}order must be an integer >= 0, got 1.5"),
        (("edges", 0, "grid", "domain_max"), float("inf"),
         f"{_EDGE}domain bounds must be finite, got [-3.0, inf]"),
        (("edges", 0, "grid", "domain_min"), -10 ** 400,
         f"{_EDGE}int too large to convert to float"),
        (("seed",), -1, "checkpoint: seed must be an integer >= 0, got -1"),
        (("seed",), 1.5, "checkpoint: seed must be an integer >= 0, got 1.5"),
        (("shape", 0), 1.5, "checkpoint: unusable shape [1.5, 1]"),
    ])
    def test_bad_number_names_the_field(self, data_file, tmp_path, capsys,
                                        path, value, message):
        net = kan.init_network([1, 1], grid_intervals=3, seed=0)
        net.layers[0].edges[0][0].lock = kan.SymbolicLock(
            symbolic.candidate_by_name("tanh"), 1.0, 0.0, 1.0, 0.0)
        doc = json.loads(net.to_json())
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        node[key] = value
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        assert self._evaluate(data_file, ckpt) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_non_utf8(self, data_file, tmp_path, capsys):
        ckpt = tmp_path / "latin1.json"
        ckpt.write_bytes(b'{"shape": "\xff"}')
        assert self._evaluate(data_file, ckpt) == 1
        assert f"{ckpt}: not UTF-8 text" in capsys.readouterr().err


class TestCheckpointWithoutFormula:
    """A valid checkpoint that gives no formula of one input is a
    validation error (exit 1) naming its path, in evaluate and plotdata."""

    @pytest.mark.parametrize("command", ["evaluate", "plotdata"])
    @pytest.mark.parametrize("shape, lock, message", [
        ([2, 1], True, "shape [2, 1] is not one input to one output"),
        ([1, 2], True, "shape [1, 2] is not one input to one output"),
        ([1, 1], False, "1 edge(s) still unlocked: [(0, 0, 0)]"),
    ])
    def test_names_the_path(self, data_file, tmp_path, capsys, command,
                            shape, lock, message):
        net = kan.init_network(shape, grid_intervals=3, seed=0)
        for *_, edge in net.iter_edges():
            if lock:
                edge.lock = kan.SymbolicLock(
                    symbolic.candidate_by_name("tanh"), 1.0, 0.0, 1.0, 0.0)
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(net.to_json())
        spec = f"checkpoint:{ckpt}"
        args = (["evaluate", "--data", data_file, "--model", spec,
                 "--target", "qb_over_p"] if command == "evaluate" else
                ["plotdata", "--models", spec, "--out",
                 str(tmp_path / "pd.csv")])
        assert cli.main(args) == 1
        assert f"error: {ckpt}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "pd.csv").exists()


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

    def test_metrics_short_row(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("phi,y\n1,2\n3\n")
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "phi", "--sim-col", "y"]) == 1
        assert (f"error: {data}:3: expected 2 fields, got 1"
                in capsys.readouterr().err)

    def test_metrics_header_names_are_stripped(self, tmp_path, capsys):
        data = tmp_path / "padded.csv"
        data.write_text("phi, y\n1,2\n3,4\n5,7\n")
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "phi", "--sim-col", "y"]) == 0
        assert json.loads(capsys.readouterr().out)["r2"] == pytest.approx(
            np.corrcoef([1, 3, 5], [2, 4, 7])[0, 1] ** 2)

    def test_metrics_skips_whitespace_only_lines(self, tmp_path, capsys):
        data = tmp_path / "spaces.csv"
        data.write_text("phi,y\n1,2\n   \n3,4\n , \n5,7\n")
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "y", "--sim-col", "y"]) == 0
        assert json.loads(capsys.readouterr().out)["rmse"] == 0.0

    @pytest.mark.parametrize("block_rows", [2, hydro.BLOCK_ROWS],
                             ids=lambda rows: f"block{rows}")
    def test_metrics_non_numeric_names_its_line(self, tmp_path, capsys,
                                                monkeypatch, block_rows):
        # the blank line is skipped but counted, and the bad value sits in
        # the second two-row block
        monkeypatch.setattr(hydro, "BLOCK_ROWS", block_rows)
        data = tmp_path / "bad.csv"
        data.write_text("phi,y\n1,2\n\n3,4\n5,x\n6\n")
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "phi", "--sim-col", "y"]) == 1
        assert (f"error: {data}:5: non-numeric value in 'y': could not "
                f"convert string to float: 'x'" in capsys.readouterr().err)

    @pytest.mark.parametrize("text, expected", [
        ("phi,y\n1,2\nnan,3\n3,5\n", ":3: non-finite value in 'phi'"),
        ("phi,y\n1,2\n\n3,inf\n3,5\n", ":4: non-finite value in 'y'"),
        ("phi,y\n1,2\n-inf,1e999\nnan,5\n", ":3: non-finite value in 'phi'"),
        # the scan stops at the non-numeric line, before the NaN
        ("phi,y\n1,2\n3,x\nnan,5\n", ":3: non-numeric value in 'y'"),
        ("phi,y\n1,2\n3,nan\n4,x\n", ":3: non-finite value in 'y'"),
    ], ids=["nan", "inf-after-blank", "first-column", "non-numeric-first",
            "non-finite-first"])
    def test_metrics_non_finite_names_its_line(self, tmp_path, capsys, text,
                                               expected):
        data = tmp_path / "nonfinite.csv"
        data.write_text(text)
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "phi", "--sim-col", "y"]) == 1
        assert f"error: {data}{expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        (b"phi,y\n1,2\n\xff,3\n", ": not UTF-8 text"),
        # beyond csv's field limit
        (b'phi,y\n"' + b"9" * 200_000 + b'",3\n', ":2: unreadable CSV text"),
    ], ids=["non-utf8", "oversized-field"])
    def test_metrics_unreadable_file(self, tmp_path, capsys, text, expected):
        data = tmp_path / "bad.csv"
        data.write_bytes(text)
        assert cli.main(["metrics", "--data", str(data),
                         "--obs-col", "phi", "--sim-col", "y"]) == 1
        assert f"error: {data}{expected}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("head", ["(", "tanh("])
    def test_formula_nested_too_deeply(self, tmp_path, capsys, head):
        formula = head * 300 + "x" + ")" * 300
        assert cli.main(["synth", "--formula", formula,
                         "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_number_in_formula(self, tmp_path, capsys):
        assert cli.main(["synth", "--formula", "1.2.3*x",
                         "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1
        assert "malformed number '1.2.3'" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [["--sigma", "inf"], ["--sigma", "nan"],
                                       ["--phi-max", "inf"]])
    def test_non_finite_input(self, tmp_path, capsys, extra):
        out = tmp_path / "x.csv"
        assert cli.main(["synth", "--formula", "kan_fb", "--n", "3",
                         "--out", str(out)] + extra) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, seed, message", [
        ("3", "-1", "seed must be an integer >= 0, got -1"),
        ("0", "0", "n must be an integer >= 1, got 0"),
    ])
    def test_bad_count(self, tmp_path, capsys, n, seed, message):
        out = tmp_path / "s.csv"
        assert cli.main(["synth", "--formula", "kan_fb", "--n", n, "--seed",
                         seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    def test_formula_not_finite_on_the_range(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert cli.main(["synth", "--formula", "exp(1000*x)", "--n", "3",
                         "--out", str(out)]) == 1
        assert re.search(r"^error: row 0: the formula gives inf at phi "
                         r"[0-9.]+; targets must be finite$",
                         capsys.readouterr().err, re.M)
        assert not out.exists()


class TestOneCsvReader:
    """The catchment loader and `metrics` read CSV text by the same rules,
    so they return the same numbers and name the same first fault."""

    HEADER = "gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"

    def test_fault_after_a_multiline_record_names_its_line(self, tmp_path,
                                                          capsys):
        # the quoted gauge id spans lines 2-3, so the bad value is on line 4
        path = tmp_path / "c.csv"
        path.write_text(f'{self.HEADER}\n"g\n1",1000,800,300,200\n'
                        f"g2,oops,800,300,200\n")
        with pytest.raises(CsvParseError) as err:
            hydro.load_catchments(path)
        assert str(err.value).startswith(
            f"{path}:4: non-numeric value in 'p_mm_yr'")
        assert cli.main(["metrics", "--data", str(path), "--obs-col",
                         "p_mm_yr", "--sim-col", "pet_mm_yr"]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @settings(max_examples=60, deadline=None)
    @given(table=st.lists(
               st.tuples(st.floats(1, 1e4), st.floats(0, 1e4),
                         st.floats(0, 1e4), st.floats(0, 1e4),
                         st.booleans(), st.sampled_from(["", "   ", " , ,,"])),
               min_size=1, max_size=9),
           ending=st.sampled_from(["\n", "\r\n", "\r"]),
           fault=st.one_of(st.none(), st.tuples(
               st.sampled_from(["short", "non_numeric", "unreadable"]),
               st.integers(0, 8), st.integers(1, 2))),
           block_rows=st.sampled_from([2, hydro.BLOCK_ROWS]))
    def test_loader_and_metrics_agree(self, table, ending, fault, block_rows):
        # each row may have its id quoted across two lines and a blank or
        # whitespace-only line before it
        lines, starts = [self.HEADER], []
        for k, (p, pet, qb, qd, quoted, blank) in enumerate(table):
            if blank or k % 3 == 1:
                lines.append(blank)
            starts.append(len(lines) + 1)
            gauge = f'"g{ending}{k}"' if quoted else f"g{k}"
            lines.append(",".join([gauge] + [repr(v) for v in
                                              (p, pet, qb, qd)]))
            if quoted:
                lines.append(None)  # the quoted id's second line
        if fault is not None:
            kind, row, col = fault
            row = min(row, len(table) - 1)
            at = starts[row] - 1
            fields = lines[at].split(",")
            if kind == "short":
                fields = fields[:-2]
            elif kind == "non_numeric":
                fields[col] = "oops"
            else:
                fields[col] = '"' + "9" * (csv.field_size_limit() + 1) + '"'
            lines[at] = ",".join(fields)
        text = ending.join(x for x in lines if x is not None) + ending
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(hydro, "BLOCK_ROWS", block_rows)
            path = Path(tmp) / "table.csv"
            path.write_text(text, newline="")
            if fault is None:
                ds = hydro.load_catchments(path, strict=False)
                for pair in (["p_mm_yr", "pet_mm_yr"],
                             ["qb_mm_yr", "qd_mm_yr"]):
                    scan = hydro.scan_csv(path, pair)
                    assert scan.fault is None
                    assert np.array_equal(
                        scan.floats, np.vstack([ds.column(c) for c in pair]))
                assert np.array_equal(
                    np.vstack([ds.p, ds.pet, ds.qb, ds.qd]),
                    np.array([row[:4] for row in table]).T)
                assert scan.lines.tolist() == starts
                return
            with pytest.raises(CsvParseError) as err:
                hydro.load_catchments(path, strict=False)
            out, errs = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(errs):
                code = cli.main(["metrics", "--data", str(path), "--obs-col",
                                 "p_mm_yr", "--sim-col", "pet_mm_yr"])
        assert code == 1
        assert errs.getvalue() == f"error: {err.value}\n"
        expected = {"short": "expected 5 fields, got 3",
                    "non_numeric": "non-numeric value in",
                    "unreadable": "unreadable CSV text"}[kind]
        assert str(err.value).startswith(f"{path}:{starts[row]}: {expected}")


class TestPlotData:
    @pytest.mark.parametrize("extra", [["--phi-max", "inf"],
                                       ["--phi-max", "1e300",
                                        "--step", "1e-300"]])
    def test_non_finite_grid(self, tmp_path, capsys, extra):
        out = tmp_path / "pd.csv"
        assert cli.main(["plotdata", "--models", "kan_fb", "--out", str(out)]
                        + extra) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step, points", [
        ("1e-300", "4.8e+300"),
        # (5.0 - 0.2) / step is the cap in intervals: one point too many
        (repr(4.8 / harness.MAX_PLOT_POINTS),
         str(harness.MAX_PLOT_POINTS + 1))])
    def test_grid_over_the_cap(self, tmp_path, capsys, step, points):
        out = tmp_path / "pd.csv"
        tracemalloc.start()
        try:
            code = cli.main(["plotdata", "--models", "kan_fb", "--step", step,
                             "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert (f"asks for {points} points; at most "
                f"{harness.MAX_PLOT_POINTS}") in capsys.readouterr().err
        assert not out.exists()
        # the grid alone would be 8 MB at the cap
        assert peak < 1_000_000

    def test_checkpoint_off_its_domain_names_the_phi_value(
            self, tmp_path, arcsin_checkpoint, capsys):
        out = tmp_path / "pd.csv"
        assert cli.main(["plotdata", "--models", arcsin_checkpoint,
                         "--out", str(out)]) == 2
        # the default grid runs from 0.2 in steps of 0.01
        phi = repr(float(np.linspace(0.2, 5.0, 481)[81]))
        assert capsys.readouterr().err == (
            f"runtime error: {arcsin_checkpoint} at phi grid value {phi}: "
            f"arcsin undefined at argument {phi}\n")

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
        # the saved network scores as a model on the same data
        capsys.readouterr()
        assert cli.main(["evaluate", "--data", str(data), "--model",
                         f"checkpoint:{out_dir / 'checkpoint.json'}",
                         "--target", "qb_over_p"]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["metrics"]["nse"] > 0.9

    def test_formula_off_its_domain_names_the_test_row(self, tmp_path,
                                                       capsys):
        # 302 catchments whose baseflow ratio follows kan_fb plus noise (data
        # seed 301): the [1, 3, 1] grid-20 fit locks an arcsin that one test
        # catchment's aridity index takes past 1
        n, seed = 302, 301
        phi, fb = hydro.synth_generate(hydro.FIXED_MODELS["kan_fb"], n,
                                       (0.2, 5.0), 0.02, seed)
        rng = np.random.default_rng([seed, 1])
        p = rng.uniform(300.0, 2500.0, n)
        fb = np.maximum(fb, 1e-3)
        fd = ((1.0 - fb) * np.exp(1.06 * (-phi ** 0.77 - 0.864))
              * rng.uniform(0.5, 1.0, n))
        rows = ["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"] + [
            f"g{k:06d}," + ",".join(map(repr, row)) for k, row in enumerate(
                zip(p.tolist(), (phi * p).tolist(), (fb * p).tolist(),
                    (fd * p).tolist()))]
        data = tmp_path / "catchments.csv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shapes": [[1, 3, 1]],
                                      "grid_intervals": [20], "seeds": [0]}))
        assert cli.main(["fit", "--data", str(data), "--target", "qb_over_p",
                         "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"runtime error: row (\d+) of the test split "
                             r"\(aridity index (\S+)\): arcsin undefined at "
                             r"argument (\S+)\n", err)
        assert match, err
        ds = hydro.load_catchments(data)
        cfg = harness.GridSearchConfig()
        _, te = harness.split_indices(n, cfg.split_ratio, cfg.split_seed)
        row, phi_row, arg = match.groups()
        assert float(phi_row) == ds.column("phi")[te][int(row)]
        assert abs(float(arg)) > 1.0

    @staticmethod
    def kan_fb_catchments(path, n):
        """n catchments whose baseflow ratio follows kan_fb plus noise."""
        phi, fb = hydro.synth_generate(hydro.FIXED_MODELS["kan_fb"], n,
                                       (0.2, 5.0), 0.02, 3)
        rows = ["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"] + [
            f"g{k:03d},1000.0,{1000.0 * x!r},{1000.0 * max(y, 1e-3)!r},10.0"
            for k, (x, y) in enumerate(zip(phi.tolist(), fb.tolist()))]
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("n, folds, message", [
        # 16 training rows leave 4 of 10 validation folds 1 row, too few
        # to score
        (20, {}, "16 training rows in 10 folds leave 1 validation"),
        # 8 training rows leave 1 test row
        (9, {"folds": 2}, "split of 9 records leaves 1 test record"),
    ])
    def test_split_too_small_exits_1(self, tmp_path, capsys, n, folds,
                                     message):
        data = tmp_path / "c.csv"
        self.kan_fb_catchments(data, n)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shapes": [[1, 1]],
                                      "grid_intervals": [3], "seeds": [0],
                                      **folds}))
        assert cli.main(["fit", "--data", str(data), "--target", "qb_over_p",
                         "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_repeats_on_a_test_split_too_small_exit_1(self, tmp_path,
                                                       capsys):
        data = tmp_path / "c.csv"
        self.kan_fb_catchments(data, 9)
        assert cli.main(["evaluate", "--data", str(data), "--model",
                         "kan_fb", "--repeats", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: a 0.8 split of 9 records leaves 1 test record" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, data_file, tmp_path, capsys, threads):
        assert cli.main(["fit", "--data", data_file, "--target", "qb_over_p",
                         "--threads", threads,
                         "--out", str(tmp_path / "o")]) == 1
        assert (f"error: threads must be >= 1, got {threads}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, data_file, tmp_path, capsys):
        # an unknown key, text that is not JSON, JSON that is not an
        # object, and a wrongly typed value
        config = tmp_path / "config.json"
        for text in ('{"bogus": true}', "folds = 3", "[3]",
                     '{"folds": "ten"}'):
            config.write_text(text)
            assert cli.main(["fit", "--data", data_file, "--target",
                             "qb_over_p", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 1
            assert f"error: {config}: " in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"seeds": [-1]}, "'seeds'"),
        ({"lambda_": float("nan")}, "'lambda_'"),
        ({"shapes": [[2, 1]], "folds": 2}, "'shapes'"),
    ])
    def test_bad_config_value(self, data_file, tmp_path, capsys, doc, named):
        # out-of-range values, and a shape that does not fit the data, exit
        # 1 naming the key before any fit runs
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["fit", "--data", data_file, "--target",
                         "qb_over_p", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
