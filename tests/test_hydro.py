"""Tests for water-balance formulas, parametric fitting, data IO, synthesis."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kanhydro import hydro
from kanhydro.errors import (
    CsvParseError,
    DataValidationError,
    InvalidArgumentError,
)
from kanhydro.hydro import (
    AridityModel,
    eval_FB,
    eval_FD,
    eval_kan_fB,
    eval_kan_inspired_fB,
    eval_original_fB,
    eval_original_fD,
    fit_parametric,
    load_catchments,
    synth_generate,
)

GOOD_CSV = """gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr
01013500,1000,800,300,200
01030500,900,1100,150,100
01031500,1200,600,500,300
"""


def aridity_index(p, pet):
    """phi = PET / P of a one-catchment file, as the loader derives it."""
    ds = load_catchments(io.StringIO(
        f"gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\ng1,{p},{pet},0,0\n"))
    return ds.column("phi")[0]


class TestAridityIndex:
    def test_unity(self):
        assert aridity_index(1000.0, 1000.0) == 1.0

    def test_ratio(self):
        assert aridity_index(800.0, 1200.0) == pytest.approx(1.5)

    def test_zero_pet(self):
        assert aridity_index(1000.0, 0.0) == 0.0

    def test_nonpositive_precipitation(self):
        with pytest.raises(DataValidationError):
            aridity_index(-5.0, 100.0)


class TestFixedFormulas:
    def test_scalar_values(self):
        assert eval_original_fB(1.0) == pytest.approx(0.13988, abs=1e-3)
        assert eval_original_fD(1.0) == pytest.approx(0.13870, abs=1e-3)
        assert eval_original_fB(0.0) == pytest.approx(0.39985, abs=1e-3)
        assert eval_kan_fB(0.57746) == pytest.approx(0.39, abs=1e-3)
        assert eval_kan_fB(0.0) == pytest.approx(0.62041, abs=1e-3)
        assert eval_kan_inspired_fB(0.0) == pytest.approx(0.7573)
        assert eval_kan_inspired_fB(1.0) == pytest.approx(0.20561, abs=1e-3)
        assert eval_FB(0.0) == pytest.approx(1762.2, abs=0.5)
        assert eval_FD(0.30634) == pytest.approx(616.82, abs=1e-2)
        assert eval_FD(0.0) == pytest.approx(916.3835, abs=1e-2)

    def test_limits(self):
        assert eval_kan_fB(50.0) == pytest.approx(0.05, abs=1e-6)
        assert eval_kan_inspired_fB(50.0) == pytest.approx(0.0330, abs=1e-4)
        assert eval_FB(50.0) == pytest.approx(47.13, abs=1e-6)
        assert eval_FD(1e6) == pytest.approx(616.82 - 418.39 * np.pi / 2,
                                             abs=1e-2)

    def test_published_parameters(self):
        # each published formula written out, against its family instance
        written = {
            "original_fb": lambda p: np.exp(1.05 * (-p ** 1.71 - 0.873)),
            "original_fd": lambda p: np.exp(1.06 * (-p ** 0.77 - 0.864)),
            "kan_fb": lambda p: 0.39 - 0.34 * np.tanh(1.42 * p - 0.82),
            "kan_inspired_fb": lambda p: 0.7573 - 0.7243 * np.tanh(p),
            "FB": lambda p: 47.13 + 1932.52 * np.exp(-1.42 * (p + 0.29) ** 2),
            "FD": lambda p: 616.82 - 418.39 * np.arctan(2.84 * p - 0.87),
        }
        phi = np.concatenate([[0.0, 1e-300], np.linspace(1e-3, 30.0, 3001),
                              [1e6]])
        assert set(hydro.FIXED_MODELS) == set(written)
        for name, model in hydro.FIXED_MODELS.items():
            assert isinstance(model, AridityModel), name
            assert np.array_equal(model(phi), written[name](phi)), name
            assert model(2.5) == written[name](np.float64(2.5)), name

    def test_negative_phi_rejected(self):
        for fn in (eval_original_fB, eval_original_fD, eval_kan_fB,
                   eval_kan_inspired_fB, eval_FB, eval_FD):
            with pytest.raises(InvalidArgumentError):
                fn(-0.1)

    def test_monotonically_decreasing(self):
        # past phi ~ 5 the gaussian tail of eval_FB underflows against its
        # additive floor, so strict decrease is only checked where the
        # curves still move in double precision
        phi = np.linspace(1e-4, 4.0, 10_000)
        for fn in (eval_original_fB, eval_original_fD, eval_kan_fB,
                   eval_kan_inspired_fB, eval_FB, eval_FD):
            vals = fn(phi)
            assert np.all(np.diff(vals) < 0), fn
        phi = np.linspace(4.0, 10.0, 1_000)
        for fn in (eval_original_fB, eval_original_fD, eval_kan_fB,
                   eval_kan_inspired_fB, eval_FB, eval_FD):
            vals = fn(phi)
            assert np.all(np.diff(vals) <= 0), fn

    def test_bounds(self):
        phi = np.linspace(0.001, 20, 2000)
        v = eval_kan_inspired_fB(phi)
        # tanh saturates numerically near phi ~ 19, hitting the limit exactly
        assert np.all((v >= 0.0330 - 1e-12) & (v < 0.7573))
        v = eval_kan_fB(phi)
        assert np.all((v >= 0.05 - 1e-12) & (v <= eval_kan_fB(0.0)))
        assert np.all(eval_FB(phi) >= 47.13)
        assert eval_FD(3.9) > 0.0 > eval_FD(4.0)  # no floor at zero


class TestFitParametric:
    def test_original_exp_recovery(self):
        xs = np.linspace(0.2, 5.0, 300)
        ys = eval_original_fB(xs)
        model = fit_parametric("original-exp", xs, ys, [1.0, -1.0, 1.0])
        expect = np.array([1.71, -0.873, 1.05])
        assert np.all(np.abs(model.params - expect) <= 0.1 * np.abs(expect))
        assert np.sqrt(np.mean((model(xs) - ys) ** 2)) < 1e-6

    def test_tanh2_recovery(self):
        xs = np.linspace(0.2, 5.0, 300)
        ys = eval_kan_inspired_fB(xs)
        model = fit_parametric("tanh2", xs, ys, [1.0, 1.0])
        assert model.params == pytest.approx([0.7573, 0.7243], abs=1e-3)

    def test_constant_target_tanh2(self):
        xs = np.linspace(0.2, 5.0, 50)
        ys = np.full(50, 0.42)
        model = fit_parametric("tanh2", xs, ys, [0.0, 0.5])
        assert model.params[1] == pytest.approx(0.0, abs=1e-4)
        assert np.mean(model(xs)) == pytest.approx(0.42, abs=1e-3)

    @pytest.mark.parametrize("family,params", [
        ("original-exp", [1.71, -0.873, 1.05]),
        ("tanh4", [0.39, -0.34, 1.42, -0.82]),
        ("tanh2", [0.7573, 0.7243]),
        ("gaussian3", [47.13, 1932.52, 1.42, 0.29]),
        ("arctan4", [616.82, -418.39, 2.84, -0.87]),
    ])
    def test_noiseless_self_consistency(self, family, params):
        xs = np.linspace(0.2, 5.0, 300)
        ys = AridityModel(family, params)(xs)
        x0 = np.asarray(params, float) * 1.05 + 0.01
        model = fit_parametric(family, xs, ys, x0)
        rmse = np.sqrt(np.mean((model(xs) - ys) ** 2))
        assert rmse < 1e-6 * (1.0 + np.ptp(ys))

    @pytest.mark.parametrize("xs,ys", [
        (np.linspace(-1.0, 1.0, 50), np.linspace(0.0, 1.0, 50)),
        (np.r_[np.linspace(0.2, 5.0, 49), np.nan], np.linspace(0.0, 1.0, 50)),
        (np.r_[np.linspace(0.2, 5.0, 49), np.inf], np.linspace(0.0, 1.0, 50)),
        (np.linspace(0.2, 5.0, 50), np.r_[np.linspace(0.0, 1.0, 49), np.nan]),
        (np.linspace(0.2, 5.0, 50), np.r_[np.linspace(0.0, 1.0, 49), -np.inf]),
    ], ids=["negative-x", "nan-x", "inf-x", "nan-y", "inf-y"])
    def test_rejects_what_the_model_cannot_score(self, xs, ys):
        # the fitted AridityModel raises on negative phi, so the fit rejects
        # such samples, and non-finite ones, before it starts
        with pytest.raises(InvalidArgumentError):
            fit_parametric("tanh2", xs, ys, [0.5, 0.3])

    def test_param_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            fit_parametric("tanh2", np.ones(10), np.ones(10), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            AridityModel("gaussian3", [1.0, 2.0])


class TestLoadCatchments:
    def test_well_formed(self):
        ds = load_catchments(io.StringIO(GOOD_CSV))
        assert len(ds) == 3
        assert ds.gauge_ids == ["01013500", "01030500", "01031500"]
        assert np.array_equal(ds.column("phi"),
                              ds.column("pet") / ds.column("p"))
        np.testing.assert_allclose(
            ds.column("q_over_p"),
            ds.column("qb_over_p") + ds.column("qd_over_p"),
            rtol=0, atol=1e-12)

    def test_columns_by_header_name(self):
        ds = load_catchments(io.StringIO(GOOD_CSV))
        for header, short in hydro.RAW_COLUMNS.items():
            assert np.array_equal(ds.column(header), ds.column(short))
        assert ds.column("p_mm_yr").tolist() == [1000.0, 900.0, 1200.0]
        with pytest.raises(InvalidArgumentError):
            ds.column("gauge_id")

    def test_zero_precipitation_rejected(self):
        text = ("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
                "g1,0,800,10,10\n")
        with pytest.raises(DataValidationError) as err:
            load_catchments(io.StringIO(text))
        assert ":2:" in str(err.value)

    @given(column=st.integers(1, 4),
           value=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                                  "Infinity", "1e999"]),
           row=st.integers(0, 2))
    def test_non_finite_field_rejected(self, column, value, row):
        lines = GOOD_CSV.strip().split("\n")
        fields = lines[row + 1].split(",")
        fields[column] = value
        lines[row + 1] = ",".join(fields)
        with pytest.raises(DataValidationError) as err:
            load_catchments(io.StringIO("\n".join(lines) + "\n"))
        assert f":{row + 2}:" in str(err.value)

    # the row checks in the order the loader applies them to one row
    FAULTS = {"unparsable": (CsvParseError, "field larger than field limit"),
              "short": (CsvParseError, "expected 5 fields"),
              "non_numeric": (CsvParseError, "non-numeric value in"),
              "duplicate": (DataValidationError, "duplicate gauge_id"),
              "invariant": (DataValidationError, "violates invariants")}

    @given(faults=st.lists(
               st.tuples(st.sampled_from(sorted(FAULTS)), st.integers(1, 7),
                         st.integers(1, 4),
                         st.sampled_from(["-1", "nan", "-inf", "0"])),
               min_size=2, max_size=2),
           strict=st.booleans(),
           block_rows=st.sampled_from([2, hydro.BLOCK_ROWS]))
    def test_first_faulty_line_is_reported(self, faults, strict, block_rows):
        # row 2 breaks the water balance: strict mode excludes it, yet a
        # later copy of its id is still a duplicate; with two-row blocks the
        # faults fall on both sides of block edges
        rows = [[f"g{k}", str(1000 + k), "800", "300", "200"]
                for k in range(8)]
        rows[2][1] = "400"
        precedence = list(self.FAULTS)
        planted = {}  # row -> highest-precedence fault planted on it
        for kind, row, col, value in sorted(
                faults, key=lambda f: -precedence.index(f[0])):
            fields = rows[row]
            if kind == "unparsable":
                fields[0] = '"' + "9" * (csv.field_size_limit() + 1) + '"'
            elif kind == "short":
                rows[row] = fields[:col]
            elif kind == "non_numeric":
                fields[col] = "oops"
            elif kind == "duplicate":
                fields[0] = rows[col % row][0]
            elif value != "0" or col == 1:  # 0 is valid for pet, qb, qd
                fields[col] = value
            else:
                fields[col] = "-0.5"
            planted[row] = kind
        first = min(planted)
        cls, text = self.FAULTS[planted[first]]
        csv_text = "\n".join(["gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr"]
                             + [",".join(r) for r in rows]) + "\n"
        with pytest.raises(cls) as err, pytest.MonkeyPatch.context() as mp:
            mp.setattr(hydro, "BLOCK_ROWS", block_rows)
            load_catchments(io.StringIO(csv_text), strict=strict)
        assert str(err.value).startswith(f"<stream>:{first + 2}: ")
        assert text in str(err.value)

    def test_strict_excludes_balance_violations(self):
        text = GOOD_CSV + "99,100,80,90,30\n"
        ds = load_catchments(io.StringIO(text), strict=True)
        assert len(ds) == 3
        assert sum("qb + qd > p" in w for w in ds.warnings) == 1

    def test_lenient_keeps_balance_violations(self):
        text = GOOD_CSV + "99,100,80,90,30\n"
        ds = load_catchments(io.StringIO(text), strict=False)
        assert len(ds) == 4
        assert any("qb + qd > p" in w for w in ds.warnings)

    def test_duplicate_gauge(self):
        text = GOOD_CSV + "01013500,1000,800,300,200\n"
        with pytest.raises(DataValidationError):
            load_catchments(io.StringIO(text))

    def test_parse_error_with_line_number(self):
        text = ("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr\n"
                "g1,1000,800,300,200\n"
                "g2,oops,800,300,200\n")
        with pytest.raises(CsvParseError) as err:
            load_catchments(io.StringIO(text))
        assert ":3:" in str(err.value)

    def test_missing_column(self):
        with pytest.raises(CsvParseError):
            load_catchments(io.StringIO("gauge_id,p_mm_yr\ng1,1000\n"))

    def test_extra_columns_warn(self):
        text = ("gauge_id,p_mm_yr,pet_mm_yr,qb_mm_yr,qd_mm_yr,extra\n"
                "g1,1000,800,300,200,hi\n")
        ds = load_catchments(io.StringIO(text))
        assert any("extra" in w for w in ds.warnings)

    def test_missing_file(self):
        with pytest.raises(CsvParseError):
            load_catchments("/nonexistent/file.csv")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(GOOD_CSV.replace("01030500", "g\xff")
                         .encode("latin-1"))
        with pytest.raises(CsvParseError, match="latin1.csv: not UTF-8"):
            load_catchments(path)

    @pytest.mark.parametrize("text", [
        GOOD_CSV.replace("01030500", '"' + "9" * 200_000 + '"'),
    ], ids=["oversized-field"])
    def test_csv_error_names_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        with pytest.raises(CsvParseError, match="bad.csv:"):
            load_catchments(path)

    def test_lone_cr_file_loads_like_lf(self, tmp_path):
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_text(GOOD_CSV, newline="")
        cr.write_text(GOOD_CSV.replace("\n", "\r"), newline="")
        a, b = load_catchments(lf), load_catchments(cr)
        assert a.gauge_ids == b.gauge_ids and len(a) == 3
        for col in ("p", "pet", "qb", "qd"):
            assert np.array_equal(a.column(col), b.column(col))

    def test_crlf_accepted(self):
        ds = load_catchments(io.StringIO(GOOD_CSV.replace("\n", "\r\n")))
        assert len(ds) == 3


class TestSynthGenerate:
    FORMULA = "0.39 - 0.34*tanh(1.42*x - 0.82)"

    def test_zero_noise_on_curve(self):
        phi, ys = synth_generate(self.FORMULA, 50, (0.2, 5.0), 0.0, seed=1)
        expect = 0.39 - 0.34 * np.tanh(1.42 * phi - 0.82)
        assert ys == pytest.approx(expect, abs=1e-12)

    def test_deterministic(self):
        a = synth_generate(self.FORMULA, 100, (0.2, 5.0), 0.05, seed=3)
        b = synth_generate(self.FORMULA, 100, (0.2, 5.0), 0.05, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_noise_rmse_concentration(self):
        phi, ys = synth_generate(self.FORMULA, 302, (0.2, 5.0), 0.02, seed=7)
        truth = 0.39 - 0.34 * np.tanh(1.42 * phi - 0.82)
        noise_rmse = np.sqrt(np.mean((ys - truth) ** 2))
        assert 0.017 <= noise_rmse <= 0.023

    def test_callable_and_model_inputs(self):
        phi1, y1 = synth_generate(eval_kan_fB, 20, (0.2, 5.0), 0.0, seed=0)
        model = AridityModel("tanh4", [0.39, -0.34, 1.42, -0.82])
        phi2, y2 = synth_generate(model, 20, (0.2, 5.0), 0.0, seed=0)
        assert np.array_equal(phi1, phi2)
        assert y1 == pytest.approx(y2, abs=1e-12)

    def test_invalid_range(self):
        with pytest.raises(InvalidArgumentError):
            synth_generate(self.FORMULA, 10, (5.0, 0.2), 0.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            synth_generate(self.FORMULA, 0, (0.2, 5.0), 0.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            synth_generate(self.FORMULA, 10, (0.2, 5.0), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(InvalidArgumentError, match="noise_sigma"):
            synth_generate(self.FORMULA, 3, (0.2, 5.0), sigma, seed=0)

    def test_non_finite_targets(self):
        # exp(1000 x) overflows at every phi; a callable may fail at one row
        with pytest.raises(InvalidArgumentError,
                           match=r"^row 0: the formula gives inf at phi "):
            synth_generate("exp(1000*x)", 3, (0.2, 5.0), 0.0, seed=0)
        phi, _ = synth_generate(self.FORMULA, 5, (0.2, 5.0), 0.0, seed=0)
        law = lambda p: np.where(p == phi[3], np.nan, p)
        want = (f"^row 3: the formula gives nan at phi {float(phi[3])!r}; "
                "targets must be finite$")
        with pytest.raises(InvalidArgumentError, match=want):
            synth_generate(law, 5, (0.2, 5.0), 0.01, seed=0)

    @pytest.mark.parametrize("phi_range", [(0.2, np.inf), (-np.inf, 5.0),
                                           (-1e308, 1e308)])
    def test_non_finite_phi_range(self, phi_range):
        # an infinite bound, or finite bounds whose width overflows
        with pytest.raises(InvalidArgumentError, match="phi range"):
            synth_generate(self.FORMULA, 3, phi_range, 0.0, seed=0)
