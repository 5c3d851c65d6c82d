"""Tests for water-balance formulas, parametric fitting, data IO, synthesis."""

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
    aridity_index,
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


class TestAridityIndex:
    def test_unity(self):
        assert aridity_index(1000.0, 1000.0) == 1.0

    def test_ratio(self):
        assert aridity_index(800.0, 1200.0) == pytest.approx(1.5)

    def test_zero_pet(self):
        assert aridity_index(1000.0, 0.0) == 0.0

    def test_nonpositive_precipitation(self):
        with pytest.raises(InvalidArgumentError):
            aridity_index(0.0, 100.0)


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
            assert np.all(np.diff(vals) < 0), fn.__name__
        phi = np.linspace(4.0, 10.0, 1_000)
        for fn in (eval_original_fB, eval_original_fD, eval_kan_fB,
                   eval_kan_inspired_fB, eval_FB, eval_FD):
            vals = fn(phi)
            assert np.all(np.diff(vals) <= 0), fn.__name__

    def test_bounds(self):
        phi = np.linspace(0.001, 20, 2000)
        v = eval_kan_inspired_fB(phi)
        # tanh saturates numerically near phi ~ 19, hitting the limit exactly
        assert np.all((v >= 0.0330 - 1e-12) & (v < 0.7573))
        v = eval_kan_fB(phi)
        assert np.all((v >= 0.05 - 1e-12) & (v <= eval_kan_fB(0.0)))
        assert np.all(eval_FB(phi) >= 47.13)

    def test_fd_clamp_flag(self):
        assert eval_FD(5.0) < 0.0
        assert eval_FD(5.0, clamp_negative=True) == 0.0


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

    def test_param_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            fit_parametric("tanh2", np.ones(10), np.ones(10), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            AridityModel("gaussian3", [1.0, 2.0])


class TestLoadCatchments:
    def test_well_formed(self):
        ds = load_catchments(io.StringIO(GOOD_CSV))
        assert len(ds) == 3
        for rec, der in zip(ds.records, ds.derived):
            assert der.phi == pytest.approx(rec.pet / rec.p)
            assert der.q_over_p == pytest.approx(
                der.qb_over_p + der.qd_over_p, abs=1e-12)

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
