"""Water-balance domain types, fixed aridity-index formulas, parametric
refits, dataset ingestion, and a synthetic-data generator.

Units are mm/yr throughout. The aridity index is phi = PET / P.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import symbolic
from .errors import (
    CsvParseError,
    DataValidationError,
    InvalidArgumentError,
    LengthMismatchError,
    OptimizerFailureError,
)
from .optim import OptimOptions, bfgs_minimize

PHI_SUSPICIOUS = 10.0  # beyond this the loader flags the row as suspect

REQUIRED_COLUMNS = ["gauge_id", "p_mm_yr", "pet_mm_yr", "qb_mm_yr", "qd_mm_yr"]


@dataclass(frozen=True)
class CatchmentRecord:
    gauge_id: str
    p: float
    pet: float
    qb: float
    qd: float


@dataclass(frozen=True)
class DerivedRecord:
    phi: float
    q: float
    qb_over_p: float
    qd_over_p: float
    q_over_p: float


@dataclass
class CatchmentDataset:
    records: list
    derived: list
    provenance: str = ""
    warnings: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        """Vector view of a raw or derived field across all records."""
        if name in ("p", "pet", "qb", "qd"):
            return np.array([getattr(r, name) for r in self.records])
        if name in ("phi", "q", "qb_over_p", "qd_over_p", "q_over_p"):
            return np.array([getattr(d, name) for d in self.derived])
        raise InvalidArgumentError(f"unknown column {name!r}")

    def subset(self, indices) -> "CatchmentDataset":
        idx = list(indices)
        return CatchmentDataset([self.records[i] for i in idx],
                                [self.derived[i] for i in idx],
                                self.provenance)


def aridity_index(p: float, pet: float) -> float:
    if p <= 0:
        raise InvalidArgumentError("precipitation must be positive")
    if pet < 0:
        raise InvalidArgumentError("PET must be non-negative")
    return pet / p


def _derive(rec: CatchmentRecord) -> DerivedRecord:
    phi = rec.pet / rec.p
    q = rec.qb + rec.qd
    return DerivedRecord(phi=phi, q=q, qb_over_p=rec.qb / rec.p,
                         qd_over_p=rec.qd / rec.p, q_over_p=q / rec.p)


def _check_phi(phi):
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0):
        raise InvalidArgumentError("aridity index must be non-negative")
    return phi


def _maybe_scalar(x, arr):
    return float(arr) if np.ndim(x) == 0 else arr


def eval_original_fB(phi):
    """Q_B/P = exp(-phi^1.71 - 0.873)^1.05 (fitted exponential family)."""
    p = _check_phi(phi)
    return _maybe_scalar(phi, np.exp(1.05 * (-p ** 1.71 - 0.873)))


def eval_original_fD(phi):
    """Q_D/P = exp(-phi^0.77 - 0.864)^1.06."""
    p = _check_phi(phi)
    return _maybe_scalar(phi, np.exp(1.06 * (-p ** 0.77 - 0.864)))


def eval_kan_fB(phi):
    """Q_B/P = 0.39 - 0.34*tanh(1.42*phi - 0.82)."""
    p = _check_phi(phi)
    return _maybe_scalar(phi, 0.39 - 0.34 * np.tanh(1.42 * p - 0.82))


def eval_kan_inspired_fB(phi):
    """Q_B/P = 0.7573 - 0.7243*tanh(phi) (two-parameter form)."""
    p = _check_phi(phi)
    return _maybe_scalar(phi, 0.7573 - 0.7243 * np.tanh(p))


def eval_FB(phi):
    """Q_B = 47.13 + 1932.52*exp(-1.42*(phi + 0.29)^2), mm/yr.

    The squared argument is written (phi + 0.29)^2; the published form
    squares its negation, which is identical.
    """
    p = _check_phi(phi)
    return _maybe_scalar(phi, 47.13 + 1932.52 * np.exp(-1.42 * (p + 0.29) ** 2))


def eval_FD(phi, clamp_negative: bool = False):
    """Q_D = 616.82 - 418.39*arctan(2.84*phi - 0.87), mm/yr.

    Goes negative for phi beyond about 3.949; pass clamp_negative=True to
    floor at zero.
    """
    p = _check_phi(phi)
    out = 616.82 - 418.39 * np.arctan(2.84 * p - 0.87)
    if clamp_negative:
        out = np.maximum(out, 0.0)
    return _maybe_scalar(phi, out)


FIXED_MODELS = {
    "original_fb": eval_original_fB,
    "original_fd": eval_original_fD,
    "kan_fb": eval_kan_fB,
    "kan_inspired_fb": eval_kan_inspired_fB,
    "FB": eval_FB,
    "FD": eval_FD,
}

MODEL_TARGETS = {
    "original_fb": "qb_over_p",
    "original_fd": "qd_over_p",
    "kan_fb": "qb_over_p",
    "kan_inspired_fb": "qb_over_p",
    "FB": "qb",
    "FD": "qd",
}


# --------------------------------------------------------------------------
# Parametric model families
# --------------------------------------------------------------------------

def _f_original_exp(params, phi):
    a, b, c = params
    with np.errstate(all="ignore"):
        return np.exp(c * (-np.abs(phi) ** a + b))


def _f_tanh4(params, phi):
    p0, p1, p2, p3 = params
    return p0 + p1 * np.tanh(p2 * phi + p3)


def _f_tanh2(params, phi):
    a, b = params
    return a - b * np.tanh(phi)


def _f_gaussian3(params, phi):
    p0, p1, p2, p3 = params
    with np.errstate(all="ignore"):
        return p0 + p1 * np.exp(-p2 * (phi + p3) ** 2)


def _f_arctan4(params, phi):
    p0, p1, p2, p3 = params
    return p0 + p1 * np.arctan(p2 * phi + p3)


MODEL_FAMILIES = {
    "original-exp": (3, _f_original_exp),
    "tanh4": (4, _f_tanh4),
    "tanh2": (2, _f_tanh2),
    "gaussian3": (4, _f_gaussian3),
    "arctan4": (4, _f_arctan4),
}


@dataclass
class AridityModel:
    family: str
    params: np.ndarray

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise InvalidArgumentError(f"unknown model family {self.family!r}")
        self.params = np.asarray(self.params, dtype=float)
        want = MODEL_FAMILIES[self.family][0]
        if self.params.size != want:
            raise InvalidArgumentError(
                f"family {self.family!r} takes {want} parameters, "
                f"got {self.params.size}")

    def __call__(self, phi):
        return MODEL_FAMILIES[self.family][1](self.params, np.asarray(phi, float))


def fit_parametric(family: str, xs, ys, x0,
                   opts: OptimOptions | None = None) -> AridityModel:
    """BFGS fit of a formula family to (phi, y) pairs under RMSE loss."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise LengthMismatchError("xs and ys must have equal length")
    count, fn = MODEL_FAMILIES[family]
    x0 = np.asarray(x0, dtype=float)
    if x0.size != count:
        raise InvalidArgumentError(f"x0 must have {count} entries")
    if xs.size < count:
        raise InvalidArgumentError("need at least as many samples as parameters")

    def objective(p):
        r = fn(p, xs) - ys
        if not np.all(np.isfinite(r)):
            return np.inf
        return float(np.sqrt(np.mean(r ** 2)))

    def grad(p):
        # central finite differences; family formulas are cheap and low-dim
        g = np.zeros_like(p)
        for k in range(p.size):
            h = 1e-6 * max(1.0, abs(p[k]))
            hi, lo = p.copy(), p.copy()
            hi[k] += h
            lo[k] -= h
            fh, fl = objective(hi), objective(lo)
            g[k] = (fh - fl) / (2 * h) if np.isfinite(fh) and np.isfinite(fl) else 0.0
        return g

    try:
        res = bfgs_minimize(objective, grad, x0,
                            opts or OptimOptions(max_iters=400, grad_tol=1e-10))
    except Exception as exc:
        raise OptimizerFailureError(str(exc), best=AridityModel(family, x0)) from exc
    return AridityModel(family, res.x_star)


# --------------------------------------------------------------------------
# Dataset ingestion
# --------------------------------------------------------------------------

def load_catchments(path, strict: bool = True) -> CatchmentDataset:
    """Load and validate the comma-separated catchment file.

    Rows violating the water balance (qb + qd > p) are excluded with a
    warning in strict mode and kept (still warned) otherwise.
    """
    if hasattr(path, "read"):
        text = path.read()
        name = "<stream>"
    else:
        name = str(path)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise CsvParseError(f"cannot read {name}: {exc}") from exc

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(f"{name}: empty file")
    header = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise CsvParseError(f"{name}: missing required columns {missing}")
    warnings = []
    extra = [c for c in header if c not in REQUIRED_COLUMNS]
    if extra:
        warnings.append(f"ignoring extra columns {extra}")
    col = {c: header.index(c) for c in REQUIRED_COLUMNS}

    records, derived, seen = [], [], {}
    excluded = 0
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise CsvParseError(f"{name}:{line_no}: expected "
                                f"{len(header)} fields, got {len(row)}")
        gauge = row[col["gauge_id"]].strip()
        try:
            p = float(row[col["p_mm_yr"]])
            pet = float(row[col["pet_mm_yr"]])
            qb = float(row[col["qb_mm_yr"]])
            qd = float(row[col["qd_mm_yr"]])
        except ValueError as exc:
            raise CsvParseError(f"{name}:{line_no}: non-numeric field "
                                f"({exc})") from exc
        if gauge in seen:
            raise DataValidationError(
                f"{name}:{line_no}: duplicate gauge_id {gauge!r} "
                f"(first at line {seen[gauge]})")
        seen[gauge] = line_no
        # written positively so that NaN, which fails every comparison, is
        # rejected along with inf
        if not (0 < p < np.inf and 0 <= pet < np.inf and 0 <= qb < np.inf
                and 0 <= qd < np.inf):
            raise DataValidationError(
                f"{name}:{line_no}: gauge {gauge!r} violates invariants "
                f"(p > 0, pet/qb/qd >= 0, all finite); got p={p}, pet={pet}, "
                f"qb={qb}, qd={qd}")
        rec = CatchmentRecord(gauge, p, pet, qb, qd)
        der = _derive(rec)
        if qb + qd > p:
            warnings.append(f"line {line_no}: gauge {gauge!r} has "
                            f"qb + qd > p (negative annual evaporation)")
            if strict:
                excluded += 1
                continue
        if der.phi > PHI_SUSPICIOUS:
            warnings.append(f"line {line_no}: gauge {gauge!r} has suspicious "
                            f"aridity index {der.phi:.3g} > {PHI_SUSPICIOUS}")
        records.append(rec)
        derived.append(der)
    if excluded:
        warnings.append(f"excluded {excluded} water-balance-violating row(s)")
    if not records:
        raise DataValidationError(f"{name}: no usable rows")
    return CatchmentDataset(records, derived, provenance=name,
                            warnings=warnings)


def synth_generate(formula, n: int, phi_range, noise_sigma: float,
                   seed: int = 0):
    """Sample (phi, y) pairs from a formula plus Gaussian noise.

    `formula` may be a callable, an AridityModel, an expression tree, or an
    expression string.
    """
    lo, hi = phi_range
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if not lo < hi:
        raise InvalidArgumentError("phi range must satisfy lo < hi")
    if noise_sigma < 0:
        raise InvalidArgumentError("noise_sigma must be >= 0")
    if isinstance(formula, str):
        tree = symbolic.parse_expression(formula)
        fn = lambda p: symbolic.eval_expression(tree, p.reshape(-1, 1))
    elif callable(formula):
        fn = formula
    else:
        fn = lambda p: symbolic.eval_expression(formula, p.reshape(-1, 1))
    rng = np.random.default_rng(seed)
    phi = rng.uniform(lo, hi, n)
    ys = np.asarray(fn(phi), dtype=float)
    if noise_sigma > 0:
        ys = ys + rng.normal(0.0, noise_sigma, n)
    return phi, ys
