"""Water-balance domain types, closed-form aridity-index model families
(the published formulas are instances of them) and their refits, dataset
ingestion, and a synthetic-data generator.

Units are mm/yr throughout. The aridity index is phi = PET / P.
"""

from __future__ import annotations

import array
import contextlib
import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import symbolic
from .errors import (
    CsvParseError,
    DataValidationError,
    InvalidArgumentError,
    LengthMismatchError,
)
from .optim import OptimOptions, bfgs_minimize

PHI_SUSPICIOUS = 10.0  # beyond this the loader flags the row as suspect
# rows the CSV reader and writer hold as text at once
BLOCK_ROWS = 4096

# the raw columns by CSV header, and the dataset attribute holding each
RAW_COLUMNS = {"p_mm_yr": "p", "pet_mm_yr": "pet", "qb_mm_yr": "qb",
               "qd_mm_yr": "qd"}
REQUIRED_COLUMNS = ["gauge_id", *RAW_COLUMNS]

DERIVED_COLUMNS = {
    "phi": lambda d: d.pet / d.p,
    "q": lambda d: d.qb + d.qd,
    "qb_over_p": lambda d: d.qb / d.p,
    "qd_over_p": lambda d: d.qd / d.p,
    "q_over_p": lambda d: (d.qb + d.qd) / d.p,
}


@dataclass
class CatchmentDataset:
    """Validated catchments as columns: one gauge id and one value per raw
    column (mm/yr) for each catchment."""

    gauge_ids: list
    p: np.ndarray
    pet: np.ndarray
    qb: np.ndarray
    qd: np.ndarray
    provenance: str = ""
    warnings: list = field(default_factory=list)

    def __len__(self):
        return len(self.gauge_ids)

    def column(self, name: str) -> np.ndarray:
        """A raw column, by attribute or CSV header name, or a derived one
        (see DERIVED_COLUMNS)."""
        name = RAW_COLUMNS.get(name, name)
        if name in RAW_COLUMNS.values():
            return getattr(self, name).copy()
        if name in DERIVED_COLUMNS:
            return DERIVED_COLUMNS[name](self)
        raise InvalidArgumentError(f"unknown column {name!r}")


# --------------------------------------------------------------------------
# Closed-form model families and the published models
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
    """One parameter point of a family; called on phi >= 0."""

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
        phi = np.asarray(phi, dtype=float)
        if np.any(phi < 0):
            raise InvalidArgumentError("aridity index must be non-negative")
        return MODEL_FAMILIES[self.family][1](self.params, phi)


# The published models as family instances; each gives the same doubles as
# its formula written out, since a + (-b)*t equals a - b*t in IEEE arithmetic
FIXED_MODELS = {
    # Q_B/P = exp(-phi^1.71 - 0.873)^1.05
    "original_fb": AridityModel("original-exp", [1.71, -0.873, 1.05]),
    # Q_D/P = exp(-phi^0.77 - 0.864)^1.06
    "original_fd": AridityModel("original-exp", [0.77, -0.864, 1.06]),
    # Q_B/P = 0.39 - 0.34*tanh(1.42*phi - 0.82)
    "kan_fb": AridityModel("tanh4", [0.39, -0.34, 1.42, -0.82]),
    # Q_B/P = 0.7573 - 0.7243*tanh(phi)
    "kan_inspired_fb": AridityModel("tanh2", [0.7573, 0.7243]),
    # Q_B = 47.13 + 1932.52*exp(-1.42*(phi + 0.29)^2) mm/yr; the published
    # form squares the negated argument, which is identical
    "FB": AridityModel("gaussian3", [47.13, 1932.52, 1.42, 0.29]),
    # Q_D = 616.82 - 418.39*arctan(2.84*phi - 0.87) mm/yr; negative for phi
    # beyond about 3.949
    "FD": AridityModel("arctan4", [616.82, -418.39, 2.84, -0.87]),
}
# the names the acceptance criteria import, in FIXED_MODELS order
(eval_original_fB, eval_original_fD, eval_kan_fB, eval_kan_inspired_fB,
 eval_FB, eval_FD) = FIXED_MODELS.values()

MODEL_TARGETS = {
    "original_fb": "qb_over_p",
    "original_fd": "qd_over_p",
    "kan_fb": "qb_over_p",
    "kan_inspired_fb": "qb_over_p",
    "FB": "qb",
    "FD": "qd",
}


def fit_parametric(family: str, xs, ys, x0) -> AridityModel:
    """BFGS fit of a formula family to (phi, y) pairs under RMSE loss."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise LengthMismatchError("xs and ys must have equal length")
    # the fitted model rejects what it cannot score, so the fit does too
    if not np.all(np.isfinite(xs) & (xs >= 0.0)):
        raise InvalidArgumentError(
            "aridity index must be finite and non-negative")
    if not np.all(np.isfinite(ys)):
        raise InvalidArgumentError("ys must be finite")
    count, fn = MODEL_FAMILIES[family]
    x0 = np.asarray(x0, dtype=float)
    if x0.size != count:
        raise InvalidArgumentError(f"x0 must have {count} entries")
    if xs.size < count:
        raise InvalidArgumentError("need at least as many samples as parameters")

    def rmse(p):
        r = fn(p, xs) - ys
        if not np.all(np.isfinite(r)):
            return np.inf
        return float(np.sqrt(np.mean(r ** 2)))

    def fun(p):
        f = rmse(p)
        if not np.isfinite(f):
            return f, None
        # central finite differences; family formulas are cheap and low-dim
        g = np.zeros_like(p)
        for k in range(p.size):
            h = 1e-6 * max(1.0, abs(p[k]))
            hi, lo = p.copy(), p.copy()
            hi[k] += h
            lo[k] -= h
            fh, fl = rmse(hi), rmse(lo)
            g[k] = (fh - fl) / (2 * h) if np.isfinite(fh) and np.isfinite(fl) else 0.0
        return f, g

    res = bfgs_minimize(fun, x0, OptimOptions(max_iters=400, grad_tol=1e-10))
    return AridityModel(family, res.x_star)


# --------------------------------------------------------------------------
# Dataset ingestion
# --------------------------------------------------------------------------

def parse_floats(texts):
    """Parse equal-length lists of numeric text, one list per column, as
    float() does, into a (columns, rows) array.

    Returns the array and None, or, when a field does not parse, the array
    of the rows before it and that field's (row, column, ValueError)."""
    try:
        return np.array(texts, dtype=float), None
    except ValueError:  # it parses like float(), so float() finds the field
        for n, row in enumerate(zip(*texts)):
            for k, text in enumerate(row):
                try:
                    float(text)
                except ValueError as exc:
                    return (np.array([t[:n] for t in texts], dtype=float),
                            (n, k, exc))
        raise


def _kept_rows(reader, width, gi, name):
    """Yield (line number, gauge id, fields) for each row of a catchment
    file after its header, skipping blank rows; the first short or
    unparsable row raises CsvParseError."""
    try:
        for line_no, row in enumerate(reader, start=2):
            if len(row) < width:
                if "".join(row).strip():
                    raise CsvParseError(f"{name}:{line_no}: expected {width} "
                                        f"fields, got {len(row)}")
                continue  # blank
            gauge = row[gi].strip()
            if gauge or "".join(row).strip():
                yield line_no, gauge, row
    except csv.Error as exc:  # e.g. an oversized field
        raise CsvParseError(f"{name}:{reader.line_num}: {exc}") from exc


def load_catchments(path, strict: bool = True) -> CatchmentDataset:
    """Load and validate the comma-separated catchment file.

    The first faulty line stops the load, naming the first of: too few
    fields or unparsable CSV, a non-numeric field, a duplicate gauge id, a
    broken invariant. Rows violating the water balance (qb + qd > p) are
    warned about, and excluded in strict mode (still counting as
    duplicates).

    At most BLOCK_ROWS rows are held as text at once: each block's numeric
    fields are parsed before the next block is read, and the checks run on
    the parsed columns."""
    if hasattr(path, "read"):
        name, opened = "<stream>", contextlib.nullcontext(path)
    else:
        name = str(path)
        try:
            opened = open(path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise CsvParseError(f"cannot read {name}: {exc}") from exc

    with opened as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CsvParseError(f"{name}: empty file")
            header = [h.strip() for h in header]
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise CsvParseError(
                    f"{name}: missing required columns {missing}")
            extra = [c for c in header if c not in REQUIRED_COLUMNS]
            warnings = [f"ignoring extra columns {extra}"] if extra else []
            gi, pi, peti, qbi, qdi = (header.index(c)
                                      for c in REQUIRED_COLUMNS)

            # the rows stream through in blocks; a block keeps its ids, line
            # numbers and numeric fields as text, one list per column, until
            # it is parsed, and messages are built for failing lines only
            rows = _kept_rows(reader, len(header), gi, name)
            ids, lines, blocks = [], array.array("q"), []
            fault, full = None, True  # fault: the error that ends the scan
            while full and fault is None:
                gauges, nums, texts = [], [], ([], [], [], [])
                p_s, pet_s, qb_s, qd_s = texts
                try:
                    for line_no, gauge, row in itertools.islice(rows,
                                                                BLOCK_ROWS):
                        gauges.append(gauge)
                        nums.append(line_no)
                        p_s.append(row[pi])
                        pet_s.append(row[peti])
                        qb_s.append(row[qbi])
                        qd_s.append(row[qdi])
                except CsvParseError as exc:
                    fault = exc
                full = len(nums) == BLOCK_ROWS
                # a non-numeric field comes before the fault that ended the
                # block, if any
                block, bad = parse_floats(texts)
                if bad is not None:
                    fault = CsvParseError(f"{name}:{nums[bad[0]]}: "
                                          f"non-numeric field ({bad[2]})")
                ids += gauges[:block.shape[1]]
                lines += array.array("q", nums[:block.shape[1]])
                blocks.append(block)
        except csv.Error as exc:  # in the header
            raise CsvParseError(f"{name}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"{name}: not UTF-8 text ({exc})") from exc
    cols = np.concatenate(blocks, axis=1)
    del blocks
    p, pet, qb, qd = cols

    n, seen = len(ids), {}
    dup = n if len(set(ids)) == n else next(
        k for k, g in enumerate(ids) if seen.setdefault(g, k) != k)
    # NaN fails every comparison, so it is rejected along with inf
    ok = (p > 0) & np.all((cols >= 0) & (cols < np.inf), axis=0)
    bad = n if ok.all() else int(np.argmin(ok))
    if dup < n and dup <= bad:
        raise DataValidationError(
            f"{name}:{lines[dup]}: duplicate gauge_id {ids[dup]!r} "
            f"(first at line {lines[seen[ids[dup]]]})")
    if bad < n:
        raise DataValidationError(
            f"{name}:{lines[bad]}: gauge {ids[bad]!r} violates invariants "
            f"(p > 0, pet/qb/qd >= 0, all finite); got p={float(p[bad])}, "
            f"pet={float(pet[bad])}, qb={float(qb[bad])}, "
            f"qd={float(qd[bad])}")
    if fault is not None:
        raise fault

    unbalanced = qb + qd > p
    suspicious = (pet / p > PHI_SUSPICIOUS) & ~(strict & unbalanced)
    for k in np.flatnonzero(unbalanced | suspicious).tolist():
        where = f"line {lines[k]}: gauge {ids[k]!r} has"
        if unbalanced[k]:
            warnings.append(f"{where} qb + qd > p (negative annual "
                            f"evaporation)")
        if suspicious[k]:
            warnings.append(f"{where} suspicious aridity index "
                            f"{pet[k] / p[k]:.3g} > {PHI_SUSPICIOUS}")
    if strict and unbalanced.any():
        warnings.append(f"excluded {int(unbalanced.sum())} "
                        f"water-balance-violating row(s)")
        ids = [g for g, drop in zip(ids, unbalanced.tolist()) if not drop]
        cols = cols[:, ~unbalanced]
    if not ids:
        raise DataValidationError(f"{name}: no usable rows")
    return CatchmentDataset(ids, *cols, provenance=name, warnings=warnings)


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
    # the sampler needs a finite width hi - lo, not just finite bounds
    if not np.isfinite(float(hi) - float(lo)):
        raise InvalidArgumentError(
            f"phi range ({lo}, {hi}) must be finite, with a finite width")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidArgumentError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")
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
