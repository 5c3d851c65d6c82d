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
from operator import eq
from typing import NamedTuple

import numpy as np

from . import symbolic
from .errors import (
    CsvParseError,
    DataValidationError,
    InvalidArgumentError,
    LengthMismatchError,
    is_count,
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


class CsvColumns(NamedTuple):
    """The wanted columns of a CSV file, as scan_csv read them."""

    name: str  # the path, or "<stream>", as the messages name the file
    header: list  # the header's names, stripped
    floats: np.ndarray  # (float columns, rows)
    texts: list  # one list of stripped strings per text column
    lines: array.array  # the physical line each row starts on
    fault: CsvParseError | None  # the row fault that ended the scan


def scan_csv(source, floats, texts=()) -> CsvColumns:
    """Read the named float and text columns of a comma-separated file (a
    path or a text stream), by the rules of every CSV the CLI reads.

    Header names are stripped. A row whose fields are all whitespace is
    blank: it is skipped, but its lines count. A row with fewer fields than
    the header is short. Lines end in LF, CRLF or a lone CR, a quoted field
    may span lines, and a row is named by the physical line it starts on.
    Float fields parse as float() does; text fields are stripped.

    The first faulty row ends the scan: a short one (`NAME:LINE: expected W
    fields, got N`), one with a non-numeric float field (`NAME:LINE:
    non-numeric value in 'COL': ...`) or one the CSV reader rejects, such as
    a field beyond its size limit (`NAME:LINE: unreadable CSV text (...)`).
    Its fault is returned with the rows before it, not raised, so that a
    caller can report an earlier fault of its own first. A file that cannot
    be opened, is not UTF-8 text (`NAME: not UTF-8 text (...)`), is empty
    or lacks a wanted column raises CsvParseError.

    At most BLOCK_ROWS rows are held as text at once: each block's columns
    are parsed before the next block is read."""
    if hasattr(source, "read"):
        name, opened = "<stream>", contextlib.nullcontext(source)
    else:
        name = str(source)
        try:
            opened = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise CsvParseError(f"cannot read {name}: {exc}") from exc
    with opened as fh:
        try:
            return _scan(csv.reader(fh), name, floats, texts)
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"{name}: not UTF-8 text ({exc})") from exc


def _scan(reader, name, floats, texts) -> CsvColumns:
    """scan_csv on an open file's CSV reader."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise CsvParseError(f"{name}:1: unreadable CSV text ({exc})") from exc
    if header is None:
        raise CsvParseError(f"{name}: empty file")
    header = [h.strip() for h in header]
    missing = [c for c in (*floats, *texts) if c not in header]
    if missing:
        raise CsvParseError(f"{name}: missing columns {missing}")
    width = len(header)
    fpicks = [header.index(c) for c in floats]
    tpicks = [header.index(c) for c in texts]

    end = reader.line_num  # the line the last row ended on
    values, columns, lines = [], [[] for _ in texts], array.array("q")
    fault, full = None, True
    while full and fault is None:
        # a block's fields go onto one flat list, and the length of the list
        # after each row marks where that row ends; while every row has one
        # line and the header's width, the columns are slices of the list
        flat, bounds, error = [], [], None
        try:
            bounds.extend(itertools.islice(
                map(len, map(flat.__iadd__, reader)), BLOCK_ROWS))
        except csv.Error as exc:  # bounds has the rows before it
            error = exc
        full = len(bounds) == BLOCK_ROWS
        simple = (error is None and reader.line_num - end == len(bounds)
                  and all(map(eq, bounds, itertools.count(width, width))))
        if simple:
            starts = range(end + 1, reader.line_num + 1)
            parsed, bad = parse_floats([flat[k::width] for k in fpicks])
        if not simple or bad is not None:
            flat, starts, fault = _by_rows(flat, bounds, end + 1, width,
                                           name, error)
            parsed, bad = parse_floats([flat[k::width] for k in fpicks])
        if bad is not None:
            n, k, exc = bad
            fault = CsvParseError(f"{name}:{starts[n]}: non-numeric value in "
                                  f"{floats[k]!r}: {exc}")
            starts = starts[:n]
        end = reader.line_num
        values.append(parsed)
        lines.extend(starts)
        for column, k in zip(columns, tpicks):
            column += map(str.strip, flat[k:width * len(starts):width])
    return CsvColumns(name, header, np.concatenate(values, axis=1), columns,
                      lines, fault)


def _by_rows(flat, bounds, line, width, name, error):
    """Read a block row by row from its flat fields and row ends, starting
    on the given line: blank rows are dropped, and a short row ends the
    block before the CSV reader's error, if any, does.

    Returns the kept rows' fields as one flat list, the line each kept row
    starts on, and the fault that ends the block or None."""
    starts, kept = [], []
    for start, stop in zip([0, *bounds], bounds):
        row = flat[start:stop]
        if "".join(row).strip():
            if len(row) < width:
                return kept, starts, CsvParseError(
                    f"{name}:{line}: expected {width} fields, got {len(row)}")
            kept += row[:width]
            starts.append(line)
        # the line breaks (LF, CRLF or a lone CR) in quoted fields
        text = ",".join(row)
        line += 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
    return kept, starts, None if error is None else CsvParseError(
        f"{name}:{line}: unreadable CSV text ({error})")


def load_catchments(path, strict: bool = True) -> CatchmentDataset:
    """Load and validate the comma-separated catchment file, read by
    scan_csv.

    The first faulty line stops the load, naming the first of: a fault that
    ends the scan, a duplicate gauge id, a broken invariant. Rows violating
    the water balance (qb + qd > p) are warned about, and excluded in strict
    mode (still counting as duplicates)."""
    name, header, cols, (ids,), lines, fault = scan_csv(
        path, list(RAW_COLUMNS), ["gauge_id"])
    extra = [c for c in header if c not in REQUIRED_COLUMNS]
    warnings = [f"ignoring extra columns {extra}"] if extra else []
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
    for name, value, least in (("n", n, 1), ("seed", seed, 0)):
        if not is_count(value, least):
            raise InvalidArgumentError(
                f"{name} must be an integer >= {least}, got {value!r}")
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
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise InvalidArgumentError(
            f"row {bad[0]}: the formula gives {ys[bad[0]]} at phi "
            f"{float(phi[bad[0]])!r}; targets must be finite")
    return phi, ys
