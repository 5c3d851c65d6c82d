"""Unary candidate primitives, affine-fit ranking, and expression trees."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    ExpressionParseError,
    InvalidArgumentError,
    NoValidCandidateError,
)
from .optim import (
    AffineSearchGrid,
    CoarseGrid,
    ZERO_VARIANCE_TOL,
    _check_samples,
    affine_start,
    fit_affine_wrap,
    fit_r2,
)


@dataclass(frozen=True)
class CandidateFunction:
    """A unary primitive: one row of the candidate library.

    `form` is the printed text, with `{}` for the argument; the parser reads
    the same forms back. `parity` is "even" when f(-u) == f(u) and "odd" when
    f(-u) == -f(u), exactly in floating point and on a domain symmetric about
    0, and "" otherwise. Fold normalizes the sign of an even primitive's
    affine wrap, and the snap searches only a > 0 for either parity. `role`
    is "identity" or "zero" for the linear primitives that fold simplifies
    away, and "" otherwise.

    `domain(lo, hi)` is true where every u in [lo, hi] lies in f's domain,
    elementwise over arrays of ends, and `domain(u, u)` checks points. As
    a*x + b and its rounding are monotone in x, testing its values at the
    two extreme x tests every sample.
    """

    name: str
    fn: callable
    deriv: callable
    domain: callable
    complexity: int
    form: str
    parity: str
    role: str

    def __repr__(self):
        return f"CandidateFunction({self.name!r})"


# every domain in _LIBRARY is the reals, an interval (tested at both ends of a
# range) or the reals without 0
def _all(lo, hi):
    return np.ones(np.shape(lo), dtype=bool)


def _one_sign(lo, hi):
    """The reals without 0: no zero and no sign change across the range."""
    return (lo > 0.0) | (hi < 0.0)


# Integer and half powers are written with multiplies and reciprocals: on
# numpy 2.4 the general `**` takes about 80x as long as `u*u*u` on the coarse
# snap grid. The reciprocal is taken first so a tiny |u| overflows to inf, as
# `u ** -3.0` does, instead of dividing by an underflowed zero.
def _cube(u):
    return u * u * u


def _quartic(u):
    u2 = u * u
    return u2 * u2


def _inv2(u):
    r = 1.0 / u
    return r * r


def _inv3(u):
    r = 1.0 / u
    return r * r * r


def _inv4(u):
    r2 = _inv2(u)
    return r2 * r2


def _inv5(u):
    r = 1.0 / u
    r2 = r * r
    return r2 * r2 * r


def _inv_sqrt3(u):
    r = 1.0 / u
    return r * np.sqrt(r)


# Complexity scores are the deterministic tie-break when two candidates reach
# the same R^2 (identity cheapest, inverse-domain functions most expensive).
# A row holds every fact about its primitive, as in pykan's symbolic library
# (Liu et al. 2024, arXiv 2404.19756): adding a candidate is adding a row.
# Each row spans its own affine family c*f(a*u + b) + d on one branch: tan,
# like arcsin and arctanh, is held to its principal domain.
_LIBRARY = [
    # name, fn, deriv, domain, complexity, printed form, parity, role
    CandidateFunction("x", lambda u: u + 0.0, lambda u: np.ones_like(u), _all,
                      1, "{}", "odd", "identity"),
    CandidateFunction("x^2", lambda u: u ** 2, lambda u: 2.0 * u, _all, 2,
                      "{}^2", "even", ""),
    CandidateFunction("x^3", _cube, lambda u: 3.0 * (u * u), _all, 2, "{}^3",
                      "odd", ""),
    CandidateFunction("x^4", _quartic, lambda u: 4.0 * _cube(u), _all, 2,
                      "{}^4", "even", ""),
    CandidateFunction("1/x", lambda u: 1.0 / u, lambda u: -_inv2(u),
                      _one_sign, 2, "1/{}", "odd", ""),
    CandidateFunction("1/x^2", _inv2, lambda u: -2.0 * _inv3(u), _one_sign, 3,
                      "1/{}^2", "even", ""),
    CandidateFunction("1/x^3", _inv3, lambda u: -3.0 * _inv4(u), _one_sign, 3,
                      "1/{}^3", "odd", ""),
    CandidateFunction("1/x^4", _inv4, lambda u: -4.0 * _inv5(u), _one_sign, 3,
                      "1/{}^4", "even", ""),
    CandidateFunction("sqrt", np.sqrt, lambda u: 0.5 / np.sqrt(u),
                      lambda lo, hi: lo >= 0.0, 2, "sqrt({})", "", ""),
    CandidateFunction("1/sqrt", lambda u: 1.0 / np.sqrt(u),
                      lambda u: -0.5 * _inv_sqrt3(u),
                      lambda lo, hi: lo > 0.0, 3, "1/sqrt({})", "",
                      ""),
    CandidateFunction("exp", np.exp, np.exp, _all, 3, "exp({})", "", ""),
    CandidateFunction("log", np.log, lambda u: 1.0 / u,
                      lambda lo, hi: lo > 0.0, 3, "log({})", "", ""),
    CandidateFunction("abs", np.abs, np.sign, _all, 3, "abs({})", "even", ""),
    CandidateFunction("sin", np.sin, np.cos, _all, 4, "sin({})", "odd", ""),
    CandidateFunction("tan", np.tan, lambda u: _inv2(np.cos(u)),
                      lambda lo, hi: (lo > -np.pi / 2) & (hi < np.pi / 2), 4,
                      "tan({})", "odd", ""),
    CandidateFunction("tanh", np.tanh, lambda u: 1.0 - np.tanh(u) ** 2, _all,
                      4, "tanh({})", "odd", ""),
    CandidateFunction("sign", np.sign, lambda u: np.zeros_like(u), _all, 5,
                      "sign({})", "odd", ""),
    CandidateFunction("arcsin", np.arcsin,
                      lambda u: 1.0 / np.sqrt(1.0 - u ** 2),
                      lambda lo, hi: (lo >= -1.0) & (hi <= 1.0), 5,
                      "arcsin({})", "odd", ""),
    CandidateFunction("arctan", np.arctan, lambda u: 1.0 / (1.0 + u ** 2),
                      _all, 4, "arctan({})", "odd", ""),
    CandidateFunction("arctanh", np.arctanh, lambda u: 1.0 / (1.0 - u ** 2),
                      lambda lo, hi: (lo > -1.0) & (hi < 1.0), 5,
                      "arctanh({})", "odd", ""),
    CandidateFunction("0", lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      _all, 0, "0", "even", "zero"),
    CandidateFunction("gaussian", lambda u: np.exp(-u ** 2),
                      lambda u: -2.0 * u * np.exp(-u ** 2), _all, 4,
                      "gaussian({})", "even", ""),
    CandidateFunction("cosh", np.cosh, np.sinh, _all, 4, "cosh({})", "even",
                      ""),
]
_BY_NAME = {c.name: c for c in _LIBRARY}
_BY_FORM = {c.form: c for c in _LIBRARY}
_IDENTITY = next(c for c in _LIBRARY if c.role == "identity")
_ZERO = next(c for c in _LIBRARY if c.role == "zero")


def candidate_library() -> list[CandidateFunction]:
    """The built-in primitives."""
    return list(_LIBRARY)


def candidate_by_name(name: str) -> CandidateFunction:
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidArgumentError(
            f"unknown candidate function {name!r}") from None


# rank_candidates polishes only the candidates whose coarse fits are best;
# the others keep their coarse fit and its R^2. Criterion 5's sweep picks the
# same hyperpoint, formula and snap with this as with every one polished.
POLISH_TOP_K = 4


def rank_candidates(xs, ys,
                    search: AffineSearchGrid | None = None) -> list:
    """Fit every feasible candidate to each row of ys, (E, n), over one xs;
    return per row its (name, a, b, c, d, R^2) rows best first, by
    descending R^2 and then ascending complexity. The rows share each
    candidate's coarse (a, b) pass; the POLISH_TOP_K best of a row's starts
    get the BFGS polish as well.
    """
    xs, ys = _check_samples(xs, ys)
    flat = np.var(ys, axis=1) < ZERO_VARIANCE_TOL
    live = ys[~flat]
    starts = [[] for _ in live]
    if starts:
        coarse = CoarseGrid.over(xs, live, search)
        # an even or odd f fits (-a, -b) as it fits (a, b): search a > 0 only
        half = coarse.mirror_half()
        for cand in _LIBRARY:
            try:
                hits = affine_start(cand.fn, xs, live,
                                    half if cand.parity else coarse,
                                    domain=cand.domain)
            except NoValidCandidateError:
                continue
            for row, hit in zip(starts, hits):
                if hit is not None:
                    row.append((hit[1] if np.isfinite(hit[1]) else np.inf,
                                cand.complexity, cand.name, cand, hit[0]))
    live_starts = iter(starts)
    # a constant row: the zero candidate with offset d wins by convention
    return [[(_ZERO.name, 1.0, 0.0, 0.0, float(y.mean()), 1.0)] if f
            else _polish(xs, y, next(live_starts), search)
            for y, f in zip(ys, flat)]


def _polish(xs, ys, starts, search):
    """One row's fits, best first, from its coarse starts."""
    starts.sort(key=lambda st: st[:3])
    rows = []
    for rank, (sse0, _, _, cand, p0) in enumerate(starts):
        if rank < POLISH_TOP_K:
            a, b, c, d, r2 = fit_affine_wrap(
                cand.fn, xs, ys, search, domain=cand.domain, deriv=cand.deriv,
                start=p0)
        else:
            (a, b, c, d), r2 = p0, fit_r2(sse0, ys)
        if not np.isfinite(r2):
            r2 = -np.inf
        rows.append((-round(r2, 10), cand.complexity,
                     (cand.name, float(a), float(b), float(c), float(d), r2)))
    if not rows:
        raise NoValidCandidateError("every candidate infeasible on these inputs")
    # R^2 values are quantized for sorting so fits that agree to optimizer
    # precision fall through to the complexity tie-break, then to the name
    return [row for *_, row in sorted(rows)]


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int = 0


@dataclass(frozen=True)
class Unary:
    """c * f(a * child + b) + d"""

    name: str
    a: float
    b: float
    c: float
    d: float
    child: "Node"


@dataclass(frozen=True)
class Sum:
    terms: tuple


Node = Const | Var | Unary | Sum


def _first_var(node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Unary):
        return _first_var(node.child)
    if isinstance(node, Sum):
        hits = [h for h in map(_first_var, node.terms) if h >= 0]
        return min(hits, default=-1)
    return -1


def _split_offset(node: "Unary") -> Node:
    """Canonical form: a nonzero offset becomes a leading constant term."""
    if node.d == 0.0:
        return node
    return Sum((Const(node.d),
                Unary(node.name, node.a, node.b, node.c, 0.0, node.child)))


def fold(node) -> Node:
    """Constant folding: merge constants, drop zero terms, absorb identities."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Unary):
        child = fold(node.child)
        cand = candidate_by_name(node.name)
        a, b, c, d = node.a, node.b, node.c, node.d
        if cand is _ZERO or c == 0.0:
            return Const(d)
        if cand.parity == "even" and a < 0.0:
            a, b = -a, -b
        if a == 0.0:  # f(0*child + b) is f(1*b + 0), whatever the child
            a, b, child = 1.0, 0.0, Const(b)
        if isinstance(child, Const):  # a value that overflows stays a term
            u = a * child.value + b
            with np.errstate(all="ignore"):
                value = c * cand.fn(u) + d if cand.domain(u, u) else np.nan
            if np.isfinite(value):
                return Const(float(value))
        if cand is _IDENTITY:
            coef = c * a
            off = c * b + d
            if coef == 1.0 and off == 0.0:
                return child
            if isinstance(child, Unary):
                # absorb the linear wrap into the child's own (c, d)
                return fold(Unary(child.name, child.a, child.b,
                                  coef * child.c, coef * child.d + off,
                                  child.child))
            return _split_offset(Unary(cand.name, 1.0, 0.0, coef, off, child))
        return _split_offset(Unary(cand.name, a, b, c, d, child))
    if isinstance(node, Sum):
        const_total = 0.0
        terms = []
        stack = [fold(t) for t in node.terms]
        for t in stack:
            if isinstance(t, Sum):
                stack.extend(t.terms)  # flatten nested sums
                continue
            if isinstance(t, Const):
                const_total += t.value
            elif isinstance(t, Unary):
                const_total += t.d
                if t.c != 0.0:
                    terms.append(Unary(t.name, t.a, t.b, t.c, 0.0, t.child))
            else:  # a variable, as its own identity so that like terms merge
                terms.append(Unary(_IDENTITY.name, 1.0, 0.0, 1.0, 0.0, t))
        # merge terms identical up to their leading coefficient
        merged: list = []
        for t in terms:
            for k, m in enumerate(merged):
                if (t.name == m.name and t.a == m.a and t.b == m.b
                        and t.child == m.child):
                    merged[k] = Unary(m.name, m.a, m.b, m.c + t.c, 0.0, m.child)
                    break
            else:
                merged.append(t)
        merged = [fold(t) for t in merged if t.c != 0.0]
        out = [Const(const_total)] if const_total != 0.0 or not merged else []
        out += sorted(merged, key=lambda t: (_first_var(t), _render(t, 12)))
        return out[0] if len(out) == 1 else Sum(tuple(out))
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


def _fmt(value: float, precision: int) -> str:
    s = f"{round(value, precision):.{precision}f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _paren(text: str, power: bool = False) -> str:
    """The rendering, bracketed where it needs it as a '*' factor or, with
    `power`, as a power's base: x^2 cubed prints as (x^2)^3, not x^2^3."""
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in ("+-*/ ^" if power else "+-*/ "):
            return f"({text})"
    return text


def _times(k: float, factor: str, precision: int) -> str:
    """k*factor, as it rounds: 1*u prints as u, and k*1/u as k/u."""
    s = _fmt(k, precision)
    if s == "1":
        return factor
    if s == "-1":
        return f"-{factor}"
    if factor.startswith("1/"):
        return s + factor[1:]
    return f"{s}*{factor}"


def _render_affine(a: float, b: float, child_str: str, precision: int) -> str:
    """Render a*child + b."""
    head = (child_str if _fmt(a, precision) == "1"
            else _times(a, _paren(child_str), precision))
    if b == 0.0:
        return head
    sign = " + " if b > 0 else " - "
    return f"{head}{sign}{_fmt(abs(b), precision)}"


def _render(node, precision: int) -> str:
    """Render a folded tree: each Unary's offset d is a Sum's Const term."""
    if isinstance(node, Const):
        return _fmt(node.value, precision)
    if isinstance(node, Var):
        return "x" if node.index == 0 else f"x{node.index + 1}"
    if isinstance(node, Unary):
        cand = candidate_by_name(node.name)
        child = _render(node.child, precision)
        if cand is _IDENTITY:
            # linear wrap: the affine rendering already carries a and b
            return _render_affine(node.c * node.a, node.c * node.b + node.d,
                                  child, precision)
        inner = _render_affine(node.a, node.b, child, precision)
        # a form that does not bracket its argument gets brackets as needed
        body = cand.form.format(inner if "({})" in cand.form
                                else _paren(inner, "^" in cand.form))
        return _times(node.c, body, precision)
    if isinstance(node, Sum):
        parts = [_render(t, precision) for t in node.terms]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


def _settle(node, precision: int):
    """The tree with every number that prints as 0 made 0, so that folding
    it gives what the text parses back to: a term whose c prints as 0 drops,
    and one whose a does becomes its constant value at a = 0."""
    def z(v):
        return 0.0 if _fmt(v, precision) == "0" else v
    if isinstance(node, Const):
        return Const(z(node.value))
    if isinstance(node, Sum):
        return Sum(tuple(_settle(t, precision) for t in node.terms))
    if isinstance(node, Unary):
        return Unary(node.name, z(node.a), z(node.b), z(node.c), z(node.d),
                     _settle(node.child, precision))
    return node


def print_expression(tree, precision: int = 6) -> str:
    """Deterministic infix rendering after constant folding."""
    if precision < 1:
        raise InvalidArgumentError("precision must be >= 1")
    return _render(fold(_settle(fold(tree), precision)), precision)


def eval_expression(tree, x) -> float | np.ndarray:
    """Evaluate at an input vector (or batch matrix, rows = samples)."""
    x = np.asarray(x, dtype=float)
    batch = x.ndim == 2
    xmat = x if batch else x.reshape(1, -1)
    out = _eval(tree, xmat, path="root")
    out = np.broadcast_to(out, (xmat.shape[0],)).astype(float)
    return out if batch else float(out[0])


def _eval(node, xmat, path):
    if isinstance(node, Const):
        return np.full(xmat.shape[0], node.value)
    if isinstance(node, Var):
        if node.index >= xmat.shape[1]:
            raise DomainViolationError(
                f"input has no component {node.index}", node_path=path)
        return xmat[:, node.index]
    if isinstance(node, Unary):
        child = _eval(node.child, xmat, path + ".child")
        u = node.a * child + node.b
        cand = candidate_by_name(node.name)
        ok = np.asarray(cand.domain(u, u))
        if not np.all(ok):
            row = int(np.argmin(ok))
            raise DomainViolationError(
                f"{node.name} undefined at argument {float(u[row])!r}",
                node_path=path, row=row)
        with np.errstate(all="ignore"):
            val = cand.fn(u)
        return node.c * val + node.d
    if isinstance(node, Sum):
        return sum((_eval(t, xmat, f"{path}.terms[{k}]") for k, t in
                    enumerate(node.terms)), np.zeros(xmat.shape[0]))
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


# --------------------------------------------------------------------------
# Parsing: Python arithmetic with ^ as the power, through a node whitelist
# --------------------------------------------------------------------------

# a number run, as far as a word character or a signed exponent continues it,
# and the runs that float() reads: 0x10, 1_000 and 1j are malformed numbers
_NUMBER = r"[0-9.](?:[\w.]|(?<=[eE])[+-])*"
_FLOAT = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# the grammar's lexemes; the last group is any other character, or Python's **
_LEXEME = re.compile(rf"({_NUMBER})|(?a:\w+)|[-+/^()]|\*(?!\*)|\s+|(.)")


def _prepare(text: str) -> str:
    """The text as Python reads it: ^ as **, whitespace runs as one space,
    and no leading zeros on an integer (float() reads 01, Python does not)."""
    for m in _LEXEME.finditer(text):
        number, bad = m.groups()
        if bad is not None:
            raise ExpressionParseError(
                f"unexpected character {bad!r} at {m.start()}")
        if number is not None and not re.fullmatch(_FLOAT, number):
            raise ExpressionParseError(
                f"malformed number {number!r} at {m.start()}")
    text = re.sub(r"\s+", " ", text).strip().replace("^", "**")
    return re.sub(r"(?<![\w.])0+(?=[0-9])", "", text)


def _tree(node, text: str):
    """The expression tree of a Python node; a node outside the whitelist
    raises ExpressionParseError."""
    source = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return Const(float(source))  # float(int) raises past 1e308; inf here
    if isinstance(node, ast.Name) and re.fullmatch(r"x[0-9]*", node.id):
        return Var(int(node.id[1:] or 1) - 1)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.col_offset == node.col_offset  # not (tanh)(x)
            and len(node.args) == 1 and not node.keywords):
        arg = _tree(node.args[0], text)
        return _apply_form(candidate_by_name(node.func.id).form, arg)
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        operand = _tree(node.operand, text)
        return _scale(operand, -1.0) if type(node.op) is ast.USub else operand
    if isinstance(node, ast.BinOp) and type(node.op) is ast.Pow:
        base, exponent = _tree(node.left, text), node.right
        negated = (isinstance(exponent, ast.UnaryOp)
                   and type(exponent.op) is ast.USub)
        if not isinstance(exponent.operand if negated else exponent,
                          ast.Constant):
            raise ExpressionParseError("exponent must be a number; a power "
                                       "of a power is written (x^2)^3")
        power = abs(_tree(exponent, text).value)
        if power != 1:  # all digits, so that 2.5 matches no form
            base = _apply_form(f"{{}}^{power:.17g}", base)
        return _divide(Const(1.0), base) if negated else base
    if isinstance(node, ast.BinOp) and type(node.op) in (ast.Mult, ast.Div):
        step = _multiply if type(node.op) is ast.Mult else _divide
        return step(_tree(node.left, text), _tree(node.right, text))
    if isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
        # an unbracketed a + b - c is one flat Sum, walked in a loop to keep a
        # long one off the stack; a bracketed left operand starts at a later
        # col_offset and stays one term
        chain = [node]
        while (isinstance(chain[-1].left, ast.BinOp)
               and type(chain[-1].left.op) in (ast.Add, ast.Sub)
               and chain[-1].left.col_offset == node.col_offset):
            chain.append(chain[-1].left)
        terms = [_tree(chain[-1].left, text)]
        for op in reversed(chain):
            term = _tree(op.right, text)
            terms.append(_scale(term, -1.0) if type(op.op) is ast.Sub
                         else term)
        return Sum(tuple(terms))
    raise ExpressionParseError(
        f"{source.replace('**', '^')!r} is outside the formula grammar")


def _scale(node, k: float):
    if isinstance(node, Const):
        return Const(k * node.value)
    if isinstance(node, Unary):
        return Unary(node.name, node.a, node.b, k * node.c, k * node.d,
                     node.child)
    if isinstance(node, Sum):
        return Sum(tuple(_scale(t, k) for t in node.terms))
    return Unary(_IDENTITY.name, 1.0, 0.0, k, 0.0, node)


def _multiply(lhs, rhs):
    if isinstance(lhs, Const):
        return _scale(rhs, lhs.value)
    if isinstance(rhs, Const):
        return _scale(lhs, rhs.value)
    raise ExpressionParseError("products of two non-constant factors "
                               "are outside the supported grammar")


def _divide(lhs, rhs):
    if isinstance(rhs, Const):
        if rhs.value == 0.0:
            raise ExpressionParseError("division by the constant zero")
        return _scale(lhs, 1.0 / rhs.value)
    return _multiply(lhs, _apply_form("1/{}", rhs))


def _apply_form(form: str, arg) -> Unary:
    """The candidate printed as `form` around arg, with an affine argument
    a*u + b held as the node's (a, b). A bare f(u) whose form fits in `form`
    makes one candidate of u: 1/{} around sqrt(u) is 1/sqrt(u)."""
    if isinstance(arg, Unary) and arg.c == 1.0 and arg.d == 0.0:
        inside = _BY_FORM.get(form.format(_BY_NAME[arg.name].form))
        if inside is not None:
            return Unary(inside.name, arg.a, arg.b, 1.0, 0.0, arg.child)
    if form not in _BY_FORM:
        raise ExpressionParseError(f"no candidate prints as {form!r}")
    arg, a, b = fold(arg), 1.0, 0.0
    if (isinstance(arg, Sum) and len(arg.terms) == 2
            and isinstance(arg.terms[0], Const)):
        b, arg = arg.terms[0].value, arg.terms[1]
    if isinstance(arg, Unary):  # folded: d is 0, and an identity has a = 1
        a = arg.c
        arg = (arg.child if arg.name == _IDENTITY.name
               else Unary(arg.name, arg.a, arg.b, 1.0, 0.0, arg.child))
    return Unary(_BY_FORM[form].name, a, b, 1.0, 0.0, arg)


def parse_expression(text: str):
    """Parse the grammar emitted by print_expression into a tree."""
    text = _prepare(text)
    try:
        return _tree(ast.parse(text, mode="eval").body, text)
    except SyntaxError as exc:  # the position indexes the prepared text
        raise ExpressionParseError(f"{exc.msg} at {exc.offset - 1}") from exc
    except RecursionError:  # a chain too long for Python's tree builder
        raise ExpressionParseError(
            "formula too long or nested too deeply") from None
