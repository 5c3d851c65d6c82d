"""Unary candidate primitives, affine-fit ranking, and expression trees."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    ExpressionParseError,
    InvalidArgumentError,
    LengthMismatchError,
    NoValidCandidateError,
)
from .optim import (
    AffineSearchGrid,
    CoarseGrid,
    ZERO_VARIANCE_TOL,
    affine_start,
    fit_affine_wrap,
    fit_r2,
)


@dataclass(frozen=True)
class CandidateFunction:
    """A unary primitive with its derivative, domain, and tie-break rank."""

    name: str
    fn: callable
    deriv: callable
    domain: callable
    complexity: int

    def __repr__(self):
        return f"CandidateFunction({self.name!r})"


def _all(u):
    return np.ones(np.shape(u), dtype=bool)


def _nonzero(u):
    return np.asarray(u) != 0.0


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


def _sigmoid(u):
    # overflow-safe: exp is only taken of non-positive arguments
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


# Complexity scores are the deterministic tie-break when two candidates reach
# the same R^2 (identity cheapest, inverse-domain functions most expensive).
_LIBRARY = [
    CandidateFunction("x", lambda u: u + 0.0, lambda u: np.ones_like(u), _all, 1),
    CandidateFunction("x^2", lambda u: u ** 2, lambda u: 2.0 * u, _all, 2),
    CandidateFunction("x^3", _cube, lambda u: 3.0 * (u * u), _all, 2),
    CandidateFunction("x^4", _quartic, lambda u: 4.0 * _cube(u), _all, 2),
    CandidateFunction("1/x", lambda u: 1.0 / u, lambda u: -_inv2(u),
                      _nonzero, 2),
    CandidateFunction("1/x^2", _inv2, lambda u: -2.0 * _inv3(u), _nonzero, 3),
    CandidateFunction("1/x^3", _inv3, lambda u: -3.0 * _inv4(u), _nonzero, 3),
    CandidateFunction("1/x^4", _inv4, lambda u: -4.0 * _inv5(u), _nonzero, 3),
    CandidateFunction("sqrt", np.sqrt, lambda u: 0.5 / np.sqrt(u),
                      lambda u: np.asarray(u) >= 0.0, 2),
    CandidateFunction("1/sqrt", lambda u: 1.0 / np.sqrt(u),
                      lambda u: -0.5 * _inv_sqrt3(u),
                      lambda u: np.asarray(u) > 0.0, 3),
    CandidateFunction("exp", np.exp, np.exp, _all, 3),
    CandidateFunction("log", np.log, lambda u: 1.0 / u,
                      lambda u: np.asarray(u) > 0.0, 3),
    CandidateFunction("abs", np.abs, np.sign, _all, 3),
    CandidateFunction("sin", np.sin, np.cos, _all, 4),
    CandidateFunction("tan", np.tan, lambda u: _inv2(np.cos(u)), _all, 4),
    CandidateFunction("tanh", np.tanh, lambda u: 1.0 - np.tanh(u) ** 2, _all, 4),
    # sigmoid spans the same affine family as tanh; the higher complexity
    # makes tanh the preferred representative when the two fits tie
    CandidateFunction("sigmoid", _sigmoid,
                      lambda u: _sigmoid(u) * (1.0 - _sigmoid(u)), _all, 5),
    CandidateFunction("sign", np.sign, lambda u: np.zeros_like(u), _all, 5),
    CandidateFunction("arcsin", np.arcsin,
                      lambda u: 1.0 / np.sqrt(1.0 - u ** 2),
                      lambda u: np.abs(u) <= 1.0, 5),
    CandidateFunction("arctan", np.arctan, lambda u: 1.0 / (1.0 + u ** 2),
                      _all, 4),
    CandidateFunction("arctanh", np.arctanh, lambda u: 1.0 / (1.0 - u ** 2),
                      lambda u: np.abs(u) < 1.0, 5),
    CandidateFunction("0", lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      _all, 0),
    CandidateFunction("gaussian", lambda u: np.exp(-u ** 2),
                      lambda u: -2.0 * u * np.exp(-u ** 2), _all, 4),
    CandidateFunction("cosh", np.cosh, np.sinh, _all, 4),
]

# Even primitives: f(-u) = f(u), used to normalize the sign of affine wraps.
EVEN_CANDIDATES = {"x^2", "x^4", "1/x^2", "1/x^4", "abs", "gaussian", "cosh"}


def candidate_library() -> list[CandidateFunction]:
    """The built-in primitives."""
    return list(_LIBRARY)


def candidate_by_name(name: str) -> CandidateFunction:
    for cand in _LIBRARY:
        if cand.name == name:
            return cand
    raise InvalidArgumentError(f"unknown candidate function {name!r}")


@dataclass
class SnapResult:
    """Candidates ranked by affine-fit R^2 (ties by ascending complexity)."""

    ranked: list[tuple[str, float, float, float, float, float]]
    chosen: int = 0

    @property
    def best(self):
        return self.ranked[self.chosen]


# rank_candidates polishes only the candidates whose coarse fits are best;
# the others keep their coarse fit and its R^2. Criterion 5's sweep picks the
# same hyperpoint, formula and snap with this as with all 24 polished.
POLISH_TOP_K = 4


def rank_candidates(xs, ys, library: list[CandidateFunction] | None = None,
                    search: AffineSearchGrid | None = None) -> SnapResult:
    """Fit every feasible candidate and sort by descending R^2.

    Every candidate gets the coarse (a, b) pass; the POLISH_TOP_K best of
    those starts get the BFGS polish as well.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise LengthMismatchError("xs and ys must have equal length")
    if xs.size < 4:
        raise InvalidArgumentError("need at least 4 samples")
    library = library if library is not None else candidate_library()

    if float(np.var(ys)) < ZERO_VARIANCE_TOL:
        # constant target: the zero candidate with offset d wins by convention
        return SnapResult([("0", 1.0, 0.0, 0.0, float(ys.mean()), 1.0)])

    complexity = {c.name: c.complexity for c in library}
    coarse = CoarseGrid.over(xs, ys, search)  # the same for every candidate
    starts = []
    for cand in library:
        try:
            p0, sse0 = affine_start(cand.fn, xs, ys, coarse,
                                    domain=cand.domain)
        except NoValidCandidateError:
            continue
        starts.append((sse0 if np.isfinite(sse0) else np.inf,
                       cand.complexity, cand.name, cand, p0))
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
        rows.append((cand.name, float(a), float(b), float(c), float(d), r2))
    if not rows:
        raise NoValidCandidateError("every candidate infeasible on these inputs")
    # R^2 values are quantized for sorting so fits that agree to optimizer
    # precision (e.g. sigmoid vs tanh, which span the same affine family)
    # fall through to the complexity tie-break
    rows.sort(key=lambda row: (-round(row[5], 10) if np.isfinite(row[5])
                               else np.inf,
                               complexity[row[0]], row[0]))
    return SnapResult(rows)


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
        hits = [_first_var(t) for t in node.terms]
        hits = [h for h in hits if h >= 0]
        return min(hits) if hits else -1
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
        name, a, b, c, d = node.name, node.a, node.b, node.c, node.d
        if name == "0" or c == 0.0:
            return Const(d)
        if name in EVEN_CANDIDATES and a < 0.0:
            a, b = -a, -b
        if isinstance(child, Const):
            cand = candidate_by_name(name)
            u = a * child.value + b
            if np.all(cand.domain(np.asarray(u))):
                return Const(float(c * cand.fn(u) + d))
        if name == "x":
            coef = c * a
            off = c * b + d
            if coef == 1.0 and off == 0.0:
                return child
            if isinstance(child, Unary):
                # absorb the linear wrap into the child's own (c, d)
                return fold(Unary(child.name, child.a, child.b,
                                  coef * child.c, coef * child.d + off,
                                  child.child))
            return _split_offset(Unary("x", 1.0, 0.0, coef, off, child))
        return _split_offset(Unary(name, a, b, c, d, child))
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
            else:
                terms.append(t)
        # merge terms identical up to their leading coefficient
        merged: list = []
        for t in terms:
            hit = False
            for k, m in enumerate(merged):
                if (isinstance(t, Unary) and isinstance(m, Unary)
                        and t.name == m.name and t.a == m.a and t.b == m.b
                        and t.child == m.child):
                    merged[k] = Unary(m.name, m.a, m.b, m.c + t.c, 0.0, m.child)
                    hit = True
                    break
                if isinstance(t, Var) and m == t:
                    merged[k] = Unary("x", 1.0, 0.0, 2.0, 0.0, t)
                    hit = True
                    break
                if (isinstance(t, Var) and isinstance(m, Unary)
                        and m.name == "x" and m.a == 1.0 and m.b == 0.0
                        and m.child == t):
                    merged[k] = Unary("x", 1.0, 0.0, m.c + 1.0, 0.0, t)
                    hit = True
                    break
            if not hit:
                merged.append(t)
        merged = [fold(t) for t in merged if not
                  (isinstance(t, Unary) and t.c == 0.0)]
        if not merged:
            return Const(const_total)
        if const_total == 0.0 and len(merged) == 1:
            return merged[0]
        out = []
        if const_total != 0.0:
            out.append(Const(const_total))
        out.extend(sorted(merged, key=lambda t: (_first_var(t), _render(t, 12))))
        if len(out) == 1:
            return out[0]
        return Sum(tuple(out))
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


def _fmt(value: float, precision: int) -> str:
    s = f"{round(value, precision):.{precision}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def _needs_paren(text: str) -> bool:
    """True when the rendering needs parentheses to serve as a '*' factor."""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-*/ ":
            return True
    return False


def _paren(text: str) -> str:
    return f"({text})" if _needs_paren(text) else text


def _render_affine(a: float, b: float, child_str: str, precision: int) -> str:
    """Render a*child + b."""
    if a == 0.0:
        return _fmt(b, precision)
    if a == 1.0:
        head = child_str
    elif a == -1.0:
        head = f"-{_paren(child_str)}"
    else:
        head = f"{_fmt(a, precision)}*{_paren(child_str)}"
    if b == 0.0 or _fmt(b, precision) == "0":
        return head
    sign = " + " if b > 0 else " - "
    return f"{head}{sign}{_fmt(abs(b), precision)}"


def _render_body(name: str, inner: str) -> str:
    if name == "x":
        return inner
    if name in ("x^2", "x^3", "x^4"):
        return f"{_paren(inner)}^{name[-1]}"
    if name == "1/x":
        return f"1/{_paren(inner)}"
    if name in ("1/x^2", "1/x^3", "1/x^4"):
        return f"1/{_paren(inner)}^{name[-1]}"
    if name == "1/sqrt":
        return f"1/sqrt({inner})"
    if name == "0":
        return "0"
    return f"{name}({inner})"


def _var_name(index: int) -> str:
    return "x" if index == 0 else f"x{index + 1}"


def _render(node, precision: int) -> str:
    if isinstance(node, Const):
        return _fmt(node.value, precision)
    if isinstance(node, Var):
        return _var_name(node.index)
    if isinstance(node, Unary):
        child = _render(node.child, precision)
        inner = _render_affine(node.a, node.b, child, precision)
        body = _render_body(node.name, inner)
        if node.name == "x":
            # linear wrap: the affine rendering already carries a and b
            body = _render_affine(node.c * node.a, node.c * node.b + node.d,
                                  child, precision)
            return body
        if node.c == 1.0:
            term = body
        elif node.c == -1.0:
            term = f"-{body}"
        else:
            term = f"{_fmt(node.c, precision)}*{body}"
        if node.d != 0.0 and _fmt(node.d, precision) != "0":
            sign = " + " if node.d > 0 else " - "
            term = f"{term}{sign}{_fmt(abs(node.d), precision)}"
        return term
    if isinstance(node, Sum):
        parts = [_render(t, precision) for t in node.terms]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += f" - {p[1:]}"
            else:
                out += f" + {p}"
        return out
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


def print_expression(tree, precision: int = 6) -> str:
    """Deterministic infix rendering after constant folding."""
    if precision < 1:
        raise InvalidArgumentError("precision must be >= 1")
    return _render(fold(tree), precision)


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
        ok = np.asarray(cand.domain(u))
        if not np.all(ok):
            raise DomainViolationError(
                f"{node.name} undefined at argument {u[~ok][:1]}", node_path=path)
        with np.errstate(all="ignore"):
            val = cand.fn(u)
        return node.c * val + node.d
    if isinstance(node, Sum):
        total = np.zeros(xmat.shape[0])
        for k, t in enumerate(node.terms):
            total = total + _eval(t, xmat, f"{path}.terms[{k}]")
        return total
    raise InvalidArgumentError(f"unknown node type {type(node)!r}")


# --------------------------------------------------------------------------
# Parsing (grammar: numbers, variables, + - * / ^, library function names)
# --------------------------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(("num", float(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ExpressionParseError(f"unexpected character {ch!r} at {i}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, want):
        tok = self.take()
        if tok != want:
            raise ExpressionParseError(f"expected {want!r}, got {tok!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionParseError(f"trailing tokens at {self.pos}")
        return node

    def expr(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            if op == "-":
                t = _negate(t)
            terms.append(t)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = _multiply(node, rhs) if op == "*" else _divide(node, rhs)
        return node

    def factor(self):
        node = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            neg = False
            if tok == "-":
                neg = True
                tok = self.take()
            if not (isinstance(tok, tuple) and tok[0] == "num"):
                raise ExpressionParseError("exponent must be a number")
            power = int(tok[1])
            if power not in (1, 2, 3, 4):
                raise ExpressionParseError(f"unsupported exponent {power}")
            if power > 1:
                node = Unary(f"x^{power}", 1.0, 0.0, 1.0, 0.0, node)
            if neg:
                node = _divide(Const(1.0), node)
        return node

    def atom(self):
        tok = self.take()
        if tok == "-":
            return _negate(self.factor())
        if tok == "+":
            return self.factor()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            return Const(tok[1])
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if self.peek() == "(":
                self.take()
                arg = self.expr()
                self.expect(")")
                candidate_by_name(name)  # raises for unknown functions
                return Unary(name, 1.0, 0.0, 1.0, 0.0, arg)
            if name == "x":
                return Var(0)
            if name.startswith("x") and name[1:].isdigit():
                return Var(int(name[1:]) - 1)
            raise ExpressionParseError(f"unknown token {name!r}")
        raise ExpressionParseError(f"unexpected token {tok!r}")


def _negate(node):
    return _scale(node, -1.0)


def _scale(node, k: float):
    if isinstance(node, Const):
        return Const(k * node.value)
    if isinstance(node, Unary):
        return Unary(node.name, node.a, node.b, k * node.c, k * node.d,
                     node.child)
    if isinstance(node, Sum):
        return Sum(tuple(_scale(t, k) for t in node.terms))
    return Unary("x", 1.0, 0.0, k, 0.0, node)


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
    recip = Unary("1/x", 1.0, 0.0, 1.0, 0.0, rhs)
    return _multiply(lhs, recip)


def parse_expression(text: str):
    """Parse the grammar emitted by print_expression into a tree."""
    return _Parser(_tokenize(text)).parse()
