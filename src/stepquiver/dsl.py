"""The integrand expression language of the CLI.

Grammar over the variable ``t``::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ["^" exponent]
    exponent := ["-"] INT | "(" ["-"] INT "/" INT ")"
    atom   := NUMBER | "t" | "(" expr ")" | "sqrt" "(" expr ")"
              | "indicator" "(" SNUM "," SNUM ")"

There are deliberately no transcendental primitives: logarithms and the
circular functions are outputs of the integrator, never inputs.  A number
literal must be a finite float: ``1e400`` is a ``DslSyntaxError`` at its
position.  Evaluation is numpy-aware; invalid points (division by zero,
negative radicands) yield non-finite values rather than exceptions.

The ``.qv`` quiver format lives in :mod:`stepquiver.qv`, which loads no
numpy; the expression parser reuses its token cursor.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainAnnotationMissingError, DslSyntaxError
from .integrate import _Evaluator, _monotone_runs
from .measure import Interval, box1, make_interval
from .qv import _TokenCursor
from .stepfn import StepFunction, _from_cells

TRUNCATE_EPS = 1e-8


# ---------------------------------------------------------------------------
# integrand expressions
# ---------------------------------------------------------------------------

class FnExpr:
    """Base of the expression AST; subclasses implement ``__call__``."""


@dataclass(frozen=True)
class FnConst(FnExpr):
    value: float

    def __call__(self, t):
        return np.full(np.shape(t), self.value, dtype=float)


@dataclass(frozen=True)
class FnVar(FnExpr):
    def __call__(self, t):
        return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class FnNeg(FnExpr):
    arg: FnExpr

    def __call__(self, t):
        return -self.arg(t)


@dataclass(frozen=True)
class FnBin(FnExpr):
    """``left op right``.  When exactly one operand is an :class:`FnConst`
    it enters as its float, not as an ``np.full`` array: numpy applies the
    same IEEE operation to each point, so the values are bit for bit the
    same, without building and reading the array."""

    op: str
    left: FnExpr
    right: FnExpr

    def __call__(self, t):
        a, b = self.left, self.right
        if isinstance(a, FnConst) != isinstance(b, FnConst):
            a = a.value if isinstance(a, FnConst) else a(t)
            b = b.value if isinstance(b, FnConst) else b(t)
        else:
            a, b = a(t), b(t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return np.true_divide(a, b)


@dataclass(frozen=True)
class FnPow(FnExpr):
    """``base ^ (num / den)``.  The integer powers ``t^1`` … ``t^4`` are
    ``num - 1`` multiplications, within 2 ulps of ``np.power`` at a third
    of its cost; every other exponent goes to ``np.power``."""

    base: FnExpr
    num: int
    den: int

    def __call__(self, t):
        b = self.base(t)
        if self.den != 1 or not 1 <= self.num <= 4:
            return np.power(b, self.num / self.den)
        out = b
        for _ in range(self.num - 1):
            out = out * b
        return out


@dataclass(frozen=True)
class FnSqrt(FnExpr):
    arg: FnExpr

    def __call__(self, t):
        return np.sqrt(self.arg(t))


@dataclass(frozen=True)
class FnIndicator(FnExpr):
    lo: float
    hi: float

    def __call__(self, t):
        x = np.asarray(t, dtype=float)
        return ((x >= self.lo) & (x <= self.hi)).astype(float)


_FN_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\^|[()+\-*/,]))"
)
_FN_NAME_START = frozenset(string.ascii_letters + "_")
_FN_OPS = frozenset("()+-*/,^")


def _tokenize_fn(text: str) -> tuple[list[str], list[int]]:
    """The tokens of an expression and their offsets in ``text``."""
    toks, starts = [], []
    pos = 0
    while pos < len(text):
        m = _FN_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise DslSyntaxError(1, col, "expression token", rest[0])
        kind = m.lastgroup
        toks.append(m.group(kind))
        starts.append(m.start(kind))
        pos = m.end()
    return toks, starts


class _FnParser(_TokenCursor):
    """Expressions are one line: a position is the offset plus one."""

    def __init__(self, text: str):
        toks, self.starts = _tokenize_fn(text)
        super().__init__(toks)

    def _start(self, i: int) -> int:
        return self.starts[i]

    def _line_col(self, offset: int) -> tuple[int, int]:
        return 1, offset + 1

    def take(self, expected: Optional[str] = None) -> str:
        if self.pos >= len(self.toks) or (expected is not None
                                          and self.toks[self.pos] != expected):
            self._err(expected or "token")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse(self) -> FnExpr:
        e = self.expr()
        if self.pos != len(self.toks):
            self._err("end of input")
        return e

    def expr(self) -> FnExpr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            e = FnBin(op, e, self.term())
        return e

    def term(self) -> FnExpr:
        e = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            e = FnBin(op, e, self.unary())
        return e

    def unary(self) -> FnExpr:
        if self.peek() == "-":
            self.take()
            return FnNeg(self.unary())
        return self.power()

    def power(self) -> FnExpr:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            num, den = self.exponent()
            return FnPow(base, num, den)
        return base

    def _int(self, what: str) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok is None or not tok.isdecimal():  # the digits \d matches
            self._err(what)
        return sign * int(self.take())

    def exponent(self) -> tuple[int, int]:
        if self.peek() == "(":
            self.take()
            num = self._int("integer numerator")
            self.take("/")
            den = self._int("integer denominator")
            self.take(")")
            if den == 0:
                raise DslSyntaxError(1, 1, "nonzero denominator", "0")
            return num, den
        return self._int("integer exponent"), 1

    def _number(self, what: str) -> float:
        """The number literal at the cursor; one that overflows to ``inf``
        is an error at its own position."""
        tok = self.peek()
        if tok is None or tok[0] in _FN_NAME_START or tok in _FN_OPS:
            self._err(what)
        value = float(tok)
        if math.isinf(value):
            self._err(f"a finite {what}")
        self.pos += 1
        return value

    def _signed_number(self, what: str) -> float:
        sign = 1.0
        if self.peek() == "-":
            self.take()
            sign = -1.0
        return sign * self._number(what)

    def atom(self) -> FnExpr:
        tok = self.peek()
        if tok is None:
            self._err("expression")
        if tok == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok == "t":
            self.take()
            return FnVar()
        if tok == "sqrt":
            self.take()
            self.take("(")
            e = self.expr()
            self.take(")")
            return FnSqrt(e)
        if tok == "indicator":
            self.take()
            self.take("(")
            lo = self._signed_number("lower bound")
            self.take(",")
            hi = self._signed_number("upper bound")
            self.take(")")
            return FnIndicator(lo, hi)
        if tok[0] in _FN_NAME_START:
            self._err("t, sqrt, indicator, or a number")
        return FnConst(self._number("number"))


def parse_fn_expr(text: str) -> FnExpr:
    """Parse the integrand mini-language; see the module docstring."""
    return _FnParser(text).parse()


# ---------------------------------------------------------------------------
# static analysis of expressions
# ---------------------------------------------------------------------------

def _const_value(e: FnExpr, memo: dict) -> Optional[float]:
    """The value of a constant subexpression, else None; ``memo`` keeps
    each node's answer (by ``id``), so one decomposition is linear."""
    if id(e) in memo:
        return memo[id(e)]
    v = None
    if isinstance(e, FnConst):
        v = e.value
    elif isinstance(e, FnNeg):
        a = _const_value(e.arg, memo)
        v = None if a is None else -a
    elif isinstance(e, FnBin):
        a, b = _const_value(e.left, memo), _const_value(e.right, memo)
        if a is not None and b is not None and not (e.op == "/" and b == 0.0):
            v = {"+": a + b, "-": a - b, "*": a * b, "/": a / (b or 1.0)}[e.op]
    memo[id(e)] = v
    return v


def _linear_terms(e: FnExpr, memo: dict) -> Optional[list]:
    """Decompose into [(coef, Interval-or-None)] terms, or None if not a
    constant linear combination of indicators."""
    if isinstance(e, FnIndicator):
        return [(1.0, make_interval(e.lo, e.hi))]
    c = _const_value(e, memo)
    if c is not None:
        return [(c, None)]
    if isinstance(e, FnNeg):
        sub = _linear_terms(e.arg, memo)
        return None if sub is None else [(-k, iv) for k, iv in sub]
    if isinstance(e, FnBin):
        if e.op in ("+", "-"):
            left, right = _linear_terms(e.left, memo), _linear_terms(e.right, memo)
            if left is None or right is None:
                return None
            sign = 1.0 if e.op == "+" else -1.0
            return left + [(sign * k, iv) for k, iv in right]
        if e.op == "*":
            for const_side, other in ((e.left, e.right), (e.right, e.left)):
                c = _const_value(const_side, memo)
                if c is not None:
                    sub = _linear_terms(other, memo)
                    if sub is not None:
                        return [(c * k, iv) for k, iv in sub]
            return None
        if e.op == "/":
            c = _const_value(e.right, memo)
            if c is None or c == 0.0:
                return None
            sub = _linear_terms(e.left, memo)
            return None if sub is None else [(k / c, iv) for k, iv in sub]
    return None


def step_literal(e: FnExpr) -> Optional[StepFunction]:
    """The expression as a step function, when it is structurally one.

    Recognizes constant linear combinations of ``indicator(a,b)`` terms;
    anything else (including nonzero bare constants, which have no finite
    ambient) returns None and callers fall back to numeric evaluation.
    The function is built in one cut on the terms' endpoints, each cell
    summing the coefficients of the terms that cover it in term order.
    """
    terms = _linear_terms(e, {})
    if terms is None:
        return None
    intervals = [iv for _, iv in terms if iv is not None]
    if not intervals or any(k != 0.0 and iv is None for k, iv in terms):
        return None
    ambient = box1(min(iv.lo for iv in intervals), max(iv.hi for iv in intervals))
    xs = np.unique([x for iv in intervals for x in (iv.lo, iv.hi)])
    ys = np.zeros(len(xs) - 1)
    for k, iv in terms:
        if iv is not None:      # overlapping terms add up
            ys[np.searchsorted(xs, iv.lo):np.searchsorted(xs, iv.hi)] += k
    return _from_cells(ambient, xs, ys)


def _finite_at(e: FnExpr, x: float) -> bool:
    with np.errstate(all="ignore"):
        try:
            return bool(np.isfinite(float(e(x))))
        except (ValueError, ZeroDivisionError, OverflowError):
            return False


def ensure_proper(e: FnExpr, domain, truncate: bool = False) -> Interval:
    """Check the integrand is finite at both endpoints, shrinking by
    ``TRUNCATE_EPS`` per improper endpoint when ``truncate`` is set.

    Raises ``DomainAnnotationMissingError`` when an endpoint is improper and
    truncation is off (or fails to make it proper).
    """
    if isinstance(domain, Interval):
        lo, hi = domain.lo, domain.hi
    else:
        lo, hi = domain
    iv = make_interval(lo, hi)
    lo, hi = iv.lo, iv.hi
    for side, point in (("lower", lo), ("upper", hi)):
        if _finite_at(e, point):
            continue
        if not truncate:
            raise DomainAnnotationMissingError(
                f"integrand is non-finite at the {side} endpoint {point!r}; "
                "pass --truncate to shrink the domain by 1e-8"
            )
        if side == "lower":
            lo = lo + TRUNCATE_EPS
        else:
            hi = hi - TRUNCATE_EPS
    if not (lo < hi or lo == hi):
        raise DomainAnnotationMissingError(
            f"domain [{iv.lo!r}, {iv.hi!r}] vanished after truncation"
        )
    for side, point in (("lower", lo), ("upper", hi)):
        if not _finite_at(e, point):
            raise DomainAnnotationMissingError(
                f"integrand is still non-finite at the {side} endpoint "
                f"{point!r} after truncation"
            )
    return make_interval(lo, hi)


def monotone_pieces(e: FnExpr, domain) -> Optional[list]:
    """Best-effort monotone tiling of the domain for the Darboux integrator.

    Cuts at indicator bounds (statically known jump points), then refines
    each chunk by sampled direction changes.  Returns None when the sampled
    picture is too oscillatory to trust; the integrator then treats the
    domain as one piece and its own monotonicity check has the last word.
    """
    iv = make_interval(*((domain.lo, domain.hi) if isinstance(domain, Interval)
                         else tuple(domain)))
    cuts = set()

    def collect(node: FnExpr) -> None:
        if isinstance(node, FnIndicator):
            for b in (node.lo, node.hi):
                if iv.lo < b < iv.hi:
                    cuts.add(float(b))
        elif isinstance(node, FnNeg):
            collect(node.arg)
        elif isinstance(node, FnBin):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, (FnSqrt, FnPow)):
            collect(node.arg if isinstance(node, FnSqrt) else node.base)

    collect(e)
    pts = [iv.lo] + sorted(cuts) + [iv.hi]
    ev = _Evaluator(e)
    pieces = []
    with np.errstate(all="ignore"):
        for a, b in zip(pts, pts[1:]):
            if a == b:
                continue
            runs = _monotone_runs(ev, make_interval(a, b))
            if runs is None:
                return None
            pieces.extend(runs)
    return pieces
