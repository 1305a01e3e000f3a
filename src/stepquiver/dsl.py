"""The integrand expression language of the CLI.

Grammar over the variable ``t``::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-"* power
    power  := atom ["^" exponent]
    exponent := ["-"] INT | "(" ["-"] INT "/" INT ")"
    atom   := NUMBER | "t" | "(" expr ")" | "sqrt" "(" expr ")"
              | "indicator" "(" SNUM "," SNUM ")"

There are deliberately no transcendental primitives: logarithms and the
circular functions are outputs of the integrator, never inputs.  A number
literal must be a finite float: ``1e400`` is a ``DslSyntaxError`` at its
position.  So must an exponent's ``num / den``: ``t^`` followed by 400
digits is a ``DslSyntaxError`` at the exponent.  ``(`` and ``sqrt(`` nest
at most ``MAX_NESTING`` = 100 deep; the opening token past that is a
``DslSyntaxError`` at its own position.

An expression compiles to one postorder tape (a Wengert list): the parser
emits each instruction as it finishes reading it, ``FnExpr.__call__`` runs
the tape in one loop over a value stack, and :func:`step_literal` and
:func:`monotone_pieces` read it in one forward pass.  Nothing walks a tree,
so no expression, however long, raises ``RecursionError``.  Evaluation is
numpy-aware; invalid points (division by zero, negative radicands) yield
non-finite values rather than exceptions.

The ``.qv`` quiver format lives in :mod:`stepquiver.qv`, which loads no
numpy.  Both parsers take their token cursor from :mod:`stepquiver.errors`,
so this module loads no quiver code.
"""

from __future__ import annotations

import math
import operator
import re
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainAnnotationMissingError, DslSyntaxError, _TokenCursor
from .integrate import _Evaluator, _monotone_runs
from .measure import Interval, box1, make_interval
from .stepfn import StepFunction, _build

TRUNCATE_EPS = 1e-8
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# integrand expressions
# ---------------------------------------------------------------------------

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_BINARY = {**_FOLD, "/": np.true_divide}


@dataclass(frozen=True)
class FnExpr:
    """A parsed expression: a postorder tape of ``(opcode, argument)`` pairs.

    The opcodes are ``"num"`` (a float), ``"t"``, ``"ind"`` (the bounds
    ``(lo, hi)``), the binary ``"+" "-" "*" "/"``, ``"neg"``, ``"sqrt"``,
    ``"^"`` (an integer ``k`` in 1 … 4) and ``"pow"`` (a float exponent).
    """

    tape: tuple

    def __call__(self, t):
        """The value at ``t``, a float or an ndarray of points.

        A number is pushed as its float.  A binary op whose other operand
        is not a number takes it as that float: numpy applies the same IEEE
        operation to each point, so the values are bit for bit those of an
        ``np.full`` array, without building and reading it.  Everywhere else
        a number becomes an ``np.full`` array first.  ``t^1`` … ``t^4`` are
        ``k - 1`` multiplications, within 2 ulps of ``np.power`` at a third
        of its cost; every other exponent goes to ``np.power``.
        """
        x = np.asarray(t, dtype=float)
        stack = []
        for op, arg in self.tape:
            if op == "num":
                stack.append(arg)
            elif op == "t":
                stack.append(x)
            elif op in _BINARY:
                b = stack.pop()
                a = stack[-1]
                if type(a) is float and type(b) is float:
                    a, b = np.full(x.shape, a), np.full(x.shape, b)
                stack[-1] = _BINARY[op](a, b)
            elif op == "ind":
                stack.append(((x >= arg[0]) & (x <= arg[1])).astype(float))
            else:
                a = stack[-1]
                if type(a) is float:
                    a = np.full(x.shape, a)
                if op == "sqrt":
                    a = np.sqrt(a)
                elif op == "neg":
                    a = -a
                elif op == "pow":
                    a = np.power(a, arg)
                else:
                    b = a
                    for _ in range(arg - 1):
                        a = a * b
                stack[-1] = a
        top = stack[0]
        return np.full(x.shape, top) if type(top) is float else top


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
    """Expressions are one line: a position is the offset plus one.  Each
    method appends the instructions of what it reads to ``tape``."""

    def __init__(self, text: str):
        toks, self.starts = _tokenize_fn(text)
        super().__init__(toks)
        self.tape = []
        self.depth = 0

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
        self.expr()
        if self.pos != len(self.toks):
            self._err("end of input")
        return FnExpr(tuple(self.tape))

    def expr(self) -> None:
        self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            self.term()
            self.tape.append((op, None))

    def term(self) -> None:
        self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            self.unary()
            self.tape.append((op, None))

    def unary(self) -> None:
        negations = 0
        while self.peek() == "-":
            self.pos += 1
            negations += 1
        self.power()
        self.tape.extend([("neg", None)] * negations)

    def power(self) -> None:
        self.atom()
        if self.peek() == "^":
            self.take()
            self.tape.append(self.exponent())

    def _int(self, what: str) -> str:
        """The signed digits at the cursor, read as an int by the caller."""
        sign = ""
        if self.peek() == "-":
            sign = self.take()
        tok = self.peek()
        if tok is None or not tok.isdecimal():  # the digits \d matches
            self._err(what)
        return sign + self.take()

    def exponent(self) -> tuple:
        """The instruction for the exponent at the cursor; its ``num / den``
        must be a finite float, or it is an error at its first token."""
        first = self.pos
        den = "1"
        if self.peek() == "(":
            self.take()
            num = self._int("integer numerator")
            self.take("/")
            den = self._int("integer denominator")
            self.take(")")
        else:
            num = self._int("integer exponent")
        try:
            num, den = int(num), int(den)  # ValueError past Python's digit limit
            if den == 1 and 1 <= num <= 4:
                return ("^", num)
            return ("pow", num / den)
        except ZeroDivisionError:
            what = "nonzero denominator"
        except (ValueError, OverflowError):
            what = "a finite exponent"
        raise DslSyntaxError(1, self.starts[first] + 1, what,
                             "".join(self.toks[first:self.pos]))

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

    def atom(self) -> None:
        tok = self.peek()
        if tok is None:
            self._err("expression")
        if tok in ("(", "sqrt"):
            if self.depth == MAX_NESTING:
                self._err(f"at most {MAX_NESTING} nested parentheses")
            self.depth += 1
            self.take()
            if tok == "sqrt":
                self.take("(")
            self.expr()
            self.take(")")
            self.depth -= 1
            if tok == "sqrt":
                self.tape.append(("sqrt", None))
        elif tok == "t":
            self.take()
            self.tape.append(("t", None))
        elif tok == "indicator":
            self.take()
            self.take("(")
            lo = self._signed_number("lower bound")
            self.take(",")
            hi = self._signed_number("upper bound")
            self.take(")")
            self.tape.append(("ind", (lo, hi)))
        elif tok[0] in _FN_NAME_START:
            self._err("t, sqrt, indicator, or a number")
        else:
            self.tape.append(("num", self._number("number")))


def parse_fn_expr(text: str) -> FnExpr:
    """Parse the integrand mini-language; see the module docstring."""
    return _FnParser(text).parse()


# ---------------------------------------------------------------------------
# static analysis of expressions
# ---------------------------------------------------------------------------

def _first_reversed(v) -> tuple:
    """The first reversed indicator ``(lo, hi)`` a reading reaches, or ()."""
    if type(v) is list:
        return next((iv for _, iv in v if iv is not None and iv[0] > iv[1]), ())
    return v if type(v) is tuple else ()


def _terms(v) -> list:
    return v if type(v) is list else [(v, None)]


def _combine(op: str, a, b):
    """The reading of ``a op b``.  A reading is a constant (a float), a
    list of ``(coef, (lo, hi) or None)`` terms, or, for neither, a tuple:
    the first reversed indicator that it passes on, or ()."""
    if type(a) is float and type(b) is float and not (op == "/" and b == 0.0):
        return _FOLD[op](a, b)
    if op in ("+", "-"):
        if type(a) is tuple or type(b) is tuple:
            return _first_reversed(a) or _first_reversed(b)
        sign = 1.0 if op == "+" else -1.0
        out = _terms(a)    # the left reading is consumed, so it may grow in place
        out.extend((sign * k, iv) for k, iv in _terms(b))
        return out
    if op == "*" and float in (type(a), type(b)):
        c, other = (a, b) if type(a) is float else (b, a)
        return other if type(other) is tuple else [(c * k, iv) for k, iv in other]
    if op == "/" and type(b) is float and b != 0.0:
        return a if type(a) is tuple else [(k / b, iv) for k, iv in a]
    return ()


def step_literal(e: FnExpr) -> Optional[StepFunction]:
    """The expression as a step function, when it is structurally one.

    Recognizes constant linear combinations of ``indicator(a,b)`` terms;
    anything else (including nonzero bare constants, which have no finite
    ambient) returns None and callers fall back to numeric evaluation.
    One forward pass over the tape reads each stack entry as a constant, a
    list of linear terms in term order, or neither (see :func:`_combine`);
    a reversed indicator that a linear reading reaches is an error.  The
    function is built in one cut on the terms' endpoints, each cell summing
    the coefficients of the terms that cover it in term order.
    """
    stack = []
    for op, arg in e.tape:
        if op == "num":
            stack.append(arg)
        elif op == "ind":
            stack.append([(1.0, arg)])
        elif op in _BINARY:
            b = stack.pop()
            stack.append(_combine(op, stack.pop(), b))
        elif op == "neg":
            a = stack.pop()
            if type(a) is list:
                a = [(-k, iv) for k, iv in a]
            stack.append(-a if type(a) is float else a)
        else:
            if op != "t":
                stack.pop()
            stack.append(())
    top = stack[0]
    if type(top) is not list:
        if type(top) is tuple and top:
            make_interval(*top)  # raises OrderViolationError
        return None
    terms = [(k, None if iv is None else make_interval(*iv)) for k, iv in top]
    intervals = [iv for _, iv in terms if iv is not None]
    if not intervals or any(k != 0.0 and iv is None for k, iv in terms):
        return None
    ambient = box1(min(iv.lo for iv in intervals), max(iv.hi for iv in intervals))
    ends = np.array([(iv.lo, iv.hi) for iv in intervals])
    # a non-finite cell is reported by _build, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        return _build(ambient, ends[:, :1], ends[:, 1:],
                      np.array([k for k, iv in terms if iv is not None], dtype=float), "sum")


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

    Cuts at indicator bounds (statically known jump points), then splits
    every chunk at its sampled turns in one :func:`_monotone_runs` call:
    one evaluator call for the samples of all chunks, one per ternary step.
    Returns None when the sampled picture is too oscillatory to trust; the
    integrator then treats the domain as one piece and its own
    monotonicity check has the last word.
    """
    iv = make_interval(*((domain.lo, domain.hi) if isinstance(domain, Interval)
                         else tuple(domain)))
    cuts = {float(b) for op, arg in e.tape if op == "ind"
            for b in arg if iv.lo < b < iv.hi}
    pts = [iv.lo] + sorted(cuts) + [iv.hi]
    with np.errstate(all="ignore"):
        runs = _monotone_runs(_Evaluator(e), [(a, b, 1.0) for a, b in zip(pts, pts[1:]) if a < b])
    return None if runs is None else [Interval(a, b) for a, b, _ in runs]
