"""Text formats: the quiver DSL and the integrand expression language.

Quiver DSL grammar (whitespace-insensitive, ``#`` starts a line comment)::

    quiver   := "quiver" IDENT "{" clauses "}"
    clauses  := "vertices:" IDENT+ ["arrows:" arrow ("," arrow)*]
                ["relations:" rel ("," rel)*]
    arrow    := IDENT ":" IDENT "->" IDENT
    rel      := IDENT "*" IDENT
    IDENT    := [A-Za-z0-9_]+

``quiver``, ``vertices``, ``arrows`` and ``relations`` are reserved words.
A present clause must be nonempty; quivers without arrows or relations omit
the clause.  Relation paths longer than two arrows are rejected
(``NonQuadraticRelationError``) since the relation ideals here are
quadratic monomial.  ``emit_dsl`` produces a canonical form — name order is
by (length, string) so numeric labels sort naturally — and
``parse_quiver_dsl(emit_dsl(doc)) == doc``.

Expression grammar over the variable ``t``::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ["^" exponent]
    exponent := ["-"] INT | "(" ["-"] INT "/" INT ")"
    atom   := NUMBER | "t" | "(" expr ")" | "sqrt" "(" expr ")"
              | "indicator" "(" SNUM "," SNUM ")"

There are deliberately no transcendental primitives: logarithms and the
circular functions are outputs of the integrator, never inputs.
Evaluation is numpy-aware; invalid points (division by zero, negative
radicands) yield non-finite values rather than exceptions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    DomainAnnotationMissingError,
    DslSyntaxError,
    NonQuadraticRelationError,
)
from .integrate import _Evaluator, _monotone_runs
from .measure import Interval, box1, make_interval
from .quiver import Arrow, GentlePresentation, Quiver
from .stepfn import StepFunction, indicator, linear_combine, zero_function

RESERVED = ("quiver", "vertices", "arrows", "relations")

TRUNCATE_EPS = 1e-8


def _natural_key(name: str):
    return (len(name), name)


# ---------------------------------------------------------------------------
# quiver documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuiverDoc:
    """A named quiver presentation in canonical order."""

    name: str
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(sorted(set(self.vertices), key=_natural_key)))
        object.__setattr__(self, "arrows",
                           tuple(sorted((Arrow(*a) for a in self.arrows),
                                        key=lambda a: _natural_key(a.name))))
        rels = {(str(a), str(b)) for a, b in self.relations}
        object.__setattr__(self, "relations",
                           tuple(sorted(rels, key=lambda r: (_natural_key(r[0]),
                                                             _natural_key(r[1])))))
        self.quiver()  # validates vertex references and arrow-name uniqueness

    def quiver(self) -> Quiver:
        return Quiver(self.vertices, self.arrows)


def doc_from_presentation(name: str, p: GentlePresentation) -> QuiverDoc:
    return QuiverDoc(name, p.quiver.vertices, p.quiver.arrows,
                     tuple(sorted(p.relations)))


_QV_TOKEN = re.compile(r"->|[{}:,*]|[A-Za-z0-9_]+|\S")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize_qv(text: str) -> list[_Tok]:
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _QV_TOKEN.finditer(line):
            t = m.group(0)
            if t in "{}:,*" or t == "->" or re.fullmatch(r"[A-Za-z0-9_]+", t):
                toks.append(_Tok(t, ln, m.start() + 1))
            else:
                raise DslSyntaxError(ln, m.start() + 1, "token", t)
    return toks


class _TokenCursor:
    """Position in a token list; errors point at the offending token, or
    just past the last one at end of input."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def _err(self, expected: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise DslSyntaxError(t.line, t.col, expected, t.text)
        last = self.toks[-1] if self.toks else _Tok("", 1, 1)
        raise DslSyntaxError(last.line, last.col + len(last.text), expected,
                             "end of input")

    def peek(self) -> Optional[str]:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None


class _QvParser(_TokenCursor):
    def __init__(self, text: str):
        super().__init__(_tokenize_qv(text))

    def peek2(self) -> Optional[str]:
        return self.toks[self.pos + 1].text if self.pos + 1 < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> _Tok:
        if self.pos >= len(self.toks) or (expected is not None
                                          and self.toks[self.pos].text != expected):
            self._err(expected or "token")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def ident(self, what: str) -> str:
        t = self.peek()
        if t is None or not re.fullmatch(r"[A-Za-z0-9_]+", t) or t in RESERVED:
            self._err(what)
        return self.take().text

    def _at_clause(self, keyword: str) -> bool:
        return self.peek() == keyword and self.peek2() == ":"

    def parse(self) -> QuiverDoc:
        self.take("quiver")
        name = self.ident("quiver name")
        self.take("{")
        self.take("vertices")
        self.take(":")
        vertices = []
        while self.peek() not in (None, "}") and not (
                self._at_clause("arrows") or self._at_clause("relations")):
            vertices.append(self.ident("vertex name"))
        if not vertices:
            self._err("vertex name")
        arrows: list[Arrow] = []
        if self._at_clause("arrows"):
            self.take("arrows")
            self.take(":")
            while True:
                nm = self.ident("arrow declaration")
                self.take(":")
                src = self.ident("source vertex")
                self.take("->")
                dst = self.ident("target vertex")
                arrows.append(Arrow(nm, src, dst))
                if self.peek() == ",":
                    self.take(",")
                else:
                    break
        relations: list[tuple[str, str]] = []
        if self._at_clause("relations"):
            self.take("relations")
            self.take(":")
            while True:
                path = [self.ident("relation path")]
                while self.peek() == "*":
                    self.take("*")
                    path.append(self.ident("relation path"))
                if len(path) != 2:
                    raise NonQuadraticRelationError(
                        f"relation {'*'.join(path)} has length {len(path)}, not 2"
                    )
                relations.append((path[0], path[1]))
                if self.peek() == ",":
                    self.take(",")
                else:
                    break
        self.take("}")
        if self.pos != len(self.toks):
            self._err("end of input")
        return QuiverDoc(name, tuple(vertices), tuple(arrows), tuple(relations))


def parse_quiver_dsl(text: str) -> QuiverDoc:
    """Parse the quiver DSL into a canonical ``QuiverDoc``.

    Raises ``DslSyntaxError`` (with line/column and what was expected) on
    malformed input, ``NonQuadraticRelationError`` on relation paths of
    length other than two, and the ``UnknownVertexError`` /
    ``DuplicateArrowError`` of quiver construction on bad references.
    """
    return _QvParser(text).parse()


def emit_dsl(doc: QuiverDoc) -> str:
    lines = [f"quiver {doc.name} {{"]
    lines.append("  vertices: " + " ".join(doc.vertices))
    if doc.arrows:
        decls = ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in doc.arrows)
        lines.append("  arrows: " + decls)
    if doc.relations:
        lines.append("  relations: " + ", ".join(f"{a}*{b}" for a, b in doc.relations))
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def _tokenize_fn(text: str) -> list[_Tok]:
    toks = []
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
        toks.append(_Tok(m.group(kind), 1, m.start(kind) + 1))
        pos = m.end()
    return toks


class _FnParser(_TokenCursor):
    def __init__(self, text: str):
        super().__init__(_tokenize_fn(text))

    def take(self, expected: Optional[str] = None) -> str:
        if self.pos >= len(self.toks) or (expected is not None
                                          and self.toks[self.pos].text != expected):
            self._err(expected or "token")
        t = self.toks[self.pos].text
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
        if tok is None or not re.fullmatch(r"\d+", tok):
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

    def _signed_number(self, what: str) -> float:
        sign = 1.0
        if self.peek() == "-":
            self.take()
            sign = -1.0
        tok = self.peek()
        if tok is None or re.fullmatch(r"[A-Za-z_].*|[()+\-*/,^]", tok):
            self._err(what)
        return sign * float(self.take())

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
        if re.fullmatch(r"[A-Za-z_].*", tok):
            self._err("t, sqrt, indicator, or a number")
        try:
            return FnConst(float(self.take()))
        except ValueError:
            self._err("number")


def parse_fn_expr(text: str) -> FnExpr:
    """Parse the integrand mini-language; see the module docstring."""
    return _FnParser(text).parse()


# ---------------------------------------------------------------------------
# static analysis of expressions
# ---------------------------------------------------------------------------

def _const_value(e: FnExpr) -> Optional[float]:
    if isinstance(e, FnConst):
        return e.value
    if isinstance(e, FnNeg):
        v = _const_value(e.arg)
        return None if v is None else -v
    if isinstance(e, FnBin):
        a, b = _const_value(e.left), _const_value(e.right)
        if a is None or b is None:
            return None
        if e.op == "/" and b == 0.0:
            return None
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / (b or 1.0)}[e.op]
    return None


def _linear_terms(e: FnExpr) -> Optional[list]:
    """Decompose into [(coef, Interval-or-None)] terms, or None if not a
    constant linear combination of indicators."""
    if isinstance(e, FnIndicator):
        return [(1.0, make_interval(e.lo, e.hi))]
    c = _const_value(e)
    if c is not None:
        return [(c, None)]
    if isinstance(e, FnNeg):
        sub = _linear_terms(e.arg)
        return None if sub is None else [(-k, iv) for k, iv in sub]
    if isinstance(e, FnBin):
        if e.op in ("+", "-"):
            left, right = _linear_terms(e.left), _linear_terms(e.right)
            if left is None or right is None:
                return None
            sign = 1.0 if e.op == "+" else -1.0
            return left + [(sign * k, iv) for k, iv in right]
        if e.op == "*":
            for const_side, other in ((e.left, e.right), (e.right, e.left)):
                c = _const_value(const_side)
                if c is not None:
                    sub = _linear_terms(other)
                    if sub is not None:
                        return [(c * k, iv) for k, iv in sub]
            return None
        if e.op == "/":
            c = _const_value(e.right)
            if c is None or c == 0.0:
                return None
            sub = _linear_terms(e.left)
            return None if sub is None else [(k / c, iv) for k, iv in sub]
    return None


def step_literal(e: FnExpr) -> Optional[StepFunction]:
    """The expression as a step function, when it is structurally one.

    Recognizes constant linear combinations of ``indicator(a,b)`` terms;
    anything else (including nonzero bare constants, which have no finite
    ambient) returns None and callers fall back to numeric evaluation.
    """
    terms = _linear_terms(e)
    if terms is None:
        return None
    intervals = [iv for _, iv in terms if iv is not None]
    if not intervals or any(k != 0.0 and iv is None for k, iv in terms):
        return None
    ambient = box1(min(iv.lo for iv in intervals), max(iv.hi for iv in intervals))
    f = zero_function(ambient)
    for k, iv in terms:
        if iv is not None:      # overlapping terms add up
            f = linear_combine(1.0, f, k, indicator(iv, ambient))
    return f


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
