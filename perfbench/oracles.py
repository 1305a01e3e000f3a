"""Independent references for every result the benchmark checks.

Nothing here imports ``stepquiver``.  Step functions are exact integer
grids with ``Fraction`` values, real constants come from ``decimal`` at
50 digits, and quiver answers come from a plain path scanner over
(name, source, target) triples and relation pairs.
"""

from __future__ import annotations

import bisect
import functools
import re
from decimal import Decimal, localcontext
from fractions import Fraction

PREC = 50


# ---------------------------------------------------------------------------
# one-dimensional step functions on the grid 2**-GRID_BITS
# ---------------------------------------------------------------------------

GRID_BITS = 14
GRID = 1 << GRID_BITS


def canonical(pieces):
    """Sorted ``[(lo, hi, value)]`` with zeros dropped and equal neighbours
    merged; ``lo``/``hi`` are grid integers, values are exact."""
    out = []
    for lo, hi, v in sorted(pieces):
        if v == 0 or lo == hi:
            continue
        if out and out[-1][1] == lo and out[-1][2] == v:
            out[-1] = (out[-1][0], hi, v)
        else:
            out.append((lo, hi, v))
    return out


def combine(a, f, b, g):
    """``a*f + b*g`` for two canonical piece lists."""
    cuts = sorted({p for lo, hi, _ in f + g for p in (lo, hi)})
    fv, gv = _sweep(f, cuts), _sweep(g, cuts)
    return canonical((x0, x1, a * u + b * w)
                     for x0, x1, u, w in zip(cuts, cuts[1:], fv, gv))


def _sweep(f, cuts):
    """Value of ``f`` on each open cell between consecutive cuts."""
    out, i = [], 0
    for x0 in cuts[:-1]:
        while i < len(f) and f[i][1] <= x0:
            i += 1
        out.append(f[i][2] if i < len(f) and f[i][0] <= x0 else 0)
    return out


def value_at(f, x0, x1):
    """Value of ``f`` on the open cell ``(x0, x1)`` (cell inside one piece)."""
    i = bisect.bisect_right([lo for lo, _, _ in f], x0) - 1
    if i >= 0 and f[i][0] <= x0 and x1 <= f[i][1]:
        return f[i][2]
    return 0


def restrict(f, lo, hi):
    return canonical((max(a, lo), min(b, hi), v) for a, b, v in f
                     if min(b, hi) > max(a, lo))


def integral(f, lo=0, hi=GRID, grid=GRID):
    """Exact ``∫_[lo,hi] f`` in ambient units, for pieces on the grid
    ``1/grid`` (grid integers in, Fraction out)."""
    return sum((Fraction(min(b, hi) - max(a, lo), grid) * v
                for a, b, v in f if min(b, hi) > max(a, lo)), Fraction(0))


def union(intervals):
    """Merged union of grid intervals ``[(lo, hi)]``."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def grid_int(x: float) -> int:
    """A float that must be a grid point, as its grid integer."""
    n = Fraction(x) * GRID
    if n.denominator != 1:
        raise ValueError(f"{x!r} is off the 2**-{GRID_BITS} grid")
    return int(n)


def sqrt_fraction(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def close_rel(got: float, ref, rel: float) -> bool:
    """``|got - ref| <= rel * |ref|`` in exact arithmetic (ref Decimal/Fraction)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        ref = ref if isinstance(ref, Decimal) else (
            Decimal(ref.numerator) / Decimal(ref.denominator))
        return abs(Decimal(got) - ref) <= Decimal(rel) * abs(ref)


# ---------------------------------------------------------------------------
# real constants at PREC digits
# ---------------------------------------------------------------------------

def _dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def _atan_small(x: Decimal) -> Decimal:
    # Taylor series; callers keep |x| <= 0.25
    term, total, k, x2 = x, x, 1, x * x
    eps = Decimal(10) ** -(PREC + 5)
    while abs(term) > eps:
        term = -term * x2
        k += 2
        total += term / k
    return total


@functools.lru_cache(maxsize=None)
def pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        return 16 * _atan_small(Decimal(1) / 5) - 4 * _atan_small(Decimal(1) / 239)


def atan(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        x = _dec(x)
        if x == 0:
            return Decimal(0)
        sign = -1 if x < 0 else 1
        x = abs(x)
        if x > 1:
            return sign * (pi() / 2 - atan(1 / x))
        halvings = 0
        while x > Decimal("0.25"):   # atan x = 2 atan(x / (1 + sqrt(1 + x²)))
            x = x / (1 + (1 + x * x).sqrt())
            halvings += 1
        return sign * (2 ** halvings) * _atan_small(x)


def asin(y) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        y = _dec(y)
        if abs(y) == 1:
            return y * pi() / 2
        return atan(y / (1 - y * y).sqrt())


def acos(y) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        return pi() / 2 - asin(y)


def _sin_cos(x) -> tuple[Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec = PREC + 20
        x = _dec(x)
        two_pi = 2 * pi()
        x = x - two_pi * (x / two_pi).to_integral_value()
        eps = Decimal(10) ** -(PREC + 10)
        s, c = Decimal(0), Decimal(0)
        term, k = Decimal(1), 0          # term = x**k / k!
        while abs(term) > eps or k < 4:
            if k % 4 == 0:
                c += term
            elif k % 4 == 1:
                s += term
            elif k % 4 == 2:
                c -= term
            else:
                s -= term
            k += 1
            term = term * x / k
        return s, c


def sin(x) -> Decimal:
    return _sin_cos(x)[0]


def cos(x) -> Decimal:
    return _sin_cos(x)[1]


def ln(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return _dec(x).ln()


def exp(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return _dec(x).exp()


def sqrt(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return _dec(x).sqrt()


def contains(lower: float, upper: float, ref) -> bool:
    """Strict containment of an exact value; the float bounds are read
    exactly, with no ulp widening."""
    ref = ref if isinstance(ref, (Decimal, Fraction)) else Fraction(ref)
    if isinstance(ref, Fraction):
        return Fraction(lower) <= ref <= Fraction(upper)
    return Decimal(lower) <= ref <= Decimal(upper)


# ---------------------------------------------------------------------------
# quivers: a plain path scanner and the .qv text format
# ---------------------------------------------------------------------------

class Pres:
    """Plain presentation data: vertex names, (name, src, tgt) arrows and a
    set of relation pairs."""

    def __init__(self, name, vertices, arrows, relations):
        self.name = name
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.relations = set(relations)

    def succ(self, in_ideal: bool) -> dict:
        out = {a: [] for a, _, _ in self.arrows}
        by_src = {}
        for a, s, _ in self.arrows:
            by_src.setdefault(s, []).append(a)
        for a, _, t in self.arrows:
            for b in by_src.get(t, ()):
                if ((a, b) in self.relations) == in_ideal:
                    out[a].append(b)
        return out


def has_cycle(succ: dict) -> bool:
    """Kahn's algorithm: a cycle remains iff some node is never freed."""
    indeg = {a: 0 for a in succ}
    for bs in succ.values():
        for b in bs:
            indeg[b] += 1
    ready = [a for a, d in indeg.items() if d == 0]
    freed = 0
    while ready:
        a = ready.pop()
        freed += 1
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return freed != len(succ)


def threads(p: Pres, in_ideal: bool) -> list[tuple[str, ...]]:
    """All maximal chains of the pair predicate, by explicit-stack walks
    from every chain start (callers check ``has_cycle`` first)."""
    succ = p.succ(in_ideal)
    has_pred = {b for bs in succ.values() for b in bs}
    out = []
    for start in (a for a in succ if a not in has_pred):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            nxt = succ[path[-1]]
            if not nxt:
                out.append(path)
            for b in nxt:
                stack.append(path + (b,))
    return sorted(out)


def violations(p: Pres) -> list[str]:
    """Condition labels ('1', '2', '3') the gentle-pair rules report, one
    per offending (vertex, witness)."""
    ins_of, outs_of = {}, {}
    for a, s, t in p.arrows:
        outs_of.setdefault(s, []).append(a)
        ins_of.setdefault(t, []).append(a)
    out = []
    for v in p.vertices:
        ins, outs = ins_of.get(v, []), outs_of.get(v, [])
        if len(ins) > 2:
            out.append("1")
        if len(outs) > 2:
            out.append("1")
        if len(ins) == 2:
            for b in outs:
                if ((ins[0], b) in p.relations) == ((ins[1], b) in p.relations):
                    out.append("2")
        if len(outs) == 2:
            for a in ins:
                if ((a, outs[0]) in p.relations) == ((a, outs[1]) in p.relations):
                    out.append("3")
    return sorted(out)


def koszul(p: Pres) -> Pres:
    arrows = [(a, t, s) for a, s, t in p.arrows]
    rels = {(b, a) for a, bs in p.succ(False).items() for b in bs}
    return Pres(p.name + "_dual", p.vertices, arrows, rels)


def expect(p: Pres) -> dict:
    """What every quiver entry point must do on ``p``.

    ``status`` is 'not_gentle', 'infinite_dim' (validation raises),
    'infinite_gldim' (forbidden threads and gl.dim raise) or 'ok'.
    """
    viol = violations(p)
    if viol:
        return {"status": "not_gentle", "violations": viol}
    if has_cycle(p.succ(False)):
        return {"status": "infinite_dim"}
    dual = koszul(p)
    perm = threads(p, False)
    if has_cycle(p.succ(True)):
        return {"status": "infinite_gldim", "permitted": perm, "dual": dual}
    forb = threads(p, True)
    return {"status": "ok", "forbidden": forb, "permitted": perm, "dual": dual,
            "gldim": max((len(t) for t in forb), default=0)}


def same_presentation(doc, p: Pres) -> bool:
    """``doc`` (a ``Pres`` or a parsed package document) has the vertices,
    arrows and relations of ``p``, in any order."""
    return (set(doc.vertices) == set(p.vertices)
            and {tuple(a) for a in doc.arrows} == set(p.arrows)
            and {tuple(r) for r in doc.relations} == p.relations)


def within(value: float, ref: Fraction, tol: float) -> bool:
    """``|value - ref| <= tol``, exactly."""
    return abs(Fraction(value) - ref) <= Fraction(tol)


def emit_qv(p: Pres) -> str:
    lines = [f"quiver {p.name} {{", "  vertices: " + " ".join(p.vertices)]
    if p.arrows:
        lines.append("  arrows: " + ", ".join(f"{a}: {s} -> {t}" for a, s, t in p.arrows))
    if p.relations:
        lines.append("  relations: " + ", ".join(f"{a}*{b}" for a, b in sorted(p.relations)))
    return "\n".join(lines + ["}"]) + "\n"


_CLAUSE = re.compile(r"(vertices|arrows|relations)\s*:")


def parse_qv(text: str) -> Pres:
    """Reader for the well-formed .qv files the benchmark feeds or gets back."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = re.match(r"\s*quiver\s+(\w+)\s*\{(.*)\}\s*$", text, re.S)
    if m is None:
        raise ValueError("not a .qv document")
    name, body = m.group(1), m.group(2)
    parts = _CLAUSE.split(body)[1:]
    clauses = dict(zip(parts[0::2], parts[1::2]))
    vertices = clauses.get("vertices", "").split()
    arrows = [tuple(re.fullmatch(r"\s*(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*", a).groups())
              for a in clauses["arrows"].split(",")] if "arrows" in clauses else []
    rels = {tuple(r.strip().split("*")) for r in clauses["relations"].split(",")} \
        if "relations" in clauses else set()
    return Pres(name, vertices, arrows, rels)
