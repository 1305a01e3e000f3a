"""Step-function algebra: one public call per op on seeded step functions.

1-D functions tile [0, 1] with breakpoints on the 2**-14 grid and small
nonzero integer values (neighbours differ, so the canonical form keeps
every piece).  All sums are then exact in binary64 and are checked for
equality against ``Fraction`` references.  A 2-D share goes through
``juxtapose`` and ``direct_sum_norm``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stepquiver import (
    DyadicScheme,
    FunctionTuple,
    Interval,
    StepFunction,
    add_elements,
    box,
    box1,
    direct_sum_norm,
    integrate_step,
    juxtapose,
    linear_combine,
    locate,
    measurable_set,
    normalize_set,
    p_norm,
    poset_element,
    restrict,
    var_upper_integral,
)

from .. import oracles as orc
from ..common import OK, Op, OpClass, Verdict, expect_ok, rng_for, wrong

SIZES = (100, 200, 400, 600)
POOL = 3                      # prebuilt functions per size for reads
G = orc.GRID
AMB = box1(0.0, 1.0)
SQ = box(Interval(0.0, 1.0), Interval(0.0, 1.0))
SCHEMES = (DyadicScheme(Interval(0.0, 1.0)), DyadicScheme(Interval(0.0, 1.0)))
G2 = 1 << 10                  # 2-D grid lines sit on multiples of 2**-10


def _values(rng, n, lo=-6, hi=6):
    out, prev = [], 0
    for _ in range(n):
        v = prev
        while v in (0, prev):
            v = rng.randint(lo, hi)
        out.append(v)
        prev = v
    return out


def tiling(rng, n):
    pts = [0] + sorted(rng.sample(range(1, G), n - 1)) + [G]
    return list(zip(pts, pts[1:], _values(rng, n)))


def to_pkg(pieces):
    return tuple((box1(lo / G, hi / G), float(v)) for lo, hi, v in pieces)


def from_pkg(f):
    return [(orc.grid_int(b.factors[0].lo), orc.grid_int(b.factors[0].hi), Fraction(k))
            for b, k in f.pieces]


def same_pieces(f, expected, meta) -> Verdict:
    meta["counts"] = {"stepfn.pieces_out": len(f.pieces)}
    got = from_pkg(f)
    if got != expected:
        return wrong(f"pieces differ: {len(got)} vs {len(expected)} expected")
    return OK


def _interval(rng):
    """A window of half the ambient at a random grid position, so a query
    touches about half the pieces whatever the seed."""
    lo = rng.randrange(0, G // 2 + 1)
    return lo, lo + G // 2


# --- 2-D ------------------------------------------------------------------

def grid2(rng, k):
    """A k-by-k grid function on the unit square; neighbours differ."""
    xs = [0] + sorted(rng.sample(range(1, G2), k - 1)) + [G2]
    ys = [0] + sorted(rng.sample(range(1, G2), k - 1)) + [G2]
    vals = []
    for i in range(k):
        row = []
        for j in range(k):
            banned = {0, vals[i - 1][j] if i else 0, row[j - 1] if j else 0}
            v = rng.choice([c for c in range(1, 6) if c not in banned])
            row.append(v)
        vals.append(row)
    return xs, ys, vals


def grid2_pkg(g):
    xs, ys, vals = g
    return StepFunction(SQ, tuple(
        (box(Interval(xs[i] / G2, xs[i + 1] / G2), Interval(ys[j] / G2, ys[j + 1] / G2)),
         float(vals[i][j]))
        for i in range(len(xs) - 1) for j in range(len(ys) - 1)))


def grid2_at(g, x: Fraction, y: Fraction):
    xs, ys, vals = g
    i = next(i for i in range(len(xs) - 1) if xs[i] < x * G2 < xs[i + 1])
    j = next(j for j in range(len(ys) - 1) if ys[j] < y * G2 < ys[j + 1])
    return vals[i][j]


def grid2_integral(g):
    xs, ys, vals = g
    return sum(Fraction((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]) * vals[i][j], G2 * G2)
               for i in range(len(xs) - 1) for j in range(len(ys) - 1))


def grid2_sq_norm(g):
    """``Σ k² μ²`` over the grid cells (the p = 2 norm before the root)."""
    xs, ys, vals = g
    return sum(Fraction((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]), G2 * G2) ** 2
               * vals[i][j] ** 2
               for i in range(len(xs) - 1) for j in range(len(ys) - 1))


def check_juxtapose(h, grids, rng, meta):
    meta["counts"] = {"stepfn.pieces_out": len(h.pieces)}
    total = sum(Fraction(k) * Fraction(b.measure) for b, k in h.pieces)
    if total != sum(grid2_integral(g) for g in grids) / 4:
        return wrong("juxtaposed integral differs")
    for _ in range(24):
        x = Fraction(2 * rng.randrange(1 << 16) + 1, 1 << 17)
        y = Fraction(2 * rng.randrange(1 << 16) + 1, 1 << 17)
        dx, dy = int(x >= Fraction(1, 2)), int(y >= Fraction(1, 2))
        want = grid2_at(grids[2 * dx + dy], 2 * x - dx, 2 * y - dy)
        got = next((k for b, k in h.pieces
                    if all(iv.lo < float(c) < iv.hi for iv, c in zip(b.factors, (x, y)))), 0.0)
        if got != want:
            return wrong(f"juxtaposed value at ({x}, {y}) is {got}, expected {want}")
    return OK


class Workload:
    name = "stepfn_algebra"

    def __init__(self, seed: int):
        self.seed = seed
        prng = rng_for(seed, self.name, "pool")
        self.pool = {}
        for n in SIZES:
            fs = []
            for _ in range(POOL):
                pieces = tiling(prng, n)
                fs.append((pieces, StepFunction(AMB, to_pkg(pieces))))
            self.pool[n] = fs
        self.classes = [OpClass(f"{kind}.n{n}", self._maker(kind, n))
                        for n in SIZES for kind in KINDS]

    def _maker(self, kind, n):
        def make(rng):
            return getattr(self, "op_" + kind)(rng, n, f"n{n}")
        return make

    # --- writes -----------------------------------------------------------

    def op_build(self, rng, n, cls):
        pieces = tiling(rng, n)
        given = list(to_pkg(pieces))
        rng.shuffle(given)
        meta = {}
        return Op("stepfn.build", cls,
                  lambda c: c.call("stepfn.build", cls, StepFunction, AMB, tuple(given)),
                  lambda out: expect_ok(out, lambda f: same_pieces(
                      f, [(lo, hi, Fraction(v)) for lo, hi, v in pieces], meta)),
                  meta=meta)

    def op_linear_combine(self, rng, n, cls):
        (pf, f), (pg, g) = rng.sample(self.pool[n], 2)
        a, b = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
        meta = {}
        return Op("stepfn.linear_combine", cls,
                  lambda c: c.call("stepfn.linear_combine", cls, linear_combine,
                                   float(a), f, float(b), g),
                  lambda out: expect_ok(out, lambda h: same_pieces(
                      h, orc.combine(a, pf, b, pg), meta)),
                  meta=meta)

    def op_restrict(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        lo, hi = _interval(rng)
        meta = {}
        return Op("stepfn.restrict", cls,
                  lambda c: c.call("stepfn.restrict", cls, restrict, f,
                                   Interval(lo / G, hi / G)),
                  lambda out: expect_ok(out, lambda h: same_pieces(
                      h, orc.restrict(pf, lo, hi), meta)),
                  meta=meta)

    def op_add_elements(self, rng, n, cls):
        (pf, f), (pg, g) = rng.sample(self.pool[n], 2)
        (u, v), (s, t) = _interval(rng), _interval(rng)
        e1 = poset_element(f, (u / G, v / G))
        e2 = poset_element(g, (s / G, t / G))
        want = orc.integral(pf, u, v) + orc.integral(pg, s, t)

        def judge(pair):
            boxes = [tuple(iv) for b in pair.set.to_json() for iv in b]
            if boxes != [(min(u, s) / G, max(v, t) / G)]:
                return wrong(f"hull {boxes}")
            return OK if pair.value == want else wrong(f"value {pair.value!r} != {want}")
        return Op("iposet.add_elements", cls,
                  lambda c: c.call("iposet.add_elements", cls, add_elements, e1, e2),
                  lambda out: expect_ok(out, judge))

    # --- reads on prebuilt functions --------------------------------------

    def op_locate(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        m = rng.randrange(G)
        x = (2 * m + 1) / (2 * G)     # never a breakpoint
        want = (float(orc.value_at(pf, m, m + 1)), False)
        return Op("stepfn.locate", cls,
                  lambda c: c.call("stepfn.locate", cls, locate, f, x),
                  lambda out: expect_ok(out, lambda r: OK if tuple(r) == want
                                        else wrong(f"locate {r!r} != {want!r}")))

    def op_integrate_step(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        lo, hi = _interval(rng)
        want = orc.integral(pf, lo, hi)
        return Op("integrate.integrate_step", cls,
                  lambda c: c.call("integrate.integrate_step", cls, integrate_step, f,
                                   Interval(lo / G, hi / G)),
                  lambda out: expect_ok(out, lambda r: OK if r == want
                                        else wrong(f"{r!r} != {want}")))

    def op_var_upper_integral(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        xs = [0] + [hi for _, hi, _ in pf]
        ys = [Fraction(0)]
        for lo, hi, v in pf:
            ys.append(ys[-1] + Fraction((hi - lo) * v, G))

        def judge(F):
            if [orc.grid_int(x) for x in F.xs] != xs:
                return wrong("breakpoints differ")
            bad = sum(1 for a, b in zip(F.ys, ys) if a != b)
            return OK if not bad else wrong(f"{bad} node values differ")
        return Op("integrate.var_upper_integral", cls,
                  lambda c: c.call("integrate.var_upper_integral", cls,
                                   var_upper_integral, f, 0.0),
                  lambda out: expect_ok(out, judge))

    def op_p_norm(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        want = orc.sqrt_fraction(sum(Fraction((hi - lo), G) ** 2 * v * v
                                     for lo, hi, v in pf))
        return Op("stepfn.p_norm", cls,
                  lambda c: c.call("stepfn.p_norm", cls, p_norm, f, 2),
                  lambda out: expect_ok(out, lambda r: OK if orc.close_rel(r, want, 1e-12)
                                        else wrong(f"{r!r} vs {want}")))

    def op_poset_element(self, rng, n, cls):
        pf, f = rng.choice(self.pool[n])
        lo, hi = _interval(rng)
        want = orc.integral(pf, lo, hi)

        def judge(e):
            if (e.interval.lo, e.interval.hi) != (lo / G, hi / G) or e.value != want:
                return wrong(f"element {e.to_json()} vs value {want}")
            return OK
        return Op("iposet.poset_element", cls,
                  lambda c: c.call("iposet.poset_element", cls, poset_element, f,
                                   (lo / G, hi / G)),
                  lambda out: expect_ok(out, judge))

    # --- measurable sets --------------------------------------------------

    def op_normalize_set(self, rng, n, cls):
        ivs = []
        for _ in range(n):
            lo = rng.randrange(G - 64)
            ivs.append((lo, lo + rng.randrange(1, 64)))
        boxes = [box1(lo / G, hi / G) for lo, hi in ivs]
        want = orc.union(ivs)

        def judge(ms):
            got = [(orc.grid_int(b.factors[0].lo), orc.grid_int(b.factors[0].hi))
                   for b in ms.boxes]
            return OK if got == want else wrong(f"{len(got)} boxes vs {len(want)}")
        return Op("measure.normalize_set", cls,
                  lambda c: c.call("measure.normalize_set", cls, normalize_set, boxes),
                  lambda out: expect_ok(out, judge))

    def op_measurable_set(self, rng, n, cls):
        ivs = [(lo, hi) for lo, hi, _ in tiling(rng, n) if rng.random() < 0.8]
        boxes = [box1(lo / G, hi / G) for lo, hi in ivs]
        rng.shuffle(boxes)

        def judge(ms):
            got = [(orc.grid_int(b.factors[0].lo), orc.grid_int(b.factors[0].hi))
                   for b in ms.boxes]
            return OK if got == ivs else wrong("boxes differ")
        return Op("measure.measurable_set", cls,
                  lambda c: c.call("measure.measurable_set", cls, measurable_set, boxes),
                  lambda out: expect_ok(out, judge))

    # --- 2-D share --------------------------------------------------------

    def _tuple(self, rng, n):
        k = max(2, round((n / 4) ** 0.5))       # 4 entries of k*k cells ~ n pieces
        grids = [grid2(rng, k) for _ in range(4)]
        return grids, FunctionTuple(tuple(grid2_pkg(g) for g in grids))

    def op_juxtapose(self, rng, n, cls):
        grids, tup = self._tuple(rng, n)
        points_seed = rng.getrandbits(32)
        meta = {}
        return Op("stepfn.juxtapose", cls,
                  lambda c: c.call("stepfn.juxtapose", cls, juxtapose, SCHEMES, tup),
                  lambda out: expect_ok(out, lambda h: check_juxtapose(
                      h, grids, random.Random(points_seed), meta)),
                  meta=meta)

    def op_direct_sum_norm(self, rng, n, cls):
        grids, tup = self._tuple(rng, n)
        want = orc.sqrt_fraction(sum(grid2_sq_norm(g) for g in grids))
        return Op("stepfn.direct_sum_norm", cls,
                  lambda c: c.call("stepfn.direct_sum_norm", cls, direct_sum_norm, tup, 2),
                  lambda out: expect_ok(out, lambda r: OK if orc.close_rel(r, want, 1e-12)
                                        else wrong(f"{r!r} vs {want}")))


# one class per kind and size: writes, reads on prebuilt functions, sets, 2-D
KINDS = ("build", "linear_combine", "restrict", "add_elements",
         "locate", "integrate_step", "var_upper_integral", "p_norm", "poset_element",
         "normalize_set", "measurable_set",
         "juxtapose", "direct_sum_norm")
