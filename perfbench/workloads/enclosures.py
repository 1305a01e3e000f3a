"""Certified numerics: one enclosure call per op.

Elementary functions at tol 1e-6 / 1e-9 / 1e-12, Darboux enclosures of
monotone integrands, convex enclosures of ``c + k*t^2`` and ``1/t``, and
Stieltjes integrals against ``dt`` and ``l*ln t``.  Every bracket must
contain the exact value (``Fraction`` for polynomials, ``decimal`` at 50
digits otherwise), read exactly with no ulp widening.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from stepquiver import (
    K_constant,
    acos_cat,
    asin_cat,
    convex_enclosure,
    cos_cat,
    exp_cat,
    identity_measure,
    integrate_enclosure,
    ln_cat,
    log_power_measure,
    parse_fn_expr,
    sin_cat,
    stieltjes_integrate,
)

from .. import oracles as orc
from ..common import Op, OpClass, Verdict, expect_ok, failed, value_verdict

TOLS = {"tol6": 1e-6, "tol9": 1e-9, "tol12": 1e-12}
DEFECT_L = 1e5
# The seed's convex_enclosure(c + k*t^2) misses by up to 1.4 ulps in 600
# random probes; a miss up to this size is the known defect.
QUADRATIC_MISS_ULPS = 4


class Counted:
    """Integrand wrapper that counts evaluation points."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, xs):
        self.points += int(np.size(xs))
        return self.f(xs)


def ulps_outside(lower: float, upper: float, ref) -> float:
    """How far the exact ``ref`` lies outside ``[lower, upper]``, in ulps of
    the nearer bound (0 inside)."""
    lo, hi, ref = Fraction(lower), Fraction(upper), Fraction(ref)
    if ref < lo:
        return float(lo - ref) / math.ulp(lower)
    if ref > hi:
        return float(ref - hi) / math.ulp(upper)
    return 0.0


def judge_enclosure(enc, ref, tol, meta, known_ulps=0) -> Verdict:
    """A bracket must contain ``ref``.  A miss of at most ``known_ulps``
    ulps is a known seed defect (still counted wrong); any other miss is
    unexpected."""
    meta["width_over_tol"] = enc.width / tol
    if not orc.contains(enc.lower, enc.upper, ref):
        meta["miss"] = 1
        ulps = ulps_outside(enc.lower, enc.upper, ref)
        known = "convex_quadratic_miss" if ulps <= known_ulps else None
        return Verdict(wrong=True, unconverged=not enc.converged, known=known,
                       detail=f"[{enc.lower!r}, {enc.upper!r}] misses {ref} "
                              f"by {ulps:.3g} ulp")
    return Verdict(unconverged=not enc.converged)


def _tol(rng, cls):
    """Distinct per op, so no two ops share a cache key, but in a narrow
    band: the seed's cost can jump with the tolerance (``sin_cat(0.6)``
    takes 1.2 s at 1.0e-12 and 0.3 s at 1.5e-12)."""
    return TOLS[cls] * (1.5 + rng.random() / 64)


def _poly(rng):
    """Increasing cubic with small dyadic coefficients, as text and exact
    antiderivative.  The coefficients of t, t^2 and t^3 add up to 4, so the
    integrand's rise over [0, 1], which sets the cost, is the same for
    every seed."""
    cut = sorted(rng.sample(range(17), 2))
    cs = [Fraction(rng.randint(0, 8), 4)] + [Fraction(n, 4) for n in
                                             (cut[0], cut[1] - cut[0], 16 - cut[1])]
    text = " + ".join(f"{float(c)!r}*t^{i}" if i else f"{float(c)!r}" for i, c in enumerate(cs))
    return text, lambda x: sum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(cs))


def _dyadic_domain(rng, lo, hi):
    """``[a, b]`` on the 1/64 grid, centred in ``[lo, hi]``; its length, and
    with it the cost of a call, grows with ``rng.u`` from a quarter to all
    of the range."""
    span = round((hi - lo) * 64)
    n = max(1, round(span * (0.25 + 0.75 * rng.u)))
    a = round(lo * 64) + (span - n) // 2
    return Fraction(a, 64), Fraction(a + n, 64)


# --- elementary functions ---------------------------------------------------

# Argument ranges.  At 1e-9 and 1e-12 the seed's sin/cos/exp cost swings
# from 0.01 s to 6 s with the argument (sin near |sin x| = 1, cos near
# x = kπ, exp with |x|), so one such call can take a third of a run;
# there the arguments come from a band where the cost is below 0.6 s.
# cos_cat's range is centred on 1, not on 0, where its range reduction
# jumps (x0 = 0 for x = 0, x0 near 2K just below).
RANGES = {"exp_cat": (-5, 5), "asin_cat": (-0.95, 0.95), "acos_cat": (-0.95, 0.95),
          "sin_cat": (-10, 10), "cos_cat": (-9, 11)}
BANDS = {("sin_cat", "tol9"): (-1.2, 1.2), ("cos_cat", "tol9"): (0.4, 2.7),
         ("sin_cat", "tol12"): (0.3, 0.9), ("cos_cat", "tol12"): (1.2, 1.9),
         ("exp_cat", "tol12"): (0.5, 1.2),
         # exp_cat at 1e-12 returns converged=False from x ≈ 1.7 on (a known
         # seed defect, about 2 s a call); its own class keeps it in the deck
         ("exp_cat", "tol12_unconverged"): (1.7, 1.9)}
EXACT = {"exp_cat": orc.exp, "asin_cat": orc.asin, "acos_cat": orc.acos,
         "sin_cat": orc.sin, "cos_cat": orc.cos}


def _elem_arg(name, cls, rng):
    """Argument (from the midpoint-sequence ``rng.u``), exact value, cache keys."""
    u = rng.u
    if name == "K_constant":
        return (), orc.pi() / 2, ()
    if name == "ln_cat":
        y = 2.0 ** (8 * u / 0.75 - 3) if u < 0.75 else 1e3 * 1e6 ** ((u - 0.75) / 0.25)
        return (y,), orc.ln(y), (("ln2",) if not 1 / 64 <= y <= 64 else ())
    lo, hi = BANDS.get((name, cls), RANGES[name])
    x = lo + (hi - lo) * u
    keys = {"sin_cat": ("K_ref",), "cos_cat": ("K_ref",),
            "exp_cat": ("ln2",) if x > 4.1 else ()}.get(name, ())
    return (x,), EXACT[name](x), keys


ELEMFN = {"ln_cat": ln_cat, "exp_cat": exp_cat, "asin_cat": asin_cat,
          "acos_cat": acos_cat, "sin_cat": sin_cat, "cos_cat": cos_cat,
          "K_constant": K_constant}


def elem_op(name, cls, band=None):
    def make(rng):
        args, ref, keys = _elem_arg(name, band or cls, rng)
        tol = _tol(rng, cls)
        if name == "K_constant":
            keys = (("K", tol),)
        meta = {}
        return Op(f"elemfn.{name}", cls,
                  lambda c: c.call(f"elemfn.{name}", cls, ELEMFN[name], *args, tol),
                  lambda out: expect_ok(out, lambda e: judge_enclosure(e, ref, tol, meta)),
                  cache_keys=keys, meta=meta)
    return make


# --- Darboux and convex enclosures -------------------------------------------

DARBOUX = ("poly", "sqrt", "recip")


def darboux_op(kind, cls):
    def make(rng):
        tol = _tol(rng, cls)
        if kind == "poly":
            a, b = _dyadic_domain(rng, 0, 1)
            text, anti = _poly(rng)
            ref = anti(b) - anti(a)
        elif kind == "sqrt":
            a, b = _dyadic_domain(rng, 0, 2)
            k = 1 + int(5 * rng.u)       # the cost grows with k, as with b - a
            text = f"{k}*sqrt(t)"
            ref = k * 2 * (orc.sqrt(b) ** 3 - orc.sqrt(a) ** 3) / 3
        else:
            a, b = _dyadic_domain(rng, 0, 2)
            text = "1/(1 + t)"
            ref = orc.ln(1 + b) - orc.ln(1 + a)
        meta = {}

        def run(c):
            f = Counted(c.call("dsl.parse_fn_expr", None, parse_fn_expr, text))
            meta["f"] = f
            return c.call("integrate.integrate_enclosure", cls, integrate_enclosure,
                          f, (float(a), float(b)), None, tol)

        def check(out):
            meta["evals"] = meta["f"].points if "f" in meta else 0
            return expect_ok(out, lambda e: judge_enclosure(e, ref, tol, meta))
        return Op("integrate.integrate_enclosure", cls, run, check, meta=meta)
    return make


def convex_op(family, tol_cls=None):
    """``tol_cls=None`` draws the tolerance class per op."""
    def make(rng):
        cls = tol_cls or rng.choice(tuple(TOLS))
        tol = _tol(rng, cls)
        if family == "quadratic":
            # curvature k*len² spans ordinary to nearly flat, where the seed's
            # round-to-nearest sandwich can miss (a known seed defect)
            c0, k = rng.uniform(0, 2), 10 ** (12 * rng.u - 12)
            a = rng.uniform(-1, 1)
            b = a + 10 ** rng.uniform(-4, 0)
            fa, fb, fc, fk = (Fraction(x) for x in (a, b, c0, k))
            ref = fc * (fb - fa) + fk * (fb ** 3 - fa ** 3) / 3
            f = Counted(lambda t: c0 + k * t * t)
            known_ulps = QUADRATIC_MISS_ULPS
        else:
            a = 0.5 + 7 * rng.u
            b = rng.uniform(0.5, 8)
            a, b = min(a, b), max(a, b)
            ref = orc.ln(b) - orc.ln(a)
            f = Counted(lambda t: 1.0 / t)
            known_ulps = 0
        meta = {}

        def check(out):
            meta["evals"] = f.points
            return expect_ok(out, lambda e: judge_enclosure(e, ref, tol, meta, known_ulps))
        return Op("integrate.convex_enclosure", cls,
                  lambda c: c.call("integrate.convex_enclosure", cls, convex_enclosure,
                                   f, (a, b), tol),
                  check, meta=meta)
    return make


# --- Stieltjes ---------------------------------------------------------------

def stieltjes_op(cls, measure, lmax=1, cmax=3):
    def make(rng):
        tol = _tol(rng, cls)
        c1 = 1 + int(cmax * rng.u)       # the cost grows with c1, as with l
        text = f"{c1}*t"
        if measure == "identity":
            a, b = _dyadic_domain(rng, 0, 1)
            ref = Fraction(c1) * (b * b - a * a) / 2
            phi = identity_measure()
        else:
            # ∫ c t d(l ln t) = l c (b - a)
            a, b = _dyadic_domain(rng, 1, 2)
            l = float(round(lmax ** rng.u))
            ref = Fraction(l) * c1 * (b - a)
            phi = log_power_measure(l)
        meta = {}

        def run(c):
            f = Counted(c.call("dsl.parse_fn_expr", None, parse_fn_expr, text))
            meta["f"] = f
            return c.call("integrate.stieltjes_integrate", cls, stieltjes_integrate,
                          f, phi, (float(a), float(b)), tol)

        def check(out):
            meta["evals"] = meta["f"].points if "f" in meta else 0
            return expect_ok(out, lambda v: value_verdict(v, ref, tol))
        return Op("integrate.stieltjes_integrate", cls, run, check, meta=meta)
    return make


def defect_op(rng):
    """∫_1^2 t d(1e5 ln t) = 1e5, which the seed cannot settle."""
    f = Counted(lambda t: t)
    meta = {}

    def check(out):
        meta["evals"] = f.points
        if out[0] == "raised" and type(out[1]).__name__ == "ToleranceUnreachedError":
            return failed("ToleranceUnreachedError", known="logpower_1e5")
        return expect_ok(out, lambda v: value_verdict(v, Fraction(int(DEFECT_L)), 1e-9))
    return Op("integrate.stieltjes_integrate", "tol9",
              lambda c: c.call("integrate.stieltjes_integrate", "tol9", stieltjes_integrate,
                               f, log_power_measure(DEFECT_L), (1.0, 2.0), 1e-9),
              check, meta=meta)


class Workload:
    name = "enclosures"

    def __init__(self, seed: int):
        self.seed = seed
        # The c + k*t^2 family is a single class over all three tolerances,
        # so the classes that hold known seed defects (it, exp_cat's
        # unconverged band and the l = 1e5 Stieltjes call) stay under a
        # tenth of a deck (3 of 40).
        self.classes = [OpClass(f"{name}.{cls}", elem_op(name, cls))
                        for name in ELEMFN for cls in TOLS]
        self.classes += [OpClass(f"darboux_{kind}.{cls}", darboux_op(kind, cls))
                         for kind in DARBOUX for cls in TOLS]
        self.classes += [OpClass(f"convex_recip.{cls}", convex_op("recip", cls))
                         for cls in TOLS]
        self.classes += [
            OpClass("convex_quadratic", convex_op("quadratic")),
            OpClass("stieltjes_identity.tol6", stieltjes_op("tol6", "identity")),
            OpClass("stieltjes_logpower.tol6", stieltjes_op("tol6", "logpower", 1e3)),
            OpClass("stieltjes_logpower.tol9", stieltjes_op("tol9", "logpower", 1e2)),
            # at 1e-12 the cost grows fast with l * c (0.03 s to 2 s for l <= 4)
            OpClass("stieltjes_logpower.tol12", stieltjes_op("tol12", "logpower", 1, 1)),
            OpClass("stieltjes_logpower_1e5", defect_op, defect=True),
            OpClass("exp_cat.tol12_unconverged",
                    elem_op("exp_cat", "tol12", band="tol12_unconverged"), defect=True),
        ]
