"""Elementary functions constructed from certified integral enclosures.

Everything here reduces to two convex integrands:

* ``1/sqrt(1 - t^2)`` on (-1, 1) — arcsine/arccosine, the quarter-period
  constant K (= pi/2 classically), and by inversion sine and cosine;
* ``1/t`` on (0, inf) — the natural logarithm, and by inversion the
  exponential.

Both inversions run through one certified bisection, :func:`_invert`: a
step is decided by a loose enclosure of the integral when that enclosure
lies wholly on one side of the target, and only a straddling step asks for
a sharp one.  Every step of one call reads one resumable primitive
(:class:`~stepquiver.integrate.Primitive`) made for that call alone: of
``1/t`` based at 1 for the exponential, and of the convex main part of the
circle integrand based at 0 for sine and cosine, with negative arguments
mirrored onto [0, 1].  A step so pays only for the refinement the steps
before it have not done, and one ``CELL_BUDGET`` caps the whole inversion.
Every logarithm is reduced to ``y = m·2^e`` with m in [1, 2), ``ln y =
e·ln 2 + ∫_1^m dt/t``, so a primitive is only ever asked above its base.
ln 2 is one enclosure per process and power-of-two tolerance, so no result
depends on the calls made before it.

No transcendental library routines participate in any returned value: every
result is an :class:`~stepquiver.integrate.Enclosure` produced by the
midpoint/trapezoid sandwich (both integrands are convex, so the sandwich is
a certified bracket), plus analytic tail bounds at the two improper
endpoints ±1 of the circle integrand:

    on [t0, t1] ⊆ [1-ε, 1]:   2(√(1-t0) - √(1-t1))/√2  ≤  ∫  ≤  same /√(1+t0)

(from sandwiching ``1/sqrt(1+t)`` between its endpoint values), mirrored on
the left.  Arguments of sine and cosine are reduced modulo the cached
half-period ``2K̂`` using ``s(x ± 2uK) = (-1)^u s(x)``; the enclosure is
widened by the reduction slack ``2|u|·(K reference tolerance)`` so the
bracket stays honest for large arguments.
"""

from __future__ import annotations

import functools
import math
from typing import Dict

import numpy as np

from .errors import InversionFailedError, OutOfDomainError
from .integrate import Enclosure, _check_tol, convex_enclosure, convex_primitive

UNIT_EPS = 1e-8          # default truncation distance at the ±1 endpoints
K_REF_TOL = 1e-9         # tolerance of the cached reference quarter-period


def _circle(ts):
    ts = np.asarray(ts, dtype=float)
    return 1.0 / np.sqrt(1.0 - ts * ts)


def _recip(ts):
    ts = np.asarray(ts, dtype=float)
    return 1.0 / ts


def _tail_pos(t0: float, t1: float) -> Enclosure:
    """Analytic bracket of ``∫_{t0}^{t1} dt/sqrt(1-t²)`` for t0 near +1."""
    s0 = math.sqrt(1.0 - t0)
    s1 = math.sqrt(max(0.0, 1.0 - t1))
    base = 2.0 * (s0 - s1)
    return Enclosure(base / math.sqrt(2.0), base / math.sqrt(1.0 + t0))


def _convex_circle(lo: float, hi: float, tol: float) -> Enclosure:
    return convex_enclosure(_circle, (lo, hi), tol)


def _enclose_circle(a: float, b: float, tol: float, main=_convex_circle) -> Enclosure:
    """Enclosure of ``∫_a^b dt/sqrt(1-t²)``, -1 <= a <= b <= 1.

    The integrand is evaluated only on [-1+δ, 1-δ], by ``main(lo, hi,
    tol)``; the slivers beyond are bracketed analytically.  The tail width
    is ~0.35·δ^{3/2}, so δ is grown with the tolerance (δ = 0.5·tol^{2/3},
    clamped to [UNIT_EPS, 1e-3]): spending a quarter of the budget on the
    tail keeps the numeric part away from the blow-up, where the sandwich
    would need astronomically fine cells.
    """
    if not (-1.0 <= a <= b <= 1.0):
        raise OutOfDomainError(f"[{a}, {b}] is not a subinterval of [-1, 1]")
    if a == b:
        return Enclosure(0.0, 0.0)
    delta = max(UNIT_EPS, min(1e-3, 0.5 * tol ** (2.0 / 3.0)))
    cut = 1.0 - delta
    total = Enclosure(0.0, 0.0)
    if a < -cut:
        # mirror the left sliver onto the right: ∫_a^c f = ∫_{-c}^{-a} f
        c = min(b, -cut)
        total = total + _tail_pos(-c, -a)
    if b > cut:
        total = total + _tail_pos(max(a, cut), b)
    lo_main = max(a, -cut)
    hi_main = min(b, cut)
    if lo_main < hi_main:
        tol_main = max(0.5 * tol, tol - total.width)
        total = total + main(lo_main, hi_main, tol_main)
    return total


# ---------------------------------------------------------------------------
# arcsine / arccosine / the quarter-period constant
# ---------------------------------------------------------------------------

def asin_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``∫_0^y dt/sqrt(1-t²)`` — the arcsine, for y in [-1, 1]."""
    _check_tol(tol)
    y = float(y)
    if not -1.0 <= y <= 1.0:
        raise OutOfDomainError(f"asin argument {y} outside [-1, 1]")
    return _asin(y, tol)


def _asin(y: float, tol: float, main=_convex_circle) -> Enclosure:
    # the integrand is even: a negative argument mirrors onto [0, -y]
    if y >= 0.0:
        return _enclose_circle(0.0, y, tol, main)
    return -_enclose_circle(0.0, -y, tol, main)


def acos_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``∫_y^1 dt/sqrt(1-t²)`` — the arccosine, for y in [-1, 1]."""
    _check_tol(tol)
    y = float(y)
    if not -1.0 <= y <= 1.0:
        raise OutOfDomainError(f"acos argument {y} outside [-1, 1]")
    return _enclose_circle(y, 1.0, tol)


_K_CACHE: Dict[float, Enclosure] = {}


def K_constant(tol: float = 1e-3) -> Enclosure:
    """The quarter-period ``K = ∫_0^1 dt/sqrt(1-t²)`` (classically pi/2)."""
    _check_tol(tol)
    enc = _K_CACHE.get(tol)
    if enc is None:
        enc = _enclose_circle(0.0, 1.0, tol)
        _K_CACHE[tol] = enc
    return enc


def k_reference() -> float:
    """Midpoint of the high-accuracy cached K enclosure.

    This single number defines the period lattice used by the sine/cosine
    range reduction; tests of periodicity should use it too, so that all
    statements are relative to one consistent K.
    """
    return K_constant(K_REF_TOL).midpoint


# ---------------------------------------------------------------------------
# the certified bisection inverse; sine / cosine by inverting the arcsine
# ---------------------------------------------------------------------------

_MAX_ARG = 1e6


def _invert(enclose, target: float, lo: float, hi: float, tol: float,
            scale, floor: float):
    """Bisect ``[lo, hi]`` for ``F(y) = target``, F increasing and known
    only through enclosures ``enclose(y, tol)``.

    ``scale(h)`` is at least ``|dy/dF|`` for y <= h.  Each step asks for a
    loose enclosure, a few percent of the bracket's F-space width; one lying
    wholly on one side of the target decides the step exactly.  A straddling
    step is sharpened to ``inner = max(tol / (4·scale), floor)`` and decided
    by its midpoint.  Returns ``(lo, hi, worst)``, where ``worst >= inner``
    is the largest F-space half-width a midpoint decision rested on; the
    caller pads by it times its own derivative bound.

    The callers' ``enclose`` reads one :class:`~stepquiver.integrate.Primitive`
    made for this inversion alone, so a step pays only for the refinement
    the steps before it have not done, and one ``CELL_BUDGET`` caps the
    refinement of the whole inversion.
    """
    inner = max(tol / (4.0 * scale(hi)), floor)
    worst = inner
    for _ in range(400):
        if hi - lo <= max(0.5 * tol, 4.0 * math.ulp(hi)):
            break
        mid = 0.5 * (lo + hi)
        step_tol = max(inner, min(1e-3, 0.06 * (hi - lo) / scale(hi)))
        enc = enclose(mid, step_tol)
        if enc.lower <= target <= enc.upper:
            if step_tol != inner:
                enc = enclose(mid, inner)
            worst = max(worst, 0.5 * enc.width + (0.0 if enc.converged else inner))
            below = enc.midpoint < target
        else:
            below = enc.upper < target
        lo, hi = (mid, hi) if below else (lo, mid)
    return lo, hi, worst


def _invert_asin(target: float, tol: float) -> Enclosure:
    """Solve ``asin(y) = target`` for y in [-1, 1]; since |dy/d asin| <= 1,
    padding by ``worst`` keeps the true y inside."""
    if not math.isfinite(target):
        raise InversionFailedError(f"non-finite inversion target {target!r}")
    prim = convex_primitive(_circle, 0.0)

    def main(lo, hi, t):  # lo is 0: the arguments are mirrored onto [0, 1]
        return prim.enclose(hi, t)

    lo, hi, pad = _invert(lambda y, t: _asin(y, t, main), target, -1.0, 1.0, tol,
                          lambda h: 1.0, 0.0)
    return Enclosure(max(-1.0, lo - pad), min(1.0, hi + pad),
                     (hi - lo) + 2 * pad <= tol * (1 + 1e-9))


def sin_cat(x: float, tol: float = 1e-3) -> Enclosure:
    """Sine on the line, via ``s(x ± 2uK) = (-1)^u s(x)`` and inversion."""
    _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_ARG:
        raise InversionFailedError(f"sine argument {x!r} out of supported range")
    kenc = K_constant(K_REF_TOL)
    khat = kenc.midpoint
    u = math.floor((x + khat) / (2.0 * khat))
    x0 = x - 2.0 * u * khat
    enc = _invert_asin(x0, tol)
    # |khat - K| <= width/2, so the reduced argument is off by <= |u|*width
    slack = 2.0 * abs(u) * max(K_REF_TOL, 0.5 * kenc.width)
    enc = Enclosure(max(-1.0, enc.lower - slack), min(1.0, enc.upper + slack),
                    enc.converged and enc.width + 2 * slack <= tol * (1 + 1e-9))
    return -enc if u % 2 else enc


def cos_cat(x: float, tol: float = 1e-3) -> Enclosure:
    """Cosine via ``acos(y) = K - asin(y)`` on the base window [0, 2K)."""
    _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_ARG:
        raise InversionFailedError(f"cosine argument {x!r} out of supported range")
    kenc = K_constant(K_REF_TOL)
    khat = kenc.midpoint
    u = math.floor(x / (2.0 * khat))
    x0 = x - 2.0 * u * khat          # in [0, 2K): solve acos(y) = x0
    enc = _invert_asin(khat - x0, tol)
    # khat enters both the reduction and the inversion target
    slack = 2.0 * (abs(u) + 1.0) * max(K_REF_TOL, 0.5 * kenc.width)
    enc = Enclosure(max(-1.0, enc.lower - slack), min(1.0, enc.upper + slack),
                    enc.converged and enc.width + 2 * slack <= tol * (1 + 1e-9))
    return -enc if u % 2 else enc


# ---------------------------------------------------------------------------
# logarithm / exponential
# ---------------------------------------------------------------------------

LN_RES = 1e-14           # demand floor on ∫ dt/t; one cell budget gets ∫_1^2 to ~5e-15


@functools.cache
def _ln2(tol: float) -> Enclosure:
    """ln 2 as ``∫_1^2 dt/t`` to ``tol``, one enclosure per process and
    tolerance, so a logarithm never depends on the calls before it.
    :func:`_ln` asks only at powers of two, which bounds the cache."""
    return convex_enclosure(_recip, (1.0, 2.0), tol)


def ln_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``ln y`` as ``∫_1^y dt/t``, for y > 0.

    With ``y = m · 2^e`` (m in [1, 2)), ``ln y = e·ln 2 + ∫_1^m dt/t``, so
    the integral is only ever taken on [1, 2), where 1/t is gentlest; ln 2
    is a cached enclosure of :func:`_ln2`.
    """
    _check_tol(tol)
    y = float(y)
    if not math.isfinite(y) or y <= 0.0:
        raise OutOfDomainError(f"logarithm argument {y!r} outside (0, inf)")
    return _ln(convex_primitive(_recip, 1.0), y, tol)


def _ln(prim, y: float, tol: float) -> Enclosure:
    """:func:`ln_cat` of a positive ``y`` on ``prim``, a primitive of
    ``1/t`` based at 1 that is queried only on [1, 2).

    ``∫_1^m`` takes the whole tolerance when e = 0 and half of it
    otherwise; ln 2 gets the other half over |e|, rounded down to a power
    of two, the key of its cache.  Sub-resolution demands are clamped to
    ``LN_RES·(1 + |e|)``: below that the answer has no binary64 digits left
    to certify, and the flag reports that.
    """
    m, e = math.frexp(y)
    m, e = 2.0 * m, e - 1            # y = m * 2**e, m in [1, 2)
    eff = max(tol, LN_RES * (1.0 + abs(e)))
    if e == 0:
        s = prim.enclose(m, eff)
    else:
        share = math.ldexp(0.5, math.frexp(0.5 * eff / abs(e))[1])
        s = _ln2(share).scale(float(e)) + prim.enclose(m, 0.5 * eff)
    return Enclosure(s.lower, s.upper, s.width <= tol * (1.0 + 1e-9))


def exp_cat(x: float, tol: float = 1e-6) -> Enclosure:
    """Inverse of :func:`ln_cat` by :func:`_invert` on one primitive of
    ``1/t`` made for this call.

    The bracket is ``[2^(k-1), 2^(k+2)]`` with ``k = floor(x / 0.69)``: as
    0.69 < ln 2 < 0.6932, ``x / 0.69`` is within 0.3 of ``log2 e^x`` for
    |x| <= 40, so no search is needed.  ``tol`` is an absolute width target
    on the result, which is realistic in binary64 only while the result
    itself is moderate; arguments are therefore capped at |x| <= 40.  The
    returned bracket is honest either way: its padding uses the widths the
    inner log enclosures actually achieved, and ``converged`` reports
    whether the target was met.
    """
    _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > 40.0:
        raise InversionFailedError(f"exp argument {x!r} out of supported range")
    if x == 0.0:
        return Enclosure(1.0, 1.0)
    prim = convex_primitive(_recip, 1.0)
    k = math.floor(x / 0.69)
    lo, hi, worst = _invert(lambda y, t: _ln(prim, y, t), x, math.ldexp(1.0, k - 1),
                            math.ldexp(1.0, k + 2), tol, lambda h: 2.0 * max(1.0, h), LN_RES)
    # an error delta in log space moves the preimage by at most ~y*delta
    slack = 2.0 * hi * worst
    return Enclosure(max(0.0, lo - slack), hi + slack,
                     (hi - lo) + 2 * slack <= tol * (1 + 1e-9))
