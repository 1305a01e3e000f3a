"""Elementary functions constructed from certified integral enclosures.

Everything here reduces to two integrands:

* ``1/sqrt(1 - t^2)`` on (-1, 1) — arcsine/arccosine, the quarter-period
  constant K (= pi/2 classically), and by inversion sine and cosine;
* ``1/t`` on (0, inf) — the natural logarithm, and by inversion the
  exponential.

Both have a positive fourth derivative with a closed-form bound on every
cell, so every integral here runs on the driver's composite Simpson rule
(:func:`~stepquiver.integrate._simpson_rule`), a fourth-order bracket whose
remainder and rounding terms are rounded up.  The circle integrand is taken
on [0, 1) only (it is even) and evaluated in offsets ``o = t - 1`` from its
singular end, as ``1/sqrt((1 - t)(1 + t)) = 1/sqrt(-o (2 + o))``, so grid
points near 1 keep their relative accuracy.

Both inversions run through one certified bisection, :func:`_invert`:
every step asks for one enclosure of the integral, all at the one
tolerance the result needs, and keeps the half of the bracket its
midpoint puts the root in.  On fourth-order cells a sharp query costs about the cells of a
loose one, so no step first asks loosely.  Every step of one call reads
one resumable primitive (:class:`~stepquiver.integrate.Primitive`) made
for that call alone: of
``1/t`` based at 1 for the exponential, and of the main part of the circle
integrand based at 0 for sine and cosine, with negative arguments mirrored
onto [0, 1].  A step so pays only for the refinement the steps before it
have not done, and one ``CELL_BUDGET`` caps the whole inversion.  Every
logarithm is reduced to ``y = m·2^e`` with m in [1, 2), ``ln y = e·ln 2 +
∫_1^m dt/t``, so a primitive is only ever asked above its base.  ln 2 is
one enclosure per process, so no result depends on the calls made before
it.

No transcendental library routines participate in any returned value: every
result is an :class:`~stepquiver.integrate.Enclosure` from those Simpson
brackets, plus analytic tail bounds at the two improper endpoints ±1 of the
circle integrand:

    on [t0, t1] ⊆ [1-ε, 1]:   2(√(1-t0) - √(1-t1))/√2  ≤  ∫  ≤  same /√(1+t0)

(from sandwiching ``1/sqrt(1+t)`` between its endpoint values), mirrored on
the left.  Arguments of sine and cosine are reduced modulo the cached
half-period ``2K̂`` using ``s(x ± 2uK) = (-1)^u s(x)``; the enclosure is
widened by the reduction slack (``2|u|·|K̂ - K|`` plus the rounding of the
reduction) so the bracket stays honest for large arguments, and the
inversion gets what the tolerance leaves after that slack.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InversionFailedError, OutOfDomainError
from .integrate import Enclosure, Primitive, _U, _Evaluator, _check_tol, _met, _simpson_rule

UNIT_EPS = 2.0 ** -40    # smallest truncation distance at the ±1 endpoints
K_REF_TOL = 2e-14        # tolerance of the cached reference quarter-period


def _circle(os):
    """The circle integrand ``1/sqrt(1 - t²)`` at ``t = 1 + o``, evaluated as
    ``1/sqrt((1 - t)(1 + t)) = 1/sqrt(-o (2 + o))``: within 2 ulps."""
    os = np.asarray(os, dtype=float)
    return 1.0 / np.sqrt(-os * (2.0 + os))


def _circle_d4(a: float, b: float) -> float:
    """``f⁗ = 3(8t⁴ + 24t² + 3)/(1 - t²)^{9/2}`` at ``t = 1 + b``, its
    largest value for ``t`` in ``[1 + a, 1 + b]`` within [0, 1): f⁗ grows
    with |t|, as the Taylor series of f has positive coefficients."""
    q = -b * (2.0 + b)
    t2 = (1.0 + b) ** 2
    return 3.0 * (8.0 * t2 * t2 + 24.0 * t2 + 3.0) / (q ** 4 * math.sqrt(q))


def _circle_d1(a: float, b: float) -> float:
    """``|f'| = |t|/(1 - t²)^{3/2}``, largest at ``t = 1 + b``."""
    q = -b * (2.0 + b)
    return (1.0 + b) / (q * math.sqrt(q))


def _recip(ts):
    ts = np.asarray(ts, dtype=float)
    return 1.0 / ts


def _recip_d4(a: float, b: float) -> float:
    """``f⁗ = 24/t⁵``, largest at the left end of a cell in (0, inf)."""
    return 24.0 / a ** 5


def _recip_d1(a: float, b: float) -> float:
    """``|f'| = 1/t²``, largest at the left end."""
    return 1.0 / (a * a)


def _circle_primitive(base: float) -> Primitive:
    """``y ↦ ∫_base^y dt/sqrt(1 - t²)`` for ``0 <= base <= y < 1``, on
    Simpson cells laid out in offsets from the singular end 1."""
    rule = _simpson_rule(_Evaluator(_circle), _circle_d4, _circle_d1, 2, origin=1.0)
    return Primitive(rule, base)


def _recip_primitive(base: float) -> Primitive:
    """``y ↦ ∫_base^y dt/t`` for ``0 < base <= y``, on Simpson cells."""
    return Primitive(_simpson_rule(_Evaluator(_recip), _recip_d4, _recip_d1, 1), base)


def _tail_pos(t0: float, t1: float) -> Enclosure:
    """Analytic bracket of ``∫_{t0}^{t1} dt/sqrt(1-t²)`` for 1/2 <= t0 <= t1
    <= 1.  With ``s = sqrt(1 - t)`` it is ``∫ 2 ds/sqrt(1 + t)``, and
    ``1/sqrt(1 + t)`` lies between its values at 1 and t0.  ``s0 - s1 =
    (t1 - t0)/(s0 + s1)`` cancels nothing, ``1 - t`` and ``t1 - t0`` are
    exact, and eight roundoffs cover the rest of the rounding."""
    s0, s1 = math.sqrt(1.0 - t0), math.sqrt(1.0 - t1)
    base = 2.0 * (t1 - t0) / (s0 + s1)
    return Enclosure(base / math.sqrt(2.0) * (1.0 - 8 * _U),
                     base / math.sqrt(1.0 + t0) * (1.0 + 8 * _U))


def _simpson_circle(lo: float, hi: float, tol: float) -> Enclosure:
    """``∫_lo^hi dt/sqrt(1 - t²)`` for -1 < lo < hi < 1 with hi > 0, as
    every caller's is, taken on [0, 1) only: the integrand is even."""
    if lo >= 0.0:
        return _circle_primitive(lo).enclose(hi, tol)
    prim = _circle_primitive(0.0)
    return prim.enclose(-lo, 0.5 * tol) + prim.enclose(hi, 0.5 * tol)


def _enclose_circle(a: float, b: float, tol: float, main=_simpson_circle) -> Enclosure:
    """Enclosure of ``∫_a^b dt/sqrt(1-t²)``, -1 <= a <= b <= 1.

    The integrand is evaluated only on [-1+δ, 1-δ], by ``main(lo, hi,
    tol)``; the slivers beyond are bracketed analytically.  A tail is
    ~0.35·δ^{3/2} wide, so δ follows the tolerance (δ = 0.5·tol^{2/3},
    clamped to [UNIT_EPS, 1e-3]): each tail takes an eighth of ``tol``,
    and the numeric part stays away from the blow-up, where even Simpson
    cells would have to be astronomically fine.  ``converged`` says whether
    the whole bracket, tails included, is within ``tol``.
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
    return Enclosure(total.lower, total.upper, _met(total.width, tol))


# ---------------------------------------------------------------------------
# arcsine / arccosine / the quarter-period constant
# ---------------------------------------------------------------------------

def asin_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``∫_0^y dt/sqrt(1-t²)`` — the arcsine, for y in [-1, 1]."""
    tol = _check_tol(tol)
    y = float(y)
    if not -1.0 <= y <= 1.0:
        raise OutOfDomainError(f"asin argument {y} outside [-1, 1]")
    return _asin(y, tol)


def _asin(y: float, tol: float, main=_simpson_circle) -> Enclosure:
    # the integrand is even: a negative argument mirrors onto [0, -y]
    if y >= 0.0:
        return _enclose_circle(0.0, y, tol, main)
    return -_enclose_circle(0.0, -y, tol, main)


def acos_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``∫_y^1 dt/sqrt(1-t²)`` — the arccosine, for y in [-1, 1]."""
    tol = _check_tol(tol)
    y = float(y)
    if not -1.0 <= y <= 1.0:
        raise OutOfDomainError(f"acos argument {y} outside [-1, 1]")
    return _enclose_circle(y, 1.0, tol)


def K_constant(tol: float = 1e-3) -> Enclosure:
    """The quarter-period ``K = ∫_0^1 dt/sqrt(1-t²)`` (classically pi/2)."""
    return _enclose_circle(0.0, 1.0, _check_tol(tol))


@functools.cache
def _k_ref() -> Enclosure:
    """K to ``K_REF_TOL``, one enclosure per process: the one K that the
    sine/cosine range reduction and :func:`k_reference` read."""
    return K_constant(K_REF_TOL)


def k_reference() -> float:
    """Midpoint of the high-accuracy cached K enclosure.

    This single number defines the period lattice used by the sine/cosine
    range reduction; tests of periodicity should use it too, so that all
    statements are relative to one consistent K.
    """
    return _k_ref().midpoint


# ---------------------------------------------------------------------------
# the certified bisection inverse; sine / cosine by inverting the arcsine
# ---------------------------------------------------------------------------

_MAX_ARG = 1e6


def _invert(enclose, target: float, lo: float, hi: float, tol: float,
            scale: float, floor: float):
    """Bisect ``[lo, hi]`` for ``F(y) = target``, F increasing and known
    only through enclosures ``enclose(y, tol)``.

    ``scale`` is at least ``|dy/dF|`` on ``[lo, hi]``.  Every step asks for
    one enclosure at ``inner = max(tol / (4·scale), floor)`` and keeps the
    half of the bracket its midpoint puts the root in: an exact decision
    when the enclosure lies wholly on one side of the target.  Returns
    ``(lo, hi, worst)``, where ``worst >= inner`` is the largest F-space
    half-width a straddling enclosure's decision rested on; the caller pads
    by it times its own derivative bound.

    The callers' ``enclose`` reads one :class:`~stepquiver.integrate.Primitive`
    made for this inversion alone, so a step pays only for the refinement
    the steps before it have not done, and one ``CELL_BUDGET`` caps the
    refinement of the whole inversion.
    """
    inner = max(tol / (4.0 * scale), floor)
    worst = inner
    for _ in range(400):
        if hi - lo <= max(0.5 * tol, 4.0 * math.ulp(hi)):
            break
        mid = 0.5 * (lo + hi)
        enc = enclose(mid, inner)
        if enc.lower <= target <= enc.upper:
            worst = max(worst, 0.5 * enc.width + (0.0 if enc.converged else inner))
        lo, hi = (mid, hi) if enc.midpoint < target else (lo, mid)
    return lo, hi, worst


def _k_hat() -> tuple[float, float]:
    """The reference ``khat`` (:func:`k_reference`) and a bound of
    ``|khat - K|``: half the width of its enclosure, and the rounding of
    the midpoint."""
    kenc = _k_ref()
    return kenc.midpoint, 0.5 * kenc.width + math.ulp(kenc.midpoint)


def _sine(target: float, slack: float, odd: int, tol: float) -> Enclosure:
    """``±y`` with ``asin(y) = target``, for a ``target`` the range
    reduction left off by at most ``slack``.

    The inversion gets what ``tol`` leaves once ``slack`` is padded on both
    sides, or all of it when nothing is left, as the result cannot converge
    then anyway.  Since ``|dy/d asin| <= 1``, padding by ``_invert``'s
    ``worst`` keeps the solution inside, and padding by ``slack`` more keeps
    the true ``y`` inside; ``odd`` flips the sign.
    """
    rest = tol - 2.0 * slack
    share = rest if rest > 0.0 else tol
    prim = _circle_primitive(0.0)

    def main(lo, hi, t):  # lo is 0: the arguments are mirrored onto [0, 1]
        return prim.enclose(hi, t)

    lo, hi, pad = _invert(lambda y, t: _asin(y, t, main), target, -1.0, 1.0, share,
                          1.0, 0.0)
    conv = _met((hi - lo) + 2 * pad, share)
    lo, hi = max(-1.0, lo - pad), min(1.0, hi + pad)
    enc = Enclosure(max(-1.0, lo - slack), min(1.0, hi + slack),
                    conv and _met((hi - lo) + 2 * slack, tol))
    return -enc if odd else enc


def sin_cat(x: float, tol: float = 1e-3) -> Enclosure:
    """Sine on the line, via ``s(x ± 2uK) = (-1)^u s(x)`` and inversion."""
    tol = _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_ARG:
        raise InversionFailedError(f"sine argument {x!r} out of supported range")
    khat, kerr = _k_hat()
    u = math.floor((x + khat) / (2.0 * khat))
    x0 = x - 2.0 * u * khat
    # the reduced argument is off by 2|u|·|khat - K| and the rounding of
    # its product and difference
    slack = 2.0 * abs(u) * kerr + math.ulp(2.0 * u * khat) + math.ulp(x0)
    return _sine(x0, slack, u % 2, tol)


def cos_cat(x: float, tol: float = 1e-3) -> Enclosure:
    """Cosine via ``acos(y) = K - asin(y)`` on the base window [0, 2K)."""
    tol = _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_ARG:
        raise InversionFailedError(f"cosine argument {x!r} out of supported range")
    khat, kerr = _k_hat()
    u = math.floor(x / (2.0 * khat))
    x0 = x - 2.0 * u * khat          # in [0, 2K): solve acos(y) = x0
    # khat enters both the reduction and the inversion target, each of
    # which also rounds
    slack = (2.0 * (abs(u) + 1.0) * kerr + math.ulp(2.0 * u * khat) + math.ulp(x0)
             + math.ulp(khat))
    return _sine(khat - x0, slack, u % 2, tol)


# ---------------------------------------------------------------------------
# logarithm / exponential
# ---------------------------------------------------------------------------

LN_RES = 1e-14           # demand floor on ∫ dt/t
LN2_FLOOR = 2.0 ** -47   # the least power of two ln 2's rounding term (~6e-15) meets


@functools.cache
def _ln2() -> Enclosure:
    """ln 2 as ``∫_1^2 dt/t`` to ``LN2_FLOOR``, one enclosure per process, so
    a logarithm never depends on the calls before it.  A tighter demand
    would spend the whole budget to no effect; a looser one saves two
    Simpson cells at most."""
    return _recip_primitive(1.0).enclose(2.0, LN2_FLOOR)


def ln_cat(y: float, tol: float = 1e-6) -> Enclosure:
    """``ln y`` as ``∫_1^y dt/t``, for y > 0.

    With ``y = m · 2^e`` (m in [1, 2)), ``ln y = e·ln 2 + ∫_1^m dt/t``, so
    the integral is only ever taken on [1, 2), where 1/t is gentlest; ln 2
    is a cached enclosure of :func:`_ln2`.
    """
    tol = _check_tol(tol)
    y = float(y)
    if not math.isfinite(y) or y <= 0.0:
        raise OutOfDomainError(f"logarithm argument {y!r} outside (0, inf)")
    return _ln(_recip_primitive(1.0), y, tol)


def _ln(prim, y: float, tol: float) -> Enclosure:
    """:func:`ln_cat` of a positive ``y`` on ``prim``, a primitive of
    ``1/t`` based at 1 that is queried only on [1, 2).

    ``∫_1^m`` takes the whole tolerance when e = 0 and half of it
    otherwise, beside the one ln 2 of :func:`_ln2`.  Sub-resolution demands
    are clamped to ``LN_RES·(1 + |e|)``: below that the answer has no
    binary64 digits left to certify, and the flag reports that.
    """
    m, e = math.frexp(y)
    m, e = 2.0 * m, e - 1            # y = m * 2**e, m in [1, 2)
    eff = max(tol, LN_RES * (1.0 + abs(e)))
    if e == 0:
        s = prim.enclose(m, eff)
    else:
        s = _ln2().scale(float(e)) + prim.enclose(m, 0.5 * eff)
    return Enclosure(s.lower, s.upper, _met(s.width, tol))


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
    tol = _check_tol(tol)
    x = float(x)
    if not math.isfinite(x) or abs(x) > 40.0:
        raise InversionFailedError(f"exp argument {x!r} out of supported range")
    if x == 0.0:
        return Enclosure(1.0, 1.0)
    prim = _recip_primitive(1.0)
    k = math.floor(x / 0.69)
    hi = math.ldexp(1.0, k + 2)
    lo, hi, worst = _invert(lambda y, t: _ln(prim, y, t), x, math.ldexp(1.0, k - 1), hi,
                            tol, 2.0 * max(1.0, hi), LN_RES)
    # an error delta in log space moves the preimage by at most ~y*delta
    slack = 2.0 * hi * worst
    return Enclosure(max(0.0, lo - slack), hi + slack, _met((hi - lo) + 2 * slack, tol))
