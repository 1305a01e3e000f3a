"""Integral posets, six-case interval addition, and the pairing maps.

Elements pair an interval with the integral of a retained backing step
function over it.  Addition of two elements is defined by one integral
identity — integrate the indicator-weighted sum over the hull — and the
six case branches of the classical formula are evaluated alongside it as a
cross-check; they must agree to 1e-12 or the operation refuses.

Tie-breaking for shared endpoints: ``v == s`` (left operand ends where the
right one starts) is classified ``OVERLAP_LEFT`` with a measure-zero
overlap strip, and symmetrically ``t == u`` is ``OVERLAP_RIGHT``; either
choice yields the same value, which the cross-check enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    AmbientMismatchError,
    BackingMismatchError,
    DomainMismatchError,
    MethodDisagreementError,
    OrderViolationError,
    OutOfAmbientError,
    TauNotHomomorphismError,
)
from .integrate import integrate_step
from .measure import Box, Interval, MeasurableSet, make_interval, measurable_set
from .stepfn import StepFunction, linear_combine, restrict

VALUE_TOL = 1e-12


def _ambient_interval(f: StepFunction) -> Interval:
    if f.dim != 1:
        raise DomainMismatchError("integral posets are one-dimensional")
    return f.ambient.factors[0]


def _check_value(stored: float, computed: float, what: str) -> None:
    if abs(stored - computed) > VALUE_TOL * (1.0 + abs(computed)):
        raise MethodDisagreementError(
            f"{what}: stored value {stored!r} != backing integral {computed!r}"
        )


@dataclass(frozen=True)
class IPosetElement:
    """``([t1, t2], ∫_[t1,t2] f)`` with the backing ``f`` retained."""

    interval: Interval
    value: float
    backing: StepFunction
    alpha: Optional[float] = None

    def __post_init__(self):
        amb = _ambient_interval(self.backing)
        if not amb.contains_interval(self.interval):
            raise OutOfAmbientError(
                f"interval {self.interval.to_json()} escapes ambient {amb.to_json()}"
            )
        _check_value(self.value, integrate_step(self.backing, self.interval),
                     "poset element")

    def to_json(self) -> dict:
        return {
            "interval": self.interval.to_json(),
            "value": self.value,
            "alpha": self.alpha,
        }


def poset_element(f: StepFunction, interval, alpha: Optional[float] = None) -> IPosetElement:
    """Build an element, computing the value from the backing function."""
    iv = interval if isinstance(interval, Interval) else make_interval(*interval)
    return IPosetElement(iv, integrate_step(f, iv), f, alpha)


def build_iposet(f: StepFunction, family: Iterable) -> tuple[IPosetElement, ...]:
    """One element per sampled interval, sorted by (lo, hi).

    ``family`` is any finite iterable of intervals (or (lo, hi) pairs) inside
    the ambient; continuum families are represented by whatever finite grid
    the caller chooses.
    """
    ivs = [iv if isinstance(iv, Interval) else make_interval(*iv) for iv in family]
    elems = [poset_element(f, iv, alpha=iv.lo) for iv in ivs]
    return tuple(sorted(elems, key=lambda e: (e.interval.lo, e.interval.hi)))


def order_leq(e1: IPosetElement, e2: IPosetElement) -> bool:
    """``e1 ⪯ e2`` iff the first interval is contained in the second."""
    if e1.backing != e2.backing:
        raise BackingMismatchError("poset order compares elements over one backing")
    return e2.interval.contains_interval(e1.interval)


@dataclass(frozen=True)
class UpperLimitRecord:
    """``(t, ∫_[alpha,t] f)`` — a point of the variable-upper-limit family."""

    alpha: float
    t: float
    value: float
    backing: StepFunction

    def __post_init__(self):
        amb = _ambient_interval(self.backing)
        if self.alpha > self.t:
            raise OrderViolationError(f"alpha {self.alpha} exceeds t {self.t}")
        if not (amb.contains(self.alpha) and amb.contains(self.t)):
            raise OutOfAmbientError(
                f"[{self.alpha}, {self.t}] escapes ambient {amb.to_json()}"
            )
        _check_value(self.value, integrate_step(self.backing, Interval(self.alpha, self.t)),
                     "upper-limit record")


def upper_limit_record(f: StepFunction, alpha: float, t: float) -> UpperLimitRecord:
    iv = make_interval(alpha, t)
    return UpperLimitRecord(float(alpha), float(t), integrate_step(f, iv), f)


@dataclass(frozen=True)
class SigmaPair:
    """A measurable set paired with a scalar — the codomain of addition."""

    set: MeasurableSet
    value: float

    def __add__(self, other: "SigmaPair") -> "SigmaPair":
        if self.set != other.set:
            raise DomainMismatchError("sigma pairs add componentwise over one set")
        return SigmaPair(self.set, self.value + other.value)

    def to_json(self) -> dict:
        return {"set": self.set.to_json(), "value": self.value}


def _interval_pair(iv: Interval, value: float) -> SigmaPair:
    return SigmaPair(measurable_set((Box((iv,)),)), value)


class CaseTag(enum.Enum):
    DISJOINT_LEFT = "DisjointLeft"
    DISJOINT_RIGHT = "DisjointRight"
    OVERLAP_LEFT = "OverlapLeft"
    OVERLAP_RIGHT = "OverlapRight"
    CONTAINED_IN = "ContainedIn"
    CONTAINS = "Contains"


def classify_case(a: Interval, b: Interval) -> CaseTag:
    """Exactly one of the six relative positions of ``[u,v]`` and ``[s,t]``.

    Containments (including equality) win over overlap readings; shared
    endpoints between otherwise disjoint intervals count as overlaps with an
    empty strip (see module docstring).
    """
    u, v = a.lo, a.hi
    s, t = b.lo, b.hi
    if b.contains_interval(a):
        return CaseTag.CONTAINED_IN
    if a.contains_interval(b):
        return CaseTag.CONTAINS
    if v < s:
        return CaseTag.DISJOINT_LEFT
    if t < u:
        return CaseTag.DISJOINT_RIGHT
    if u <= s and v <= t:
        return CaseTag.OVERLAP_LEFT
    return CaseTag.OVERLAP_RIGHT


def _branch_value(tag: CaseTag, f: StepFunction, g: StepFunction, h: StepFunction,
                  a: Interval, b: Interval) -> float:
    """The case's own formula: ``∫_a f + ∫_b g`` for disjoint and nested
    intervals, and for overlapping ones ``f`` alone, both, then ``g``
    alone, the overlap read from ``h = 1_a f + 1_b g``, whose coefficients
    there are the rounded sums ``f + g``."""
    u, v = a.lo, a.hi
    s, t = b.lo, b.hi

    def intf(lo, hi):
        return integrate_step(f, Interval(lo, hi))

    def intg(lo, hi):
        return integrate_step(g, Interval(lo, hi))

    def intfg(lo, hi):
        return integrate_step(h, Interval(lo, hi))

    if tag is CaseTag.OVERLAP_LEFT:
        return intf(u, s) + intfg(s, v) + intg(v, t)
    if tag is CaseTag.OVERLAP_RIGHT:
        return intg(s, u) + intfg(u, t) + intf(t, v)
    return intf(u, v) + intg(s, t)


def add_elements(e1: IPosetElement, e2: IPosetElement) -> SigmaPair:
    """``([u,v], ∫f) + ([s,t], ∫g) = (U, ∫_U (1_[u,v] f + 1_[s,t] g))``.

    ``U`` is the hull of the four endpoints.  The case-specific branch
    formula is evaluated as well and must agree with the integral to 1e-12.
    """
    f, g = e1.backing, e2.backing
    if f.ambient != g.ambient:
        raise AmbientMismatchError("backings must share an ambient box")
    a, b = e1.interval, e2.interval
    hull = Interval(min(a.lo, b.lo), max(a.hi, b.hi))
    h = linear_combine(1.0, restrict(f, a), 1.0, restrict(g, b))
    value = integrate_step(h, hull)
    tag = classify_case(a, b)
    branch = _branch_value(tag, f, g, h, a, b)
    if abs(branch - value) > VALUE_TOL * (1.0 + abs(value)):
        raise MethodDisagreementError(
            f"case {tag.value} branch {branch!r} != integral {value!r}"
        )
    return _interval_pair(hull, value)


# ---------------------------------------------------------------------------
# the pairing maps and module actions on Im(+)
# ---------------------------------------------------------------------------

def game_map(r: UpperLimitRecord) -> SigmaPair:
    """``(t, ∫_[α,t] f) ↦ ([α,t], value)`` — injective on records."""
    return _interval_pair(Interval(r.alpha, r.t), r.value)


def game_natural(p: SigmaPair, ambient) -> SigmaPair:
    """Forget the set: ``(S, k) ↦ (ambient, k)``; S must sit inside."""
    amb = ambient if isinstance(ambient, Interval) else make_interval(*ambient)
    amb_box = Box((amb,))
    for bx in p.set.boxes:
        if bx.dim != 1 or not amb_box.contains_box(bx):
            raise OutOfAmbientError(
                f"set {p.set.to_json()} escapes ambient {amb.to_json()}"
            )
    return _interval_pair(amb, p.value)


def scalar_action(k: float, p: SigmaPair) -> SigmaPair:
    return SigmaPair(p.set, float(k) * p.value)


_TAU_SAMPLES = ((1.0, 1.0), (2.0, 3.0), (-1.0, 4.0), (0.5, -2.0))


def lambda_action(a: float, tau: Callable[[float], float], p: SigmaPair) -> SigmaPair:
    """``a ⋆ (S, r) = (S, τ(a)·r)`` for a scalar homomorphism τ.

    τ is sampled for multiplicativity (τ(xy) = τ(x)τ(y)) on a fixed set of
    products including ``a`` itself before being trusted.
    """
    a = float(a)
    for x, y in _TAU_SAMPLES + ((a, 2.0), (a, a)):
        lhs = float(tau(x * y))
        rhs = float(tau(x)) * float(tau(y))
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            raise TauNotHomomorphismError(
                f"tau({x}*{y}) = {lhs!r} but tau({x})*tau({y}) = {rhs!r}"
            )
    return SigmaPair(p.set, float(tau(a)) * p.value)
