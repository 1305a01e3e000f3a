"""Integration: exact step-function integrals and certified enclosures.

The exact layer (:func:`integrate_step`) is plain arithmetic.  The numeric
layer brackets integrals of ordinary evaluators between lower and upper
step functions:

* :func:`integrate_enclosure` — Darboux brackets on declared monotone
  pieces.  For a monotone piece the bracket width telescopes to
  ``h * |f(b) - f(a)|``, so the number of cells needed for a width ``tol``
  is known in closed form; pieces too expensive for one uniform grid are
  bisected dyadically with the tolerance split ∝ sqrt(len * |Δf|) between
  the halves (the allocation that minimizes total cells).  Refinement is
  capped by a recursion depth of 30 and a global cell budget; on cap the
  best enclosure is returned flagged ``converged=False`` — it still
  brackets the integral, it is just wider than requested.
* :func:`convex_enclosure` — for integrands known (analytically, by the
  caller) to be convex, the midpoint sum is a lower and the trapezoid sum
  an upper bound; the bracket width scales like 1/N², which is what makes
  tight tolerances affordable for the elementary-function constructions.

Both refinements are deterministic: identical inputs produce identical
enclosures, independent of evaluation order.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    AmbientMismatchError,
    BadPiecesError,
    DimensionMismatchError,
    DomainMismatchError,
    EmptyWeightsError,
    MethodDisagreementError,
    NonFiniteError,
    NonIntegerResultError,
    NotMonotoneError,
    OrderViolationError,
    OutOfDomainError,
    ToleranceUnreachedError,
)
from .measure import Interval, StieltjesMeasure, make_interval
from .stepfn import Region, StepFunction, region_boxes

MAX_SPLIT_DEPTH = 30
UNIFORM_MAX = 1 << 20
CELL_BUDGET = 1 << 24
LEAF_CELLS = 1 << 12


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enclosure:
    """Certified bracket ``lower <= integral <= upper``.

    ``converged`` records whether the requested tolerance was met; an
    unconverged enclosure is still a valid bracket, just wide.
    """

    lower: float
    upper: float
    converged: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise NonFiniteError("enclosure bounds must be finite")
        if self.lower > self.upper:
            raise OrderViolationError(f"enclosure out of order: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def __add__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(self.lower + other.lower, self.upper + other.upper,
                             self.converged and other.converged)
        return Enclosure(self.lower + other, self.upper + other, self.converged)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.upper, -self.lower, self.converged)

    def scale(self, c: float) -> "Enclosure":
        if c >= 0:
            return Enclosure(c * self.lower, c * self.upper, self.converged)
        return Enclosure(c * self.upper, c * self.lower, self.converged)

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "width": self.width,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# exact integration of step functions
# ---------------------------------------------------------------------------

def integrate_step(f: StepFunction, region: Optional[Region] = None) -> float:
    """``Σ_i k_i * μ(X_i ∩ region)``, exact arithmetic; default region is
    the full ambient box."""
    if region is None:
        boxes = (f.ambient,)
    else:
        boxes = region_boxes(region, f.dim) if not _is_empty_region(region) else ()
        for rb in boxes:
            if not f.ambient.contains_box(rb):
                raise AmbientMismatchError(
                    f"region {rb.to_json()} escapes ambient {f.ambient.to_json()}"
                )
    total = 0.0
    for b, k in f.pieces:
        for rb in boxes:
            cap = b.intersect(rb)
            if cap is not None:
                total += k * cap.measure
    return total


def _is_empty_region(region) -> bool:
    from .measure import MeasurableSet

    return isinstance(region, MeasurableSet) and not region.boxes


# ---------------------------------------------------------------------------
# pointwise evaluators
# ---------------------------------------------------------------------------

class _Evaluator:
    """Adapt a scalar or ndarray-capable callable to ndarray-in/ndarray-out."""

    def __init__(self, f: Callable):
        self.f = f
        self._vectorized: Optional[bool] = None

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        # non-finite values surface as NonFiniteError downstream, so the
        # fp warnings numpy would print on the way there are pure noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self._vectorized is None:
                try:
                    out = np.asarray(self.f(xs), dtype=float)
                    if out.shape == xs.shape:
                        self._vectorized = True
                        return out
                except (TypeError, ValueError):
                    pass
                self._vectorized = False
            if self._vectorized:
                return np.asarray(self.f(xs), dtype=float)
            return np.fromiter((float(self.f(float(x))) for x in xs),
                               dtype=float, count=len(xs))


def _finite_or_raise(vals: np.ndarray, xs: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if bad.any():
        where = float(xs[int(np.argmax(bad))])
        raise NonFiniteError(
            f"integrand returned a non-finite value near x = {where!r}; "
            "truncate improper endpoints before integrating"
        )


def _check_tol(tol) -> None:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise OrderViolationError(f"tolerance must be a positive real, got {tol!r}")


def _as_interval(domain) -> Interval:
    if isinstance(domain, Interval):
        return domain
    lo, hi = domain
    return make_interval(lo, hi)


# ---------------------------------------------------------------------------
# Darboux enclosures on monotone pieces
# ---------------------------------------------------------------------------

def _darboux_uniform(ev: _Evaluator, lo: float, hi: float, n: int, budget: list):
    xs = np.linspace(lo, hi, n + 1)
    vals = ev(xs)
    _finite_or_raise(vals, xs)
    budget[0] -= n
    h = (hi - lo) / n
    lower = h * float(np.sum(np.minimum(vals[:-1], vals[1:])))
    upper = h * float(np.sum(np.maximum(vals[:-1], vals[1:])))
    return lower, upper


def _darboux_piece(ev, lo, hi, flo, fhi, tol, depth, budget, cap):
    """Bracket ``∫_[lo,hi] f`` for monotone ``f`` with known endpoint values.

    ``cap`` limits the evaluations this subtree may use, so an expensive
    region cannot starve its siblings: bisection passes each child a share
    proportional to ``sqrt(span * variation)`` (the N-optimal split) plus
    whatever its left sibling returned unused.  When the tolerance is not
    reachable within the cap, the node degrades to the finest uniform grid
    its allotment buys — the bracket is still valid, just wider than asked.
    """
    span = hi - lo
    var = abs(fhi - flo)
    if span * var == 0.0:
        v = span * flo
        return v, v, True
    cap = min(cap, max(0, budget[0]))
    if cap < 2:  # out of evaluations: secant cell from the endpoint values
        lower, upper = span * min(flo, fhi), span * max(flo, fhi)
        return lower, upper, (upper - lower) <= tol * (1 + 1e-9)
    need = span * var / tol
    if need <= UNIFORM_MAX and need <= cap:
        n = max(1, math.ceil(need))
        lower, upper = _darboux_uniform(ev, lo, hi, n, budget)
        return lower, upper, (upper - lower) <= tol * (1 + 1e-9)
    if depth >= MAX_SPLIT_DEPTH or cap <= LEAF_CELLS:
        n = int(min(UNIFORM_MAX, cap))
        lower, upper = _darboux_uniform(ev, lo, hi, n, budget)
        return lower, upper, (upper - lower) <= tol * (1 + 1e-9)
    mid = lo + 0.5 * span
    fmid = float(ev(np.array([mid]))[0])
    if not math.isfinite(fmid):
        raise NonFiniteError(f"integrand non-finite at x = {mid!r}")
    budget[0] -= 1
    w1 = math.sqrt((mid - lo) * abs(fmid - flo))
    w2 = math.sqrt((hi - mid) * abs(fhi - fmid))
    tol1 = tol * (w1 / (w1 + w2)) if (w1 + w2) > 0 else 0.5 * tol
    cap1 = int((cap - 1) * (w1 / (w1 + w2))) if (w1 + w2) > 0 else (cap - 1) // 2
    before = budget[0]
    l1, u1, c1 = _darboux_piece(ev, lo, mid, flo, fmid, tol1, depth + 1, budget, cap1)
    used = before - budget[0]
    l2, u2, c2 = _darboux_piece(ev, mid, hi, fmid, fhi, tol - tol1, depth + 1,
                                budget, cap - 1 - used)
    return l1 + l2, u1 + u2, c1 and c2


def _check_tiling(domain: Interval, pieces: Sequence[Interval]) -> list[Interval]:
    if not pieces:
        raise BadPiecesError("at least one monotone piece is required")
    ivs = [_as_interval(p) for p in pieces]
    if ivs[0].lo != domain.lo or ivs[-1].hi != domain.hi:
        raise BadPiecesError(
            f"pieces span [{ivs[0].lo}, {ivs[-1].hi}], domain is "
            f"[{domain.lo}, {domain.hi}]"
        )
    for a, b in zip(ivs, ivs[1:]):
        if a.hi != b.lo:
            raise BadPiecesError(f"gap or overlap between pieces at {a.hi} / {b.lo}")
    for iv in ivs:
        if iv.is_degenerate():
            raise BadPiecesError(f"degenerate piece [{iv.lo}, {iv.hi}]")
    return ivs


def _sample_monotone(ev: _Evaluator, iv: Interval, samples: int = 17) -> tuple[float, float]:
    """Cheap sanity check that samples of f on ``iv`` don't change direction.

    Returns the endpoint values.  Catches blatantly non-monotone declarations;
    it is a sampling heuristic, not a proof — the declaration is the contract.
    """
    xs = np.linspace(iv.lo, iv.hi, samples)
    vals = ev(xs)
    _finite_or_raise(vals, xs)
    eps = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    diffs = np.diff(vals)
    if (diffs > eps).any() and (diffs < -eps).any():
        raise BadPiecesError(
            f"integrand is not monotone on declared piece [{iv.lo}, {iv.hi}]"
        )
    return float(vals[0]), float(vals[-1])


def integrate_enclosure(
    f: Callable,
    domain,
    monotone_pieces: Optional[Sequence] = None,
    tol: float = 1e-6,
) -> Enclosure:
    """Darboux enclosure of ``∫_domain f`` using declared monotone pieces.

    ``monotone_pieces`` must tile the domain left to right (default: the
    whole domain as one piece).  See the module docstring for the refinement
    strategy and the meaning of ``converged``.
    """
    domain = _as_interval(domain)
    _check_tol(tol)
    if domain.is_degenerate():
        return Enclosure(0.0, 0.0, True)
    pieces = _check_tiling(domain, monotone_pieces if monotone_pieces is not None else [domain])
    ev = _Evaluator(f)
    ends = [_sample_monotone(ev, iv) for iv in pieces]
    weights = [math.sqrt(iv.length * abs(b - a)) for iv, (a, b) in zip(pieces, ends)]
    wsum = sum(weights)
    budget = [CELL_BUDGET]
    lower = upper = 0.0
    converged = True
    for iv, (flo, fhi), w in zip(pieces, ends, weights):
        tol_i = tol * (w / wsum) if wsum > 0 else tol / len(pieces)
        cap_i = int(CELL_BUDGET * (w / wsum)) if wsum > 0 else CELL_BUDGET // len(pieces)
        l, u, c = _darboux_piece(ev, iv.lo, iv.hi, flo, fhi, tol_i, 0, budget,
                                 max(64, cap_i))
        lower += l
        upper += u
        converged = converged and c
    converged = converged and (upper - lower) <= tol * (1 + 1e-9)
    return Enclosure(lower, upper, converged)


# ---------------------------------------------------------------------------
# midpoint/trapezoid sandwich for convex integrands
# ---------------------------------------------------------------------------

def _sandwich_sums(ev: _Evaluator, lo: float, hi: float, n: int, budget: list):
    xs = np.linspace(lo, hi, n + 1)
    vals = ev(xs)
    _finite_or_raise(vals, xs)
    mids = 0.5 * (xs[:-1] + xs[1:])
    mvals = ev(mids)
    _finite_or_raise(mvals, mids)
    budget[0] -= 2 * n + 1
    h = (hi - lo) / n
    trap = h * (0.5 * float(vals[0]) + float(np.sum(vals[1:-1])) + 0.5 * float(vals[-1]))
    midp = h * float(np.sum(mvals))
    return midp, trap


def _convex_piece(ev, lo, hi, tol, depth, budget):
    n0 = 16
    m, t = _sandwich_sums(ev, lo, hi, n0, budget)
    w = t - m
    if w < -1e-12 * (abs(m) + abs(t) + 1.0):
        # midpoint sum above trapezoid sum beyond rounding: the sandwich
        # points the wrong way, so the convexity premise is false
        raise NotMonotoneError(
            f"integrand is not convex on [{lo}, {hi}] "
            f"(midpoint sum {m!r} exceeds trapezoid sum {t!r})"
        )
    if w <= tol or budget[0] <= 0:
        return m, t, w <= tol
    n_need = math.ceil(n0 * math.sqrt(w / tol) * 1.2)
    if n_need <= UNIFORM_MAX and 2 * n_need <= budget[0]:
        m, t = _sandwich_sums(ev, lo, hi, n_need, budget)
        w = t - m
        # keep doubling only while the O(1/N²) rate is actually delivered;
        # sub-quadratic improvement means the variation is concentrated and
        # bisection (below) is the better spend
        while w > tol and n_need < UNIFORM_MAX and 2 * (2 * n_need) + 1 <= budget[0]:
            n_need = min(UNIFORM_MAX, 2 * n_need)
            m2, t2 = _sandwich_sums(ev, lo, hi, n_need, budget)
            improved = (t2 - m2) <= 0.45 * w
            m, t, w = m2, t2, t2 - m2
            if not improved:
                break
        if w <= tol:
            return m, t, True
    if depth >= MAX_SPLIT_DEPTH or budget[0] <= 0:
        return m, t, False
    mid = lo + 0.5 * (hi - lo)
    m1, t1 = _sandwich_sums(ev, lo, mid, n0, budget)
    m2, t2 = _sandwich_sums(ev, mid, hi, n0, budget)
    a = max(0.0, t1 - m1) ** (1.0 / 3.0)
    b = max(0.0, t2 - m2) ** (1.0 / 3.0)
    if a + b == 0.0:
        return m1 + m2, t1 + t2, (t1 - m1) + (t2 - m2) <= tol
    tol1 = tol * a / (a + b)
    l1, u1, c1 = _convex_piece(ev, lo, mid, tol1, depth + 1, budget)
    l2, u2, c2 = _convex_piece(ev, mid, hi, tol - tol1, depth + 1, budget)
    return l1 + l2, u1 + u2, c1 and c2


def convex_enclosure(f: Callable, domain, tol: float) -> Enclosure:
    """Enclosure of ``∫_domain f`` for an integrand convex on the domain.

    Convexity is the caller's analytic responsibility (it is *not* sampled):
    for convex ``f`` the midpoint sum under-estimates and the trapezoid sum
    over-estimates on every cell, giving an O(1/N²) bracket.
    """
    domain = _as_interval(domain)
    _check_tol(tol)
    if domain.is_degenerate():
        return Enclosure(0.0, 0.0, True)
    ev = _Evaluator(f)
    budget = [CELL_BUDGET]
    lower, upper, conv = _convex_piece(ev, domain.lo, domain.hi, tol, 0, budget)
    # roundoff can nudge the sums past each other on near-linear integrands
    return Enclosure(min(lower, upper), max(lower, upper), conv)


# ---------------------------------------------------------------------------
# variable-upper-limit integrals and the halving composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarIntegralFn:
    """``x ↦ ∫_base^x f dμ`` stored as breakpoints and exact node values.

    Piecewise linear and continuous; node values are exact sums of the
    step-function increments, so evaluation at any breakpoint is exact.
    """

    base: float
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    integrand: Optional[StepFunction] = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise DomainMismatchError("breakpoints and values must align (>= 2 nodes)")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise OrderViolationError("breakpoints must be strictly increasing")
        if self.xs[0] != self.base:
            raise DomainMismatchError("first breakpoint must be the base point")
        if self.ys[0] != 0.0:
            raise DomainMismatchError("a variable-upper-limit integral vanishes at its base")

    @property
    def domain(self) -> Interval:
        return Interval(self.xs[0], self.xs[-1])

    def __call__(self, x: float) -> float:
        x = float(x)
        if not (self.xs[0] <= x <= self.xs[-1]):
            raise OutOfDomainError(f"{x} outside [{self.xs[0]}, {self.xs[-1]}]")
        i = _bisect.bisect_right(self.xs, x) - 1
        if i >= len(self.xs) - 1:
            i = len(self.xs) - 2
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (x - x0) * ((y1 - y0) / (x1 - x0))


def var_upper_integral(f: StepFunction, c: float) -> VarIntegralFn:
    """The continuous function ``x ↦ ∫_c^x f`` for a 1-dimensional ``f``."""
    if f.dim != 1:
        raise DimensionMismatchError("variable-upper-limit integrals are one-dimensional")
    amb = f.ambient.factors[0]
    if float(c) != amb.lo:
        raise AmbientMismatchError(f"base {c} is not the ambient lower endpoint {amb.lo}")
    xs, ys = [amb.lo], [0.0]
    for _, x1, k in _step_cells(f, amb.lo, amb.hi):
        ys.append(ys[-1] + k * (x1 - xs[-1]))
        xs.append(x1)
    return VarIntegralFn(base=amb.lo, xs=tuple(xs), ys=tuple(ys), integrand=f)


def _step_cells(f: StepFunction, lo, hi):
    """``(a, b, k)`` left to right for the canonical pieces of a 1-D ``f``
    clipped to ``[lo, hi]``, gaps as ``k = 0.0``.  Ties keep ``lo``/``hi``
    themselves, so an ambient built from ints keeps its int endpoints."""
    at = lo
    for b, k in f.pieces:
        a, z = max(lo, b.factors[0].lo), min(hi, b.factors[0].hi)
        if a >= z:
            continue
        if at < a:
            yield at, a, 0.0
        yield a, z, k
        at = z
    if at < hi:
        yield at, hi, 0.0


def eta(F: VarIntegralFn, G: VarIntegralFn, domain) -> VarIntegralFn:
    """Halving composition of two variable-upper-limit functions on [c, d]:

    ``eta(F, G)(x) = F(2x - c) / 2`` on the lower half and
    ``(F(d) + G(2x - d)) / 2`` on the upper half; continuous at the
    midpoint, 0 at ``c``.
    """
    domain = _as_interval(domain)
    c, d = domain.lo, domain.hi
    if F.domain != domain or G.domain != domain:
        raise DomainMismatchError(
            f"operands live on {F.domain.to_json()} / {G.domain.to_json()}, "
            f"expected {domain.to_json()}"
        )
    fd = F.ys[-1]
    xs: list[float] = []
    ys: list[float] = []
    for u, y in zip(F.xs, F.ys):
        xs.append(0.5 * (u + c))
        ys.append(0.5 * y)
    for u, y in zip(G.xs, G.ys):
        x = 0.5 * (u + d)
        if xs and x == xs[-1]:
            continue
        xs.append(x)
        ys.append(0.5 * (fd + y))
    return VarIntegralFn(base=c, xs=tuple(xs), ys=tuple(ys), integrand=None)


# ---------------------------------------------------------------------------
# Lebesgue–Stieltjes quadrature
# ---------------------------------------------------------------------------

STIELTJES_MAX_N = 1 << 22
# cells per block of a midpoint Stieltjes sum, so memory stays flat in N
STIELTJES_BLOCK = 1 << 16


def _stieltjes_sum(ev_f: _Evaluator, ev_phi: _Evaluator, lo: float, hi: float,
                   n: int) -> float:
    """``Σ f(m_i) (φ(x_{i+1}) - φ(x_i))`` on the uniform n-cell partition.

    The cells are summed ``STIELTJES_BLOCK`` at a time.  The grid is the one
    ``np.linspace(lo, hi, n + 1)`` builds, and ``n`` is a power of two, so
    adding the block sums pairwise reproduces numpy's pairwise sum over
    the whole partition.
    """
    step = (hi - lo) / n
    sums = []
    for k0 in range(0, n, STIELTJES_BLOCK):
        k1 = min(n, k0 + STIELTJES_BLOCK)
        xs = np.arange(k0, k1 + 1, dtype=float) * step + lo
        if k1 == n:
            xs[-1] = hi
        phis = ev_phi(xs)
        _finite_or_raise(phis, xs)
        mids = 0.5 * (xs[:-1] + xs[1:])
        fm = ev_f(mids)
        _finite_or_raise(fm, mids)
        sums.append(float(np.sum(fm * np.diff(phis))))
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def _monotone_runs(ev: _Evaluator, iv: Interval, samples: int = 129):
    """Split ``iv`` at sampled direction changes of the integrand.

    Returns a list of intervals on which samples are one-directional, with
    each internal boundary sharpened by ternary search, or None when the
    samples change direction too often to trust the picture.
    """
    xs = np.linspace(iv.lo, iv.hi, samples)
    vals = ev(xs)
    _finite_or_raise(vals, xs)
    eps = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    diffs = np.diff(vals)
    signs = np.where(diffs > eps, 1, np.where(diffs < -eps, -1, 0))
    flips = []
    current = 0
    for i, s in enumerate(signs):
        if s == 0:
            continue
        if current != 0 and s != current:
            flips.append(i)
        current = s
    if len(flips) > 8:
        return None
    cuts = []
    for i in flips:
        lo, hi = float(xs[max(0, i - 1)]), float(xs[min(len(xs) - 1, i + 1)])
        for _ in range(80):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            v1 = float(ev(np.array([m1]))[0])
            v2 = float(ev(np.array([m2]))[0])
            going_up = signs[i] < 0  # extremum is a max iff direction flips + -> -
            if (v1 < v2) == going_up:
                lo = m1
            else:
                hi = m2
        cuts.append(0.5 * (lo + hi))
    pts = [iv.lo] + sorted(cuts) + [iv.hi]
    return [Interval(a, b) for a, b in zip(pts, pts[1:]) if a < b]


def _stieltjes_exact_step(f: StepFunction, phi: StieltjesMeasure, domain: Interval) -> float:
    total = 0.0
    for a, z, k in _step_cells(f, domain.lo, domain.hi):
        if k != 0.0:
            total += k * (float(phi.phi(z)) - float(phi.phi(a)))
    return total


def _density_enclosure(f, fp, domain: Interval, tol: float) -> Optional[Enclosure]:
    """Best-effort enclosure of ``∫ f(t) φ'(t) dt``; None if not certifiable.

    For a step function the integrand is handled one constant-coefficient
    cell at a time, the cells :func:`_stieltjes_exact_step` reads; otherwise
    ``f * φ'`` is split on sampled monotone runs.  Returns None when sampling
    cannot produce a trustworthy monotone-piece picture.
    """
    if isinstance(f, StepFunction):
        cells = list(_step_cells(f, domain.lo, domain.hi))
        ev_fp = _Evaluator(fp)
        total: Enclosure = Enclosure(0.0, 0.0)
        tol_sub = tol / max(1, len(cells))
        for a, b_, k in cells:
            if k == 0.0:
                continue

            def g(xs, _k=k):
                return _k * ev_fp(np.atleast_1d(np.asarray(xs, dtype=float)))

            runs = _monotone_runs(_Evaluator(g), Interval(a, b_))
            if runs is None:
                return None
            try:
                total = total + integrate_enclosure(g, (a, b_), runs, tol_sub)
            except BadPiecesError:
                return None
        return total

    ev_f = _Evaluator(f)
    ev_fp = _Evaluator(fp)

    def g(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return ev_f(xs) * ev_fp(xs)

    pieces = _monotone_runs(_Evaluator(g), domain)
    if pieces is None:
        return None
    try:
        return integrate_enclosure(g, domain, pieces, tol)
    except BadPiecesError:
        return None


def _stieltjes_cross_check(f, phi: StieltjesMeasure, domain: Interval,
                           value: float, tol: float) -> None:
    """Compare against an enclosure of ``∫ f(t) φ'(t) dt`` when possible."""
    enc = _density_enclosure(f, phi.phi_prime, domain, max(tol, 1e-12))
    if enc is None:
        return
    if not (enc.lower - 2.0 * tol <= value <= enc.upper + 2.0 * tol):
        raise MethodDisagreementError(
            f"Stieltjes sum {value!r} disagrees with density enclosure "
            f"[{enc.lower!r}, {enc.upper!r}] beyond 2*tol"
        )


def stieltjes_integrate(f, phi: StieltjesMeasure, domain, tol: float = 1e-9) -> float:
    """Lebesgue–Stieltjes integral ``∫_domain f dφ``.

    Step functions integrate exactly as ``Σ k_i (φ(hi_i) - φ(lo_i))`` over
    the pieces clipped to the domain.  Other evaluators use midpoint
    Stieltjes sums ``Σ f(m_i) (φ(x_{i+1}) - φ(x_i))`` on uniform partitions,
    doubling the resolution until two successive sums agree within tol/2
    (midpoint refinement converges at second order for smooth data, so the
    returned sum is then well inside tol).  When ``phi.phi_prime`` is
    supplied the result is cross-checked against a certified enclosure of
    ``∫ f φ'``.
    """
    domain = _as_interval(domain)
    _check_tol(tol)
    if domain.is_degenerate():
        return 0.0
    phi.check_monotone(domain)
    if isinstance(f, StepFunction):
        if f.dim != 1:
            raise DimensionMismatchError("Stieltjes integration is one-dimensional")
        value = _stieltjes_exact_step(f, phi, domain)
        if phi.phi_prime is not None:
            _stieltjes_cross_check(f, phi, domain, value, max(tol, 1e-12))
        return value

    ev_f = _Evaluator(f)
    ev_phi = _Evaluator(phi.phi)
    n = 64
    prev = None
    value = None
    while n <= STIELTJES_MAX_N:
        s = _stieltjes_sum(ev_f, ev_phi, domain.lo, domain.hi, n)
        if prev is not None and abs(s - prev) <= 0.5 * tol:
            value = s
            break
        prev = s
        n *= 2
    if value is None:
        raise ToleranceUnreachedError(
            f"Stieltjes sums did not settle within {tol} by N = {STIELTJES_MAX_N}"
        )
    if phi.phi_prime is not None:
        _stieltjes_cross_check(f, phi, domain, value, tol)
    return value


# ---------------------------------------------------------------------------
# the weighted multiple integral over [0, t]^|weights|
# ---------------------------------------------------------------------------

def multiple_integral_affine_unit_box(weights: Mapping, t: float) -> float:
    """``Σ_v u_v · t²/2`` — the iterated integral of the weighted sum of
    coordinates over ``[0, t]`` in each variable, normalized per variable.

    Weights are positive integer multiplicities.  The value at ``t = 1`` is
    half the total weight; values for ``t < 1`` follow the same quadratic
    convention (see the package notes on the convention at ``t != 1``).
    """
    if not weights:
        raise EmptyWeightsError("weights must be a nonempty map")
    total = 0
    for v, u in weights.items():
        if not (isinstance(u, (int, float)) and float(u).is_integer() and u >= 1):
            raise OrderViolationError(
                f"weight for {v!r} must be a positive integer, got {u!r}"
            )
        total += int(u)
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteError("t must be finite")
    if not 0.0 <= t <= 1.0:
        raise OutOfDomainError(f"t must lie in [0, 1], got {t}")
    return total * t * t / 2.0


def integer_from_float(value: float, tol: float = 1e-9) -> int:
    """Round a float that must be an integer; reject misses beyond tol."""
    r = round(value)
    if abs(value - r) > tol:
        raise NonIntegerResultError(f"{value!r} is not within {tol} of an integer")
    return int(r)
