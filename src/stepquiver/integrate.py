"""Integration: step-function integrals and certified enclosures.

The step layer (:func:`integrate_step`) is plain binary64 arithmetic.
The numeric layer brackets integrals of ordinary evaluators between a
lower and an upper sum:

* :func:`integrate_enclosure` — Darboux min/max sums on declared monotone
  pieces.
* :func:`convex_enclosure` — for integrands known (analytically, by the
  caller) to be convex, the midpoint sum is a lower and the trapezoid sum
  an upper bound; the bracket width scales like 1/N².

The elementary functions (:mod:`stepquiver.elemfn`) use a third rule,
:func:`_simpson_rule`: composite Simpson with an analytic f⁗ remainder and a
rigorous rounding term, a fourth-order bracket for integrands whose fourth
derivative is non-negative and bounded in closed form.

All three run on one driver, :class:`Primitive`.  A cell rule gives a cell's
two bounds on a uniform grid of ``RULE_CELLS`` sub-cells; it takes up to two
cells, lays their grids out as the rows of one array and calls the integrand
once on it.  The driver keeps the cells in a heap by bracket width and
bisects the widest one, both halves in one rule call, until the widths sum
to at most ``tol``, the next bisection would spend more than
``CELL_BUDGET`` evaluations, or the widest cell has no float strictly
inside it.  The order of the bisections depends on the widths alone, and
each bisection refines both sums, so a smaller ``tol`` passes through the
state at which a larger one stops: a tighter tolerance never returns a
wider bracket (up to the rounding of the sums).  A driver that stops short
of ``tol`` returns its bracket flagged ``converged=False`` — it still
brackets the integral, it is just wider than requested.

The driver is resumable.  A :class:`Primitive` is ``y ↦ ∫_base^y f`` for
``y >= base`` and keeps its refined cells between queries: a query at ``y``
adds one breakpoint there and refines only the cells between ``base`` and
``y``, under one budget for all its queries.  An inversion that asks for
``F`` at a run of nearby points (:mod:`stepquiver.elemfn`) so pays for about
one tight enclosure, not one per point.  A single enclosure is the
single-query case (:func:`_refine` for given starting cells), with the
same bisections, brackets and evaluation counts.

A call that stops on the budget evaluates ``CELL_BUDGET`` grid points in one
integrand call per bisection, both halves on one grid, so the rules keep
the cost of a point and of a call low.  Each grid is a scaled copy of
one cached array of the integers ``0 … 2·RULE_CELLS``, the same points
``np.linspace`` gives.  On a monotone cell, with ``S = Σ v_i``,
``Σ min(v_i, v_i+1) = S − max(v_0, v_N)`` and ``Σ max(v_i, v_i+1) = S −
min(v_0, v_N)``, so the Darboux rule takes one sum once one comparison
pass finds the values monotone.  Every rule scans its values for a
non-finite one only when a sum is not finite.

The refinement is deterministic: identical inputs produce identical
enclosures.
"""

from __future__ import annotations

import bisect as _bisect
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    BadPiecesError,
    DimensionMismatchError,
    DomainMismatchError,
    MethodDisagreementError,
    NonFiniteError,
    NotMonotoneError,
    OrderViolationError,
    OutOfDomainError,
    ToleranceUnreachedError,
)
from .measure import Interval, StieltjesMeasure, _directions, make_interval
from .stepfn import Region, StepFunction, _clipped, _is_real, _measures, region_corners

CELL_BUDGET = 1 << 24
# unit roundoff of binary64: a correctly rounded operation is off by at most
# this times its exact result
_U = 2.0 ** -53
# uniform sub-cells of the grid a cell rule lays inside every cell
RULE_CELLS = 1 << 12
# 0, 1, ..., 2 RULE_CELLS: every rule scales a prefix of it into its grid
_UNIT = np.arange(2 * RULE_CELLS + 1, dtype=float)


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
# integration of step functions
# ---------------------------------------------------------------------------

def integrate_step(f: StepFunction, region: Optional[Region] = None) -> float:
    """``Σ_i k_i * μ(X_i ∩ region)``; default region is the full ambient
    box.  The terms are added left to right in binary64, piece by piece
    and, within a piece, region box by region box: exact whenever every
    product and partial sum is representable, as on dyadic data.  A sum
    that overflows raises :class:`NonFiniteError`."""
    i, lo, hi = _clipped(f, *region_corners(f.ambient if region is None else region, f.ambient))
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_running_sum([f.k[i] * _measures(lo, hi)])[-1:], "integral")[0]


def _finite(values: np.ndarray, what: str) -> list:
    """``values`` as Python floats, once none has overflowed."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"the step-function {what} overflows binary64")
    return values.tolist()


def _running_sum(terms: list) -> np.ndarray:
    """``0.0`` and the partial sums of the concatenated ``terms``, added one
    at a time as a Python loop would (not numpy's pairwise ``np.sum``)."""
    return np.cumsum(np.concatenate(([0.0], *terms)))


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


def _check_tol(tol) -> float:
    """``tol`` as a Python float, once it is a finite positive real (a
    numpy scalar is one, a ``bool`` is not): then a numpy tolerance gives
    the same brackets as its float, and every ``converged`` is a ``bool``."""
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0):
        raise OrderViolationError(f"tolerance must be a positive real, got {tol!r}")
    return float(tol)


def _met(width: float, tol: float) -> bool:
    """Whether a bracket of ``width`` meets ``tol``, up to a relative 1e-9
    that forgives the rounding of the width: every ``converged`` flag."""
    return width <= tol * (1 + 1e-9)


def _as_interval(domain) -> Interval:
    if isinstance(domain, Interval):
        return domain
    lo, hi = domain
    return make_interval(lo, hi)


# ---------------------------------------------------------------------------
# the refinement driver and its three cell rules
# ---------------------------------------------------------------------------

_LO = operator.itemgetter(1)
_NEG_WIDTH = operator.itemgetter(0)


class Primitive:
    """``F(y) = ∫_base^y f`` for ``y >= base`` and one cell rule, with its
    refined cells kept between queries.

    A query ``enclose(y, tol)`` adds a breakpoint at ``y``: one split of the
    cell that holds it, or one new cell past the cells so far.  It then
    bisects the widest cell between ``base`` and ``y`` until their widths
    sum to at most ``tol``, the next bisection would take the evaluations
    of all queries together past ``CELL_BUDGET``, or the widest cell has no
    float strictly inside it.  The order depends only on the widths, so a
    smaller ``tol`` runs on from where a larger one stopped, and the cells
    one query refined serve every later query.  A query's breakpoint is
    evaluated even once the budget is spent, since the query cannot be
    answered without it: at most two cells a query.  :func:`_refine` is the
    single-query case.

    Every rule call holds at most two cells: a bisection enters both halves
    in one call, and the cells a query or :func:`_refine` starts from go two
    at a time, left to right.  A rule checks its cells in that order, so an
    error is the one the left cell alone would raise first.
    """

    def __init__(self, rule, base):
        self.rule = rule
        self.base = base
        self.cells: list = []   # heap entries sorted by lo; they tile [base, R]
        self.spent = self.cost = 0

    def _enter(self, cells) -> list:
        """Heap entries of the ``(lo, hi, k)`` of ``cells``, in order, from
        one rule call for each two cells."""
        entries = []
        for i in range(0, len(cells), 2):
            pair = cells[i:i + 2]
            bounds = self.rule([(lo, hi) for lo, hi, _ in pair])
            for (lo, hi, k), (lower, upper, self.cost) in zip(pair, bounds):
                self.spent += self.cost
                lower, upper = (k * lower, k * upper) if k >= 0 else (k * upper, k * lower)
                entries.append((lower - upper, lo, hi, k, lower, upper))
        return entries

    def _bisect(self, heap: list, tol: float) -> tuple[float, float, bool]:
        """Refine the cells of ``heap`` (entries, reordered in place) best
        first.

        The running sum of widths drifts, so a stop it suggests is confirmed
        by ``math.fsum``.  ``drift`` bounds how far it has drifted; once that
        exceeds an eighth of ``tol`` while the sum lies within it of ``tol``
        (as after cancelling a cell far wider than the rest), the sum is
        recomputed exactly, so a phantom remainder cannot hold it above
        ``tol`` for good.
        """
        width = sum(-e[0] for e in heap)
        drift = len(heap) * _U * sum(abs(e[0]) for e in heap)
        heapq.heapify(heap)
        while width > tol or -math.fsum(map(_NEG_WIDTH, heap)) > tol:
            neg, lo, hi, k, _, _ = heap[0]
            mid = lo + 0.5 * (hi - lo)
            if not lo < mid < hi or self.spent + 2 * self.cost > CELL_BUDGET:
                break
            left, right = self._enter(((lo, mid, k), (mid, hi, k)))
            heapq.heapreplace(heap, left)
            heapq.heappush(heap, right)
            # three roundings, each at most _U times a partial sum
            drift += 4 * _U * (abs(width) + abs(neg) + abs(left[0]) + abs(right[0]))
            width += neg - left[0] - right[0]
            if drift > 0.125 * tol and width - drift <= tol:
                width = -math.fsum(map(_NEG_WIDTH, heap))
                drift = _U * abs(width)
        lower = math.fsum(e[4] for e in heap)
        upper = math.fsum(e[5] for e in heap)
        return lower, upper, _met(upper - lower, tol)

    def enclose(self, y, tol: float) -> Enclosure:
        """Enclosure of ``F(y)``; ``converged`` says whether ``tol`` was met."""
        _check_tol(tol)
        base, cells = self.base, self.cells
        if not y >= base:
            raise OrderViolationError(f"primitive based at {base!r} queried at {y!r} below it")
        if y == base:
            return Enclosure(0.0, 0.0, True)
        # the part of a split cell beyond y is stored unevaluated until a
        # query needs it
        b = _bisect.bisect_left(cells, y, key=_LO)
        part, rest = cells[:b], []
        end = part[-1][2] if part else base
        if end < y:
            part.append(_pending(end, y, 1.0))
        elif end > y:
            _, lo, hi, k, _, _ = part.pop()
            part.append(_pending(lo, y, k))
            rest.append(_pending(y, hi, k))
        with np.errstate(over="ignore", invalid="ignore"):
            new = iter(self._enter([e[1:4] for e in part if e[0] is None]))
            heap = [e if e[0] is not None else next(new) for e in part]
            lower, upper, conv = self._bisect(heap, tol)
        cells[:b] = sorted(heap + rest, key=_LO)
        # roundoff can nudge the sums past each other on near-linear integrands
        return Enclosure(min(lower, upper), max(lower, upper), conv)


def _pending(lo, hi, k):
    return (None, lo, hi, k, None, None)


def _refine(rule, cells, tol: float) -> tuple[float, float, bool]:
    """Bracket ``Σ k ∫_[lo,hi] f`` over ``cells`` of ``(lo, hi, k)``: the
    single-query case of :class:`Primitive`, whose cells are these.

    ``rule(cells)`` returns ``(lower, upper, evaluations)`` for each
    ``(lo, hi)`` of up to two ``cells``, from one integrand call.  The
    starting cells are evaluated, two to a call, whatever their number; each
    bisection after them is one call.
    """
    p = Primitive(rule, None)
    # A rule's sum that overflows is reported as a NonFiniteError, so numpy's
    # warning on the way is noise; one errstate per call, not per cell.
    with np.errstate(over="ignore", invalid="ignore"):
        return p._bisect(p._enter(cells), tol)


def _grid(cells, n: int):
    """One row ``np.linspace(lo, hi, n * RULE_CELLS + 1)`` per ``(lo, hi)`` of
    ``cells``, from the cached ``_UNIT``: numpy's ``k * step + lo`` with the
    last point ``hi``, so bit for bit the same points whenever the step is
    not 0."""
    xs = np.multiply.outer([(hi - lo) / (n * RULE_CELLS) for lo, hi in cells],
                           _UNIT[:n * RULE_CELLS + 1])
    lo, hi = zip(*cells)
    xs += np.array(lo, dtype=float)[:, None]
    xs[:, -1] = hi
    return xs


def _sampled(ev: _Evaluator, cells, n: int, *parts):
    """The :func:`_grid` of ``cells``, its values from one ``ev`` call on all
    rows, the end values of each row and, for each slice of ``parts``, the
    rows' sums of the values in it; a row's sum is the one ``np.sum`` gives
    on that row alone (a guard test checks this)."""
    xs = _grid(cells, n)
    vals = ev(xs.ravel()).reshape(xs.shape)
    return (xs, vals, vals[:, ::n * RULE_CELLS].tolist(),
            *(np.add.reduce(vals[:, p], axis=1).tolist() for p in parts))


_ALL, _ODD, _INNER_EVEN = np.s_[:], np.s_[1::2], np.s_[2:-1:2]


def _darboux_rule(ev: _Evaluator):
    """Lower and upper Darboux sums of a monotone ``f`` on each cell's
    :func:`_grid` of ``N = RULE_CELLS`` sub-cells.

    On monotone grid values, with ``S = Σ v_i``, the sums are
    ``h (S - max(v_0, v_N))`` and ``h (S - min(v_0, v_N))``.  Values that
    turn keep the pairwise min/max sums, whose width makes the driver
    refine a bump that :func:`_sample_monotone` stepped over.
    """
    def rule(cells):
        xs, vals, ends, sums = _sampled(ev, cells, 1, _ALL)
        # one comparison pass over the rows whose values rise end to end,
        # one over those whose values fall
        up = [v0 <= vn for v0, vn in ends]
        a, b = vals[:, :-1], vals[:, 1:]
        rises = (a <= b).all(axis=1) if any(up) else None
        falls = (b <= a).all(axis=1) if not all(up) else None
        out = []
        for i, ((lo, hi), s, (v0, vn)) in enumerate(zip(cells, sums, ends)):
            if not math.isfinite(s):  # a non-finite value, or finite ones that overflow
                _finite_or_raise(vals[i], xs[i])
            h = (hi - lo) / RULE_CELLS
            if (rises if up[i] else falls)[i]:
                out.append((h * (s - max(v0, vn)), h * (s - min(v0, vn)), RULE_CELLS + 1))
            else:
                ai, bi = (a[i], b[i]) if up[i] else (b[i], a[i])
                out.append((h * float(np.sum(np.minimum(ai, bi))),
                            h * float(np.sum(np.maximum(ai, bi))), RULE_CELLS + 1))
        return out
    return rule


def _sandwich_rule(ev: _Evaluator):
    """Midpoint (lower) and trapezoid (upper) sums of a convex ``f`` on each
    cell's grid; the midpoints are the odd points of one doubled
    :func:`_grid`."""
    def rule(cells):
        out = []
        for (lo, hi), x, v, (v0, vn), odd, even in zip(
                cells, *_sampled(ev, cells, 2, _ODD, _INNER_EVEN)):
            h = (hi - lo) / RULE_CELLS
            m = h * odd
            t = h * (0.5 * v0 + even + 0.5 * vn)
            if not (math.isfinite(m) and math.isfinite(t)):
                _finite_or_raise(v, x)
            if t - m < -1e-12 * (abs(m) + abs(t) + 1.0):
                # midpoint sum above trapezoid sum beyond rounding: the sandwich
                # points the wrong way, so the convexity premise is false
                raise NotMonotoneError(
                    f"integrand is not convex on [{lo}, {hi}] "
                    f"(midpoint sum {m!r} exceeds trapezoid sum {t!r})"
                )
            out.append((m, t, 2 * RULE_CELLS + 1))
        return out
    return rule


def _pairwise_depth(n: int) -> int:
    """The most additions any one term passes through in numpy's pairwise
    sum of ``n`` terms: runs of up to 128 go to eight interleaved
    accumulators, joined in three levels, with the last ``n % 8`` terms added
    one by one; longer runs are halved at a multiple of 8."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


# a Simpson sum's odd and even terms are RULE_CELLS / 2 and one fewer, each
# summed as ``np.sum`` sums them; three more additions join them with the
# two ends
_SIMPSON_DEPTH = 3 + max(_pairwise_depth(RULE_CELLS // 2),
                         _pairwise_depth(RULE_CELLS // 2 - 1))
# covers the second-order terms of a first-order rounding bound, and the
# roundings made while computing the bound itself
_SAFE = 1.0 + 2.0 ** -20


def _simpson_rule(ev: _Evaluator, d4max, d1max, ulps: float, origin: float = 0.0):
    """Composite Simpson bracket of an ``f`` with ``f⁗ >= 0`` on a cell's
    :func:`_grid` of ``N = RULE_CELLS`` sub-cells of width ``h``.

    The remainder of the Simpson sum ``S`` is ``-(b - a) h⁴ f⁗(ξ) / 180``
    (Davis & Rabinowitz, ch. 2), so ``[S - (b - a) h⁴ M / 180 - r, S + r]``
    brackets ``∫_a^b f`` when ``M = d4max`` bounds f⁗ on the cell.  ``r``
    bounds the rounding:

    * of the sum: the weights 1, 2 and 4 scale exactly, and each value
      passes through at most ``_SIMPSON_DEPTH`` additions of numpy's
      pairwise sum;
    * of the values: ``ev`` is within ``ulps`` ulps of f;
    * of the grid: a computed point lies within ``shift`` of its exact place,
      which moves its value by at most ``shift`` times ``d1max``, a bound of
      ``|f'|``;
    * of the product by ``h / 3``, the bracket's own two operations and the
      driver's ``math.fsum`` of the cells.

    The grid is laid out in offsets ``t - origin``, and ``ev``, ``d4max(a,
    b)`` and ``d1max(a, b)`` take points in them: an integrand singular at
    ``origin`` is then evaluated near it on points that keep their relative
    accuracy, where points near ``origin`` itself would each be off by up
    to half an ulp of ``origin``.
    """
    rel = (_SIMPSON_DEPTH + 2 * ulps + 8) * _U

    def rule(cells):
        out = []
        offsets = [(lo - origin, hi - origin) for lo, hi in cells]
        for (lo, hi), (a, b), x, v, (v0, vn), odd, even in zip(
                cells, offsets, *_sampled(ev, offsets, 1, _ODD, _INNER_EVEN)):
            raw = 4.0 * odd + 2.0 * even + v0 + vn
            w = hi - lo
            s = raw * (w / (3 * RULE_CELLS))
            if not math.isfinite(s):
                _finite_or_raise(v, x)
            shift = _U * (3.0 * abs(a) + 2.0 * abs(b) + 2.0 * abs(b - a))
            r = (rel * s + w * shift * d1max(a - 2.0 * shift, b + 2.0 * shift)) * _SAFE
            h2 = (w / RULE_CELLS) ** 2
            rem = w * h2 * h2 / 180.0 * d4max(a, b) * _SAFE
            out.append((s - rem - r, s + r, RULE_CELLS + 1))
        return out
    return rule


# ---------------------------------------------------------------------------
# Darboux enclosures on monotone pieces
# ---------------------------------------------------------------------------

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


def _sample_rows(ev: _Evaluator, cells: list, num: int):
    """Each ``(lo, hi, k)`` of ``cells`` with its samples ``np.linspace(lo,
    hi, num)`` and their :func:`_directions`, in order: one ``ev`` call on
    the rows of all cells, and a row's non-finite value raised when the
    caller reaches it, as a cell-by-cell loop would."""
    if not cells:
        return
    xs = np.array([np.linspace(lo, hi, num) for lo, hi, _ in cells])
    vals = ev(xs.ravel()).reshape(xs.shape)
    with np.errstate(invalid="ignore"):     # a non-finite row raises before it is read
        signs = _directions(vals)
    for cell, x, v, s in zip(cells, xs, vals, signs):
        _finite_or_raise(v, x)
        yield cell, x, s


def _sample_monotone(ev: _Evaluator, cells: list) -> list:
    """Cheap sanity check that 17 samples of f on each ``[lo, hi]`` of the
    ``(lo, hi, k)`` of ``cells``, all taken in one evaluator call, don't
    change direction; returns ``cells``.

    Catches blatantly non-monotone declarations; it is a sampling heuristic,
    not a proof — the declaration is the contract.
    """
    for (lo, hi, _), _, signs in _sample_rows(ev, cells, 17):
        if (signs > 0).any() and (signs < 0).any():
            raise BadPiecesError(f"integrand is not monotone on declared piece [{lo}, {hi}]")
    return cells


def _darboux(ev: _Evaluator, cells: list, tol: float) -> Enclosure:
    """Darboux enclosure of ``Σ k ∫_[lo,hi] f`` over the ``(lo, hi, k)`` of
    ``cells``, checked by :func:`_sample_monotone`: one driver call."""
    return Enclosure(*_refine(_darboux_rule(ev), cells, tol))


def integrate_enclosure(
    f: Callable,
    domain,
    monotone_pieces: Optional[Sequence] = None,
    tol: float = 1e-6,
) -> Enclosure:
    """Darboux enclosure of ``∫_domain f`` using declared monotone pieces.

    ``monotone_pieces`` must tile the domain left to right (default: the
    whole domain as one piece); they are the driver's starting cells.  See
    the module docstring for the refinement and the meaning of ``converged``.
    """
    domain = _as_interval(domain)
    tol = _check_tol(tol)
    if domain.is_degenerate():
        return Enclosure(0.0, 0.0, True)
    pieces = _check_tiling(domain, monotone_pieces if monotone_pieces is not None else [domain])
    ev = _Evaluator(f)
    return _darboux(ev, _sample_monotone(ev, [(iv.lo, iv.hi, 1.0) for iv in pieces]), tol)


# ---------------------------------------------------------------------------
# midpoint/trapezoid sandwich for convex integrands
# ---------------------------------------------------------------------------

def convex_enclosure(f: Callable, domain, tol: float) -> Enclosure:
    """Enclosure of ``∫_domain f`` for an integrand convex on the domain.

    Convexity is the caller's analytic responsibility (it is *not* sampled):
    for convex ``f`` the midpoint sum under-estimates and the trapezoid sum
    over-estimates on every cell, giving an O(1/N²) bracket.
    """
    domain = _as_interval(domain)
    tol = _check_tol(tol)
    if domain.is_degenerate():
        return Enclosure(0.0, 0.0, True)
    return Primitive(_sandwich_rule(_Evaluator(f)), domain.lo).enclose(domain.hi, tol)


# ---------------------------------------------------------------------------
# variable-upper-limit integrals and the halving composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarIntegralFn:
    """``x ↦ ∫_base^x f dμ`` stored as breakpoints and node values.

    Piecewise linear and continuous.  The node values are left-to-right
    binary64 sums of the step-function increments, exact whenever every
    product and partial sum is representable (as on dyadic data), and
    evaluation at a breakpoint returns its node value.
    """

    base: float
    xs: tuple[float, ...]
    ys: tuple[float, ...]

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
    """The continuous function ``x ↦ ∫_c^x f`` for a 1-dimensional ``f``.

    Its nodes are the breakpoints of ``f`` (ambient ends and gaps
    included), and its node values the left-to-right binary64 sums of the
    cells' ``k · (b − a)``; a node that overflows raises
    :class:`NonFiniteError`."""
    if f.dim != 1:
        raise DimensionMismatchError("variable-upper-limit integrals are one-dimensional")
    amb = f.ambient.factors[0]
    if float(c) != amb.lo:
        raise AmbientMismatchError(f"base {c} is not the ambient lower endpoint {amb.lo}")
    # the cells between the ambient ends and the piece ends, empty ones dropped
    pts = np.concatenate(([amb.lo], np.stack((f.lo[:, 0], f.hi[:, 0]), axis=1).ravel(),
                          [amb.hi])) + 0.0
    vals = np.zeros(len(pts) - 1)
    vals[1::2] = f.k
    full = pts[1:] > pts[:-1]
    xs = np.append(pts[:-1][full], pts[-1]).tolist()
    xs[0], xs[-1] = amb.lo, amb.hi      # an ambient built from ints keeps its ints
    with np.errstate(over="ignore", invalid="ignore"):
        ys = _finite(_running_sum([vals[full] * np.diff(pts)[full]]), "integral node")
    return VarIntegralFn(base=amb.lo, xs=tuple(xs), ys=tuple(ys))


def _nonzero_cells(f: StepFunction, lo, hi) -> list:
    """``(a, b, k)`` left to right for the pieces of a 1-D ``f`` clipped to
    ``[lo, hi]``, where the clip has positive length."""
    i, a, b = _clipped(f, np.array([[lo]], dtype=float), np.array([[hi]], dtype=float))
    return list(zip(a[:, 0].tolist(), b[:, 0].tolist(), f.k[i].tolist()))


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

    def halve(H: VarIntegralFn, end: float, start: float) -> list:
        # -0.0 + y is y for every y, signed zeros included
        return [(0.5 * (u + end), 0.5 * (start + y)) for u, y in zip(H.xs, H.ys)]

    nodes = halve(F, c, -0.0)
    # a node of the upper half that rounds onto its predecessor is dropped
    for x, y in halve(G, d, F.ys[-1]):
        if x != nodes[-1][0]:
            nodes.append((x, y))
    xs, ys = zip(*nodes)
    return VarIntegralFn(base=c, xs=xs, ys=ys)


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


def _monotone_runs(ev: _Evaluator, cells: list) -> Optional[list]:
    """Split each ``(lo, hi, k)`` of ``cells`` at the turns of 129 samples
    of the integrand: the ``(lo, hi, k)`` runs in order, each inner end
    sharpened by an 80-step ternary search, or None once a cell turns more
    than 8 times.  One evaluator call takes the samples of all cells, and
    the searches of all turns run in lockstep, one evaluator call a step."""
    turns = []      # (cell, lo, hi, whether the extremum is a max) per turn
    for c, (_, xs, signs) in enumerate(_sample_rows(ev, cells, 129)):
        at = np.flatnonzero(signs)
        flips = at[1:][signs[at[1:]] != signs[at[:-1]]].tolist()
        if len(flips) > 8:
            return None
        turns += [(c, xs[i - 1], xs[i + 1], signs[i] < 0) for i in flips]
    inner = [[] for _ in cells]
    if turns:
        owner, lo, hi, is_max = map(np.array, zip(*turns))
        for _ in range(80):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            v = ev(np.concatenate((m1, m2)))
            right = (v[:len(lo)] < v[len(lo):]) == is_max     # the extremum is past m1
            lo, hi = np.where(right, m1, lo), np.where(right, hi, m2)
        for c, cut in zip(owner.tolist(), (0.5 * (lo + hi)).tolist()):
            inner[c].append(cut)
    runs = []
    for (a, b, k), cuts in zip(cells, inner):
        pts = [a] + sorted(cuts) + [b]
        runs += [(x, y, k) for x, y in zip(pts, pts[1:]) if x < y]
    return runs


def _density_enclosure(f, fp, cells: list, tol: float) -> Optional[Enclosure]:
    """Best-effort enclosure of ``∫ f(t) φ'(t) dt``; None if not certifiable.

    For a step function the integrand is ``φ'`` on the clipped ``cells`` of
    ``(a, b, k)`` whose exact sum :func:`stieltjes_integrate` took, each
    carrying its coefficient; otherwise it is ``f * φ'`` on the one cell of
    the domain.  Every cell's runs are found (:func:`_monotone_runs`) before
    any is checked (:func:`_sample_monotone`): one evaluator call for the
    samples of all cells, one per ternary step, one for all runs' samples.
    All runs go to one :func:`_darboux` call.  Returns None when sampling
    cannot produce a trustworthy monotone-piece picture.
    """
    if isinstance(f, StepFunction):
        ev = _Evaluator(fp)
    else:
        ev_f, ev_fp = _Evaluator(f), _Evaluator(fp)

        def g(xs):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            return ev_f(xs) * ev_fp(xs)

        ev = _Evaluator(g)

    runs = _monotone_runs(ev, cells)
    if runs is None:
        return None
    try:
        pieces = _sample_monotone(ev, runs)
    except BadPiecesError:
        return None
    return _darboux(ev, pieces, tol)


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
    tol = _check_tol(tol)
    if domain.is_degenerate():
        return 0.0
    phi.check_monotone(domain)
    if isinstance(f, StepFunction):
        if f.dim != 1:
            raise DimensionMismatchError("Stieltjes integration is one-dimensional")
        cells = _nonzero_cells(f, domain.lo, domain.hi)
        value = 0.0
        for a, z, k in cells:
            value += k * (float(phi.phi(z)) - float(phi.phi(a)))
        slack = max(tol, 1e-12)
    else:
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
        cells = [(domain.lo, domain.hi, 1.0)]
        slack = tol
    if phi.phi_prime is not None:
        enc = _density_enclosure(f, phi.phi_prime, cells, max(tol, 1e-12))
        if enc is not None and not enc.lower - 2.0 * slack <= value <= enc.upper + 2.0 * slack:
            raise MethodDisagreementError(
                f"Stieltjes sum {value!r} disagrees with density enclosure "
                f"[{enc.lower!r}, {enc.upper!r}] beyond 2*tol"
            )
    return value
