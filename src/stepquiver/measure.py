"""Intervals, boxes, dyadic segmentation and box-set normalization.

Everything downstream (step functions, integrals, posets) is built on the
types here.  Two design points worth knowing:

* Dyadic segmentation of ``[c, d]`` is generated by the two affine
  contractions ``kappa_c(x) = (x + c) / 2`` and ``kappa_d(x) = (x + d) / 2``.
  Depth-``t`` segments are enumerated by words over ``{c, d}`` of length
  ``t`` in lexicographic order with ``c < d`` and the *first* letter most
  significant, i.e. segment ``s`` (0-based) corresponds to the binary digits
  of ``s``.  The composite map for a word is applied outermost-letter-first:
  word ``(c, c, d)`` means ``kappa_c ∘ kappa_c ∘ kappa_d``.
* All segment endpoints are computed by composing exact affine pairs
  ``(a, b) -> a*x + b`` whose coefficients are dyadic rationals, so up to
  depth 40 every endpoint is an exact binary64 value and tilings telescope
  with ``==`` rather than tolerance.
* Step functions, in every dimension, are stored as corner arrays: row
  ``i`` of the (m, n) arrays ``lo`` and ``hi`` is one piece.  Finite unions
  of boxes pass through the same arrays, and one canonicaliser serves
  both.  :func:`cut` cuts the non-degenerate boxes on their common per-axis
  endpoint grid into cells, rows of grid indices found repeated by one
  lexsort, and :func:`merge` merges equal-valued runs axis by axis with
  one lexsort per axis.  Two non-degenerate boxes overlap with
  positive measure exactly when they share a cell; degenerate boxes are
  exempt, so they may touch or repeat.  No ``Box`` is built on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DepthTooLargeError,
    DimensionMismatchError,
    GridTooLargeError,
    NonFiniteError,
    NotMonotoneError,
    OrderViolationError,
)

MAX_DEPTH = 40
MONOTONE_SAMPLES = 257   # points at which StieltjesMeasure.check_monotone samples phi


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"expected a finite real, got {v!r}")


# ---------------------------------------------------------------------------
# intervals and boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed bounded interval ``[lo, hi]``; ``lo == hi`` is legal."""

    lo: float
    hi: float

    def __post_init__(self):
        _check_finite(self.lo, self.hi)
        if self.lo > self.hi:
            raise OrderViolationError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def to_json(self) -> list:
        return [self.lo, self.hi]


def make_interval(lo: float, hi: float) -> Interval:
    """Validated interval constructor (finite endpoints, ``lo <= hi``)."""
    return Interval(float(lo), float(hi))


@dataclass(frozen=True)
class Box:
    """Finite product of intervals; the n = 1 case wraps a single interval."""

    factors: tuple[Interval, ...]

    def __post_init__(self):
        if not self.factors:
            raise DimensionMismatchError("a box needs at least one factor interval")

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def measure(self) -> float:
        m = 1.0
        for f in self.factors:
            m *= f.length
        return m

    def is_degenerate(self) -> bool:
        return any(f.is_degenerate() for f in self.factors)

    def contains_point(self, x: Sequence[float]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point of dim {len(x)} in box of dim {self.dim}")
        return all(f.contains(xi) for f, xi in zip(self.factors, x))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError(f"box dims differ: {other.dim} vs {self.dim}")
        return all(f.contains_interval(g) for f, g in zip(self.factors, other.factors))

    def intersect(self, other: "Box") -> Optional["Box"]:
        if other.dim != self.dim:
            raise DimensionMismatchError(f"box dims differ: {other.dim} vs {self.dim}")
        factors = []
        for f, g in zip(self.factors, other.factors):
            iv = f.intersect(g)
            if iv is None:
                return None
            factors.append(iv)
        return Box(tuple(factors))

    def sort_key(self):
        return tuple((f.lo, f.hi) for f in self.factors)

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]


def box(*intervals: Interval) -> Box:
    return Box(tuple(intervals))


def box1(lo: float, hi: float) -> Box:
    """One-dimensional box, the common case in examples and tests."""
    return Box((make_interval(lo, hi),))


def lebesgue_measure(b: Box) -> float:
    """Product of factor lengths; 0 for degenerate boxes."""
    return b.measure


# ---------------------------------------------------------------------------
# measurable sets (finite unions of disjoint boxes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurableSet:
    """Finite union of pairwise almost-disjoint boxes of one dimension.

    Boxes are stored sorted lexicographically by endpoints; input in which
    two non-degenerate boxes share a grid cell is rejected — use
    :func:`normalize_set` to turn an arbitrary finite union into this form.
    """

    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        if len({len(b.factors) for b in boxes}) > 1:
            raise DimensionMismatchError("mixed box dimensions in one set")
        lo, hi = box_arrays(boxes, boxes[0].dim if boxes else 1)
        # the order of Box.sort_key, stable as sorted() is
        order = np.lexsort([c for a, b in zip(lo.T[::-1], hi.T[::-1]) for c in (b, a)])
        object.__setattr__(self, "boxes", tuple(boxes[i] for i in order.tolist()))
        solid = (lo < hi).all(axis=1)
        cut(lo[solid], hi[solid], np.ones(solid.sum()),
            "boxes overlap with positive measure; normalize_set them first")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim if self.boxes else 0

    @property
    def measure(self) -> float:
        return sum(b.measure for b in self.boxes)

    def to_json(self) -> list:
        return [b.to_json() for b in self.boxes]


def measurable_set(boxes: Iterable[Box]) -> MeasurableSet:
    return MeasurableSet(tuple(boxes))


def box_arrays(boxes: Sequence[Box], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of boxes of dimension ``dim``, one row each."""
    ivs = [iv for b in boxes for iv in b.factors]
    return (np.array([iv.lo for iv in ivs], dtype=float).reshape(-1, dim),
            np.array([iv.hi for iv in ivs], dtype=float).reshape(-1, dim))


def boxes_of(lo: np.ndarray, hi: np.ndarray) -> list[Box]:
    """The boxes with corners ``lo[i]`` and ``hi[i]``, as Python floats."""
    return [Box(tuple(map(Interval, a, b))) for a, b in zip(lo.tolist(), hi.tolist())]


def spans(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[t], ..., start[t] + count[t] - 1`` for every ``t``, concatenated."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


CUT_CHUNK = 1 << 20     # cells expanded per round: heavily overlapping inputs stay small


def cut(lo: np.ndarray, hi: np.ndarray, vals: np.ndarray, repeat: str):
    """Cut non-degenerate boxes, corners ``lo[i]`` and ``hi[i]`` and value
    ``vals[i]``, on their common endpoint grid.

    Returns ``(grids, cells, values)``.  ``grids[ax]`` holds the sorted
    distinct endpoints on axis ``ax``, stored as ``x + 0.0`` so no grid point
    is ``-0.0``.  ``cells`` holds the index tuple of every grid cell a box
    covers (index ``i`` spans ``grids[ax][i]`` to ``grids[ax][i + 1]``), one
    row each, sorted by axis 1, 2, ... and then axis 0 as :func:`merge`
    first needs them, and ``values`` their values.  A cell covered again
    gets, by ``repeat``: ``"sum"``, the values added in box order; any
    other string, an :class:`OrderViolationError` with that message.

    A stable lexsort of the cells' index rows finds repeats on any grid.
    Boxes covering more cells than the grid has overlap, and are rejected
    uncut; 2**53 cells or more are a :class:`GridTooLargeError` (a
    ``MemoryError`` too) before any is expanded.
    """
    m, n = lo.shape
    grids, ends = zip(*(np.unique(np.concatenate((lo[:, ax], hi[:, ax])) + 0.0,
                                  return_inverse=True) for ax in range(n)))
    if m <= 1:      # a lone box is the one cell of its grid
        return grids, np.zeros((m, n), dtype=np.int64), vals
    ends = np.array(ends).T     # grid indices of the lower corners, then the upper
    first, width = ends[:m], ends[m:] - ends[:m]
    count = width.prod(axis=1, dtype=float)     # a float cannot wrap round to a small count
    total = count.sum()
    if repeat != "sum" and total > math.prod(len(g) - 1 for g in grids):
        raise OrderViolationError(repeat)
    if total >= 2.0 ** 53:      # past exact float counts, and far past any memory
        raise GridTooLargeError(f"{total:.3g} grid cells to expand")
    cells, values = np.zeros((0, n), dtype=np.int64), vals[:0]
    step = max(1, int(m * CUT_CHUNK // total))      # boxes per round
    for a in range(0, m, step):
        part = count[a:a + step].astype(np.int64)
        box = np.repeat(np.arange(a, a + len(part)), part)
        r = spans(np.zeros(len(part), dtype=np.int64), part)
        rows = np.concatenate((cells, np.empty((len(box), n), dtype=np.int64)))
        for ax in reversed(range(n)):
            rows[len(cells):, ax] = first[box, ax] + r % width[box, ax]
            r //= width[box, ax]
        # merge's order for axis 0; stable, so a cell's repeats stay in box order
        order = np.lexsort([rows[:, 0]] + [rows[:, j] for j in range(n - 1, 0, -1)])
        rows, values = rows[order], np.concatenate((values, vals[box]))[order]
        new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
        cells = rows[new]
        if repeat != "sum" and not new.all():
            raise OrderViolationError(repeat)
        # bincount adds each cell's values in box order
        values = (np.bincount(np.cumsum(new) - 1, weights=values, minlength=len(cells))
                  if repeat == "sum" else values)
    return grids, cells, values


def merge(grids: Sequence[np.ndarray], cells: np.ndarray, vals: np.ndarray):
    """Merge the :func:`cut` cells of equal value along axis 0, then axis 1,
    and on: two runs merge when their values compare equal, they meet on
    that axis and their spans on every other axis coincide.

    Returns the merged boxes as corner arrays ``lo``, ``hi`` and their
    values.  The order for the last axis sorts the runs by their spans, so
    the boxes come out sorted by :meth:`Box.sort_key`.
    """
    n = cells.shape[1]
    lo, hi = cells, cells + 1
    for ax in range(n if len(vals) > 1 else 0):     # one cell or none: nothing to merge
        others = [j for j in range(n) if j != ax]
        if ax:      # cut left the cells in this order for axis 0
            keys = [c for j in others[::-1] for c in (hi[:, j], lo[:, j])]
            order = np.lexsort([lo[:, ax]] + keys)
            lo, hi, vals = lo[order], hi[order], vals[order]
        joins = (vals[1:] == vals[:-1]) & (hi[:-1, ax] == lo[1:, ax])
        for j in others:
            joins &= (lo[1:, j] == lo[:-1, j]) & (hi[1:, j] == hi[:-1, j])
        start = np.flatnonzero(np.concatenate(([True], ~joins)))
        end = hi[np.append(start[1:], len(vals)) - 1, ax]
        lo, hi, vals = lo[start], hi[start], vals[start]
        hi[:, ax] = end
    return (np.array([g[lo[:, ax]] for ax, g in enumerate(grids)]).T,
            np.array([g[hi[:, ax]] for ax, g in enumerate(grids)]).T, vals)


def normalize_set(boxes: Iterable[Box]) -> MeasurableSet:
    """Canonical form of a finite union of boxes (union semantics).

    The non-degenerate boxes are :func:`cut` on their common endpoint grid,
    each covered cell counted once, and merged along axis 0, then axis 1,
    and so on.  The result is measure-preserving and sorted, e.g. ``{[0,2],
    [1,3]} -> {[0,3]}``.  A degenerate box is kept unless one of the merged
    boxes or another degenerate box contains it; of equal degenerate boxes
    the first given is kept.  So the result depends only on the boxes
    given, not their order, and is idempotent.

    Each containment test looks only at the boxes whose axis-0 spans meet
    the degenerate box's (:func:`meeting_pairs`), not at every box.
    """
    raw = list(boxes)
    if len({b.dim for b in raw}) > 1:
        raise DimensionMismatchError("mixed box dimensions")
    lo, hi = box_arrays(raw, raw[0].dim if raw else 1)
    solid = (lo < hi).all(axis=1)
    flat = np.flatnonzero(~solid)
    grids, cells, _ = cut(lo[solid], hi[solid], np.ones(solid.sum()), "sum")
    merged_lo, merged_hi, _ = merge(grids, cells, np.ones(len(cells)))
    _, first = np.unique(np.concatenate((lo[flat], hi[flat]), axis=1) + 0.0, axis=0,
                         return_index=True)
    flat = flat[first]      # each degenerate box once, sorted by lower corner
    flo, fhi = lo[flat], hi[flat]
    dropped = np.zeros(len(flat), dtype=bool)
    for big_lo, big_hi, same in ((merged_lo, merged_hi, False), (flo, fhi, True)):
        i, j = meeting_pairs(big_lo, big_hi, flo, fhi, strict=False)
        holds = (big_lo[i] <= flo[j]).all(axis=1) & (fhi[j] <= big_hi[i]).all(axis=1)
        dropped[j[holds & (i != j) if same else holds]] = True
    return MeasurableSet(tuple(boxes_of(merged_lo, merged_hi)
                               + [raw[t] for t in flat[~dropped].tolist()]))


def meeting_pairs(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray,
                  strict: bool, reach: Optional[np.ndarray] = None):
    """Candidate index pairs ``(i, j)``, query by query, of boxes
    ``lo[i] .. hi[i]`` (sorted by lower corner) and query boxes
    ``qlo[j] .. qhi[j]``: every pair whose axis-0 spans meet (with positive
    length when ``strict``) is among them, and callers test every axis.

    Two binary searches bound each query's window: the boxes starting
    before its upper end, less those before the first whose running
    maximum upper end ``reach`` (computed when not given) passes its lower
    end.  For disjoint intervals the window holds exactly those meeting it.
    """
    if reach is None:
        reach = np.maximum.accumulate(hi[:, 0])
    before, after = ("right", "left") if strict else ("left", "right")
    start = np.searchsorted(reach, qlo[:, 0], before)
    count = np.maximum(np.searchsorted(lo[:, 0], qhi[:, 0], after) - start, 0)
    return spans(start, count), np.repeat(np.arange(len(count)), count)


# ---------------------------------------------------------------------------
# affine maps and dyadic segmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """Map ``x -> a*x + b`` stored as the exact coefficient pair ``(a, b)``."""

    a: float
    b: float

    def __call__(self, x: float) -> float:
        return self.a * x + self.b

    def compose(self, other: "AffineMap") -> "AffineMap":
        """``self ∘ other``, i.e. apply ``other`` first."""
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def image(self, iv: Interval) -> Interval:
        u, v = self(iv.lo), self(iv.hi)
        return Interval(min(u, v), max(u, v))

    def inverse(self) -> "AffineMap":
        if self.a == 0.0:
            raise OrderViolationError("constant affine map has no inverse")
        return AffineMap(1.0 / self.a, -self.b / self.a)


IDENTITY_MAP = AffineMap(1.0, 0.0)


@dataclass(frozen=True)
class DyadicScheme:
    """The pair of halving contractions attached to an ambient interval.

    ``kappa_lo`` sends the ambient onto its lower half ``[c, xi]`` and
    ``kappa_hi`` onto the upper half ``[xi, d]``, where ``xi`` is the
    midpoint ``(c + d) / 2``.
    """

    ambient: Interval

    def __post_init__(self):
        if self.ambient.is_degenerate():
            raise OrderViolationError("dyadic scheme needs a non-degenerate ambient")

    @property
    def xi(self) -> float:
        return self.ambient.midpoint

    @property
    def kappa_lo(self) -> AffineMap:
        return AffineMap(0.5, 0.5 * self.ambient.lo)

    @property
    def kappa_hi(self) -> AffineMap:
        return AffineMap(0.5, 0.5 * self.ambient.hi)

    def word_map(self, word: Sequence[int]) -> AffineMap:
        """Composite for a word over ``{0, 1}`` (0 = lower, 1 = upper).

        The first letter is outermost: ``word_map((0, 0, 1))`` is
        ``kappa_lo ∘ kappa_lo ∘ kappa_hi``.
        """
        if len(word) > MAX_DEPTH:
            raise DepthTooLargeError(f"depth {len(word)} exceeds {MAX_DEPTH}")
        m = IDENTITY_MAP
        for letter in word:
            m = m.compose(self.kappa_hi if letter else self.kappa_lo)
        return m

    def segment(self, t: int):
        return segment(self, t)


def segment(scheme: DyadicScheme, t: int):
    """Depth-``t`` segmentation: ``2**t`` intervals with their affine maps.

    Returns ``(intervals, maps)`` in word order (binary digits of the index,
    first letter most significant), which coincides with left-to-right
    geometric order.  ``t = 0`` returns the ambient with the identity map.
    """
    if t < 0 or t != int(t):
        raise OrderViolationError(f"depth must be a non-negative integer, got {t!r}")
    t = int(t)
    if t > MAX_DEPTH:
        raise DepthTooLargeError(f"depth {t} exceeds {MAX_DEPTH}")
    amb = scheme.ambient
    intervals: list[Interval] = []
    maps: list[AffineMap] = []
    for s in range(2 ** t):
        word = [(s >> (t - 1 - k)) & 1 for k in range(t)]
        m = scheme.word_map(word)
        intervals.append(m.image(amb))
        maps.append(m)
    return intervals, maps


# ---------------------------------------------------------------------------
# Lebesgue–Stieltjes distribution data
# ---------------------------------------------------------------------------

def _directions(vals: np.ndarray) -> np.ndarray:
    """The direction of each step between successive samples, along the
    last axis: 1 up, -1 down, 0 for a step within the dead band ``1e-12·(1
    + max|v|)`` of its row."""
    eps = 1e-12 * (1.0 + np.max(np.abs(vals), axis=-1, keepdims=True))
    diffs = np.diff(vals)
    return np.where(diffs > eps, 1, np.where(diffs < -eps, -1, 0))


@dataclass
class StieltjesMeasure:
    """Distribution-function data for Lebesgue–Stieltjes integration.

    ``phi`` must be non-decreasing on any interval it is integrated against
    (checked by sampling at call time).  ``phi_prime`` is optional; when
    present it enables an independent cross-check of Stieltjes sums against
    a certified enclosure of ``∫ f(t) phi'(t) dt``.
    """

    phi: Callable[[float], float]
    phi_prime: Optional[Callable[[float], float]] = None
    label: str = field(default="phi")

    def check_monotone(self, iv: Interval) -> None:
        if iv.is_degenerate():
            return
        xs = np.linspace(iv.lo, iv.hi, MONOTONE_SAMPLES)
        # a non-finite sample raises NonFiniteError just below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray([float(self.phi(float(x))) for x in xs])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError(f"{self.label} is non-finite on [{iv.lo}, {iv.hi}]")
        drops = _directions(vals) < 0
        if drops.any():
            i = int(np.argmax(drops))
            raise NotMonotoneError(
                f"{self.label} decreases near x = {xs[i]:.6g} on [{iv.lo}, {iv.hi}]"
            )


def log_power_measure(l: float) -> StieltjesMeasure:
    """The family ``phi_l(t) = l * ln t`` (valid on positive intervals).

    Its density is ``phi_l'(t) = l / t``, supplied so Stieltjes sums can be
    cross-checked against a certified enclosure.  Both accept a float or an
    ndarray, so quadrature evaluates them a whole grid at a time.
    """
    return StieltjesMeasure(
        phi=lambda x: l * np.log(x),
        phi_prime=lambda x: l / x,
        label=f"{l}*ln(t)",
    )


def identity_measure() -> StieltjesMeasure:
    """``phi(t) = t``: plain Lebesgue integration as a Stieltjes measure."""
    return StieltjesMeasure(phi=lambda x: x,
                            phi_prime=lambda x: np.ones_like(x, dtype=float),
                            label="t")
