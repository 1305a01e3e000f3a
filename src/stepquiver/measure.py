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
* Finite unions of boxes, and step functions of two or more dimensions,
  get their canonical form from one pair: :func:`grid_cells` cuts the
  non-degenerate boxes on their common endpoint grid into cells named by
  index tuples, and :func:`merge_cells` merges equal-valued runs axis by
  axis and builds boxes only for the result.  Two non-degenerate boxes
  overlap with positive measure exactly when they share a cell; degenerate
  boxes are exempt, so they may touch or repeat.
* numpy is imported only by the Lebesgue–Stieltjes helpers at the end
  (:meth:`StieltjesMeasure.check_monotone`, :func:`log_power_measure`,
  :func:`identity_measure`); the box layer loads without it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DepthTooLargeError,
    DimensionMismatchError,
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
        bs = tuple(sorted(self.boxes, key=Box.sort_key))
        object.__setattr__(self, "boxes", bs)
        if bs:
            d = bs[0].dim
            for b in bs[1:]:
                if b.dim != d:
                    raise DimensionMismatchError("mixed box dimensions in one set")
            grid_cells([(b, None) for b in bs if not b.is_degenerate()],
                       overlap_error("boxes overlap with positive measure; "
                                     "normalize_set them first"))

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


def overlap_error(message: str) -> Callable:
    """A ``repeat`` for :func:`grid_cells` that rejects every shared cell."""
    def repeat(old, new):
        raise OrderViolationError(message)
    return repeat


def grid_cells(items: Sequence[tuple[Box, object]], repeat: Callable):
    """Cut non-degenerate ``(box, value)`` items on their common endpoint grid.

    Returns ``(grids, cells)``.  ``grids[ax]`` holds the sorted distinct
    endpoints on axis ``ax``, stored as ``x + 0.0`` so no grid point is
    ``-0.0``.  ``cells`` maps the index tuple of every grid cell a box
    covers (index ``i`` spans ``grids[ax][i]`` to ``grids[ax][i + 1]``) to
    its value, in the order the items cover them; a cell covered again gets
    ``repeat(old, new)``.  No ``Interval`` or ``Box`` is built.
    """
    if not items:
        return [], {}
    dim = items[0][0].dim
    if any(b.dim != dim for b, _ in items):
        raise DimensionMismatchError("mixed box dimensions")
    grids = [sorted({x + 0.0 for b, _ in items for x in (b.factors[ax].lo, b.factors[ax].hi)})
             for ax in range(dim)]
    where = [{x: i for i, x in enumerate(g)} for g in grids]
    cells: dict = {}
    for b, v in items:
        spans = [range(w[f.lo], w[f.hi]) for f, w in zip(b.factors, where)]
        for key in itertools.product(*spans):
            cells[key] = repeat(cells[key], v) if key in cells else v
    return grids, cells


def merge_cells(grids: list, cells: dict) -> list:
    """Merge the :func:`grid_cells` of equal value along axis 0, then axis 1,
    and on: two runs merge when their values compare equal, they meet on
    that axis and their spans on every other axis coincide.

    Runs are per-axis index spans; ``Interval`` and ``Box`` objects are
    built only for the merged pieces, returned as ``(Box, value)``.  The
    sort for the last axis orders the runs by their spans, so the pieces
    come out sorted by :meth:`Box.sort_key`.
    """
    runs = [(tuple((i, i + 1) for i in key), v) for key, v in cells.items()]
    for ax in range(len(grids)):
        runs.sort(key=lambda r: (r[0][:ax] + r[0][ax + 1:], r[0][ax]))
        out: list = []
        for spans, v in runs:
            if out:
                last, lv = out[-1]
                if (lv == v and last[ax][1] == spans[ax][0]
                        and last[:ax] == spans[:ax] and last[ax + 1:] == spans[ax + 1:]):
                    out[-1] = (last[:ax] + ((last[ax][0], spans[ax][1]),) + last[ax + 1:], v)
                    continue
            out.append((spans, v))
        runs = out
    return [(Box(tuple(Interval(g[lo], g[hi]) for g, (lo, hi) in zip(grids, spans))), v)
            for spans, v in runs]


def normalize_set(boxes: Iterable[Box]) -> MeasurableSet:
    """Canonical form of a finite union of boxes (union semantics).

    The non-degenerate boxes are cut on their common endpoint grid, each
    covered cell counted once, and merged along axis 0, then axis 1, and so
    on.  The result is measure-preserving and sorted, e.g. ``{[0,2], [1,3]}
    -> {[0,3]}``.  A degenerate box is kept unless a box kept before it
    contains it.  They are checked in the order of the per-axis key
    ``(lo, -hi)``, which puts each box after every box containing it, so the
    result depends only on the boxes given, not their order, and is idempotent.

    Each check looks up a few grid cells rather than every kept box: a
    merged box containing a degenerate box ``d`` owns the cell just above
    ``d``'s lower corner on every axis where ``d`` has length, and one of
    the two cells beside it on every other axis.  A kept degenerate box
    ``e`` can contain ``d`` only if ``d`` is degenerate on each axis ``e``
    is, at the same coordinate, so kept degenerate boxes are filed by those
    axes and coordinates.
    """
    raw = list(boxes)
    solid = [(b, True) for b in raw if not b.is_degenerate()]
    grids, cells = grid_cells(solid, lambda old, new: old)
    keep = [b for b, _ in merge_cells(grids, cells)]
    flat = sorted((b for b in raw if b.is_degenerate()),
                  key=lambda b: [(iv.lo, -iv.hi) for iv in b.factors])
    if not flat:
        return MeasurableSet(tuple(keep))
    owner = {}
    where = [{x: i for i, x in enumerate(g)} for g in grids]
    for k in keep:
        spans = [range(w[f.lo], w[f.hi]) for f, w in zip(k.factors, where)]
        owner.update(dict.fromkeys(itertools.product(*spans), k))
    filed: dict = {}
    for d in flat:
        thin = [ax for ax, f in enumerate(d.factors) if f.is_degenerate()]
        near = [_cells_beside(g, f) for g, f in zip(grids, d.factors)]
        if any(k is not None and k.contains_box(d)
               for k in map(owner.get, itertools.product(*near))):
            continue
        flats = [(axes, tuple(d.factors[ax].lo for ax in axes))
                 for r in range(1, len(thin) + 1) for axes in itertools.combinations(thin, r)]
        if any(e.contains_box(d) for key in flats for e in filed.get(key, ())):
            continue
        keep.append(d)
        filed.setdefault(flats[-1], []).append(d)
    return MeasurableSet(tuple(keep))


def _cells_beside(grid: list, iv: Interval) -> list:
    """Indices of the grid cells a box containing ``iv`` must own one of:
    the cell just above ``iv.lo`` when ``iv`` has length; otherwise the
    cell holding the point, or the two cells beside it on a grid line."""
    i = bisect.bisect_right(grid, iv.lo)
    near = [i - 1] if iv.lo < iv.hi or grid[i - 1] != iv.lo else [i - 2, i - 1]
    return [j for j in near if 0 <= j < len(grid) - 1]


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
        import numpy as np

        xs = np.linspace(iv.lo, iv.hi, MONOTONE_SAMPLES)
        # a non-finite sample raises NonFiniteError just below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray([float(self.phi(float(x))) for x in xs])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError(f"{self.label} is non-finite on [{iv.lo}, {iv.hi}]")
        scale = 1.0 + float(np.max(np.abs(vals)))
        drops = np.diff(vals) < -1e-12 * scale
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
    import numpy as np

    return StieltjesMeasure(
        phi=lambda x: l * np.log(x),
        phi_prime=lambda x: l / x,
        label=f"{l}*ln(t)",
    )


def identity_measure() -> StieltjesMeasure:
    """``phi(t) = t``: plain Lebesgue integration as a Stieltjes measure."""
    import numpy as np

    return StieltjesMeasure(phi=lambda x: x,
                            phi_prime=lambda x: np.ones_like(x, dtype=float),
                            label="t")
