"""Step functions, their module operations, p-norms, and juxtaposition.

A :class:`StepFunction` is a finite sum ``Σ k_i * 1_{X_i}`` of weighted box
indicators inside an ambient box.  Values on piece boundaries are a
measure-zero concern: every operation here is an almost-everywhere notion,
and :func:`eval_step` only fixes a deterministic diagnostic rule for
boundary points (never used by integration).

Canonical form, in every dimension: the nonzero pieces as three read-only
numpy arrays, corners ``lo`` and ``hi`` of shape (m, n) and values ``k``,
sorted by :meth:`Box.sort_key`.  Zero coefficients and degenerate boxes are
dropped, the rest are cut on the common per-axis endpoint grid (two pieces
sharing a grid cell overlap and are rejected), and adjacent cells of equal
value are merged axis by axis, all by :func:`~stepquiver.measure.cut` and
:func:`~stepquiver.measure.merge`.  :func:`linear_combine` sums both
operands in one cut, :func:`restrict` and the exact integrals of
:mod:`stepquiver.integrate` clip the piece arrays to each region box, and
:func:`juxtapose` maps each entry's arrays affinely.  The pieces are sorted
by lower corner, so the running maximum of their upper ends on axis 0
bounds by binary search the pieces a point or box can meet (exactly, in one
dimension).

Two step functions equal almost everywhere have identical arrays, which
makes ``==`` (and hashing) meaningful.  ``f.pieces`` is the tuple of
nonzero ``(Box, coeff)`` pieces in that order, with Python floats, built on
first read and kept, so a chain of operations that never reads it builds
no boxes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    AmbientMismatchError,
    ArityMismatchError,
    BadExponentError,
    DimensionMismatchError,
    NonFiniteError,
    OutOfDomainError,
)
from .measure import (
    Box,
    DyadicScheme,
    Interval,
    MeasurableSet,
    box_arrays,
    boxes_of,
    cut,
    meeting_pairs,
    merge,
)

Point = Union[float, Sequence[float]]
Region = Union[Interval, Box, MeasurableSet]


def _as_point(x: Point, dim: int) -> tuple[float, ...]:
    if isinstance(x, (int, float)):
        x = (float(x),)
    else:
        x = tuple(float(v) for v in x)
    if len(x) != dim:
        raise DimensionMismatchError(f"point of dim {len(x)} in ambient of dim {dim}")
    return x


def region_boxes(region: Region, dim: int) -> tuple[Box, ...]:
    """Normalize an Interval/Box/MeasurableSet argument to a box tuple."""
    if isinstance(region, Interval):
        if dim != 1:
            raise DimensionMismatchError("interval region for a multi-dimensional ambient")
        return (Box((region,)),)
    if isinstance(region, Box):
        return (region,)
    if isinstance(region, MeasurableSet):
        return region.boxes
    raise TypeError(f"unsupported region type: {type(region).__name__}")


def region_corners(region: Region, ambient: Box) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the boxes of ``region``, one row each, all checked at once
    to have the ambient's dimension and lie inside it."""
    n = ambient.dim
    boxes = region_boxes(region, n)
    if all(b.dim == n for b in boxes):
        lo, hi = box_arrays(boxes, n)
        amb_lo, amb_hi = box_arrays((ambient,), n)
        if (lo >= amb_lo).all() and (hi <= amb_hi).all():
            return lo, hi
    for b in boxes:     # raises the first bad box's error
        if not ambient.contains_box(b):
            raise AmbientMismatchError(f"region {b.to_json()} escapes ambient {ambient.to_json()}")


_OVERLAP = "pieces overlap with positive measure; combine them via linear_combine"


def _check_coeff(k: float) -> None:
    if not math.isfinite(k):
        raise NonFiniteError(f"non-finite coefficient {k!r}")


class StepFunction:
    """``Σ k_i * 1_{X_i}`` with disjoint piece boxes inside ``ambient``.

    Immutable.  The canonical form is the read-only arrays ``lo`` and ``hi``
    (piece corners, one row per piece) and ``k`` (piece values).
    """

    def __init__(self, ambient: Box, pieces: Sequence[tuple[Box, float]] = ()):
        if isinstance(ambient, Interval):
            ambient = Box((ambient,))
        _build(ambient, *_piece_arrays(ambient, tuple(pieces)), _OVERLAP, self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def pieces(self) -> tuple[tuple[Box, float], ...]:
        if self._pieces is None:
            object.__setattr__(self, "_pieces",
                               tuple(zip(boxes_of(self.lo, self.hi), self.k.tolist())))
        return self._pieces

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_zero(self) -> bool:
        return not len(self.k)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient == other.ambient and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi) and np.array_equal(self.k, other.k))

    def __hash__(self):
        return hash((self.ambient, self.lo.tobytes(), self.hi.tobytes(), self.k.tobytes()))

    def __repr__(self):
        return f"StepFunction(ambient={self.ambient!r}, pieces={self.pieces!r})"

    def eval(self, x: Point) -> float:
        return eval_step(self, x)

    def __call__(self, x: Point) -> float:
        return eval_step(self, x)

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient.to_json(),
            "pieces": [{"box": [list(iv) for iv in zip(a, b)], "coeff": k}
                       for a, b, k in zip(self.lo.tolist(), self.hi.tolist(), self.k.tolist())],
        }


def _build(ambient: Box, lo, hi, k, repeat: str, f=None) -> StepFunction:
    """Canonical form of the pieces with corners ``lo``, ``hi`` and values
    ``k``, stored in ``f`` (a new function by default): zero and degenerate
    pieces dropped, the rest :func:`cut` (``repeat`` as there: ``"sum"``
    adds overlaps in piece order), checked finite, and merged."""
    f = object.__new__(StepFunction) if f is None else f
    keep = (k != 0.0) & (lo < hi).all(axis=1)
    grids, cells, k = cut(lo[keep], hi[keep], k[keep], repeat)
    bad = ~np.isfinite(k)
    if bad.any():       # the first non-finite cell in lexicographic order
        _check_coeff(float(k[bad][np.lexsort(cells[bad].T[::-1])[0]]))
    nonzero = k != 0.0
    lo, hi, k = merge(grids, cells[nonzero], k[nonzero])
    for arr in (lo, hi, k):
        arr.flags.writeable = False
    for name, value in (("ambient", ambient), ("lo", lo), ("hi", hi), ("k", k),
                        ("_reach", np.maximum.accumulate(hi[:, 0])), ("_pieces", None)):
        object.__setattr__(f, name, value)
    return f


def _piece_arrays(ambient: Box, pieces: tuple):
    """Corners and values of ``(box, coeff)`` pieces, all checked at once:
    each finite, of the ambient's dimension and inside it."""
    n = ambient.dim
    try:
        k = np.array([float(k) for _, k in pieces], dtype=float)
        boxes = [b for b, _ in pieces]
        ok = all(len(b.factors) == n for b in boxes)
        lo, hi = box_arrays(boxes, n) if ok else (None, None)
    except (AttributeError, OverflowError, TypeError, ValueError):
        ok = False      # a piece that fails to convert fails a check below as well
    amb_lo, amb_hi = box_arrays((ambient,), n)
    if not (ok and np.isfinite(k).all() and (lo >= amb_lo).all() and (hi <= amb_hi).all()):
        for b, k in pieces:     # raises the first bad piece's error
            _check_coeff(float(k))
            if b.dim != n:
                raise DimensionMismatchError(f"piece dim {b.dim} inside ambient dim {n}")
            if not ambient.contains_box(b):
                raise AmbientMismatchError(
                    f"piece {b.to_json()} escapes ambient {ambient.to_json()}")
    return lo, hi, k


def _clipped(f: StepFunction, qlo: np.ndarray, qhi: np.ndarray):
    """The pieces of ``f`` clipped to each box of corners ``qlo[j]`` and
    ``qhi[j]`` where the clip has positive measure: piece indices and
    clipped corners, piece by piece and, within a piece, box by box."""
    i, j = meeting_pairs(f.lo, f.hi, qlo, qhi, strict=True, reach=f._reach)
    lo, hi = np.maximum(f.lo[i], qlo[j]), np.minimum(f.hi[i], qhi[j])
    full = (lo < hi).all(axis=1)
    order = np.lexsort((j[full], i[full]))
    return i[full][order], lo[full][order], hi[full][order]


def _measures(lo, hi) -> np.ndarray:
    """Box measures, factor lengths multiplied left to right as
    :attr:`Box.measure` does."""
    m = hi[:, 0] - lo[:, 0]
    for ax in range(1, lo.shape[1]):
        m = m * (hi[:, ax] - lo[:, ax])
    return m


def with_ambient(f: StepFunction, ambient) -> StepFunction:
    """A 1-D ``f`` on another ambient interval that holds its support."""
    if isinstance(ambient, Interval):
        ambient = Box((ambient,))
    if f.dim != 1 or ambient.dim != 1:
        raise DimensionMismatchError("with_ambient is one-dimensional")
    lo, hi = box_arrays((ambient,), 1)
    if ((f.lo < lo) | (f.hi > hi)).any():
        StepFunction(ambient, f.pieces)     # raises the first escaping piece's error
    return _build(ambient, f.lo, f.hi, f.k, _OVERLAP)


def zero_function(ambient: Box) -> StepFunction:
    return StepFunction(ambient, ())


def indicator(region: Region, ambient, coeff: float = 1.0) -> StepFunction:
    """``coeff * 1_region`` inside ``ambient`` (a box, or an interval in 1-d)."""
    if isinstance(ambient, Interval):
        ambient = Box((ambient,))
    boxes = region_boxes(region, ambient.dim)
    return StepFunction(ambient, tuple((b, coeff) for b in boxes))


def locate(f: StepFunction, x: Point) -> tuple[float, bool]:
    """Value at ``x`` plus a flag marking piece-boundary points.

    Interior of a piece: that coefficient, flag False.  Interior of the
    complement: 0, flag False.  Otherwise ``x`` lies on some piece boundary;
    the value is then the max of the coefficients of all closed pieces
    containing ``x`` — an arbitrary-but-deterministic rule for diagnostics
    only, never used by integration.
    """
    pt = _as_point(x, f.dim)
    if not f.ambient.contains_point(pt):
        raise OutOfDomainError(f"{pt} outside ambient {f.ambient.to_json()}")
    # only the pieces from the first reaching x[0] to the last starting by it
    start = f._reach.searchsorted(pt[0], "left")
    stop = f.lo[:, 0].searchsorted(pt[0], "right")
    x = np.array(pt)
    # how far inside each piece x lies: > 0 inside, 0 on its boundary
    depth = np.minimum(x - f.lo[start:stop], f.hi[start:stop] - x).min(axis=1)
    i = int(depth.argmax()) if len(depth) else 0
    if not len(depth) or depth[i] < 0.0:
        return 0.0, False
    if depth[i] > 0.0:
        return float(f.k[start + i]), False
    return float(f.k[start:stop][depth == 0.0].max()), True


def eval_step(f: StepFunction, x: Point) -> float:
    return locate(f, x)[0]


def linear_combine(a: float, f: StepFunction, b: float, g: StepFunction) -> StepFunction:
    """Canonical representative of ``a*f + b*g`` on the common refinement."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError("linear_combine needs a common ambient")
    # a non-finite sum is reported by _build, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        return _build(f.ambient, np.concatenate((f.lo, g.lo)), np.concatenate((f.hi, g.hi)),
                      np.concatenate((a * f.k, b * g.k)), "sum")


def restrict(f: StepFunction, region: Region) -> StepFunction:
    """``f * 1_region`` (pieces clipped to the region), same ambient."""
    i, lo, hi = _clipped(f, *region_corners(region, f.ambient))
    return _build(f.ambient, lo, hi, f.k[i], _OVERLAP)


def _is_real(x) -> bool:
    """Whether ``x`` is a real number, numpy scalars included; a ``bool``
    is not one here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def p_norm(f: StepFunction, p: float) -> float:
    """``(Σ |k_i|^p * μ(X_i)^p)^(1/p)`` — note the measure is also raised
    to the p-th power, which differs from the classical L^p integrand.

    The terms are added left to right.  When that overflows, or gives 0.0
    for a nonzero ``f``, the norm is taken from each ``|k_i|·μ(X_i)`` split
    by :func:`math.frexp` (:func:`_scaled_root`).
    """
    if not (_is_real(p) and math.isfinite(p) and p >= 1):
        raise BadExponentError(f"norm exponent must be a finite real >= 1, got {p!r}")
    p = float(p)
    with np.errstate(over="ignore"):
        measures = _measures(f.lo, f.hi).tolist()
    total = 0.0
    try:
        for k, m in zip(f.k.tolist(), measures):   # left to right, whatever sum() does
            total += (abs(k) ** p) * (m ** p)
        norm = total ** (1.0 / p)
    except OverflowError:
        norm = math.inf
    if 0.0 < norm < math.inf or f.is_zero():
        return norm
    parts = []
    for k, lo, hi in zip(f.k.tolist(), f.lo.tolist(), f.hi.tolist()):
        mant, exp = math.frexp(abs(k))
        for a, b in zip(lo, hi):
            half = b - a == math.inf      # the length overflows: halve both ends first
            x, e = math.frexp(b * 0.5 - a * 0.5 if half else b - a)
            mant, exp = mant * x, exp + e + half
        parts.append((mant, exp))
    return _scaled_root(parts, p)


def _scaled_root(parts: list, p: float, scale: float = 1.0) -> float:
    """``scale · (Σ (x·2^e)^p)^(1/p)`` over ``(x, e)`` pairs, not all ``x``
    zero, with the largest exponent, then the largest term, taken out so
    that no power overflows, and ``scale``'s exponent added last; only a
    result beyond binary64 raises NonFiniteError."""
    top = max(e for x, e in parts if x)
    xs = [math.ldexp(x, e - top) for x, e in parts]
    big = max(xs)
    mant, exp = math.frexp(scale)
    try:
        return math.ldexp(mant * big * sum((x / big) ** p for x in xs) ** (1.0 / p), top + exp)
    except OverflowError:
        raise NonFiniteError("the norm overflows binary64") from None


def ae_equal(f: StepFunction, g: StepFunction) -> bool:
    """True iff ``f - g`` is supported on a measure-zero set."""
    return linear_combine(1.0, f, -1.0, g).is_zero()


@dataclass(frozen=True)
class FunctionTuple:
    """``2**n`` step functions on one n-dimensional ambient, word-indexed.

    Entry ``s`` corresponds to the word given by the binary digits of ``s``
    (first coordinate's letter most significant, 0 = lower half).
    """

    entries: tuple[StepFunction, ...]

    def __post_init__(self):
        if not self.entries:
            raise ArityMismatchError("function tuple must be nonempty")
        amb = self.entries[0].ambient
        for e in self.entries[1:]:
            if e.ambient != amb:
                raise AmbientMismatchError("tuple entries must share one ambient")
        n = amb.dim
        if len(self.entries) != 2 ** n:
            raise ArityMismatchError(
                f"expected 2**{n} = {2 ** n} entries, got {len(self.entries)}"
            )

    @property
    def ambient(self) -> Box:
        return self.entries[0].ambient

    @property
    def n(self) -> int:
        return self.ambient.dim


def juxtapose(schemes, tup: FunctionTuple) -> StepFunction:
    """Assemble ``2**n`` functions onto the halves of each coordinate.

    ``schemes`` is one :class:`DyadicScheme` per coordinate (a bare scheme is
    accepted when n = 1); scheme ``i`` must halve factor ``i`` of the common
    ambient.  Entry ``s`` — word ``(δ_1, ..., δ_n)`` — contributes its pieces
    mapped through ``κ_{δ_1} × ... × κ_{δ_n}``, so on the open image box the
    result equals ``f_δ(κ_{δ_1}^{-1}(x_1), ..., κ_{δ_n}^{-1}(x_n))``.
    """
    if isinstance(schemes, DyadicScheme):
        schemes = (schemes,)
    schemes = tuple(schemes)
    amb = tup.ambient
    n = tup.n
    if len(schemes) != n:
        raise ArityMismatchError(f"need {n} schemes, got {len(schemes)}")
    for i, sch in enumerate(schemes):
        if sch.ambient != amb.factors[i]:
            raise AmbientMismatchError(
                f"scheme {i} halves {sch.ambient.to_json()}, ambient factor is "
                f"{amb.factors[i].to_json()}"
            )
    lo, hi = [], []
    for s, entry in enumerate(tup.entries):
        word = [(s >> (n - 1 - i)) & 1 for i in range(n)]
        maps = [schemes[i].word_map((word[i],)) for i in range(n)]
        a, b = np.array([m.a for m in maps]), np.array([m.b for m in maps])
        # each coordinate as AffineMap.image maps it
        u, v = a * entry.lo + b, a * entry.hi + b
        lo.append(np.minimum(u, v))
        hi.append(np.maximum(u, v))
    return _build(amb, np.concatenate(lo), np.concatenate(hi),
                  np.concatenate([e.k for e in tup.entries]), _OVERLAP)


def direct_sum_norm(tup: FunctionTuple, p: float) -> float:
    """Norm on a tuple: ``((μ(I)/μ(I_Λ))^n · Σ ‖x_i‖^p)^(1/p)``.

    ``I`` is the common factor interval (all ambient factors must have equal
    length for the scale factor to be well-defined) and ``I_Λ`` the full
    ambient box.
    """
    if not (_is_real(p) and math.isfinite(p) and p >= 1):
        raise BadExponentError(f"norm exponent must be a finite real >= 1, got {p!r}")
    p = float(p)
    amb = tup.ambient
    lengths = {f.length for f in amb.factors}
    if len(lengths) != 1:
        raise AmbientMismatchError(
            "direct_sum_norm needs equal-length ambient factors (a cube)"
        )
    mu_i = lengths.pop()
    mu_lam = amb.measure
    factor = (mu_i / mu_lam) ** tup.n if mu_lam != 0 else 0.0
    norms = [p_norm(e, p) for e in tup.entries]
    try:
        norm = (factor * sum(x ** p for x in norms)) ** (1.0 / p)
    except OverflowError:
        norm = math.inf
    if 0.0 < norm < math.inf or not any(norms):
        return norm
    return _scaled_root(list(map(math.frexp, norms)), p, factor ** (1.0 / p))
