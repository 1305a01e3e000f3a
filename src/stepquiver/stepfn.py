"""Step functions, their module operations, p-norms, and juxtaposition.

A :class:`StepFunction` is a finite sum ``Σ k_i * 1_{X_i}`` of weighted box
indicators inside an ambient box.  Values on piece boundaries are a
measure-zero concern: every operation here is an almost-everywhere notion,
and :func:`eval_step` only fixes a deterministic diagnostic rule for
boundary points (never used by integration).

Canonical form in one dimension: two numpy arrays, ``xs``, the sorted
breakpoints from the ambient's lower endpoint to its upper one, and ``ys``,
the value on each cell ``[xs[i], xs[i + 1]]``, with gaps stored as ``0.0``
and no two neighbouring cells of equal value.  Construction sorts the
pieces and sweeps them once (two pieces that overlap with positive measure
are rejected); :func:`linear_combine` merges both breakpoint arrays and sums
both operands on each cell; :func:`restrict`, :func:`locate` and the exact
integrals of :mod:`stepquiver.integrate` find their cells by binary search.

Functions of two or more dimensions keep the box path: zero coefficients
and degenerate boxes are dropped, the rest are cut on the common
per-coordinate endpoint grid (two pieces sharing a grid cell overlap and
are rejected), and adjacent cells with equal coefficients are merged axis
by axis, all by the canonicaliser of :mod:`stepquiver.measure`;
:func:`linear_combine` sums both operands in one cut.

In every dimension, two step functions equal almost everywhere have
identical canonical forms, which makes ``==`` (and hashing) meaningful, and
``f.pieces`` is the tuple of nonzero ``(Box, coeff)`` pieces sorted by
:meth:`Box.sort_key`, with Python floats.  A one-dimensional function builds
it from its arrays on first read and keeps it, so a chain of operations
that never reads it builds no boxes.
"""

from __future__ import annotations

import math
import operator
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
    grid_cells,
    merge_cells,
    overlap_error,
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


_OVERLAP = overlap_error("pieces overlap with positive measure; combine them via linear_combine")


def _check_coeff(k: float) -> None:
    if not math.isfinite(k):
        raise NonFiniteError(f"non-finite coefficient {k!r}")


class StepFunction:
    """``Σ k_i * 1_{X_i}`` with disjoint piece boxes inside ``ambient``.

    Immutable.  A one-dimensional function keeps its canonical form in the
    read-only arrays ``xs`` (breakpoints) and ``ys`` (cell values); both are
    None in higher dimensions, where ``pieces`` is the canonical form.
    """

    def __init__(self, ambient: Box, pieces: Sequence[tuple[Box, float]] = ()):
        if isinstance(ambient, Interval):
            ambient = Box((ambient,))
        if ambient.dim == 1:
            _init(self, ambient, *_sweep(ambient, tuple(pieces)), None)
            return
        cleaned = []
        for b, k in pieces:
            k = _checked(ambient, b, k)
            if k != 0.0 and not b.is_degenerate():
                cleaned.append((b, k))
        _init(self, ambient, None, None, tuple(merge_cells(*grid_cells(cleaned, _OVERLAP))))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def pieces(self) -> tuple[tuple[Box, float], ...]:
        if self._pieces is None:
            xs, ys = self.xs.tolist(), self.ys.tolist()
            object.__setattr__(self, "_pieces", tuple(
                (Box((Interval(a, b),)), k) for a, b, k in zip(xs, xs[1:], ys) if k != 0.0))
        return self._pieces

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_zero(self) -> bool:
        return not self.pieces if self.xs is None else not self.ys.any()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        if self.xs is None:
            return self.pieces == other.pieces
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)

    def __hash__(self):
        if self.xs is None:
            return hash((self.ambient, self.pieces))
        return hash((self.ambient, self.xs.tobytes(), self.ys.tobytes()))

    def __repr__(self):
        return f"StepFunction(ambient={self.ambient!r}, pieces={self.pieces!r})"

    def eval(self, x: Point) -> float:
        return eval_step(self, x)

    def __call__(self, x: Point) -> float:
        return eval_step(self, x)

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient.to_json(),
            "pieces": [{"box": b.to_json(), "coeff": k} for b, k in self.pieces],
        }


def _init(f: StepFunction, ambient: Box, xs, ys, pieces) -> StepFunction:
    for arr in (xs, ys):
        if arr is not None:
            arr.flags.writeable = False
    for name, value in (("ambient", ambient), ("xs", xs), ("ys", ys), ("_pieces", pieces)):
        object.__setattr__(f, name, value)
    return f


def _canonical(pts: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical ``(xs, ys)`` of the cells ``[pts[i], pts[i + 1]]`` valued
    ``vals[i]``, for non-decreasing ``pts``: empty cells dropped, no ``-0.0``
    left, neighbours of equal value merged."""
    pts = pts + 0.0
    full = pts[1:] > pts[:-1]
    left, vals = pts[:-1][full], vals[full] + 0.0
    if not len(vals):
        return pts[:1], vals
    cut = np.flatnonzero(vals[1:] != vals[:-1]) + 1
    return (np.concatenate((left[:1], left[cut], pts[-1:])),
            vals[np.concatenate(([0], cut))])


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _checked(ambient: Box, b: Box, k) -> float:
    """The coefficient of piece ``(b, k)`` as a float, once the piece is
    finite, of the ambient's dimension and inside it."""
    k = float(k)
    _check_coeff(k)
    if b.dim != ambient.dim:
        raise DimensionMismatchError(f"piece dim {b.dim} inside ambient dim {ambient.dim}")
    if not ambient.contains_box(b):
        raise AmbientMismatchError(f"piece {b.to_json()} escapes ambient {ambient.to_json()}")
    return k


def _sweep(ambient: Box, pieces: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Canonical arrays of 1-D pieces: check them all at once, sort the
    nonzero, non-degenerate ones by their lower endpoints, reject overlaps,
    and fill the gaps with ``0.0``."""
    amb = ambient.factors[0]
    try:
        dims, los, his, ks = np.array([(b.dim, b.factors[0].lo, b.factors[0].hi, float(k))
                                       for b, k in pieces], dtype=float).reshape(-1, 4).T
    except (AttributeError, OverflowError, TypeError, ValueError):
        dims = None     # a piece that fails to convert fails _checked as well
    if dims is None or not ((dims == 1) & np.isfinite(ks)
                            & (los >= amb.lo) & (his <= amb.hi)).all():
        for b, k in pieces:     # raises the first piece's error
            _checked(ambient, b, k)
    keep = (ks != 0.0) & (los < his)
    order = np.argsort(los[keep], kind="stable")
    los, his, ks = los[keep][order], his[keep][order], ks[keep][order]
    if (los[1:] < his[:-1]).any():
        _OVERLAP(None, None)
    pts = np.empty(2 * len(ks) + 2)
    pts[0], pts[-1] = amb.lo, amb.hi
    pts[1:-1:2], pts[2:-1:2] = los, his
    vals = np.zeros(2 * len(ks) + 1)
    vals[1::2] = ks
    return _canonical(pts, vals)


def _clip(f: StepFunction, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of a 1-D ``f`` on ``[lo, hi]``, for
    ``lo < hi`` inside the ambient: two binary searches and a slice."""
    i = int(np.searchsorted(f.xs, lo, "right")) - 1
    j = int(np.searchsorted(f.xs, hi, "left"))
    xs = f.xs[i:j + 1].copy()
    xs[0], xs[-1] = lo, hi
    return xs, f.ys[i:j]


def _from_cells(ambient: Box, xs: np.ndarray, ys: np.ndarray) -> StepFunction:
    """The 1-D function worth ``ys[i]`` on ``[xs[i], xs[i + 1]]``; ``xs``
    runs non-decreasing from the ambient's lower endpoint to its upper one."""
    bad = ~np.isfinite(ys)
    if bad.any():
        _check_coeff(float(ys[bad][0]))
    return _init(object.__new__(StepFunction), ambient, *_canonical(xs, ys), None)


def with_ambient(f: StepFunction, ambient) -> StepFunction:
    """A 1-D ``f`` on another ambient interval that holds its support."""
    if isinstance(ambient, Interval):
        ambient = Box((ambient,))
    if f.dim != 1 or ambient.dim != 1:
        raise DimensionMismatchError("with_ambient is one-dimensional")
    lo, hi = ambient.factors[0].lo, ambient.factors[0].hi
    nz = np.flatnonzero(f.ys)
    if len(nz) and (f.xs[nz[0]] < lo or f.xs[nz[-1] + 1] > hi):
        b = next(b for b, _ in f.pieces if not ambient.contains_box(b))
        raise AmbientMismatchError(f"piece {b.to_json()} escapes ambient {ambient.to_json()}")
    # cells beyond the new ambient are zero: clipping empties them
    pts = np.concatenate(([lo], np.clip(f.xs, lo, hi), [hi]))
    return _from_cells(ambient, pts, np.concatenate((_ZERO, f.ys, _ZERO)))


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
    if f.xs is not None:
        # x lies in cell c = [xs[c], xs[c + 1]) (c = len(ys) at the upper end)
        c = int(np.searchsorted(f.xs, pt[0], "right")) - 1
        if c < len(f.ys) and f.xs[c] < pt[0]:
            return float(f.ys[c]), False
        touching = [float(f.ys[j]) for j in (c - 1, c) if 0 <= j < len(f.ys) and f.ys[j]]
        return (max(touching), True) if touching else (0.0, False)
    touching: list[float] = []
    for b, k in f.pieces:
        if b.contains_point(pt):
            if all(iv.lo < xi < iv.hi for iv, xi in zip(b.factors, pt)):
                return k, False
            touching.append(k)
    if touching:
        return max(touching), True
    return 0.0, False


def eval_step(f: StepFunction, x: Point) -> float:
    return locate(f, x)[0]


def linear_combine(a: float, f: StepFunction, b: float, g: StepFunction) -> StepFunction:
    """Canonical representative of ``a*f + b*g`` on the common refinement."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError("linear_combine needs a common ambient")
    if f.xs is not None:
        xs = np.union1d(f.xs, g.xs)
        fy = f.ys[np.searchsorted(f.xs, xs[:-1], "right") - 1]
        gy = g.ys[np.searchsorted(g.xs, xs[:-1], "right") - 1]
        # a gap adds nothing, even when a or b is not finite; a non-finite
        # sum is reported by _from_cells, not warned about here
        with np.errstate(over="ignore", invalid="ignore"):
            ys = np.where(fy != 0.0, a * fy, 0.0) + np.where(gy != 0.0, b * gy, 0.0)
        return _from_cells(f.ambient, xs, ys)
    grids, cells = grid_cells([(bx, a * k) for bx, k in f.pieces]
                              + [(bx, b * k) for bx, k in g.pieces], operator.add)
    for k in cells.values():
        _check_coeff(k)
    # the cells are disjoint, checked and summed: merge them without a second cut
    return _init(object.__new__(StepFunction), f.ambient, None, None, tuple(merge_cells(
        grids, {key: k for key, k in cells.items() if k != 0.0})))


def restrict(f: StepFunction, region: Region) -> StepFunction:
    """``f * 1_region`` (pieces clipped to the region), same ambient."""
    boxes = region_boxes(region, f.dim)
    for rb in boxes:
        if not f.ambient.contains_box(rb):
            raise AmbientMismatchError(f"region {rb.to_json()} escapes ambient")
    if f.xs is not None:
        # the region's boxes are sorted and almost disjoint: lay their clips
        # end to end, with zero cells between them
        pts, vals = [f.xs[:1]], [_ZERO]
        for rb in boxes:
            if not rb.is_degenerate():
                xs, ys = _clip(f, rb.factors[0].lo, rb.factors[0].hi)
                pts.append(xs)
                vals += [ys, _ZERO]
        pts.append(f.xs[-1:])
        return _from_cells(f.ambient, np.concatenate(pts), np.concatenate(vals))
    out = []
    for rb in boxes:
        for b, k in f.pieces:
            cap = b.intersect(rb)
            if cap is not None and not cap.is_degenerate():
                out.append((cap, k))
    return StepFunction(f.ambient, tuple(out))


def p_norm(f: StepFunction, p: float) -> float:
    """``(Σ |k_i|^p * μ(X_i)^p)^(1/p)`` — note the measure is also raised
    to the p-th power, which differs from the classical L^p integrand."""
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p >= 1):
        raise BadExponentError(f"norm exponent must be a finite real >= 1, got {p!r}")
    p = float(p)
    if f.xs is not None:
        pieces = [(k, m) for k, m in zip(f.ys.tolist(), np.diff(f.xs).tolist()) if k != 0.0]
    else:
        pieces = [(k, b.measure) for b, k in f.pieces]
    total = 0.0
    for k, m in pieces:     # left to right, whatever the Python version's sum() does
        total += (abs(k) ** p) * (m ** p)
    return total ** (1.0 / p)


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
    if len(tup.entries) != 2 ** n:
        raise ArityMismatchError(f"expected {2 ** n} entries")
    pieces: list[tuple[Box, float]] = []
    for s, entry in enumerate(tup.entries):
        word = [(s >> (n - 1 - i)) & 1 for i in range(n)]
        maps = [schemes[i].word_map((word[i],)) for i in range(n)]
        for b, k in entry.pieces:
            factors = tuple(maps[i].image(b.factors[i]) for i in range(n))
            pieces.append((Box(factors), k))
    return StepFunction(amb, tuple(pieces))


def direct_sum_norm(tup: FunctionTuple, p: float) -> float:
    """Norm on a tuple: ``((μ(I)/μ(I_Λ))^n · Σ ‖x_i‖^p)^(1/p)``.

    ``I`` is the common factor interval (all ambient factors must have equal
    length for the scale factor to be well-defined) and ``I_Λ`` the full
    ambient box.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p >= 1):
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
    total = sum(p_norm(e, p) ** p for e in tup.entries)
    return (factor * total) ** (1.0 / p)
