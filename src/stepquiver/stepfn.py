"""Step functions, their module operations, p-norms, and juxtaposition.

A :class:`StepFunction` is a finite sum ``Σ k_i * 1_{X_i}`` of weighted box
indicators inside an ambient box.  Values on piece boundaries are a
measure-zero concern: every operation here is an almost-everywhere notion,
and :func:`eval_step` only fixes a deterministic diagnostic rule for
boundary points (never used by integration).

Canonical form: zero coefficients and degenerate boxes are dropped, the
rest are cut on the common per-coordinate endpoint grid (two pieces sharing
a grid cell overlap and are rejected), and adjacent cells with equal
coefficients are merged axis by axis, all by the canonicaliser of
:mod:`stepquiver.measure`; :func:`linear_combine` sums both operands in
one cut.  Two step functions equal almost everywhere therefore have
identical canonical pieces, which makes ``==`` (and hashing) meaningful.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

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


@dataclass(frozen=True)
class StepFunction:
    """``Σ k_i * 1_{X_i}`` with disjoint piece boxes inside ``ambient``."""

    ambient: Box
    pieces: tuple[tuple[Box, float], ...] = ()

    def __post_init__(self):
        if isinstance(self.ambient, Interval):
            object.__setattr__(self, "ambient", Box((self.ambient,)))
        cleaned: list[tuple[Box, float]] = []
        for b, k in self.pieces:
            k = float(k)
            _check_coeff(k)
            if b.dim != self.ambient.dim:
                raise DimensionMismatchError(
                    f"piece dim {b.dim} inside ambient dim {self.ambient.dim}"
                )
            if not self.ambient.contains_box(b):
                raise AmbientMismatchError(
                    f"piece {b.to_json()} escapes ambient {self.ambient.to_json()}")
            if k != 0.0 and not b.is_degenerate():
                cleaned.append((b, k))
        object.__setattr__(self, "pieces", tuple(merge_cells(*grid_cells(cleaned, _OVERLAP))))

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_zero(self) -> bool:
        return not self.pieces

    def eval(self, x: Point) -> float:
        return eval_step(self, x)

    def __call__(self, x: Point) -> float:
        return eval_step(self, x)

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient.to_json(),
            "pieces": [{"box": b.to_json(), "coeff": k} for b, k in self.pieces],
        }


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
    grids, cells = grid_cells([(bx, a * k) for bx, k in f.pieces]
                              + [(bx, b * k) for bx, k in g.pieces], operator.add)
    for k in cells.values():
        _check_coeff(k)
    # the cells are disjoint, checked and summed: merge them without a second cut
    h = zero_function(f.ambient)
    object.__setattr__(h, "pieces", tuple(merge_cells(
        grids, {key: k for key, k in cells.items() if k != 0.0})))
    return h


def restrict(f: StepFunction, region: Region) -> StepFunction:
    """``f * 1_region`` (pieces clipped to the region), same ambient."""
    out = []
    for rb in region_boxes(region, f.dim):
        if not f.ambient.contains_box(rb):
            raise AmbientMismatchError(f"region {rb.to_json()} escapes ambient")
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
    total = sum((abs(k) ** p) * (b.measure ** p) for b, k in f.pieces)
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
