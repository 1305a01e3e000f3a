"""Exception taxonomy shared by every submodule.

All library errors derive from :class:`StepQuiverError` so callers (and the
CLI) can map "domain problem" to a single except clause.  Names describe the
condition that was violated, not the call site.  Both text parsers share
the token cursor that raises :class:`DslSyntaxError`, defined beside it.
"""

from __future__ import annotations


class StepQuiverError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# intervals, boxes, measures
# ---------------------------------------------------------------------------

class OrderViolationError(StepQuiverError):
    """Endpoints out of order (lo > hi) or a weight below its lower bound."""


class NonFiniteError(StepQuiverError):
    """A value that must be finite was NaN or infinite."""


class DepthTooLargeError(StepQuiverError):
    """Dyadic segmentation depth beyond the exactly-representable range."""


class DimensionMismatchError(StepQuiverError):
    """Boxes (or sets of boxes) of different dimensions were combined."""


class NotMonotoneError(StepQuiverError):
    """A distribution function failed its sampled monotonicity check."""


class GridTooLargeError(StepQuiverError, MemoryError):
    """A box set's common endpoint grid has too many cells to expand."""


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

class AmbientMismatchError(StepQuiverError):
    """Operands live over different ambient boxes."""


class OutOfDomainError(StepQuiverError):
    """An evaluation or construction point lies outside the legal domain."""


class BadExponentError(StepQuiverError):
    """Norm exponent p was not a finite real with p >= 1."""


class ArityMismatchError(StepQuiverError):
    """A function tuple had the wrong number of entries (expected 2**n)."""


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

class ToleranceUnreachedError(StepQuiverError):
    """Refinement hit its budget before meeting the requested tolerance.

    Raised only by operations that must return a single number; bracketing
    routines instead return their best enclosure flagged ``converged=False``.
    """


class BadPiecesError(StepQuiverError):
    """Declared monotone pieces do not tile the domain or fail sampling."""


class DomainMismatchError(StepQuiverError):
    """Two piecewise-linear functions (or pairs) live on different domains."""


class EmptyWeightsError(StepQuiverError):
    """A weighted multiple integral was requested with no weights."""


class NonIntegerResultError(StepQuiverError):
    """A quantity that must be an integer missed one by more than its
    tolerance, or its bracket does not hold exactly one integer."""


# ---------------------------------------------------------------------------
# integral posets
# ---------------------------------------------------------------------------

class BackingMismatchError(StepQuiverError):
    """Poset elements backed by different step functions were compared."""


class OutOfAmbientError(StepQuiverError):
    """An interval or set escapes the ambient it must embed into."""


class TauNotHomomorphismError(StepQuiverError):
    """The scalar action map failed its sampled multiplicativity check."""


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

class InversionFailedError(StepQuiverError):
    """An inverse function was asked at an argument it cannot invert."""


# ---------------------------------------------------------------------------
# quivers and gentle presentations
# ---------------------------------------------------------------------------

class InfiniteDimensionalError(StepQuiverError):
    """The quotient algebra is infinite-dimensional (permitted cycle)."""


class InfiniteGlobalDimensionError(StepQuiverError):
    """Global dimension is infinite (forbidden-thread cycle)."""


class MethodDisagreementError(StepQuiverError):
    """Two computation routes that must agree returned different values."""


class PathNotInPresentationError(StepQuiverError):
    """A path used unknown arrows or non-composable consecutive arrows."""


class NotPermittedError(StepQuiverError):
    """A projection was requested along a path that is not permitted."""


class BijectionFailureError(StepQuiverError):
    """The forbidden/dual-permitted thread correspondence failed to match."""


class NonComposableRelationError(StepQuiverError):
    """A relation names two arrows that do not compose head-to-tail."""


class NotGentleError(StepQuiverError):
    """An arrow has two continuations, or two predecessors, under one
    thread predicate: gentle condition (2) or (3) fails."""


# ---------------------------------------------------------------------------
# DSL / CLI
# ---------------------------------------------------------------------------

class DslSyntaxError(StepQuiverError):
    """Parse failure with position and the token class that was expected."""

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        what = f"expected {expected}"
        if found:
            what += f", found {found!r}"
        super().__init__(f"syntax error at line {line}, column {col}: {what}")


class _TokenCursor:
    """Position in a list of token strings; errors point at the offending
    token, or just past the last one at end of input.  Positions are worked
    out only on error, from ``_start`` (a token's offset in the text) and
    ``_line_col`` (an offset as a line and column)."""

    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def _err(self, expected: str, pos: int | None = None):
        pos = self.pos if pos is None else pos
        toks = self.toks
        if pos < len(toks):
            raise DslSyntaxError(*self._line_col(self._start(pos)), expected, toks[pos])
        end = self._start(len(toks) - 1) + len(toks[-1]) if toks else 0
        raise DslSyntaxError(*self._line_col(end), expected, "end of input")

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None


class UnknownVertexError(StepQuiverError):
    """An arrow endpoint names a vertex that was never declared."""


class UnknownArrowError(StepQuiverError):
    """A relation names an arrow that was never declared."""


class DuplicateArrowError(StepQuiverError):
    """Two arrows share one name."""


class NonQuadraticRelationError(StepQuiverError):
    """A relation is not a product of exactly two arrows."""


class DomainAnnotationMissingError(StepQuiverError):
    """An improper integrand needs explicit truncation and none was given."""
