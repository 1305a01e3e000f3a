"""Intervals, boxes, box unions, dyadic segmentation, Stieltjes measures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    AffineMap,
    Box,
    DepthTooLargeError,
    DimensionMismatchError,
    DyadicScheme,
    Interval,
    NonFiniteError,
    OrderViolationError,
    box,
    box1,
    identity_measure,
    lebesgue_measure,
    log_power_measure,
    make_interval,
    measurable_set,
    normalize_set,
    segment,
)
from stepquiver.measure import MAX_DEPTH

FIN = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                allow_infinity=False)


# ---------------------------------------------------------------------------
# intervals and boxes
# ---------------------------------------------------------------------------

def test_interval_rejects_reversed_endpoints():
    with pytest.raises(OrderViolationError):
        make_interval(2.0, 1.0)


def test_interval_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        make_interval(0.0, math.inf)
    with pytest.raises(NonFiniteError):
        make_interval(math.nan, 1.0)


def test_degenerate_interval_allowed():
    iv = make_interval(3.0, 3.0)
    assert iv.length == 0.0
    assert iv.is_degenerate()


def test_box_measure_is_product_of_lengths():
    b = box(make_interval(0.0, 2.0), make_interval(1.0, 4.0))
    assert lebesgue_measure(b) == 6.0
    assert b.measure == 6.0
    assert b.dim == 2


def test_box1_shorthand():
    assert box1(0.0, 1.0) == Box((Interval(0.0, 1.0),))


@given(FIN, st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_interval_length_nonnegative(lo, width):
    iv = make_interval(lo, lo + width)
    assert iv.length == iv.hi - iv.lo
    assert iv.length >= 0.0


# ---------------------------------------------------------------------------
# finite box unions
# ---------------------------------------------------------------------------

def test_normalize_merges_adjacent_1d_boxes():
    s = normalize_set([box1(0.0, 1.0), box1(1.0, 2.0)])
    assert len(s.boxes) == 1
    assert s.boxes[0] == box1(0.0, 2.0)


def test_normalize_drops_contained_boxes():
    s = normalize_set([box1(0.0, 3.0), box1(1.0, 2.0)])
    assert s.boxes == (box1(0.0, 3.0),)


def test_measurable_set_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        measurable_set([box1(0.0, 1.0),
                        box(make_interval(0.0, 1.0), make_interval(0.0, 1.0))])


def test_measurable_set_measure_counts_overlap_once():
    s = normalize_set([box1(0.0, 2.0), box1(1.0, 3.0)])
    assert s.measure == 3.0


def test_measurable_set_rejects_overlapping_boxes():
    with pytest.raises(OrderViolationError):
        measurable_set([box1(0.0, 2.0), box1(1.0, 3.0)])


@given(st.lists(st.tuples(FIN, st.floats(min_value=1e-3, max_value=10.0,
                                         allow_nan=False)),
                min_size=1, max_size=6))
@settings(max_examples=200)
def test_normalize_idempotent(spans):
    boxes = [box1(lo, lo + w) for lo, w in spans]
    once = normalize_set(boxes)
    twice = normalize_set(once.boxes)
    assert once == twice, f"normalize not idempotent on {boxes}"


def test_normalize_keeps_degenerate_boxes_whatever_their_order():
    pt = box(make_interval(1.0, 1.0), make_interval(1.0, 1.0))
    seg = box(make_interval(0.0, 2.0), make_interval(1.0, 1.0))
    assert normalize_set([pt, seg]).boxes == normalize_set([seg, pt]).boxes == (seg,)


@given(st.integers(min_value=1, max_value=3).flatmap(lambda d: st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=d, max_size=d),
    min_size=1, max_size=7)), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_normalize_is_order_independent_and_idempotent(spans, rnd):
    # small integer grids make degenerate boxes, and containment, common
    boxes = [box(*(make_interval(lo, lo + w) for lo, w in axes)) for axes in spans]
    once = normalize_set(boxes)
    rnd.shuffle(boxes)
    assert normalize_set(boxes) == once, f"normalize depends on order of {boxes}"
    assert normalize_set(once.boxes) == once, f"normalize not idempotent on {boxes}"


# ---------------------------------------------------------------------------
# dyadic segmentation
# ---------------------------------------------------------------------------

def test_halving_maps_on_unit_interval():
    sch = DyadicScheme(make_interval(0.0, 1.0))
    # kappa_lo(x) = (x + c) / 2, kappa_hi(x) = (x + d) / 2, xi = (c + d) / 2
    assert sch.kappa_lo(1.0) == 0.5
    assert sch.kappa_hi(0.0) == 0.5
    assert sch.xi == 0.5


def test_halving_maps_on_shifted_interval():
    sch = DyadicScheme(make_interval(2.0, 6.0))
    lo, hi = sch.kappa_lo, sch.kappa_hi
    assert lo(2.0) == 2.0
    assert lo(6.0) == 4.0
    assert hi(2.0) == 4.0
    assert hi(6.0) == 6.0
    assert sch.xi == 4.0


def test_segment_produces_dyadic_grid():
    sch = DyadicScheme(make_interval(0.0, 1.0))
    intervals, maps = segment(sch, 3)
    assert len(intervals) == 8
    assert intervals[0].lo == 0.0
    assert intervals[-1].hi == 1.0
    for k, iv in enumerate(intervals):
        assert iv.lo == k / 8
        assert iv.hi == (k + 1) / 8
    # each map carries the ambient onto its cell
    for iv, m in zip(intervals, maps):
        assert m.image(make_interval(0.0, 1.0)) == iv


def test_word_map_is_msb_first():
    sch = DyadicScheme(make_interval(0.0, 1.0))
    # word (0, 1): first halving picks the lower half, second the upper
    # quarter of it -> [1/4, 1/2]
    m = sch.word_map((0, 1))
    assert m.image(make_interval(0.0, 1.0)) == make_interval(0.25, 0.5)
    m = sch.word_map((1, 0, 0))
    assert m.image(make_interval(0.0, 1.0)) == make_interval(0.5, 0.625)


def test_segment_depth_cap():
    sch = DyadicScheme(make_interval(0.0, 1.0))
    # depth-40 words are fine (2^40 cells are never materialised one by one)
    m = sch.word_map((0,) * MAX_DEPTH)
    assert m.image(make_interval(0.0, 1.0)).lo == 0.0
    with pytest.raises(DepthTooLargeError):
        segment(sch, MAX_DEPTH + 1)


@given(st.integers(min_value=0, max_value=12))
def test_segment_cells_partition_ambient(t):
    sch = DyadicScheme(make_interval(-1.0, 3.0))
    intervals, _ = segment(sch, t)
    assert len(intervals) == 2 ** t
    assert intervals[0].lo == -1.0
    assert intervals[-1].hi == 3.0
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi == b.lo


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

def test_affine_map_image_and_inverse():
    m = AffineMap(0.5, 1.0)
    assert m(2.0) == 2.0
    assert m.inverse()(2.0) == 2.0
    iv = m.image(make_interval(0.0, 2.0))
    assert iv == make_interval(1.0, 2.0)


# ---------------------------------------------------------------------------
# Stieltjes measures
# ---------------------------------------------------------------------------

def test_identity_measure_is_lebesgue():
    mu = identity_measure()
    assert mu.phi(3.5) == 3.5
    assert mu.phi_prime(3.5) == 1.0
    assert mu.label == "t"


def test_log_power_measure_values():
    mu = log_power_measure(3.0)
    assert mu.phi(2.0) == pytest.approx(3.0 * math.log(2.0), rel=1e-15)
    assert mu.phi_prime(2.0) == pytest.approx(1.5, rel=1e-15)
    assert mu.label == "3.0*ln(t)"


@pytest.mark.parametrize("mu", [log_power_measure(3.0), identity_measure()],
                         ids=["log_power", "identity"])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_measures_evaluate_arrays_elementwise(mu, shape):
    # quadrature hands whole grids to phi and phi'; a scalar-only callable
    # would drop it to a per-point Python loop
    xs = np.linspace(1.0, 2.0, math.prod(shape)).reshape(shape)
    for fn in (mu.phi, mu.phi_prime):
        out = fn(xs)
        assert isinstance(out, np.ndarray) and out.shape == shape
        pointwise = np.array([float(fn(float(x))) for x in xs.ravel()]).reshape(shape)
        np.testing.assert_allclose(out, pointwise, rtol=4 * np.finfo(float).eps)


def test_log_power_measure_is_non_finite_off_the_positive_axis():
    with pytest.raises(NonFiniteError):
        log_power_measure(4.0).check_monotone(make_interval(0.0, 1.0))


@given(st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
       st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
def test_log_power_measure_turns_products_into_sums(y1, y2):
    mu = log_power_measure(2.0)
    assert mu.phi(y1 * y2) == pytest.approx(mu.phi(y1) + mu.phi(y2),
                                            abs=1e-10)
