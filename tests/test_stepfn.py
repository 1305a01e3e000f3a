"""Step functions: canonical form, evaluation, norms, juxtaposition."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    AmbientMismatchError,
    ArityMismatchError,
    BadExponentError,
    Box,
    DyadicScheme,
    FunctionTuple,
    Interval,
    OrderViolationError,
    StepFunction,
    ae_equal,
    box,
    box1,
    direct_sum_norm,
    eval_step,
    indicator,
    integrate_step,
    juxtapose,
    linear_combine,
    locate,
    make_interval,
    measurable_set,
    normalize_set,
    p_norm,
    restrict,
    var_upper_integral,
    zero_function,
)

from conftest import brute_overlap, random_step

UNIT = box1(0.0, 1.0)


def steps(lo=0.0, hi=4.0):
    """Hypothesis strategy: a random step function on [lo, hi]."""
    return st.builds(
        lambda seed: random_step(np.random.default_rng(seed), lo, hi),
        st.integers(min_value=0, max_value=2 ** 31),
    )


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_pieces_outside_ambient_rejected():
    with pytest.raises(Exception):
        StepFunction(UNIT, ((box1(0.5, 2.0), 1.0),))


def test_overlapping_pieces_rejected():
    with pytest.raises(Exception):
        StepFunction(box1(0.0, 3.0), ((box1(0.0, 2.0), 1.0),
                                      (box1(1.0, 3.0), 2.0)))


def test_adjacent_equal_pieces_merge():
    f = StepFunction(box1(0.0, 2.0), ((box1(0.0, 1.0), 3.0),
                                      (box1(1.0, 2.0), 3.0)))
    assert len(f.pieces) == 1
    assert f.pieces[0] == (box1(0.0, 2.0), 3.0)


def test_zero_coefficient_pieces_drop():
    f = StepFunction(UNIT, ((box1(0.0, 0.5), 0.0),))
    assert f.pieces == ()


def test_interval_ambient_coerces_to_box():
    f = StepFunction(make_interval(0.0, 1.0), ((box1(0.0, 0.5), 1.0),))
    assert f.ambient == UNIT


def test_pieces_sorted_deterministically():
    a = StepFunction(box1(0.0, 3.0), ((box1(2.0, 3.0), 1.0),
                                      (box1(0.0, 1.0), 2.0)))
    b = StepFunction(box1(0.0, 3.0), ((box1(0.0, 1.0), 2.0),
                                      (box1(2.0, 3.0), 1.0)))
    assert a == b


# ---------------------------------------------------------------------------
# evaluation and location
# ---------------------------------------------------------------------------

def test_eval_inside_and_outside_support():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 5.0)
    assert eval_step(f, 0.5) == 5.0
    assert eval_step(f, 1.5) == 0.0


def test_locate_flags_boundaries():
    f = StepFunction(box1(0.0, 2.0), ((box1(0.0, 1.0), 1.0),
                                      (box1(1.0, 2.0), 6.0)))
    _, on_edge = locate(f, 1.0)
    assert on_edge
    assert locate(f, 0.5) == (1.0, False)
    assert locate(f, 1.5) == (6.0, False)


def test_locate_off_every_piece_is_not_a_boundary_point():
    # each point lies on the plane of a face of the piece, but not on the piece
    f = indicator(box(make_interval(0.5, 1.0), make_interval(0.0, 1.0)),
                  box(make_interval(0.0, 1.0), make_interval(0.0, 10.0)), 3.0)
    assert locate(f, (0.5, 5.0)) == (0.0, False)
    assert locate(f, (0.25, 1.0)) == (0.0, False)
    assert locate(f, (0.5, 1.0)) == (3.0, True)
    g = indicator(box(*(make_interval(0.0, 1.0),) * 3),
                  box(*(make_interval(0.0, 2.0),) * 3), 2.0)
    assert locate(g, (1.0, 1.5, 0.5)) == (0.0, False)
    assert locate(g, (1.0, 1.0, 0.5)) == (2.0, True)


def test_eval_2d_point():
    b = box(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    f = indicator(box(make_interval(0.0, 0.5), make_interval(0.0, 0.5)), b, 2.0)
    assert eval_step(f, (0.25, 0.25)) == 2.0
    assert eval_step(f, (0.75, 0.25)) == 0.0


# ---------------------------------------------------------------------------
# integration, restriction, linear structure
# ---------------------------------------------------------------------------

def test_integrate_step_is_sum_of_coeff_times_measure():
    f = StepFunction(box1(0.0, 3.0), ((box1(0.0, 1.0), 1.0),
                                      (box1(1.0, 3.0), 6.0)))
    assert integrate_step(f) == 13.0
    assert integrate_step(f, make_interval(0.0, 1.0)) == 1.0
    assert integrate_step(f, make_interval(0.5, 2.0)) == 0.5 + 6.0


def test_restrict_zeroes_outside_region():
    f = indicator(box1(0.0, 2.0), box1(0.0, 2.0), 3.0)
    g = restrict(f, make_interval(0.5, 1.0))
    assert integrate_step(g) == 1.5
    assert eval_step(g, 1.5) == 0.0


def test_linear_combine_pointwise():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 1.0)
    g = indicator(box1(0.5, 2.0), box1(0.0, 2.0), 2.0)
    h = linear_combine(2.0, f, -1.0, g)
    assert eval_step(h, 0.25) == 2.0
    assert eval_step(h, 0.75) == 0.0
    assert eval_step(h, 1.5) == -2.0


def test_linear_combine_needs_common_ambient():
    f = indicator(box1(0.0, 1.0), box1(0.0, 1.0))
    g = indicator(box1(0.0, 1.0), box1(0.0, 2.0))
    with pytest.raises(AmbientMismatchError):
        linear_combine(1.0, f, 1.0, g)


@given(steps(), steps(), steps())
@settings(max_examples=60, deadline=None)
def test_linear_combine_associative_commutative(f, g, h):
    fg = linear_combine(1.0, f, 1.0, g)
    gf = linear_combine(1.0, g, 1.0, f)
    assert ae_equal(fg, gf)
    left = linear_combine(1.0, fg, 1.0, h)
    right = linear_combine(1.0, f, 1.0, linear_combine(1.0, g, 1.0, h))
    assert ae_equal(left, right)


# ---------------------------------------------------------------------------
# a.e. equality
# ---------------------------------------------------------------------------

def test_ae_equal_ignores_boundary_points():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0))
    g = StepFunction(box1(0.0, 2.0), ((box1(0.0, 1.0), 1.0),
                                      (box1(1.0, 1.0), 7.0)))
    assert ae_equal(f, g)


def test_ae_equal_distinguishes_support():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0))
    g = indicator(box1(0.0, 2.0), box1(0.0, 2.0))
    assert not ae_equal(f, g)


@given(steps(), steps(), steps())
@settings(max_examples=40, deadline=None)
def test_ae_equal_is_an_equivalence(f, g, h):
    assert ae_equal(f, f)
    if ae_equal(f, g):
        assert ae_equal(g, f)
    if ae_equal(f, g) and ae_equal(g, h):
        assert ae_equal(f, h)


# ---------------------------------------------------------------------------
# p-norm: ‖f‖ = (Σ |k_i|^p · μ(X_i)^p)^(1/p), measure raised to the p-th power
# ---------------------------------------------------------------------------

def test_p_norm_frozen_values():
    assert p_norm(indicator(box1(0.0, 1.0), UNIT), 1.0) == 1.0
    assert p_norm(indicator(box1(0.0, 0.5), box1(0.0, 1.0), 2.0), 1.0) == 1.0
    assert p_norm(indicator(box1(0.0, 2.0), box1(0.0, 2.0), 3.0), 2.0) == 6.0
    f = StepFunction(box1(0.0, 3.0), ((box1(0.0, 1.0), 1.0),
                                      (box1(1.0, 3.0), 6.0)))
    assert p_norm(f, 1.0) == 13.0


def test_p_norm_rejects_exponent_below_one():
    with pytest.raises(BadExponentError):
        p_norm(indicator(UNIT, UNIT), 0.5)


@given(steps(), st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_p_norm_absolute_homogeneity(f, lam):
    lf = linear_combine(lam, f, 0.0, f)
    for p in (1.0, 2.0, 3.0):
        expected = abs(lam) * p_norm(f, p)
        got = p_norm(lf, p)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), \
            f"‖{lam}·f‖_{p} = {got}, expected {expected}"


@given(steps(), steps())
@settings(max_examples=60, deadline=None)
def test_p_norm_triangle_inequality(f, g):
    s = linear_combine(1.0, f, 1.0, g)
    for p in (1.0, 2.0):
        lhs = p_norm(s, p)
        rhs = p_norm(f, p) + p_norm(g, p)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12, \
            f"triangle fails at p={p}: {lhs} > {rhs}"


@given(steps())
@settings(max_examples=60, deadline=None)
def test_p_norm_zero_iff_ae_zero(f):
    z = zero_function(f.ambient)
    if p_norm(f, 1.0) == 0.0:
        assert ae_equal(f, z)
    if ae_equal(f, z):
        assert p_norm(f, 1.0) == 0.0


# ---------------------------------------------------------------------------
# juxtaposition
# ---------------------------------------------------------------------------

def test_juxtapose_identity_pair():
    one = indicator(UNIT, UNIT)
    sch = DyadicScheme(make_interval(0.0, 1.0))
    out = juxtapose(sch, FunctionTuple((one, one)))
    assert ae_equal(out, one)


def test_juxtapose_lower_half_support():
    one = indicator(UNIT, UNIT)
    zero = zero_function(UNIT)
    sch = DyadicScheme(make_interval(0.0, 1.0))
    out = juxtapose(sch, FunctionTuple((one, zero)))
    assert ae_equal(out, indicator(box1(0.0, 0.5), UNIT))


def test_juxtapose_quadrants_in_dimension_two():
    amb = box(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    entries = tuple(indicator(amb, amb, float(k)) for k in (1, 2, 3, 4))
    sch = DyadicScheme(make_interval(0.0, 1.0))
    out = juxtapose((sch, sch), FunctionTuple(entries))
    # words in MSB order: (c,c) (c,d) (d,c) (d,d)
    assert eval_step(out, (0.25, 0.25)) == 1.0
    assert eval_step(out, (0.25, 0.75)) == 2.0
    assert eval_step(out, (0.75, 0.25)) == 3.0
    assert eval_step(out, (0.75, 0.75)) == 4.0


def test_juxtapose_arity_checked():
    one = indicator(UNIT, UNIT)
    sch = DyadicScheme(make_interval(0.0, 1.0))
    with pytest.raises(ArityMismatchError):
        juxtapose((sch, sch), FunctionTuple((one, one)))


@given(steps(0.0, 1.0), steps(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_juxtapose_halving_identity(f, g):
    sch = DyadicScheme(make_interval(0.0, 1.0))
    out = juxtapose(sch, FunctionTuple((f, g)))
    lhs = integrate_step(out)
    rhs = 0.5 * (integrate_step(f) + integrate_step(g))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12), \
        f"∫γ(f,g) = {lhs}, (∫f + ∫g)/2 = {rhs}"


# ---------------------------------------------------------------------------
# direct-sum norm
# ---------------------------------------------------------------------------

def test_direct_sum_norm_frozen_values():
    one = indicator(UNIT, UNIT)
    zero = zero_function(UNIT)
    assert direct_sum_norm(FunctionTuple((one, zero)), 1.0) == 1.0
    assert direct_sum_norm(FunctionTuple((zero, zero)), 1.0) == 0.0
    wide = indicator(box1(0.0, 2.0), box1(0.0, 2.0))
    assert direct_sum_norm(FunctionTuple((wide, wide)), 1.0) == 4.0


def test_direct_sum_norm_needs_cubical_ambient():
    b = box(make_interval(0.0, 1.0), make_interval(0.0, 2.0))
    f = indicator(b, b)
    with pytest.raises(AmbientMismatchError):
        direct_sum_norm(FunctionTuple((f, f, f, f)), 1.0)


# ---------------------------------------------------------------------------
# disjointness on the endpoint grid, against the pairwise oracle
# ---------------------------------------------------------------------------

@st.composite
def dyadic_boxes(draw):
    """1-, 2- or 3-D boxes on a coarse dyadic grid: faces often touch,
    boxes repeat, and degenerate boxes (some repeated) are common."""
    dim = draw(st.integers(1, 3))
    g = 1 << draw(st.integers(1, 3))
    end = st.integers(0, g)

    def factor(a, b):
        lo, hi = sorted((a, b))
        return Interval(lo / g, hi / g)

    one = st.builds(lambda ends: Box(tuple(factor(a, b) for a, b in ends)),
                    st.lists(st.tuples(end, end), min_size=dim, max_size=dim))
    boxes = draw(st.lists(one, max_size=8 if dim > 1 else 12))
    repeats = draw(st.lists(st.sampled_from(boxes), max_size=3)) if boxes else []
    return dim, boxes + repeats


@given(dyadic_boxes(), st.data())
@settings(max_examples=300, deadline=None)
def test_disjointness_matches_the_pairwise_oracle(drawn, data):
    dim, boxes = drawn
    solid = [b for b in boxes if not b.is_degenerate()]
    if brute_overlap(solid):
        with pytest.raises(OrderViolationError) as err:
            measurable_set(boxes)
        assert str(err.value) == "boxes overlap with positive measure; normalize_set them first"
    else:
        assert len(measurable_set(boxes).boxes) == len(boxes)

    coeffs = data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5]),
                                min_size=len(boxes), max_size=len(boxes)))
    amb = Box((Interval(0.0, 1.0),) * dim)
    pieces = tuple(zip(boxes, coeffs))
    if brute_overlap([b for b, k in pieces if k != 0.0 and not b.is_degenerate()]):
        with pytest.raises(OrderViolationError) as err:
            StepFunction(amb, pieces)
        assert str(err.value) == ("pieces overlap with positive measure; "
                                  "combine them via linear_combine")
    else:
        f = StepFunction(amb, pieces)
        assert integrate_step(f) == sum(k * b.measure for b, k in pieces)


# ---------------------------------------------------------------------------
# the canonical form against exact values at the centres of the dyadic cells
# ---------------------------------------------------------------------------

def _centres(dim):
    """Centres of the 8**dim cells of side 1/8 in the unit cube; every
    ``dyadic_boxes`` endpoint is a multiple of 1/8, so no centre lies on a
    face and a box contains a centre exactly when it covers that cell."""
    return list(itertools.product([(2 * i + 1) / 16 for i in range(8)], repeat=dim))


def _value(pieces, c):
    """Value of disjoint ``(box, coeff)`` pieces at ``c``; at most one holds it."""
    hits = [k for b, k in pieces if b.contains_point(c)]
    assert len(hits) <= 1, f"pieces overlap at {c}"
    return hits[0] if hits else 0.0


def _assert_canonical(f):
    """Nonzero, non-degenerate, sorted, and no two pieces of one value
    share a whole face, which a merge would have joined."""
    assert all(k != 0.0 and not b.is_degenerate() for b, k in f.pieces)
    assert list(f.pieces) == sorted(f.pieces, key=lambda p: p[0].sort_key())
    for (p, k), (q, m) in itertools.combinations(f.pieces, 2):
        meet = [i for i, (u, v) in enumerate(zip(p.factors, q.factors)) if u != v]
        if k == m and len(meet) == 1:
            u, v = p.factors[meet[0]], q.factors[meet[0]]
            assert u.hi != v.lo and v.hi != u.lo, f"{p} and {q} should have merged"


@given(dyadic_boxes(), st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_form_matches_the_cell_centre_oracle(drawn, data):
    dim, boxes = drawn
    solid = [b for b in boxes if not b.is_degenerate()]
    coeffs = data.draw(st.lists(st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5]),
                                min_size=len(solid), max_size=len(solid)))
    amb = Box((Interval(0.0, 1.0),) * dim)
    centres = _centres(dim)

    def oracle(c):
        return sum(k for b, k in zip(solid, coeffs) if b.contains_point(c))

    # Σ k_i 1_{B_i} by linear_combine, with repeated boxes and opposite
    # coefficients cancelling; the sums are exact in binary64
    h = zero_function(amb)
    for b, k in zip(solid, coeffs):
        h = linear_combine(1.0, h, k, indicator(b, amb))
        _assert_canonical(h)
    assert [_value(h.pieces, c) for c in centres] == [oracle(c) for c in centres]
    # a.e.-equal functions have identical canonical pieces
    back = zero_function(amb)
    for b, k in reversed(list(zip(solid, coeffs))):
        back = linear_combine(k, indicator(b, amb), 1.0, back)
    assert back.pieces == h.pieces
    cancelled = linear_combine(2.0, h, -1.0, linear_combine(1.0, h, 1.0, h))
    assert cancelled.is_zero()

    region = data.draw(st.sampled_from(boxes)) if boxes else amb
    for where, covering in ((region, [region]), (normalize_set(boxes), solid)):
        r = restrict(h, where)
        _assert_canonical(r)
        assert [_value(r.pieces, c) for c in centres] == [
            oracle(c) if any(b.contains_point(c) for b in covering) else 0.0
            for c in centres]

    s = normalize_set(boxes)
    kept = [b for b in s.boxes if not b.is_degenerate()]
    assert [_value([(b, 1.0) for b in kept], c) for c in centres] == [
        1.0 if any(b.contains_point(c) for b in solid) else 0.0 for c in centres]
    assert all(any(k.contains_box(d) for k in s.boxes) for d in boxes if d.is_degenerate())
    assert normalize_set(kept).boxes == tuple(kept)


def test_no_canonical_endpoint_is_negative_zero():
    amb = box(make_interval(-1.0, 1.0), make_interval(-1.0, 1.0))
    left = box(make_interval(-1.0, -0.0), make_interval(-0.0, 1.0))
    right = box(make_interval(-0.0, 1.0), make_interval(-1.0, -0.0))
    f = StepFunction(amb, ((left, 1.0),))
    results = [
        f.pieces,
        linear_combine(1.0, f, 2.0, indicator(right, amb)).pieces,
        restrict(f, left).pieces,
        [(b, 1.0) for b in normalize_set([left, right]).boxes],
        StepFunction(box1(-1.0, 1.0), ((box1(-1.0, -0.0), 3.0),)).pieces,
    ]
    ends = [x for pieces in results for b, _ in pieces for iv in b.factors
            for x in (iv.lo, iv.hi)]
    assert 0.0 in ends
    assert all(math.copysign(1.0, x) == 1.0 for x in ends if x == 0.0)


# ---------------------------------------------------------------------------
# a 2·10⁴-piece 1-D function through the whole 1-D path
# ---------------------------------------------------------------------------

BIG_N = 20_000
BIG_GRID = 1 << 16


def _big_tiling(rng):
    """Breakpoints on the 2**-16 grid, small integer values, neighbours
    differ: the canonical form keeps every piece and all sums are exact."""
    pts = [0] + sorted(rng.sample(range(1, BIG_GRID), BIG_N - 1)) + [BIG_GRID]
    vals, prev = [], 0
    for _ in range(BIG_N):
        v = prev
        while v in (0, prev):
            v = rng.randint(-6, 6)
        vals.append(v)
        prev = v
    return pts, vals


def _exact_pieces(f):
    return [(Fraction(b.factors[0].lo), Fraction(b.factors[0].hi), Fraction(k))
            for b, k in f.pieces]


def _reference_pieces(cells):
    """Drop zero cells and merge equal neighbours, in exact arithmetic."""
    out = []
    for lo, hi, v in cells:
        if v == 0:
            continue
        if out and out[-1][1] == lo and out[-1][2] == v:
            out[-1] = (out[-1][0], hi, v)
        else:
            out.append((lo, hi, v))
    return out


def test_twenty_thousand_pieces_in_one_dimension():
    rng = random.Random(20_000)
    amb = box1(0.0, 1.0)
    (pf, vf), (pg, vg) = _big_tiling(rng), _big_tiling(rng)
    unit = Fraction(1, BIG_GRID)
    f = StepFunction(amb, tuple((box1(a / BIG_GRID, b / BIG_GRID), float(v))
                                for a, b, v in zip(pf, pf[1:], vf)))
    g = StepFunction(amb, tuple((box1(a / BIG_GRID, b / BIG_GRID), float(v))
                                for a, b, v in zip(pg, pg[1:], vg)))
    f_cells = [(a * unit, b * unit, Fraction(v)) for a, b, v in zip(pf, pf[1:], vf)]
    assert _exact_pieces(f) == f_cells

    # f - 2g, read off the merged breakpoints
    pts = sorted(set(pf) | set(pg))
    value_f = dict(zip(pf, vf))
    value_g = dict(zip(pg, vg))
    cells, cur_f, cur_g = [], 0, 0
    for a, b in zip(pts, pts[1:]):
        cur_f = value_f.get(a, cur_f)
        cur_g = value_g.get(a, cur_g)
        cells.append((a * unit, b * unit, Fraction(cur_f) - 2 * Fraction(cur_g)))
    h = linear_combine(1.0, f, -2.0, g)
    assert _exact_pieces(h) == _reference_pieces(cells)

    window = (Fraction(1, 4), Fraction(3, 4))
    clipped = [(max(lo, window[0]), min(hi, window[1]), v) for lo, hi, v in f_cells
               if lo < window[1] and hi > window[0]]
    r = restrict(f, Interval(0.25, 0.75))
    assert _exact_pieces(r) == _reference_pieces(clipped)

    boxes = [b for b, _ in f.pieces]
    assert measurable_set(boxes).boxes == tuple(boxes)
    with pytest.raises(OrderViolationError):
        measurable_set(boxes + [box1(0.5 - 2.0 ** -20, 0.5 + 2.0 ** -20)])

    F = var_upper_integral(f, 0.0)
    assert F.xs == tuple(a / BIG_GRID for a in pf)
    running = [Fraction(0)]
    for lo, hi, v in f_cells:
        running.append(running[-1] + v * (hi - lo))
    assert [Fraction(y) for y in F.ys] == running
