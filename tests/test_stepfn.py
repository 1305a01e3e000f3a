"""Step functions: canonical form, evaluation, norms, juxtaposition."""

from __future__ import annotations

import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    AmbientMismatchError,
    ArityMismatchError,
    BadExponentError,
    Box,
    DimensionMismatchError,
    DyadicScheme,
    FunctionTuple,
    Interval,
    NonFiniteError,
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
from stepquiver import measure
from stepquiver.stepfn import with_ambient

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


@pytest.mark.parametrize("norm", [
    lambda f, p: p_norm(f, p), lambda f, p: direct_sum_norm(FunctionTuple((f, f)), p),
], ids=["p_norm", "direct_sum_norm"])
def test_norm_exponents_are_reals_but_not_bools(norm):
    f = indicator(box1(0.0, 0.5), UNIT, 3.0)
    for p in (np.float32(2.0), np.int64(2), np.float64(2.0)):
        assert norm(f, p) == norm(f, 2.0)
    with pytest.raises(BadExponentError, match="got True"):
        norm(f, True)


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

    # locate at the centres, the integral over the region box, and the
    # p-norms: all exact, as every value and measure is dyadic
    assert [locate(h, c) for c in centres] == [(oracle(c), False) for c in centres]
    cell = Fraction(1, 8 ** dim)
    assert Fraction(integrate_step(h, region)) == cell * sum(
        Fraction(oracle(c)) for c in centres if region.contains_point(c))
    assert Fraction(p_norm(h, 1)) == cell * sum(abs(Fraction(oracle(c))) for c in centres)
    square = sum(Fraction(k) ** 2 * Fraction(b.measure) ** 2 for b, k in h.pieces)
    norm = p_norm(h, 2)
    assert Fraction(math.nextafter(norm, 0.0)) ** 2 <= square <= Fraction(
        math.nextafter(norm, math.inf)) ** 2 and (norm == 0.0) == (square == 0)

    # juxtapose entries from the same family: at the centre c of a cell of
    # side 1/16, the entry of word (c_i > 1/2 for each i) holds the value
    # at 2c - word, the centre of a cell of side 1/8
    families = [list(zip(solid, coeffs))[s::2 ** dim] for s in range(2 ** dim)]
    entries = []
    for family in families:
        e = zero_function(amb)
        for b, k in family:
            e = linear_combine(1.0, e, k, indicator(b, amb))
        entries.append(e)
    out = juxtapose((DyadicScheme(Interval(0.0, 1.0)),) * dim, FunctionTuple(tuple(entries)))
    _assert_canonical(out)
    for idx in data.draw(st.lists(st.tuples(*[st.integers(0, 15)] * dim), max_size=24)):
        c = tuple((2 * i + 1) / 32 for i in idx)
        word = [int(x > 0.5) for x in c]
        inner = tuple(2 * x - w for x, w in zip(c, word))
        family = families[int("".join(map(str, word)), 2)]
        want = sum(k for b, k in family if b.contains_point(inner))
        assert _value(out.pieces, c) == want
        assert locate(out, c) == (want, False)


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


@given(dyadic_boxes(), st.data())
@settings(max_examples=100, deadline=None)
def test_to_json_writes_the_pieces_view_from_the_arrays(drawn, data):
    dim, boxes = drawn
    amb = Box((Interval(0.0, 1.0),) * dim)
    h = zero_function(amb)
    for b in boxes:
        h = linear_combine(1.0, h, data.draw(st.sampled_from([1.0, -0.5, 3.0, 0.1])),
                           indicator(b, amb))
    written = json.dumps(h.to_json())
    assert h._pieces is None        # no boxes built on the way
    assert written == json.dumps({"ambient": amb.to_json(), "pieces": [
        {"box": b.to_json(), "coeff": k} for b, k in h.pieces]})


def _diagonal_cubes(count, dim):
    """``[i/count, (i+1)/count]^dim``: a grid of ``count**dim`` cells."""
    return [box(*[make_interval(i / count, (i + 1) / count)] * dim) for i in range(count)]


def test_eight_dimensional_diagonal_cubes_keep_their_pieces():
    cubes = _diagonal_cubes(300, 8)     # 300**8 grid cells, past any int64 cell number
    amb = box(*[make_interval(0.0, 1.0)] * 8)
    pieces = tuple((c, float(i + 1)) for i, c in enumerate(cubes))
    f = StepFunction(amb, pieces[::-1])
    assert f.pieces == pieces
    assert measurable_set(cubes[::-1]).boxes == tuple(cubes)
    assert normalize_set(cubes[::-1]).boxes == tuple(cubes)
    assert linear_combine(2.0, f, -1.0, f).pieces == pieces
    with pytest.raises(OrderViolationError):
        StepFunction(amb, pieces + ((cubes[7], 1.0),))
    with pytest.raises(MemoryError):    # 300**8 cells in the one box: none is expanded
        normalize_set(cubes + [amb])
    few = _diagonal_cubes(4, 8)
    cover = indicator(amb, amb, 0.5)
    h = linear_combine(1.0, cover, 1.0, StepFunction(amb, [(c, 1.0) for c in few]))
    assert normalize_set(few + [amb]).boxes == (amb,)
    assert [h((i / 4 + 0.125,) * 8) for i in range(4)] == [1.5] * 4
    assert h((0.125,) * 7 + (0.375,)) == 0.5
    assert integrate_step(h) == 0.5 + 4 * 0.25 ** 8


def _overlapping_boxes(rng, dim, count):
    def iv():
        a, b = sorted(rng.sample(range(9), 2))
        return make_interval(a / 8, b / 8)
    return [box(*(iv() for _ in range(dim))) for _ in range(count)]


def test_cut_in_many_rounds_gives_the_one_round_result(monkeypatch):
    """A CUT_CHUNK of 3 cells expands about one box a round, so repeats,
    sums and overlaps are found across rounds."""
    rng = random.Random(5)
    cases = [(dim, _overlapping_boxes(rng, dim, rng.randint(2, 12)))
             for dim in (1, 2, 3) for _ in range(15)]

    def outcomes():
        out = []
        for dim, boxes in cases:
            amb = box(*[make_interval(0.0, 1.0)] * dim)
            s = normalize_set(boxes)
            f = StepFunction(amb, [(b, float(i + 1)) for i, b in enumerate(s.boxes)])
            g = linear_combine(1.0, f, 0.5, indicator(boxes[0], amb, 3.0))
            try:
                verdict = measurable_set(boxes)
            except OrderViolationError as e:
                verdict = str(e)
            out.append((s, measurable_set(s.boxes), f, g, linear_combine(0.1, g, 0.7, f), verdict))
        return out

    once = outcomes()
    monkeypatch.setattr(measure, "CUT_CHUNK", 3)
    assert outcomes() == once
    assert sum(isinstance(v, str) for *_, v in once) > 10


# ---------------------------------------------------------------------------
# results beyond binary64: scaled norms, typed errors, no numpy warnings
# ---------------------------------------------------------------------------

WIDE = box1(0.0, 1e10)


def test_norms_that_overflow_or_underflow_on_the_way_are_rescaled():
    half = indicator(box1(0.0, 0.5), UNIT, 10.0)
    assert p_norm(half, 1000) == 5.0                    # 10.0 ** 1000 overflows
    assert p_norm(indicator(box1(0.0, 0.5), UNIT, 1e-200), 2) == 0.5e-200  # 1e-400 underflows
    assert direct_sum_norm(FunctionTuple((half, half)), 1000) == pytest.approx(
        5.0 * 2.0 ** (1 / 1000), rel=1e-15)
    # Σ‖x_i‖ = 4e308 overflows, but the cube [0,4]^2 scales it by 1/16
    side = make_interval(0.0, 4.0)
    square = indicator(box(side, side), box(side, side), 6.25e306)     # p_norm 1e308
    assert direct_sum_norm(FunctionTuple((square,) * 4), 1) == pytest.approx(2.5e307, rel=1e-15)


def test_results_beyond_binary64_raise_without_a_warning():
    huge = indicator(WIDE, WIDE, 1e300)
    square = box(make_interval(0.0, 1e10), make_interval(0.0, 1e10))
    calls = [lambda: integrate_step(huge),
             lambda: integrate_step(indicator(square, square, 1e300)),
             lambda: var_upper_integral(huge, 0.0), lambda: p_norm(huge, 1),
             lambda: p_norm(huge, 3), lambda: direct_sum_norm(FunctionTuple((huge, huge)), 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NonFiniteError, match="overflows binary64"):
                call()


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


# ---------------------------------------------------------------------------
# 1-D breakpoint/value arrays against exact oracles on dyadic tilings
# ---------------------------------------------------------------------------

CELLS = 64     # breakpoints on the 1/64 grid of [0, 1]


@st.composite
def dyadic_tilings(draw):
    """A tiling of [0, 1] by cells on the 1/64 grid with small integer
    values, zero and equal neighbours allowed: all sums are exact."""
    cuts = draw(st.lists(st.integers(1, CELLS - 1), unique=True, max_size=12))
    pts = [0] + sorted(cuts) + [CELLS]
    vals = draw(st.lists(st.integers(-3, 3), min_size=len(pts) - 1, max_size=len(pts) - 1))
    return list(zip(pts, pts[1:], vals))


def _function(cells):
    return StepFunction(UNIT, tuple((box1(a / CELLS, b / CELLS), float(v)) for a, b, v in cells))


def _unit_values(cells):
    """The value on each of the 64 unit cells, as a Fraction."""
    return [Fraction(v) for a, b, v in cells for _ in range(a, b)]


def _pieces_of(unit_values):
    """Exact canonical pieces of unit-cell values: zeros dropped, equal
    neighbours merged."""
    return _reference_pieces([(Fraction(i, CELLS), Fraction(i + 1, CELLS), v)
                              for i, v in enumerate(unit_values)])


def _all_floats(*values):
    return all(type(v) is float for v in values)


@given(dyadic_tilings(), dyadic_tilings(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_linear_combine_matches_the_exact_oracle(cf, cg, a, b):
    f, g = _function(cf), _function(cg)
    h = linear_combine(float(a), f, float(b), g)
    want = [a * u + b * v for u, v in zip(_unit_values(cf), _unit_values(cg))]
    assert _exact_pieces(h) == _pieces_of(want)
    assert _all_floats(*(x for bx, k in h.pieces for x in (bx.factors[0].lo, bx.factors[0].hi, k)))
    assert h.is_zero() == (not any(want))


@given(dyadic_tilings(), st.lists(st.tuples(st.integers(0, CELLS), st.integers(0, CELLS)),
                                  max_size=4))
@settings(max_examples=200, deadline=None)
def test_restrict_and_integrate_step_match_the_exact_oracle(cells, spans):
    f = _function(cells)
    values = _unit_values(cells)
    region = normalize_set([box1(min(s) / CELLS, max(s) / CELLS) for s in spans])
    inside = [any(bx.factors[0].lo * CELLS <= i and i + 1 <= bx.factors[0].hi * CELLS
                  for bx in region.boxes) for i in range(CELLS)]
    kept = [v if ok else Fraction(0) for v, ok in zip(values, inside)]
    assert _exact_pieces(restrict(f, region)) == _pieces_of(kept)
    total = integrate_step(f, region)
    assert type(total) is float and total == sum(kept) / CELLS
    for s in spans:
        lo, hi = min(s), max(s)
        window = Interval(lo / CELLS, hi / CELLS)
        clipped = [v if lo <= i < hi else Fraction(0) for i, v in enumerate(values)]
        assert _exact_pieces(restrict(f, window)) == _pieces_of(clipped)
        assert integrate_step(f, window) == sum(values[lo:hi]) / CELLS
    assert integrate_step(f) == sum(values) / CELLS


@given(dyadic_tilings())
@settings(max_examples=200, deadline=None)
def test_var_upper_integral_nodes_are_the_exact_running_integral(cells):
    f = _function(cells)
    F = var_upper_integral(f, 0.0)
    # the nodes are the canonical breakpoints, gaps included
    values = _unit_values(cells)
    nodes = [Fraction(0)] + [Fraction(i, CELLS) for i in range(1, CELLS)
                             if values[i - 1] != values[i]] + [Fraction(1)]
    assert [Fraction(x) for x in F.xs] == nodes
    assert [Fraction(y) for y in F.ys] == [sum(values[:int(x * CELLS)]) / CELLS for x in nodes]
    assert _all_floats(*F.xs, *F.ys)


@given(dyadic_tilings())
@settings(max_examples=200, deadline=None)
def test_locate_matches_the_exact_oracle_inside_cells_and_on_breakpoints(cells):
    f = _function(cells)
    values = _unit_values(cells)
    for i, v in enumerate(values):        # the midpoint of every unit cell
        assert locate(f, (2 * i + 1) / (2 * CELLS)) == (float(v), False)
    for j in range(CELLS + 1):            # every grid line, breakpoint or not
        sides = [values[i] for i in (j - 1, j) if 0 <= i < CELLS]
        if len(sides) == 2 and sides[0] == sides[1]:
            want = (float(sides[0]), False)
        else:
            touching = [s for s in sides if s]
            want = (float(max(touching)), True) if touching else (0.0, False)
        got = locate(f, j / CELLS)
        assert got == want and _all_floats(got[0])
    assert _all_floats(eval_step(f, 0.3), p_norm(f, 2), p_norm(f, 1.5))


@given(dyadic_tilings(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_split_and_shuffled_constructions_are_equal_and_hash_equal(cells, rnd):
    f = _function(cells)
    pieces = []
    for a, b, v in cells:
        cut = rnd.randint(a, b)           # a cut at an end splits nothing
        pieces += [(box1(a / CELLS, cut / CELLS), float(v)),
                   (box1(cut / CELLS, b / CELLS), float(v))]
    pieces.append((box1(0.5, 0.5), 7.0))  # degenerate pieces carry no mass
    rnd.shuffle(pieces)
    g = StepFunction(UNIT, tuple(pieces))
    assert g == f and hash(g) == hash(f)
    assert g.pieces == f.pieces
    assert ae_equal(f, g)


def test_integrals_add_left_to_right_like_the_piece_loop():
    # arbitrary floats: a reordered or pairwise sum would differ in the last bits
    rng = random.Random(11)
    amb = box1(0.0, 1.0)
    for _ in range(20):
        cuts = sorted(rng.random() for _ in range(600))
        f = StepFunction(amb, tuple((box1(a, b), rng.uniform(-5.0, 5.0))
                                    for a, b in zip([0.0] + cuts, cuts + [1.0])))
        region = normalize_set([box1(*sorted((rng.random(), rng.random()))) for _ in range(5)])
        total = 0.0
        for b, k in f.pieces:
            for rb in region.boxes:
                cap = b.intersect(rb)
                if cap is not None:
                    total += k * cap.measure
        assert integrate_step(f, region).hex() == total.hex()
        ys = [0.0]
        for b, k in f.pieces:
            ys.append(ys[-1] + k * b.measure)
        assert var_upper_integral(f, 0.0).ys == tuple(ys)


def test_with_ambient_rewraps_the_arrays():
    f = StepFunction(box1(0.0, 2.0), ((box1(0.5, 1.0), 3.0), (box1(1.0, 1.5), -1.0)))
    wide = with_ambient(f, box1(-1.0, 4.0))
    assert wide.ambient == box1(-1.0, 4.0) and wide.pieces == f.pieces
    assert wide == StepFunction(box1(-1.0, 4.0), f.pieces)
    narrow = with_ambient(f, make_interval(0.5, 1.5))
    assert narrow == StepFunction(box1(0.5, 1.5), f.pieces)
    assert with_ambient(zero_function(box1(0.0, 1.0)), box1(5.0, 6.0)).is_zero()
    with pytest.raises(AmbientMismatchError, match=r"piece \[\[1.0, 1.5\]\] escapes"):
        with_ambient(f, box1(0.0, 1.25))


def test_a_region_box_outside_the_ambient_is_one_error_everywhere():
    # restrict and integrate_step share one region check, so a set with one
    # escaping box names that box and the ambient in each; indicator leaves
    # the check to the constructor, which names the piece
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 3.0)
    region = measurable_set((box1(0.25, 0.5), box1(1.5, 2.5)))
    message = r"^region \[\[1.5, 2.5\]\] escapes ambient \[\[0.0, 2.0\]\]$"
    for call in (lambda: restrict(f, region), lambda: integrate_step(f, region)):
        with pytest.raises(AmbientMismatchError, match=message):
            call()
    with pytest.raises(AmbientMismatchError,
                       match=r"^piece \[\[1.5, 2.5\]\] escapes ambient \[\[0.0, 2.0\]\]$"):
        indicator(region, f.ambient)
    # a non-finite coefficient is refused before the region is looked at
    with pytest.raises(NonFiniteError):
        indicator(region, f.ambient, math.nan)


def test_a_region_box_of_the_wrong_dimension_is_refused():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 3.0)
    square = box(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    for region in (square, measurable_set((square,))):
        for call in (lambda: restrict(f, region), lambda: integrate_step(f, region),
                     lambda: indicator(region, f.ambient)):
            with pytest.raises(DimensionMismatchError):
                call()
        with pytest.raises(NonFiniteError):
            indicator(region, f.ambient, math.inf)
