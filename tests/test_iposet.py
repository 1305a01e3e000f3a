"""Integral posets, the case table for +, and the module actions on Im(+)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    CaseTag,
    DomainMismatchError,
    Interval,
    OutOfAmbientError,
    SigmaPair,
    StepFunction,
    TauNotHomomorphismError,
    add_elements,
    box1,
    build_iposet,
    classify_case,
    game_map,
    game_natural,
    indicator,
    integrate_step,
    lambda_action,
    linear_combine,
    make_interval,
    measurable_set,
    order_leq,
    poset_element,
    restrict,
    scalar_action,
    upper_limit_record,
)

from stepquiver import iposet as iposet_module

from conftest import random_step


def _pair(lo, hi, value):
    return SigmaPair(measurable_set((box1(lo, hi),)), value)


# ---------------------------------------------------------------------------
# poset construction and order
# ---------------------------------------------------------------------------

def test_poset_element_stores_the_integral():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 3.0)
    e = poset_element(f, make_interval(0.0, 2.0))
    assert e.value == 3.0
    assert e.interval == Interval(0.0, 2.0)


def test_build_iposet_orders_by_inclusion():
    f = indicator(box1(0.0, 2.0), box1(0.0, 2.0), 1.0)
    family = [make_interval(0.0, 2.0), make_interval(0.5, 1.0),
              make_interval(1.0, 2.0)]
    elems = build_iposet(f, family)
    assert len(elems) == 3
    big = next(e for e in elems if e.interval == Interval(0.0, 2.0))
    small = next(e for e in elems if e.interval == Interval(0.5, 1.0))
    side = next(e for e in elems if e.interval == Interval(1.0, 2.0))
    assert order_leq(small, big)
    assert order_leq(side, big)
    assert not order_leq(big, small)
    assert not order_leq(small, side)  # incomparable
    assert not order_leq(side, small)


def test_build_iposet_integrates_each_element_once(monkeypatch):
    # one integral for the value and one for the element's own value check
    f = random_step(np.random.default_rng(22), 0.0, 4.0)
    family = [(1.0, 3.0), make_interval(0.5, 1.75), (0.0, 4.0)]
    expected = [poset_element(f, iv, alpha=iv[0]) for iv in [(0.0, 4.0), (0.5, 1.75), (1.0, 3.0)]]
    calls = []
    real = iposet_module.integrate_step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(iposet_module, "integrate_step", counted)
    elems = build_iposet(f, family)
    assert len(calls) == 2 * len(family)
    assert [(e.interval, e.value, e.alpha) for e in elems] == \
        [(e.interval, e.value, e.alpha) for e in expected]


def test_order_leq_is_reflexive():
    f = indicator(box1(0.0, 1.0), box1(0.0, 1.0))
    e = poset_element(f, make_interval(0.2, 0.8))
    assert order_leq(e, e)


# ---------------------------------------------------------------------------
# upper-limit records and the pairing maps
# ---------------------------------------------------------------------------

def test_game_map_keeps_interval_and_value():
    f = indicator(box1(0.0, 1.0), box1(0.0, 2.0), 2.0)
    r = upper_limit_record(f, 0.0, 1.5)
    p = game_map(r)
    assert p.value == r.value == 2.0
    assert p.set.boxes == (box1(0.0, 1.5),)


def test_game_natural_forgets_the_set():
    p = _pair(0.25, 0.5, 7.0)
    q = game_natural(p, (0.0, 1.0))
    assert q.value == 7.0
    assert q.set.boxes == (box1(0.0, 1.0),)


def test_game_natural_rejects_escaping_sets():
    p = _pair(0.5, 2.0, 1.0)
    with pytest.raises(OutOfAmbientError):
        game_natural(p, (0.0, 1.0))


# ---------------------------------------------------------------------------
# the six-way case classification, including shared-endpoint degeneracies
# ---------------------------------------------------------------------------

CASE_EXAMPLES = [
    ((0.0, 1.0), (2.0, 3.0), CaseTag.DISJOINT_LEFT),
    ((2.0, 3.0), (0.0, 1.0), CaseTag.DISJOINT_RIGHT),
    ((0.0, 2.0), (1.0, 3.0), CaseTag.OVERLAP_LEFT),
    ((1.0, 3.0), (0.0, 2.0), CaseTag.OVERLAP_RIGHT),
    ((1.0, 2.0), (0.0, 3.0), CaseTag.CONTAINED_IN),
    ((0.0, 3.0), (1.0, 2.0), CaseTag.CONTAINS),
    # shared endpoints: touching intervals overlap with an empty strip
    ((0.0, 1.0), (1.0, 2.0), CaseTag.OVERLAP_LEFT),
    ((1.0, 2.0), (0.0, 1.0), CaseTag.OVERLAP_RIGHT),
    # equal intervals and shared-end containments resolve as containment
    ((0.0, 1.0), (0.0, 1.0), CaseTag.CONTAINED_IN),
    ((0.0, 1.0), (0.0, 2.0), CaseTag.CONTAINED_IN),
    ((0.0, 2.0), (1.0, 2.0), CaseTag.CONTAINS),
    # degenerate (single-point) intervals
    ((1.0, 1.0), (0.0, 2.0), CaseTag.CONTAINED_IN),
    ((0.0, 2.0), (3.0, 3.0), CaseTag.DISJOINT_LEFT),
]


@pytest.mark.parametrize("a,b,expected", CASE_EXAMPLES)
def test_classify_case_table(a, b, expected):
    got = classify_case(make_interval(*a), make_interval(*b))
    assert got is expected, f"{a} vs {b}: {got} != {expected}"


@given(st.floats(min_value=0, max_value=4, allow_nan=False),
       st.floats(min_value=0, max_value=4, allow_nan=False),
       st.floats(min_value=0, max_value=4, allow_nan=False),
       st.floats(min_value=0, max_value=4, allow_nan=False))
@settings(max_examples=300)
def test_classify_case_is_total(x0, x1, y0, y1):
    a = make_interval(*sorted((x0, x1)))
    b = make_interval(*sorted((y0, y1)))
    tag = classify_case(a, b)
    assert isinstance(tag, CaseTag)


# ---------------------------------------------------------------------------
# addition of poset elements: branch table vs the general integral
# ---------------------------------------------------------------------------

def test_add_elements_overlap_value():
    amb = box1(0.0, 2.0)
    f = indicator(box1(0.0, 2.0), amb, 1.0)
    g = indicator(box1(0.0, 2.0), amb, 2.0)
    e1 = poset_element(f, make_interval(0.0, 1.0))
    e2 = poset_element(g, make_interval(0.5, 2.0))
    out = add_elements(e1, e2)
    # ∫_[0,1] 1 + ∫_[0.5,2] 2 = 1 + 3 = 4 over the hull [0,2]
    assert out.value == pytest.approx(4.0, abs=1e-12)
    assert out.set.boxes == (box1(0.0, 2.0),)


def test_add_elements_is_commutative():
    rng = np.random.default_rng(11)
    amb_lo, amb_hi = 0.0, 3.0
    f = random_step(rng, amb_lo, amb_hi)
    g = random_step(rng, amb_lo, amb_hi)
    e1 = poset_element(f, make_interval(0.5, 2.0))
    e2 = poset_element(g, make_interval(1.0, 3.0))
    a = add_elements(e1, e2)
    b = add_elements(e2, e1)
    assert a.set == b.set
    assert a.value == pytest.approx(b.value, abs=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 31),
       st.tuples(*(st.floats(min_value=0, max_value=3, allow_nan=False),) * 4))
@settings(max_examples=150, deadline=None)
def test_add_elements_branches_match_general_integral(seed, ends):
    """The library cross-checks internally; recompute the general value here."""
    rng = np.random.default_rng(seed)
    f = random_step(rng, 0.0, 3.0)
    g = random_step(rng, 0.0, 3.0)
    x0, x1, y0, y1 = ends
    a = make_interval(*sorted((x0, x1)))
    b = make_interval(*sorted((y0, y1)))
    out = add_elements(poset_element(f, a), poset_element(g, b))
    hull = make_interval(min(a.lo, b.lo), max(a.hi, b.hi))
    h = linear_combine(1.0, restrict(f, a), 1.0, restrict(g, b))
    general = integrate_step(h, hull)
    assert out.value == pytest.approx(general, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar and algebra actions on Im(+)
# ---------------------------------------------------------------------------

def test_scalar_action_scales_value_only():
    p = _pair(0.0, 1.0, 3.0)
    q = scalar_action(-2.0, p)
    assert q.value == -6.0
    assert q.set == p.set


def test_sigma_pair_addition_requires_equal_sets():
    p = _pair(0.0, 1.0, 1.0)
    q = _pair(0.0, 2.0, 1.0)
    with pytest.raises(DomainMismatchError):
        p + q


def test_lambda_action_identity_tau():
    p = _pair(0.0, 1.0, 2.0)
    q = lambda_action(3.0, lambda v: v, p)
    assert q.value == 6.0
    assert q.set == p.set


def test_lambda_action_rejects_non_multiplicative_tau():
    p = _pair(0.0, 1.0, 2.0)
    with pytest.raises(TauNotHomomorphismError):
        lambda_action(3.0, lambda v: 2.0 * v, p)


def test_lambda_action_accepts_square_tau():
    p = _pair(0.0, 1.0, 2.0)
    q = lambda_action(3.0, lambda v: v * v, p)
    assert q.value == 18.0


# axioms (a')-(e') of the module structure, with the identity homomorphism
@given(st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False))
@settings(max_examples=200)
def test_module_axioms_identity_tau(a1, a2, k, r1, r2):
    tau = lambda v: v
    p = _pair(0.0, 1.0, r1)
    q = _pair(0.0, 1.0, r2)
    eps = 1e-12

    # (a') unit acts trivially
    assert lambda_action(1.0, tau, p).value == p.value
    # (b') associativity of the action
    lhs = lambda_action(a1 * a2, tau, p).value
    rhs = lambda_action(a1, tau, lambda_action(a2, tau, p)).value
    assert abs(lhs - rhs) <= eps * (1.0 + abs(rhs))
    # (c') additivity in the algebra argument (identity tau is additive)
    lhs = lambda_action(a1 + a2, tau, p).value
    rhs = (lambda_action(a1, tau, p) + lambda_action(a2, tau, p)).value
    assert abs(lhs - rhs) <= eps * (1.0 + abs(rhs))
    # (d') additivity in the pair argument
    lhs = lambda_action(a1, tau, p + q).value
    rhs = (lambda_action(a1, tau, p) + lambda_action(a1, tau, q)).value
    assert abs(lhs - rhs) <= eps * (1.0 + abs(rhs))
    # (e') scalars slide through
    left = lambda_action(k * a1, tau, p).value
    mid = lambda_action(a1, tau, scalar_action(k, p)).value
    right = scalar_action(k, lambda_action(a1, tau, p)).value
    assert abs(left - mid) <= eps * (1.0 + abs(mid))
    assert abs(mid - right) <= eps * (1.0 + abs(right))


@given(st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False))
@settings(max_examples=100)
def test_multiplicative_axioms_square_tau(a1, a2, r):
    """(a'), (b'), (d') need only multiplicativity, not additivity, of tau."""
    tau = lambda v: v * v
    p = _pair(0.0, 1.0, r)
    q = _pair(0.0, 1.0, -0.5 * r)
    eps = 1e-12
    assert lambda_action(1.0, tau, p).value == p.value
    lhs = lambda_action(a1 * a2, tau, p).value
    rhs = lambda_action(a1, tau, lambda_action(a2, tau, p)).value
    assert abs(lhs - rhs) <= eps * (1.0 + abs(rhs))
    lhs = lambda_action(a1, tau, p + q).value
    rhs = (lambda_action(a1, tau, p) + lambda_action(a1, tau, q)).value
    assert abs(lhs - rhs) <= eps * (1.0 + abs(rhs))


def test_add_elements_combines_the_backings_once(monkeypatch):
    # the overlap branch reads ∫ (f + g) from the combination the integral
    # identity builds, so the backings are summed once
    calls = []
    real = iposet_module.linear_combine

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(iposet_module, "linear_combine", counted)
    f = StepFunction(box1(0.0, 4.0), ((box1(0.0, 1.5), 2.0), (box1(2.5, 4.0), -1.0)))
    g = StepFunction(box1(0.0, 4.0), ((box1(1.0, 3.0), 0.5),))
    for first, second in (((0.0, 2.0), (1.0, 3.0)), ((1.0, 3.0), (0.0, 2.0))):
        calls.clear()
        e1, e2 = poset_element(f, first), poset_element(g, second)
        assert add_elements(e1, e2).value == e1.value + e2.value and len(calls) == 1


def test_add_elements_accepts_cancelling_coefficients_on_the_overlap():
    # ∫ f + ∫ g over the overlap rounds each product near 1e8 · 0.3, far past
    # the 1e-12 check; the rounded sum f + g that the integral reads does not
    f = StepFunction(box1(0.0, 1.0), ((box1(0.1, 0.4), 1e8 + 0.1),))
    g = StepFunction(box1(0.0, 1.0), ((box1(0.1, 0.4), -1e8),))
    for (a, e), (b, d) in ((((0.0, 0.4), f), ((0.1, 1.0), g)),
                           (((0.1, 1.0), g), ((0.0, 0.4), f))):
        e1, e2 = poset_element(e, a), poset_element(d, b)
        h = linear_combine(1.0, restrict(e, e1.interval), 1.0, restrict(d, e2.interval))
        assert add_elements(e1, e2).value == integrate_step(h, make_interval(0.0, 1.0))
