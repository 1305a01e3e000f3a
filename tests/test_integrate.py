"""Darboux enclosures, variable-upper-limit integrals, Stieltjes quadrature."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stepquiver import (
    AmbientMismatchError,
    DomainMismatchError,
    EmptyWeightsError,
    Enclosure,
    NonFiniteError,
    NonIntegerResultError,
    OrderViolationError,
    StepFunction,
    StieltjesMeasure,
    box1,
    convex_enclosure,
    eta,
    identity_measure,
    indicator,
    integer_from_float,
    integrate_enclosure,
    integrate_step,
    linear_combine,
    log_power_measure,
    make_interval,
    monotone_pieces,
    multiple_integral_affine_unit_box,
    parse_fn_expr,
    stieltjes_integrate,
    upper_limit_record,
    var_upper_integral,
    zero_function,
)

from stepquiver import integrate as integrate_module
from stepquiver import elemfn
from stepquiver.elemfn import _circle
from stepquiver.integrate import (
    CELL_BUDGET, RULE_CELLS, STIELTJES_BLOCK, _Evaluator, _stieltjes_sum, convex_primitive,
)

from conftest import random_step


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

def test_enclosure_basic_accessors():
    e = Enclosure(1.0, 1.5, True)
    assert e.width == 0.5
    assert e.midpoint == 1.25
    assert e.contains(1.2)
    assert not e.contains(1.6)


def test_darboux_linear_function():
    e = integrate_enclosure(lambda x: x, (0.0, 1.0), tol=1e-6)
    assert e.contains(0.5)
    assert e.converged
    assert e.width <= 1e-6 * (1.0 + 1e-9)  # summation roundoff slop


def test_darboux_square_on_wider_domain():
    e = integrate_enclosure(lambda x: x * x, (0.0, 2.0), tol=1e-6)
    assert e.contains(8.0 / 3.0)
    assert e.converged and e.width <= 1e-6


def test_darboux_with_declared_monotone_pieces():
    pieces = [make_interval(1.0, 2.0)]
    e = integrate_enclosure(lambda t: 1.0 / t, (1.0, 2.0), pieces, tol=1e-8)
    assert e.contains(math.log(2.0))


def test_darboux_non_monotone_needs_hints():
    from stepquiver import BadPiecesError
    hump = lambda x: x * (1.0 - x)
    with pytest.raises(BadPiecesError):
        integrate_enclosure(hump, (0.0, 1.0), tol=1e-6)
    pieces = [make_interval(0.0, 0.5), make_interval(0.5, 1.0)]
    e = integrate_enclosure(hump, (0.0, 1.0), pieces, tol=1e-6)
    assert e.contains(1.0 / 6.0)
    assert e.converged


def test_darboux_rejects_non_finite_integrand():
    with pytest.raises(NonFiniteError):
        integrate_enclosure(lambda t: 1.0 / t, (0.0, 1.0), tol=1e-4)


def test_darboux_unconverged_is_still_a_bracket():
    # an absurd tolerance cannot be certified, but the bracket stays valid
    e = integrate_enclosure(lambda x: x, (0.0, 1.0), tol=1e-15)
    assert not e.converged
    assert e.contains(0.5)


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=25, deadline=None)
def test_darboux_contains_quadratic_antiderivative(a, b, c):
    def f(x):
        return a * x * x + b * x + c

    # split at the parabola's vertex so every piece is monotone
    pieces = None
    if a != 0:
        v = -b / (2.0 * a)
        if 0.0 < v < 2.0:
            pieces = [make_interval(0.0, v), make_interval(v, 2.0)]
    exact = a * 8.0 / 3.0 + b * 2.0 + c * 2.0  # ∫_0^2
    e = integrate_enclosure(f, (0.0, 2.0), pieces, tol=1e-4)
    assert e.contains(exact), f"{(a, b, c)}: [{e.lower}, {e.upper}] misses {exact}"
    assert e.converged


def test_convex_enclosure_reciprocal():
    e = convex_enclosure(lambda t: 1.0 / t, (1.0, 2.0), tol=1e-8)
    assert e.contains(math.log(2.0))
    assert e.converged and e.width <= 1e-8 * (1.0 + 1e-9)


def test_convex_enclosure_rejects_concave_integrand():
    from stepquiver import NotMonotoneError
    with pytest.raises(NotMonotoneError):
        convex_enclosure(lambda t: math.sqrt(1.0 - t * t), (0.0, 0.9),
                         tol=1e-8)


# one family per enclosure route; ``p`` in [0, 1]^3 picks the instance
TOL_FAMILIES = {
    "darboux-recip": lambda p, tol: integrate_enclosure(lambda t: 1.0 / t, (1.0, 2.0), None, tol),
    "convex-recip": lambda p, tol: convex_enclosure(lambda t: 1.0 / t, (1.0, 1.0 + 7.0 * p[0]), tol),
    "circle": lambda p, tol: convex_enclosure(lambda t: _circle(t - 1.0), (0.0, 0.999), tol),
    "quadratic": lambda p, tol: convex_enclosure(
        lambda t: 2.0 * p[0] + 10.0 ** (-12.0 * p[1]) * t * t, (-p[2], 1.0), tol),
}


@given(st.sampled_from(sorted(TOL_FAMILIES)),
       st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
       st.floats(min_value=-15.0, max_value=-3.0),
       st.floats(min_value=-15.0, max_value=-3.0))
@settings(max_examples=24, deadline=None)
def test_a_tighter_tolerance_never_widens_the_bracket(family, p, e1, e2):
    assume(e1 != e2)
    loose, tight = (TOL_FAMILIES[family](p, 10.0 ** e) for e in (max(e1, e2), min(e1, e2)))
    # the sums are rounded to nearest, so allow their own rounding
    bound = max(abs(x) for e in (loose, tight) for x in (e.lower, e.upper))
    assert tight.width <= loose.width + 2 * math.ulp(bound), \
        f"{family}{p}: width {tight.width} at 1e{min(e1, e2)} > {loose.width} at 1e{max(e1, e2)}"


def test_sandwich_at_a_sub_rounding_tolerance_stays_narrow():
    e = convex_enclosure(lambda t: 0.1 + t * t, (0.0, 1.0), 1e-15)
    assert e.width <= 1e-13 and e.contains(0.1 + 1.0 / 3.0)


@pytest.mark.parametrize("call, sampled", [
    (lambda f: integrate_enclosure(f, (1.0, 2.0), None, 1e-12), 17),
    (lambda f: convex_enclosure(f, (1.0, 64.0), 1e-15), 0),
], ids=["darboux", "convex"])
def test_an_unreachable_tolerance_spends_one_budget(call, sampled):
    points = []

    def recip(xs):
        points.append(np.size(xs))
        return 1.0 / xs

    e = call(recip)
    assert not e.converged
    assert CELL_BUDGET // 2 < sum(points) <= CELL_BUDGET + sampled


# ---------------------------------------------------------------------------
# the resumable primitive
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y, tol", [(0.3, 1e-6), (1 / 64, 1e-12), (0.999, 1e-14)])
def test_a_query_below_the_base_is_refused(y, tol):
    prim = convex_primitive(lambda t: 1.0 / t, 1.0)
    with pytest.raises(OrderViolationError, match="below"):
        prim.enclose(y, tol)
    assert prim.cells == [] and prim.spent == 0


def _tiles(cells, lo, hi):
    return (cells[0][1] == lo and cells[-1][2] == hi
            and all(a[2] == b[1] for a, b in zip(cells, cells[1:])))


def test_primitive_queries_on_both_sides_contain_the_logarithm():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    prim = convex_primitive(lambda t: 1.0 / t, 1.0)
    # reachable tolerances first, then ones that exhaust the shared budget;
    # the logarithm takes every y to the primitive's side of 1, on [1, 2)
    for i in range(60):
        y = float(2.0 ** rng.uniform(-6, 6))
        tol = float(10.0 ** rng.uniform(-11 if i < 40 else -13, -3))
        enc = elemfn._ln(prim, y, tol)
        with mpmath.workdps(50):
            assert mpmath.mpf(enc.lower) <= mpmath.log(y) <= mpmath.mpf(enc.upper), (y, tol)
        assert enc.converged == (enc.width <= tol * (1 + 1e-9))
        assert enc.converged or i >= 40
    assert _tiles(prim.cells, 1.0, prim.cells[-1][2]) and prim.cells[-1][2] < 2.0
    assert prim.spent <= CELL_BUDGET + 2 * 60 * (2 * RULE_CELLS + 1)


def test_a_primitive_pays_only_for_refinement_not_yet_done():
    points = []

    def recip(xs):
        points.append(np.size(xs))
        return 1.0 / xs

    prim = convex_primitive(recip, 1.0)
    first = prim.enclose(3.0, 1e-12)
    spent = sum(points)
    # the same query again is answered from the kept cells
    assert prim.enclose(3.0, 1e-12) == first and sum(points) == spent
    # a nearby one costs its breakpoint and a few cells, not a second enclosure
    prim.enclose(2.9, 1e-12)
    assert sum(points) - spent <= 8 * (2 * RULE_CELLS + 1) < spent // 10
    assert prim.spent == sum(points)


def test_a_cell_far_wider_than_the_rest_cannot_hold_the_driver():
    # 1e20 + 9000 rounds up to 1e20 + 16384 in the running sum of widths,
    # and cancelling the wide cell leaves that phantom 7384 behind; the
    # cells below are 1e-9 wide, so two bisections meet the tolerance
    calls = []

    def rule(lo, hi):
        calls.append((lo, hi))
        width = {(0.0, 1.0): 1e20, (1.0, 2.0): 9000.0}.get((lo, hi), 1e-9 * (hi - lo))
        return 0.0, width, CELL_BUDGET // 1024

    lower, upper, converged = integrate_module._refine(
        rule, [(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)], 1e-6)
    assert converged and upper - lower == 2e-9
    assert len(calls) == 6  # the two cells and their halves, not the budget


STEP = indicator(box1(0.0, 0.5), box1(0.0, 1.0), 2.0)


@pytest.mark.parametrize("call", [
    lambda tol: integrate_enclosure(lambda x: x, (0.0, 1.0), tol=tol),
    lambda tol: convex_enclosure(lambda x: x * x, (0, 1), tol),
    lambda tol: stieltjes_integrate(lambda x: x, identity_measure(), (0.0, 1.0), tol),
    lambda tol: stieltjes_integrate(STEP, identity_measure(), (0.0, 1.0), tol),
], ids=["darboux", "convex", "stieltjes", "stieltjes-step"])
@pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan, "x", None])
def test_every_enclosure_rejects_a_bad_tolerance(call, tol):
    with pytest.raises(OrderViolationError, match="tolerance must be a positive real"):
        call(tol)


# ---------------------------------------------------------------------------
# the cell rules: cached grid, one-sum Darboux, folded finite check
# ---------------------------------------------------------------------------

def _seeded_cells(seed, count):
    rng = np.random.default_rng(seed)
    cells = [(0, 1), (-3, 5), (1, 2 ** 40), (-7, -2)]  # int endpoints
    for _ in range(count):
        lo = float(rng.uniform(-1e3, 1e3))
        span = float(10.0 ** rng.uniform(-14.0, 3.0))
        cells.append((lo, lo + span))
        cells.append((-lo - span, -lo))  # the mirrored, negative-side cell
        cells.append((lo + span, lo))  # a negative span
        cells.append((lo, math.nextafter(lo, math.inf)))  # a 1-ulp cell
    return cells


@pytest.mark.parametrize("n", [1, 2], ids=["darboux", "sandwich"])
def test_rule_grid_is_linspace_bit_for_bit(n):
    for lo, hi in _seeded_cells(5, 700):
        got = integrate_module._grid(lo, hi, n)
        want = np.linspace(lo, hi, n * RULE_CELLS + 1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (lo, hi)


MONOTONE = [lambda t: 1.0 / (1.0 + t), lambda t: t * t * t + 0.5 * t, np.sqrt,
            np.exp, lambda t: -3.0 * t, lambda t: 1.0 / t]


def test_one_sum_darboux_matches_the_min_max_sums():
    # on a monotone cell Σ min(v_i, v_i+1) = S - max(v_0, v_N) exactly,
    # so the two differ only by the rounding of the sums
    rng = np.random.default_rng(11)
    for i in range(900):
        f = MONOTONE[i % len(MONOTONE)]
        lo = float(rng.uniform(0.1, 4.0))
        hi = lo + float(10.0 ** rng.uniform(-12.0, 0.5))
        if i % 3 == 0 and i % len(MONOTONE) in (1, 4):  # odd ones also left of 0
            lo, hi = -hi, -lo
        lower, upper, cost = integrate_module._darboux_rule(_Evaluator(f))(lo, hi)
        xs = np.linspace(lo, hi, RULE_CELLS + 1)
        v, h = f(xs), (hi - lo) / RULE_CELLS
        ref = (h * float(np.sum(np.minimum(v[:-1], v[1:]))),
               h * float(np.sum(np.maximum(v[:-1], v[1:]))))
        ulp = math.ulp(max(map(abs, ref)))
        assert abs(lower - ref[0]) <= 4 * ulp and abs(upper - ref[1]) <= 4 * ulp, (i, lo, hi)
        assert lower <= upper and cost == RULE_CELLS + 1


def test_values_that_turn_keep_the_pairwise_darboux_sums():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(rng.uniform(0.2, 2.0))  # longer than a period
        f = lambda t: np.cos(40.0 * t) + 0.1 * t  # noqa: E731
        lower, upper, _ = integrate_module._darboux_rule(_Evaluator(f))(lo, hi)
        v, h = f(np.linspace(lo, hi, RULE_CELLS + 1)), (hi - lo) / RULE_CELLS
        assert (lower, upper) == (h * float(np.sum(np.minimum(v[:-1], v[1:]))),
                                  h * float(np.sum(np.maximum(v[:-1], v[1:]))))


def _numpy_pairwise(values, lo, n):
    """numpy's pairwise sum of ``values[lo:lo + n]`` as a Python loop, with
    the most additions any one term passed through."""
    if n < 8:
        total = -0.0
        for v in values[lo:lo + n]:
            total += v
        return total, n
    if n <= 128:
        acc = values[lo:lo + 8]
        i = 8
        while i < n - n % 8:
            acc = [a + v for a, v in zip(acc, values[lo + i:lo + i + 8])]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[lo + i:lo + n]:
            total += v
        return total, n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    (a, da), (b, db) = (_numpy_pairwise(values, lo, half),
                        _numpy_pairwise(values, lo + half, n - half))
    return a + b, 1 + max(da, db)


def test_numpy_sums_in_the_order_the_simpson_rounding_term_assumes():
    # the rule's rounding term rests on the depth of numpy's pairwise sum;
    # if numpy summed in another order, the sums would differ somewhere here
    rng = np.random.default_rng(21)
    for n in (1, 7, 8, 127, 128, 129, 1000, RULE_CELLS // 2 - 1, RULE_CELLS // 2):
        for _ in range(20):
            v = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-8.0, 8.0, 2 * n)
            for arr in (v[:n], v[::2]):
                total, depth = _numpy_pairwise(arr.tolist(), 0, n)
                assert float(np.sum(arr)) == total and depth == integrate_module._pairwise_depth(n)


def test_simpson_brackets_the_exact_integral_of_a_quartic():
    # for t⁴ the remainder (b - a) h⁴ · 24 / 180 is exact, so the lower end
    # of the bracket is the integral itself less the rounding term alone
    rule = integrate_module._simpson_rule(
        _Evaluator(lambda t: t * t * t * t), lambda a, b: 24.0,
        lambda a, b: 4.0 * max(abs(a), abs(b)) ** 3, 2)
    rng = np.random.default_rng(22)
    for _ in range(300):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(10.0 ** rng.uniform(-9.0, 0.7))
        lower, upper, cost = rule(lo, hi)
        exact = (Fraction(hi) ** 5 - Fraction(lo) ** 5) / 5
        assert Fraction(lower) <= exact <= Fraction(upper), (lo, hi)
        # the width is the remainder and a rounding term of a few dozen ulps
        h = (hi - lo) / RULE_CELLS
        rem = (hi - lo) * h ** 4 * 24.0 / 180.0
        assert cost == RULE_CELLS + 1
        assert upper - lower <= 1.001 * rem + 1e-13 * abs(float(exact)), (lo, hi)


def test_a_bump_between_the_samples_stays_inside_the_bracket():
    # the sampled tiling calls the bump's piece monotone; its grid values
    # turn, and the pairwise sums make the driver refine the bump
    f = parse_fn_expr("t + 1000/(1 + 1000000000000*(t-0.30865)^2)")
    with np.errstate(all="ignore"):
        e = integrate_enclosure(f, (0.0, 1.0), monotone_pieces(f, (0.0, 1.0)), 1e-4)
    exact = 0.5 + 1e-3 * (math.atan(1e6 * (1.0 - 0.30865)) + math.atan(1e6 * 0.30865))
    assert e.converged and e.contains(exact), (e, exact)


# evaluation counts recorded before the cheaper grid points; the work is
# the same, so calls and points must match to the last point
PINNED_COUNTS = [
    (lambda f: integrate_enclosure(f, (0.0, 1.0), None, 1e-6),
     lambda t: 1.0 / (1.0 + t), 246, 1003782),
    (lambda f: integrate_enclosure(f, (-1.0, 1.0), None, 1.5e-9),
     lambda t: t * t * t + 0.5 * t, 4096, 16777232),
    (lambda f: integrate_enclosure(f, (0.25, 4.0), None, 1e-6), np.sqrt, 2784, 11401968),
    (lambda f: convex_enclosure(f, (1.0, 8.0), 1e-12), lambda t: 1.0 / t, 777, 6365961),
    (lambda f: convex_enclosure(f, (0.0, 1.0), 1e-10), lambda t: 0.1 + t * t, 29, 237597),
]


@pytest.mark.parametrize("call, g, calls, points", PINNED_COUNTS,
                         ids=["recip", "cubic", "sqrt", "convex-recip", "convex-quadratic"])
def test_enclosures_spend_the_pinned_evaluations(call, g, calls, points):
    sizes = []

    def f(xs):
        sizes.append(np.size(xs))
        return g(xs)

    call(f)
    assert (len(sizes), sum(sizes)) == (calls, points)


def _poisoned(x, value, g=lambda t: t * t):
    # finite at every sampling point k/16, ``value`` at the grid point x
    return lambda t: np.where(t == x, value, g(t))


@pytest.mark.parametrize("call", [
    lambda f: integrate_enclosure(f, (0.0, 1.0), None, 1e-6),
    lambda f: convex_enclosure(f, (0.0, 1.0), 1e-6),
], ids=["darboux", "convex"])
@pytest.mark.parametrize("x", [1 / 4096, 3 / 8192])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_grid_value_is_refused_with_its_point(call, x, value):
    message = (f"integrand returned a non-finite value near x = {x!r}; "
               "truncate improper endpoints before integrating")
    with pytest.raises(NonFiniteError) as exc:
        call(_poisoned(x, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [
    lambda f: integrate_enclosure(f, (0.0, 1.0), None, 1e-6),
    lambda f: convex_enclosure(f, (0.0, 1.0), 1e-6),
], ids=["darboux", "convex"])
@pytest.mark.filterwarnings("error")  # the overflow is the error, not a warning
def test_finite_values_whose_sum_overflows_are_refused(call):
    with pytest.raises(NonFiniteError):
        call(lambda t: 1e308 + 0 * t)


# ---------------------------------------------------------------------------
# multiple integral over the affine unit box and integer extraction
# ---------------------------------------------------------------------------

def test_multiple_integral_is_weighted_half_square():
    assert multiple_integral_affine_unit_box({"1": 1.0}, 1.0) == 0.5
    assert multiple_integral_affine_unit_box({"1": 1.0, "2": 2.0}, 1.0) == 1.5
    assert multiple_integral_affine_unit_box({"v": 3.0}, 0.5) == 0.375


def test_multiple_integral_rejects_empty_weights():
    with pytest.raises(EmptyWeightsError):
        multiple_integral_affine_unit_box({}, 1.0)


def test_multiple_integral_upper_limit_stays_in_unit_box():
    from stepquiver import OutOfDomainError
    with pytest.raises(OutOfDomainError):
        multiple_integral_affine_unit_box({"1": 1.0}, 2.0)


def test_integer_from_float_snaps_and_rejects():
    assert integer_from_float(2.0) == 2
    assert integer_from_float(2.0 + 4e-10) == 2
    assert integer_from_float(-3.0 - 4e-10) == -3
    with pytest.raises(NonIntegerResultError):
        integer_from_float(2.5)
    with pytest.raises(NonIntegerResultError):
        integer_from_float(2.0 + 1e-6)


# ---------------------------------------------------------------------------
# variable-upper-limit integrals
# ---------------------------------------------------------------------------

def test_var_upper_matches_running_integral():
    f = linear_combine(1.0, indicator(box1(0.0, 1.0), box1(0.0, 2.0), 2.0),
                       1.0, indicator(box1(1.0, 2.0), box1(0.0, 2.0), -1.0))
    F = var_upper_integral(f, 0.0)
    assert F(0.0) == 0.0
    assert F(0.5) == 1.0
    assert F(1.0) == 2.0
    assert F(2.0) == 1.0
    # piecewise linear in between
    assert F(1.5) == 1.5


def test_var_upper_reads_each_cell_from_its_own_piece():
    # [0.5, u] is one ulp wide, so its float midpoint is the shared endpoint
    # 0.5; the node value must still take that cell's coefficient
    u = math.nextafter(0.5, 1.0)
    big = float(2 ** 60)
    f = StepFunction(box1(0.0, 1.0), ((box1(0.0, 0.5), big), (box1(0.5, u), -big)))
    F = var_upper_integral(f, 0.0)
    assert F.xs == (0.0, 0.5, u, 1.0)
    half = Fraction(big) / 2
    exact = [0, half, half - Fraction(big) * (Fraction(u) - Fraction(1, 2))]
    exact.append(exact[-1])
    assert F.ys == tuple(float(y) for y in exact)


def test_var_upper_base_must_be_ambient_lower_end():
    f = indicator(box1(0.0, 1.0), box1(0.0, 1.0))
    with pytest.raises(AmbientMismatchError):
        var_upper_integral(f, 0.5)


@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_var_upper_agrees_with_integrate_step(seed, x0, x1):
    f = random_step(np.random.default_rng(seed), 0.0, 4.0)
    F = var_upper_integral(f, 0.0)
    lo, hi = sorted((x0, x1))
    direct = integrate_step(f, make_interval(lo, hi))
    assert F(hi) - F(lo) == pytest.approx(direct, abs=1e-12), \
        f"seed {seed}: F({hi})-F({lo}) != ∫ over [{lo},{hi}]"


def test_chasles_additivity_smoke():
    f = random_step(np.random.default_rng(7), 0.0, 1.0)
    full = upper_limit_record(f, 0.0, 1.0)
    left = upper_limit_record(f, 0.0, 0.4)
    right = upper_limit_record(f, 0.4, 1.0)
    assert left.value + right.value == pytest.approx(full.value, abs=1e-12)
    F = var_upper_integral(f, 0.0)
    assert full.value == pytest.approx(F(1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# the halving composition η
# ---------------------------------------------------------------------------

def test_eta_glues_continuously():
    rng = np.random.default_rng(3)
    f = random_step(rng, 0.0, 1.0)
    g = random_step(rng, 0.0, 1.0)
    F = var_upper_integral(f, 0.0)
    G = var_upper_integral(g, 0.0)
    H = eta(F, G, (0.0, 1.0))
    assert H(0.0) == 0.0
    assert H(0.5) == pytest.approx(0.5 * F(1.0), abs=1e-15)
    assert H(1.0) == pytest.approx(0.5 * (F(1.0) + G(1.0)), abs=1e-15)
    # lower half is a squeezed copy of F
    for x in (0.125, 0.25, 0.375):
        assert H(x) == pytest.approx(0.5 * F(2.0 * x), abs=1e-15)


def test_eta_rejects_foreign_domains():
    f = indicator(box1(0.0, 1.0), box1(0.0, 1.0))
    g = indicator(box1(0.0, 2.0), box1(0.0, 2.0))
    F = var_upper_integral(f, 0.0)
    G = var_upper_integral(g, 0.0)
    with pytest.raises(DomainMismatchError):
        eta(F, G, (0.0, 1.0))


# ---------------------------------------------------------------------------
# Lebesgue-Stieltjes quadrature
# ---------------------------------------------------------------------------

def test_stieltjes_identity_measure_matches_plain_integral():
    value = stieltjes_integrate(lambda x: x * x, identity_measure(),
                                (0.0, 1.0), tol=1e-9)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_stieltjes_log_power_recovers_the_exponent():
    value = stieltjes_integrate(lambda x: x, log_power_measure(3.0),
                                (1.0, 2.0), tol=1e-9)
    assert value == pytest.approx(3.0, abs=1e-9)


def test_stieltjes_step_integrand():
    f = indicator(box1(1.0, 1.5), box1(1.0, 2.0), 2.0)
    value = stieltjes_integrate(f, identity_measure(), (1.0, 2.0), tol=1e-9)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_stieltjes_step_integrand_is_zero_off_its_ambient():
    # with or without a density to cross-check against, the pieces are
    # clipped to the domain, so the part beyond the ambient adds nothing
    f = indicator(box1(0.0, 1.0), box1(0.0, 1.0))
    bare = StieltjesMeasure(phi=lambda x: x)
    for domain in ((0.0, 2.0), (-1.0, 0.5)):
        expected = min(1.0, domain[1]) - max(0.0, domain[0])
        assert stieltjes_integrate(f, identity_measure(), domain) == expected
        assert stieltjes_integrate(f, bare, domain) == expected


def test_stieltjes_zero_function_is_zero():
    f = zero_function(box1(1.0, 2.0))
    assert stieltjes_integrate(f, log_power_measure(5.0), (1.0, 2.0)) == 0.0


@given(st.floats(min_value=0.25, max_value=8.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_stieltjes_log_power_scales_linearly(l):
    # ∫_[1,2] t dφ_l = l exactly, for any real power l
    value = stieltjes_integrate(lambda x: x, log_power_measure(l),
                                (1.0, 2.0), tol=1e-9)
    assert value == pytest.approx(l, abs=1e-8), f"φ_{l} gave {value}"


@pytest.mark.parametrize("n", [64, STIELTJES_BLOCK, 4 * STIELTJES_BLOCK])
def test_blocked_stieltjes_sum_matches_the_whole_partition_sum(n):
    # the reference is the unblocked sum over the same linspace partition;
    # blocks of a power-of-two n added pairwise keep numpy's summation order
    f = lambda x: x * x + 1.0  # noqa: E731
    phi = log_power_measure(7.0)
    xs = np.linspace(1.0, 3.0, n + 1)
    whole = float(np.sum(f(0.5 * (xs[:-1] + xs[1:])) * np.diff(phi.phi(xs))))
    assert _stieltjes_sum(_Evaluator(f), _Evaluator(phi.phi), 1.0, 3.0, n) == whole


def test_stieltjes_sum_past_one_block_lands_within_tol(monkeypatch):
    # ∫_[1,2] t d(2000 ln t) = 2000 needs a partition of more than one block
    sizes = []

    def recording(ev_f, ev_phi, lo, hi, n):
        sizes.append(n)
        return _stieltjes_sum(ev_f, ev_phi, lo, hi, n)

    monkeypatch.setattr(integrate_module, "_stieltjes_sum", recording)
    value = stieltjes_integrate(lambda x: x, log_power_measure(2000.0), (1.0, 2.0), tol=1e-9)
    assert max(sizes) > STIELTJES_BLOCK
    assert abs(value - 2000.0) <= 1e-9, value


def test_stieltjes_step_density_check_spends_one_budget():
    # 32 cells of l/t: the density enclosure refines all of them under one
    # CELL_BUDGET, and the returned value is still the exact step value
    n = 32
    f = StepFunction(box1(1.0, 2.0), tuple((box1(1 + i / n, 1 + (i + 1) / n), float(i % 3 + 1))
                                           for i in range(n)))
    points = []

    def density(xs):
        points.append(np.size(xs))
        return 3.0 / xs

    phi = StieltjesMeasure(phi=lambda x: 3.0 * np.log(x), phi_prime=density)
    value = stieltjes_integrate(f, phi, (1.0, 2.0), 1e-9)
    exact = 0.0
    for b, k in f.pieces:
        iv = b.factors[0]
        exact += k * (float(phi.phi(iv.hi)) - float(phi.phi(iv.lo)))
    assert value == exact
    # each cell is sampled for monotone runs (129 points) and each run is
    # checked (17 points) before the driver starts
    assert sum(points) <= CELL_BUDGET + n * (129 + 17)
