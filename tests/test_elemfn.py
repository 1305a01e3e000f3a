"""Elementary functions as certified integral enclosures.

Oracle values come from the math module; every enclosure must contain the
oracle whether or not it managed to converge to the requested width.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    InversionFailedError,
    K_constant,
    OrderViolationError,
    OutOfDomainError,
    acos_cat,
    asin_cat,
    cos_cat,
    exp_cat,
    k_reference,
    ln_cat,
    sin_cat,
)
from stepquiver import elemfn
from stepquiver.integrate import CELL_BUDGET, RULE_CELLS, Primitive

from conftest import REPO_ROOT

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# the quarter-period constant
# ---------------------------------------------------------------------------

def test_k_constant_encloses_half_pi():
    start = time.perf_counter()
    enc = K_constant(1e-3)
    elapsed = time.perf_counter() - start
    assert enc.width <= 2e-3
    assert enc.contains(1.5707963)
    assert enc.contains(HALF_PI)
    assert elapsed < 5.0, f"K took {elapsed:.2f}s"


def test_k_constant_tightens_with_tolerance():
    loose = K_constant(1e-2)
    tight = K_constant(1e-6)
    assert tight.width <= loose.width
    assert tight.contains(HALF_PI)
    assert tight.converged and tight.width <= 1e-6 * (1.0 + 1e-9)


def test_k_reference_close_to_half_pi():
    assert abs(k_reference() - HALF_PI) <= 1e-5


# ---------------------------------------------------------------------------
# arcsine and arccosine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y", [-1.0, -0.9, -0.5, 0.0, 0.3, 0.7, 0.99, 1.0])
def test_asin_contains_oracle(y):
    enc = asin_cat(y, 1e-6)
    assert enc.contains(math.asin(y)), \
        f"asin({y}): [{enc.lower}, {enc.upper}] misses {math.asin(y)}"
    assert enc.converged


@pytest.mark.parametrize("y", [-1.0, -0.6, 0.0, 0.3, 0.8, 1.0])
def test_acos_contains_oracle(y):
    enc = acos_cat(y, 1e-6)
    assert enc.contains(math.acos(y))
    assert enc.converged


def test_asin_domain_checked():
    with pytest.raises(OutOfDomainError):
        asin_cat(1.2)
    with pytest.raises(OutOfDomainError):
        acos_cat(-1.0001)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda t: asin_cat(0.5, t), lambda t: acos_cat(0.5, t), lambda t: K_constant(t),
    lambda t: sin_cat(0.5, t), lambda t: cos_cat(0.5, t), lambda t: ln_cat(3.0, t),
    lambda t: exp_cat(1.0, t),
], ids=["asin", "acos", "K", "sin", "cos", "ln", "exp"])
def test_every_elementary_function_rejects_a_bad_tolerance(call, tol):
    with pytest.raises(OrderViolationError) as err:
        call(tol)
    assert str(err.value) == f"tolerance must be a positive real, got {tol!r}"


@pytest.mark.parametrize("tol", [np.float64(1e-6), np.float32(1e-6), np.int64(1)])
@pytest.mark.parametrize("call", [
    lambda t: K_constant(t), lambda t: sin_cat(0.5, t), lambda t: ln_cat(3.0, t),
    lambda t: exp_cat(1.0, t),
], ids=["K", "sin", "ln", "exp"])
def test_a_numpy_tolerance_is_its_float(call, tol):
    enc = call(tol)
    assert enc == call(float(tol)) and type(enc.converged) is bool
    json.dumps(enc.to_json())


@pytest.mark.parametrize("call", [
    lambda t: asin_cat(0.5, t), lambda t: K_constant(t), lambda t: sin_cat(0.5, t),
    lambda t: ln_cat(3.0, t), lambda t: exp_cat(1.0, t),
], ids=["asin", "K", "sin", "ln", "exp"])
def test_a_bool_is_not_a_tolerance(call):
    with pytest.raises(OrderViolationError) as err:
        call(True)
    assert str(err.value) == "tolerance must be a positive real, got True"


def test_asin_is_odd_in_enclosure_terms():
    a = asin_cat(0.37, 1e-8)
    b = asin_cat(-0.37, 1e-8)
    assert a.lower == pytest.approx(-b.upper, abs=1e-12)
    assert a.upper == pytest.approx(-b.lower, abs=1e-12)


@given(st.floats(min_value=-0.999, max_value=0.999, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_asin_acos_sum_to_quarter_period(y):
    s = asin_cat(y, 1e-6) + acos_cat(y, 1e-6)
    assert s.contains(HALF_PI), \
        f"asin({y})+acos({y}) = [{s.lower}, {s.upper}] misses π/2"


# ---------------------------------------------------------------------------
# logarithm and exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y", [1e-6, 1.0 / 64.0, 0.1, 0.5, 1.0, 2.0, 10.0,
                               64.0, 1e6])
def test_ln_contains_oracle(y):
    enc = ln_cat(y, 1e-6)
    assert enc.contains(math.log(y)), \
        f"ln({y}): [{enc.lower}, {enc.upper}] misses {math.log(y)}"
    assert enc.converged


def test_ln_rejects_non_positive():
    with pytest.raises(OutOfDomainError):
        ln_cat(0.0)
    with pytest.raises(OutOfDomainError):
        ln_cat(-2.0)


def test_ln_one_is_exact():
    enc = ln_cat(1.0, 1e-9)
    assert enc.lower == enc.upper == 0.0


@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_ln_addition_law(y1, y2):
    tol = 1e-6
    joint = ln_cat(y1 * y2, tol)
    split = ln_cat(y1, tol) + ln_cat(y2, tol)
    gap = abs(joint.midpoint - split.midpoint)
    assert gap <= 3e-6, f"ln({y1}·{y2}) vs sum: gap {gap}"


@pytest.mark.parametrize("x", [-40.0, -5.0, -1.0, 0.0, 0.5, 2.5, 10.0, 40.0])
def test_exp_contains_oracle(x):
    enc = exp_cat(x, 1e-6)
    assert enc.contains(math.exp(x))


def test_exp_zero_is_one():
    enc = exp_cat(0.0, 1e-9)
    assert enc.contains(1.0)
    assert enc.width <= 1e-9 * (1.0 + 1e-9)


def test_exp_argument_cap():
    with pytest.raises(InversionFailedError):
        exp_cat(41.0)


def test_exp_inverts_ln():
    enc = exp_cat(math.log(7.0), 1e-6)
    assert enc.contains(7.0)


# ---------------------------------------------------------------------------
# sine and cosine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-7.0, -1.0, 0.0, 0.5, HALF_PI, 3.0, 7.0, 20.0])
def test_sin_contains_oracle(x):
    enc = sin_cat(x, 1e-3)
    assert enc.contains(math.sin(x)), \
        f"sin({x}): [{enc.lower}, {enc.upper}] misses {math.sin(x)}"


@pytest.mark.parametrize("x", [-10.0, -HALF_PI, 0.0, 1.0, 2.0, 15.0])
def test_cos_contains_oracle(x):
    enc = cos_cat(x, 1e-3)
    assert enc.contains(math.cos(x))


def test_sin_special_values():
    assert sin_cat(0.0, 1e-6).contains(0.0)
    assert sin_cat(HALF_PI, 1e-6).contains(1.0)
    assert cos_cat(0.0, 1e-6).contains(1.0)


def test_sin_far_from_origin_is_honest():
    # at u ~ 3e5 the quarter-period reduction alone is off by up to ~6e-9,
    # so it cannot certify 1e-9, but the bracket must still contain the
    # truth and say it failed
    enc = sin_cat(1e6, 1e-9)
    assert not enc.converged
    assert enc.contains(math.sin(1e6))


def test_sin_period_flips_sign():
    k2 = 2.0 * k_reference()
    for x in (-3.0, 0.25, 1.0, 2.5):
        a = sin_cat(x + k2, 2e-4)
        b = sin_cat(x, 2e-4)
        assert abs(a.midpoint + b.midpoint) <= 1e-3, \
            f"sin({x}+2K) = {a.midpoint}, -sin({x}) = {-b.midpoint}"


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_pythagorean_identity_at_midpoints(x):
    s = sin_cat(x, 1e-3).midpoint
    c = cos_cat(x, 1e-3).midpoint
    # midpoints are within ~width/2 + reduction slack of the truth, so the
    # identity can drift by a few widths at tol = 1e-3
    assert abs(s * s + c * c - 1.0) <= 5e-3, \
        f"sin²({x})+cos²({x}) = {s * s + c * c}"


# ---------------------------------------------------------------------------
# the bisection inverse at tight tolerances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, x, tol", [
    ("sin", 0.3, 1.5e-12), ("sin", 0.9, 1.5e-12), ("sin", -1.1, 1.5e-9),
    ("sin", 0.5, 1.5e-9), ("cos", 1.2, 1.5e-12), ("cos", 1.9, 1.5e-12),
    ("cos", 0.4, 1.5e-9), ("cos", 2.6, 1.5e-9), ("exp", 0.5, 1.5e-12),
    ("exp", 1.2, 1.5e-12), ("exp", -4.0, 1.5e-9), ("exp", 3.0, 1.5e-9),
])
def test_inverse_contains_oracle_at_tight_tolerance(name, x, tol):
    fn, ref = {"sin": (sin_cat, math.sin), "cos": (cos_cat, math.cos),
               "exp": (exp_cat, math.exp)}[name]
    enc = fn(x, tol)
    assert enc.contains(ref(x)), \
        f"{name}({x}, {tol}): [{enc.lower}, {enc.upper}] misses {ref(x)}"
    # cosine carries the K reduction slack, which alone exceeds these tols
    assert enc.converged or name == "cos"


def _counting(monkeypatch, name):
    points = []
    real = getattr(elemfn, name)

    def counted(ts):
        points.append(np.size(ts))
        return real(ts)

    monkeypatch.setattr(elemfn, name, counted)
    return points


def test_sine_spends_the_pinned_evaluations(monkeypatch):
    # One primitive per inversion: a step pays only for the refinement the
    # steps before it have not done.  A fresh arcsine enclosure per step
    # took 2225 calls and 18229425 points here, and one primitive on the
    # second-order midpoint/trapezoid sandwich 401 calls and 3285393 points.
    tol = 1.5e-12
    sin_cat(0.9, tol)  # warm the cached quarter-period
    points = _counting(monkeypatch, "_circle")
    enc = sin_cat(0.9, tol)
    assert enc.converged and enc.contains(math.sin(0.9))
    assert (len(points), sum(points)) == (41, 167977)


def test_one_inversion_spends_one_budget(monkeypatch):
    # 1e-20 is far below what the sums can reach, so the refinement stops on
    # CELL_BUDGET, once for the whole inversion rather than once per step.
    # Past the budget a query still needs its breakpoint: at most two cells.
    sin_cat(0.5, 1e-3)  # warm the cached quarter-period
    points = _counting(monkeypatch, "_circle")
    queries = []
    real_enclose = Primitive.enclose

    def counted(self, y, tol):
        queries.append(y)
        return real_enclose(self, y, tol)

    monkeypatch.setattr(Primitive, "enclose", counted)
    enc = sin_cat(0.5, 1e-20)
    assert enc.contains(math.sin(0.5)) and not enc.converged
    cell = 2 * RULE_CELLS + 1
    assert CELL_BUDGET - 2 * cell < sum(points) <= CELL_BUDGET + 2 * cell * len(queries)
    assert len(queries) < 100


@pytest.mark.parametrize("fn, x, tol", [
    (sin_cat, 0.9, 1.5e-12), (sin_cat, -7.5, 1.5e-9), (cos_cat, 1.9, 1.5e-12),
    (cos_cat, 0.4, 1e-6),
])
def test_every_step_of_an_inversion_asks_one_tolerance(monkeypatch, fn, x, tol):
    # one sharp enclosure per bisection step, none loose first
    fn(x, 1e-3)  # warm the cached quarter-period
    tols = []
    real_enclose = Primitive.enclose

    def counted(self, y, t):
        tols.append(t)
        return real_enclose(self, y, t)

    monkeypatch.setattr(Primitive, "enclose", counted)
    fn(x, tol)
    assert len(tols) > 10 and len(set(tols)) == 1


INVERSES = {"sin": (sin_cat, (-10.0, 10.0)), "cos": (cos_cat, (-9.0, 11.0)),
            "exp": (exp_cat, (-5.0, 5.0))}


def test_inverses_do_not_depend_on_earlier_calls():
    calls = [("sin", 0.9, 1.5e-12), ("cos", 1.9, 1.5e-12), ("exp", 1.2, 1.5e-12),
             ("exp", 4.5, 1.5e-9), ("exp", -4.5, 1.5e-9), ("sin", -7.5, 1.5e-9)]
    first = [INVERSES[name][0](x, tol) for name, x, tol in calls]
    for name, x, tol in calls:  # nearby arguments, tighter tolerances
        INVERSES[name][0](x + 0.01, tol / 10)
    ln_cat(1000.0, 1e-12)
    again = [INVERSES[name][0](x, tol) for name, x, tol in reversed(calls)]
    assert first == again[::-1]


def test_ln_asks_ln2_no_tighter_than_it_can_reach(monkeypatch):
    # half of 3e-13 over e = 29 is 5e-15, below the rounding term of ln 2's
    # bracket: asked for that, ln 2 would spend the whole budget
    elemfn._ln2.cache_clear()
    points = _counting(monkeypatch, "_recip")
    enc = ln_cat(1e9, 1e-13)
    assert enc.contains(math.log(1e9)) and sum(points) < CELL_BUDGET // 100


def test_one_process_makes_one_ln2(monkeypatch):
    # ln 2 is ∫_1^2 dt/t, the one query at 2.0 on a primitive based at 1
    elemfn._ln2.cache_clear()
    queries = []
    real_enclose = Primitive.enclose

    def counted(self, y, t):
        if self.base == 1.0 and y == 2.0:
            queries.append(t)
        return real_enclose(self, y, t)

    monkeypatch.setattr(Primitive, "enclose", counted)
    for tol in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
        assert ln_cat(1000.0, tol).contains(math.log(1000.0))
        exp_cat(3.3, tol)
        ln_cat(1e-5, tol)
    assert len(queries) == 1


def test_ln_does_not_depend_on_call_history():
    # a fresh interpreter, so the first call is the first of the process
    code = ("from stepquiver import ln_cat\n"
            "a = ln_cat(1000.0, 1e-6)\n"
            "ln_cat(1000.0, 1e-12)\n"
            "print(a == ln_cat(1000.0, 1e-6), a.contains(6.907755278982137))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == "True True\n", proc.stderr


# |sin x| near 1, cos x near ±1, and the ends of each range, beside seeded points
EDGES = {"sin": [-10.0, -7.85, -4.71, -1.5708, 1.5707, 4.7124, 7.854, 10.0],
         "cos": [-9.0, -6.2832, -3.1416, 0.0, 3.1415, 6.2831, 9.4248, 11.0],
         "exp": [-5.0, -0.001, 0.001, 4.16, 4.159, 5.0]}


@pytest.mark.parametrize("tol", [1.5e-9, 1.5e-12], ids=["tol9", "tol12"])
@pytest.mark.parametrize("name", ["sin", "cos", "exp"])
def test_inverses_contain_high_precision_references(name, tol):
    mpmath = pytest.importorskip("mpmath")
    fn, (lo, hi) = INVERSES[name]
    rng = random.Random(f"{name}{tol}")
    for x in EDGES[name] + [rng.uniform(lo, hi) for _ in range(6)]:
        enc = fn(x, tol)
        with mpmath.workdps(50):
            exact = getattr(mpmath, name)(mpmath.mpf(x))
            assert mpmath.mpf(enc.lower) <= exact <= mpmath.mpf(enc.upper), \
                f"{name}({x!r}, {tol}): [{enc.lower!r}, {enc.upper!r}] misses {exact}"


@pytest.mark.parametrize("y, tol", [(1e-8, 1e-12), (1e-6, 1e-12), (1e-5, 1e-13)])
def test_small_arcsines_contain_their_values(y, tol):
    # rounded to nearest, each sum lands on the float below asin(y) and the
    # bracket collapses beneath it; the rounding term keeps it open
    mpmath = pytest.importorskip("mpmath")
    enc = asin_cat(y, tol)
    with mpmath.workdps(50):
        exact = mpmath.asin(mpmath.mpf(y))
        assert mpmath.mpf(enc.lower) <= exact <= mpmath.mpf(enc.upper), (enc, exact)
    assert enc.converged


# the argument ranges of perfbench's enclosures workload; ln takes y = 2^(8u/0.75
# - 3) below u = 0.75 and 1e3 * 1e6^((u - 0.75)/0.25) above
BENCH_RANGES = {"asin": (-0.95, 0.95), "acos": (-0.95, 0.95), "sin": (-10.0, 10.0),
                "cos": (-9.0, 11.0), "exp": (-5.0, 5.0), "ln": (0.0, 1.0), "K": (0.0, 1.0)}
ELEMENTARY = {"asin": asin_cat, "acos": acos_cat, "sin": sin_cat, "cos": cos_cat,
              "exp": exp_cat, "ln": ln_cat, "K": lambda x, tol: K_constant(tol)}


def _bench_arg(name, u):
    lo, hi = BENCH_RANGES[name]
    if name == "ln":
        return 2.0 ** (8 * u / 0.75 - 3) if u < 0.75 else 1e3 * 1e6 ** ((u - 0.75) / 0.25)
    return lo + (hi - lo) * u


def _exact(mpmath, name, x):
    if name == "K":
        return mpmath.pi / 2
    return getattr(mpmath, {"ln": "log"}.get(name, name))(mpmath.mpf(x))


@pytest.mark.parametrize("tol", [1.5e-6, 1.5e-9, 1.5e-12], ids=["tol6", "tol9", "tol12"])
@pytest.mark.parametrize("name", sorted(ELEMENTARY))
def test_every_function_contains_its_value_over_the_benchmark_ranges(name, tol):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(f"bench{name}{tol}")
    for u in [0.0, 0.5, 1.0] + [rng.random() for _ in range(7)]:
        x = _bench_arg(name, u)
        enc = ELEMENTARY[name](x, tol)
        with mpmath.workdps(50):
            exact = _exact(mpmath, name, x)
            assert mpmath.mpf(enc.lower) <= exact <= mpmath.mpf(enc.upper), \
                f"{name}({x!r}, {tol}): [{enc.lower!r}, {enc.upper!r}] misses {exact}"
        # exp's tolerance is absolute, on values up to e^5, so only its
        # small arguments reach 1e-12
        assert enc.converged or (name == "exp" and tol < 1e-9) or abs(x) > 10.0, (name, x)


@given(st.sampled_from(sorted(ELEMENTARY)), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=3, max_value=13))
@settings(max_examples=40, deadline=None)
def test_converged_means_within_tolerance(name, u, digits):
    tol = 10.0 ** -digits
    enc = ELEMENTARY[name](_bench_arg(name, u), tol)
    assert not enc.converged or enc.width <= tol * (1 + 1e-9), (enc, tol)


@pytest.mark.parametrize("fn, x, tol, ref", [
    (asin_cat, 0.47942354530096054, 2.5e-21, math.asin),
    (sin_cat, 0.5, 1e-20, math.sin),
    (sin_cat, 0.0, 1e-30, math.sin),
], ids=["asin", "sin-half", "sin-zero"])
def test_tolerances_below_the_float_floor_still_bracket(fn, x, tol, ref):
    # far below what binary64 sums can certify: the result may come back
    # unconverged, but it is an enclosure of the value, not a crash
    enc = fn(x, tol)
    assert enc.contains(ref(x)), f"[{enc.lower}, {enc.upper}] misses {ref(x)}"
