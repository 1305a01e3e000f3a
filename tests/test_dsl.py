"""The two text formats: quiver documents and integrand expressions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    Arrow,
    DomainAnnotationMissingError,
    DslSyntaxError,
    DuplicateArrowError,
    Interval,
    NonQuadraticRelationError,
    QuiverDoc,
    UnknownVertexError,
    doc_from_presentation,
    emit_dsl,
    ensure_proper,
    integrate_step,
    monotone_pieces,
    parse_fn_expr,
    parse_quiver_dsl,
    step_literal,
    validate_gentle,
)

from stepquiver.dsl import FnBin, FnConst, FnNeg, FnPow, FnSqrt, FnVar

from conftest import CORPUS_DIR, corpus_names


# ---------------------------------------------------------------------------
# quiver documents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", corpus_names())
def test_corpus_round_trips_byte_identically(name):
    text = (CORPUS_DIR / f"{name}.qv").read_text()
    doc = parse_quiver_dsl(text)
    assert emit_dsl(doc) == text, f"{name} is not in canonical form"
    assert doc.name == name


def test_parse_canonicalizes_order_and_duplicates():
    doc = parse_quiver_dsl("""
        quiver scrambled {
          vertices: 10 2 1 2
          arrows: a10: 1 -> 2, a2: 2 -> 10
          relations: a10*a2, a10*a2
        }
    """)
    # names sort by (length, name), so a2 precedes a10 and 2 precedes 10
    assert doc.vertices == ("1", "2", "10")
    assert [a.name for a in doc.arrows] == ["a2", "a10"]
    assert doc.relations == (("a10", "a2"),)
    assert parse_quiver_dsl(emit_dsl(doc)) == doc


def test_parse_strips_comments():
    doc = parse_quiver_dsl(
        "# heading\n"
        "quiver c { # name\n"
        "  vertices: 1 2 # trailing\n"
        "  arrows: a: 1 -> 2\n"
        "}\n"
    )
    assert doc.vertices == ("1", "2") and len(doc.arrows) == 1


def test_arrowless_document_is_legal():
    doc = parse_quiver_dsl("quiver lone { vertices: 1 }")
    assert doc.arrows == () and doc.relations == ()
    assert emit_dsl(doc) == "quiver lone {\n  vertices: 1\n}\n"


@pytest.mark.parametrize("bad, expected", [
    ("", "quiver"),
    ("quiver x {", "vertices"),
    ("quiver x { vertices: }", "vertex name"),
    ("quiver x { vertices: 1 2", "}"),
    ("quiver x { vertices: 1 } trailing", "end of input"),
    ("quiver relations { vertices: 1 }", "quiver name"),
    ("quiver x { vertices: 1; }", "token"),
    ("quiver x { vertices: 1 2 arrows: a 1 -> 2 }", ":"),
])
def test_parse_rejects_malformed_documents(bad, expected):
    with pytest.raises(DslSyntaxError) as exc:
        parse_quiver_dsl(bad)
    assert exc.value.expected == expected, f"{bad!r}: {exc.value}"


def test_syntax_errors_carry_positions():
    with pytest.raises(DslSyntaxError) as exc:
        parse_quiver_dsl("quiver x {\n  vertices: 1\n  arrows: a = 1 -> 2\n}")
    assert exc.value.line == 3
    assert exc.value.found == "="


def test_parse_rejects_non_quadratic_relations():
    head = "quiver x { vertices: 1 2 arrows: a: 1 -> 2, b: 2 -> 1 relations: "
    with pytest.raises(NonQuadraticRelationError):
        parse_quiver_dsl(head + "a*b*a }")
    with pytest.raises(NonQuadraticRelationError):
        parse_quiver_dsl(head + "a }")


def test_parse_surfaces_reference_errors():
    with pytest.raises(UnknownVertexError):
        parse_quiver_dsl("quiver x { vertices: 1 arrows: a: 1 -> 9 }")
    with pytest.raises(DuplicateArrowError):
        parse_quiver_dsl(
            "quiver x { vertices: 1 2 arrows: a: 1 -> 2, a: 2 -> 1 }")


def test_doc_from_presentation_round_trips():
    doc = parse_quiver_dsl((CORPUS_DIR / "square_half.qv").read_text())
    p = validate_gentle(doc.quiver(), doc.relations)
    assert doc_from_presentation("square_half", p) == doc


def test_quiver_doc_validates_on_construction():
    with pytest.raises(UnknownVertexError):
        QuiverDoc("x", ("1",), (Arrow("a", "1", "7"),), ())


# ---------------------------------------------------------------------------
# integrand expressions
# ---------------------------------------------------------------------------

EXPR_VALUES = [
    ("1+2*3", 0.0, 7.0),
    ("(1+2)*3", 0.0, 9.0),
    ("2*t^2", 3.0, 18.0),
    ("-t^2", 3.0, -9.0),
    ("t^(1/2)", 4.0, 2.0),
    ("sqrt(t)", 9.0, 3.0),
    ("t^-1", 4.0, 0.25),
    ("(1+t)/2", 3.0, 2.0),
    ("1-2-3", 0.0, -4.0),
    ("8/4/2", 0.0, 1.0),
    ("2e2+0.5", 0.0, 200.5),
    ("indicator(0,1)", 1.0, 1.0),
    ("indicator(0,1)", 1.5, 0.0),
    ("indicator(-1,1)", -1.0, 1.0),
]


@pytest.mark.parametrize("text, at, expected", EXPR_VALUES)
def test_expression_values(text, at, expected):
    e = parse_fn_expr(text)
    assert float(e(at)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("text", [t for t, _, _ in EXPR_VALUES])
def test_expressions_vectorize(text):
    e = parse_fn_expr(text)
    xs = np.linspace(-2.0, 5.0, 29)
    with np.errstate(all="ignore"):
        vec = np.asarray(e(xs), dtype=float)
        scalar = np.array([float(e(float(x))) for x in xs])
    assert vec.shape == xs.shape
    assert np.array_equal(vec, scalar, equal_nan=True), text


@pytest.mark.parametrize("bad", [
    "", "foo(t)", "t^", "t^(1/0)", "t @ 2", "(t", "indicator(0)", "1 2",
    "t^(0.5)",
])
def test_expression_parse_errors(bad):
    with pytest.raises(DslSyntaxError):
        parse_fn_expr(bad)


@pytest.mark.parametrize("text, col", [
    ("indicator", 10), ("sqrt", 5), ("t +", 4), ("(t", 3), ("", 1),
])
def test_expression_end_of_input_column_follows_the_last_token(text, col):
    # the same rule as the .qv parser: the column just past the last token
    with pytest.raises(DslSyntaxError) as exc:
        parse_fn_expr(text)
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, col, "end of input")


def test_unary_minus_binds_looser_than_power():
    # -3^2 must read -(3^2), matching the usual convention
    assert float(parse_fn_expr("-3^2")(0.0)) == -9.0


def _walk_with_full_constants(e, t):
    """``e(t)`` with every constant an ``np.full`` array, as a reference."""
    if isinstance(e, FnConst):
        return np.full(np.shape(t), e.value, dtype=float)
    if isinstance(e, FnBin):
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}[e.op]
        return op(_walk_with_full_constants(e.left, t), _walk_with_full_constants(e.right, t))
    if isinstance(e, FnPow):  # the package's own power, applied to the walked base
        return FnPow(FnVar(), e.num, e.den)(_walk_with_full_constants(e.base, t))
    if isinstance(e, FnNeg):
        return -_walk_with_full_constants(e.arg, t)
    if isinstance(e, FnSqrt):
        return np.sqrt(_walk_with_full_constants(e.arg, t))
    return e(t)


@pytest.mark.parametrize("text", [
    "0.1 + 1.25*t^1 + 0.75*t^2 + 2.0*t^3", "1/(1 + t)", "2*t - 3", "3 - t/7",
    "0.37*sqrt(t)", "-2/t", "t^(1/2)*3", "1-2-3", "8/4/2*t", "indicator(0,1)*2 + 1e-300",
    "(t - 0.30865)^2*1e12 + 1", "1e308*t*10",
])
def test_constant_operands_give_the_full_array_values_bit_for_bit(text):
    e = parse_fn_expr(text)
    xs = np.concatenate([np.random.default_rng(3).uniform(-3.0, 3.0, 4001),
                         [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]])
    with np.errstate(all="ignore"):
        got, want = e(xs), _walk_with_full_constants(e, xs)
        assert np.array_equal(got, want, equal_nan=True), text
        assert np.array_equal(np.signbit(got), np.signbit(want)), text
        assert float(e(0.25)) == float(_walk_with_full_constants(e, 0.25)), text


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_small_integer_powers_are_within_two_ulps_of_pow(k):
    rng = np.random.default_rng(k)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 20000), np.exp(rng.uniform(-70.0, 70.0, 20000))])
    got, want = parse_fn_expr(f"t^{k}")(xs), np.power(xs, float(k))
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 2


@pytest.mark.parametrize("text, exponent", [
    ("t^5", 5.0), ("t^0", 0.0), ("t^-2", -2.0), ("t^(2/2)", 1.0), ("t^(3/2)", 1.5),
])
def test_other_powers_stay_on_pow(text, exponent):
    xs = np.linspace(0.25, 4.0, 101)
    assert np.array_equal(parse_fn_expr(text)(xs), np.power(xs, exponent))


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(1, 9))
def test_rational_arithmetic_matches_python(a, b, c):
    e = parse_fn_expr(f"({a}) + ({b}) * t / {c}")
    for t in (-1.0, 0.0, 0.5, 2.0):
        assert float(e(t)) == pytest.approx(a + b * t / c, rel=1e-15)


# ---------------------------------------------------------------------------
# static analysis: step literals, proper domains, monotone tilings
# ---------------------------------------------------------------------------

def test_step_literal_recognizes_indicator_combinations():
    f = step_literal(parse_fn_expr("2*indicator(0,1) + 3*indicator(1,2)"))
    assert f is not None
    assert integrate_step(f) == pytest.approx(5.0)
    g = step_literal(parse_fn_expr("-indicator(0,2)/4"))
    assert g is not None
    assert integrate_step(g) == pytest.approx(-0.5)


@pytest.mark.parametrize("text, pieces, total", [
    ("indicator(0,1)+indicator(0.5,2)",
     [(0.0, 0.5, 1.0), (0.5, 1.0, 2.0), (1.0, 2.0, 1.0)], 2.5),
    ("indicator(0,0.5)-indicator(0.25,1)",
     [(0.0, 0.25, 1.0), (0.5, 1.0, -1.0)], -0.25),
    ("indicator(0,1)+indicator(0,1)", [(0.0, 1.0, 2.0)], 2.0),
])
def test_step_literal_sums_overlapping_indicators(text, pieces, total):
    f = step_literal(parse_fn_expr(text))
    got = [(b.factors[0].lo, b.factors[0].hi, k) for b, k in f.pieces]
    assert got == pieces
    assert integrate_step(f) == total


def test_step_literal_ambient_is_the_indicator_hull():
    f = step_literal(parse_fn_expr("indicator(1,2) - indicator(-1,0)"))
    assert f.ambient.factors[0] == Interval(-1.0, 2.0)


@pytest.mark.parametrize("text", [
    "t", "3", "0", "t*indicator(0,1)", "indicator(0,1)+1",
    "indicator(0,1)^2", "sqrt(indicator(0,1))",
])
def test_step_literal_rejects_non_step_shapes(text):
    assert step_literal(parse_fn_expr(text)) is None, text


def test_step_literal_tolerates_vanishing_constant_terms():
    f = step_literal(parse_fn_expr("indicator(0,1) + 0"))
    assert f is not None and integrate_step(f) == pytest.approx(1.0)


def test_ensure_proper_accepts_finite_endpoints():
    e = parse_fn_expr("1/t")
    assert ensure_proper(e, (1.0, 2.0)) == Interval(1.0, 2.0)


def test_ensure_proper_requires_truncation_flag():
    e = parse_fn_expr("1/t")
    with pytest.raises(DomainAnnotationMissingError):
        ensure_proper(e, (0.0, 1.0))
    iv = ensure_proper(e, (0.0, 1.0), truncate=True)
    assert iv == Interval(1e-8, 1.0)


def test_ensure_proper_truncates_each_improper_endpoint():
    e = parse_fn_expr("1/(t*(1-t))")
    iv = ensure_proper(e, (0.0, 1.0), truncate=True)
    assert iv == Interval(1e-8, 1.0 - 1e-8)
    # a proper endpoint is left alone
    f = parse_fn_expr("1/(1-t)")
    assert ensure_proper(f, (0.0, 1.0), truncate=True) == \
        Interval(0.0, 1.0 - 1e-8)


def test_ensure_proper_reports_vanished_domains():
    e = parse_fn_expr("1/t")
    with pytest.raises(DomainAnnotationMissingError):
        ensure_proper(e, (0.0, 5e-9), truncate=True)


def test_monotone_pieces_cut_at_indicator_bounds():
    e = parse_fn_expr("indicator(0,1) + indicator(0.5,2)")
    pieces = monotone_pieces(e, (0.0, 2.0))
    assert pieces is not None
    assert pieces[0].lo == 0.0 and pieces[-1].hi == 2.0
    ends = {p.hi for p in pieces} | {p.lo for p in pieces}
    assert {0.5, 1.0} <= ends, f"jump points not honored: {sorted(ends)}"
    assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))


def test_monotone_pieces_locate_interior_extrema():
    e = parse_fn_expr("t*(1-t)")
    pieces = monotone_pieces(e, (0.0, 1.0))
    assert pieces is not None and len(pieces) == 2
    assert pieces[0].hi == pieces[1].lo == pytest.approx(0.5, abs=1e-6)


def test_monotone_pieces_pass_smooth_monotone_through():
    pieces = monotone_pieces(parse_fn_expr("sqrt(t)"), (0.0, 4.0))
    assert pieces == [Interval(0.0, 4.0)]
