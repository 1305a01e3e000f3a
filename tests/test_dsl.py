"""The two text formats: quiver documents and integrand expressions."""

from __future__ import annotations

import functools
import operator
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    Arrow,
    DomainAnnotationMissingError,
    DslSyntaxError,
    DuplicateArrowError,
    FnExpr,
    Interval,
    NonQuadraticRelationError,
    QuiverDoc,
    StepQuiverError,
    UnknownVertexError,
    emit_dsl,
    emit_koszul_dual,
    ensure_proper,
    enumerate_threads,
    indicator,
    integrate_step,
    koszul_dual,
    koszul_report,
    linear_combine,
    monotone_pieces,
    parse_fn_expr,
    parse_quiver_dsl,
    step_literal,
    threads_report,
    validate_gentle,
    zero_function,
)

from conftest import (
    CORPUS_DIR,
    corpus_names,
    gentle_presentations,
    reference_parse_qv,
)


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


def _result(f, *args):
    """What ``f(*args)`` returns, or the type and message of its error."""
    try:
        return f(*args)
    except StepQuiverError as exc:
        return type(exc), str(exc)


def assert_writers_match_the_named_objects(doc: QuiverDoc, name: str = "") -> None:
    """The dual's ``.qv`` text (named ``name``, by default ``doc.name +
    "_dual"``) and JSON and the thread JSON, written from the integer form,
    equal what the named dual and the ``Thread``s give, errors included."""
    p = validate_gentle(doc.quiver(), doc.relations, allow_infinite_dimensional=True)
    name = name or doc.name + "_dual"

    def named_dual_doc():
        dual = koszul_dual(p)
        return QuiverDoc(name, dual.quiver.vertices, dual.quiver.arrows, dual.relations)

    text, dual_doc = _result(emit_koszul_dual, name, p), _result(named_dual_doc)
    if isinstance(dual_doc, QuiverDoc):
        assert text == _result(emit_dsl, dual_doc)
        assert isinstance(text, tuple) or parse_quiver_dsl(text) == dual_doc
        assert koszul_report(p) == koszul_dual(p).to_json()
    else:
        assert text == dual_doc == _result(koszul_report, p)
    for kind in ("forbidden", "permitted"):
        assert _result(threads_report, p, [kind]) == _result(
            lambda: {kind: [t.to_json() for t in enumerate_threads(p, kind)]})


@pytest.mark.parametrize("name", corpus_names())
def test_dual_and_thread_writers_match_the_named_objects_on_the_corpus(name):
    assert_writers_match_the_named_objects(
        parse_quiver_dsl((CORPUS_DIR / f"{name}.qv").read_text()))


@pytest.mark.parametrize("name", ["quiver", "a b", "a-b", "x\n"])
def test_the_dual_writer_refuses_the_names_emit_dsl_refuses(name):
    assert_writers_match_the_named_objects(
        parse_quiver_dsl((CORPUS_DIR / "square_half.qv").read_text()), name)


@settings(max_examples=300, deadline=None)
@given(gentle_presentations())
def test_dual_and_thread_writers_match_the_named_objects(qr):
    q, rels = qr
    assert_writers_match_the_named_objects(QuiverDoc("g", q.vertices, q.arrows, tuple(rels)))


def test_quiver_doc_validates_on_construction():
    with pytest.raises(UnknownVertexError):
        QuiverDoc("x", ("1",), (Arrow("a", "1", "7"),), ())


def test_quiver_doc_types_malformed_arrows_and_relations():
    arrows = (Arrow("a", "1", "2"), Arrow("b", "2", "1"))
    for rel in ("ab", ("a", "b", "a"), ("a",)):
        with pytest.raises(NonQuadraticRelationError):
            QuiverDoc("x", ("1", "2"), arrows, (rel,))
    for arrow in (("c", "1"), "c12", 7):
        with pytest.raises(StepQuiverError):
            QuiverDoc("x", ("1", "2"), arrows + (arrow,), ())


@pytest.mark.parametrize("name, vertices, arrows, relations, message", [
    ("x", ("a b",), (), (), "name 'a b'"),                 # parsed back as two vertices
    ("x", ("1", "vertices"), (), (), "name 'vertices'"),   # a reserved word
    ("x", (), (), (), "quiver 'x' declares no vertices"),  # "vertices:" needs a name
    ("my quiver", ("1",), (), (), "name 'my quiver'"),
    (None, ("1",), (), (), "name None"),
    ("x", ("1", ""), (), (), "name ''"),
    ("x", ("1",), (Arrow("a#", "1", "1"),), (), "name 'a#'"),
    ("x", ("1",), (Arrow("a", "1", "1"),), (("a", "b*c"),), "name 'b\\*c'"),
    ("x", ("1",), (Arrow("a", "1", "1"),), (("a", "quiver"),), "name 'quiver'"),
])
def test_emit_dsl_refuses_a_document_it_could_not_write_back(name, vertices, arrows, relations,
                                                             message):
    # emit_dsl(doc) must parse back to doc, so no text is written for it
    doc = QuiverDoc(name, vertices, arrows, relations)
    with pytest.raises(StepQuiverError, match=f"^{message}") as err:
        emit_dsl(doc)
    assert type(err.value) is StepQuiverError


def test_emit_dsl_writes_names_that_only_start_like_reserved_words():
    doc = QuiverDoc("quivers", ("vertices1", "arrows_"),
                    (Arrow("relations2", "arrows_", "vertices1"),), (("relations2", "x"),))
    assert parse_quiver_dsl(emit_dsl(doc)) == doc


def test_quiver_doc_keeps_its_validated_quiver():
    doc = parse_quiver_dsl((CORPUS_DIR / "square_half.qv").read_text())
    q = doc.quiver()
    assert q is doc.quiver()
    assert (q.vertices, q.arrows) == (doc.vertices, doc.arrows)
    assert all(type(a) is Arrow for a in doc.arrows)
    rebuilt = QuiverDoc(doc.name, doc.vertices, doc.arrows, doc.relations)
    assert rebuilt == doc and hash(rebuilt) == hash(doc)
    assert repr(rebuilt) == repr(doc) and "_quiver" not in repr(doc)


def test_full_chain_of_1e5_arrows_round_trips():
    n = 100_000
    text = "".join([
        "quiver chain {\n",
        "  vertices: ", " ".join(str(i) for i in range(1, n + 2)), "\n",
        "  arrows: ", ", ".join(f"a{i}: {i} -> {i + 1}" for i in range(1, n + 1)), "\n",
        "  relations: ", ", ".join(f"a{i}*a{i + 1}" for i in range(1, n)), "\n",
        "}\n",
    ])
    doc = parse_quiver_dsl(text)
    assert (len(doc.vertices), len(doc.arrows), len(doc.relations)) == (n + 1, n, n - 1)
    assert doc.arrows[-1] == Arrow(f"a{n}", str(n), str(n + 1))
    assert emit_dsl(doc) == text


# the differential test: the one-scan parser against the line-by-line
# reference in conftest, on valid text with random layout and on mutants

_QV_WORDS = re.compile(r"->|[{}:,*]|[A-Za-z0-9_]+")
_LAYOUT = [" ", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
           "\x85", "\u2028", "\u2029", "\n\n", " # note\n", "#c\r", "\t# é; {x\r\n",
           " #\u2028", "#\x0c", ""]
_BAD = [";", "=", "é", "-", ">", "#", "\u00a0", "->>"]
_RESERVED = ["quiver", "vertices", "arrows", "relations"]


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` re-laid out with random whitespace and comments, after at
    most one random edit of its tokens."""
    toks = _QV_WORDS.findall(text)
    k = rng.randrange(len(toks) + 1)
    kind = rng.choice(["none", "none", "drop", "dup", "swap", "bad", "reserved",
                       "cut", "empty"])
    if kind == "drop" and k < len(toks):
        del toks[k]
    elif kind == "dup" and k < len(toks):
        toks.insert(k, toks[k])
    elif kind == "swap" and k + 1 < len(toks):
        toks[k], toks[k + 1] = toks[k + 1], toks[k]
    elif kind == "bad":
        toks.insert(k, rng.choice(_BAD))
    elif kind == "reserved":
        names = [i for i, t in enumerate(toks) if t[0].isalnum() or t[0] == "_"]
        toks[rng.choice(names)] = rng.choice(_RESERVED)
    elif kind == "cut":
        toks = toks[:k]
    elif kind == "empty":
        toks = []
    out = [rng.choice(_LAYOUT) if rng.random() < 0.3 else ""]
    for t in toks:
        out += [t, rng.choice(_LAYOUT)]
    return "".join(out)


def _outcome(parse, text):
    try:
        return parse(text)
    except StepQuiverError as exc:
        return exc


def assert_parses_like_reference(text: str) -> None:
    want, got = _outcome(reference_parse_qv, text), _outcome(parse_quiver_dsl, text)
    if isinstance(want, QuiverDoc):
        assert got == want, f"{text!r}: {got!r}"
        return
    assert type(got) is type(want) and str(got) == str(want), f"{text!r}: {got!r}"
    if isinstance(want, DslSyntaxError):
        fields = ("line", "col", "expected", "found")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


@pytest.mark.parametrize("text", [
    "",
    " \t\r\n# only a comment\x0c",
    "quiver x {\r\n  vertices: 1\r\n  arrows: a = 1 -> 2\r\n}",
    "quiver x {\r  vertices: 1 2\r  arrows: a: 1 -> 2;\r}",
    "quiver x {\x0c vertices: 1\u2028 arrows: a: 1 -> 2\u2029 relations: a*a*a }",
    "quiver x {\x0b\x1c\x85 vertices: é }",
    "quiver x {\n\tvertices:\t1\t2\n\tarrows:\ta:\t1\t->\t2,\n}",
    "quiver x { vertices: 1 2 # é { ;\r\n arrows: a: 1 -> 2 } }",
    "quiver x { vertices: 1 2 arrows: a: 1 ->\r\n",
    "quiver x { vertices: 1 arrows: arrows: 1 -> 1 }",
    "quiver quiver { vertices: relations }",
    "quiver x { vertices: 1 2 relations: a*b }",
    "quiver x { vertices: 1 } \r\n\r\n trailing",
    "quiver x { vertices: 1 --> 2 }",
    "quiver x { vertices: 1 }\n# a trailing comment without a newline",
])
def test_parser_matches_reference_on_examples(text):
    assert_parses_like_reference(text)


def _canonical_texts():
    return [(CORPUS_DIR / f"{name}.qv").read_text() for name in corpus_names()]


@settings(max_examples=400, deadline=None)
@given(source=st.one_of(
           st.sampled_from(_canonical_texts()),
           gentle_presentations().map(lambda qr: emit_dsl(QuiverDoc(
               "g", qr[0].vertices, qr[0].arrows, tuple(qr[1]))))),
       rng=st.randoms(use_true_random=False))
def test_parser_matches_reference_on_random_layouts_and_mutants(source, rng):
    assert_parses_like_reference(_mutate(source, rng))


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


@pytest.mark.parametrize("text, col, found", [
    ("1e400*t", 1, "1e400"), ("t + indicator(0, -1e400)", 19, "1e400"), ("2 * * t", 5, "*"),
])
def test_number_errors_point_at_the_literal(text, col, found):
    # a literal that overflows to inf is rejected where it stands
    with pytest.raises(DslSyntaxError) as exc:
        parse_fn_expr(text)
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, col, found)


@pytest.mark.parametrize("exponent, expected", [
    ("9" * 5000, "a finite exponent"),     # past Python's limit on reading an int
    ("9" * 400, "a finite exponent"),
    ("-" + "9" * 400, "a finite exponent"),
    ("(1" + "0" * 400 + "/3)", "a finite exponent"),
    ("(1/0)", "nonzero denominator"),
])
def test_exponent_errors_point_at_the_exponent(exponent, expected):
    # num / den must be a finite float, the rule number literals follow
    with pytest.raises(DslSyntaxError) as exc:
        parse_fn_expr(f"t^{exponent} + 1")
    assert (exc.value.col, exc.value.expected, exc.value.found) == (3, expected, exponent)


def test_exponents_of_long_integers_with_a_finite_ratio_still_parse():
    xs = np.linspace(0.25, 4.0, 101)
    big = "1" + "0" * 400
    assert np.array_equal(parse_fn_expr(f"t^({big}/{big})")(xs), np.power(xs, 1.0))
    assert np.array_equal(parse_fn_expr(f"t^(1/{big})")(xs), np.ones_like(xs))


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
    binary = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}
    stack = []
    for op, arg in e.tape:
        if op == "num":
            stack.append(np.full(np.shape(t), arg, dtype=float))
        elif op in binary:
            b, a = stack.pop(), stack.pop()
            stack.append(binary[op](a, b))
        elif op in ("^", "pow"):  # the package's own power, applied to the walked base
            stack.append(FnExpr((("t", None), (op, arg)))(stack.pop()))
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "sqrt":
            stack.append(np.sqrt(stack.pop()))
        else:
            stack.append(FnExpr(((op, arg),))(t))
    return stack[0]


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


DEEP = 10 ** 4
GRID = np.linspace(0.5, 2.0, 129)   # dyadic points: sums of 10^4 of them are exact


def _deep_indicator_terms():
    """10^4 ``(coef, a, b)`` on the 1/16 grid, the first with a = 0: every
    sum and the step integral are exact floats."""
    rng = random.Random(16)
    starts = [0.0] + [rng.randint(0, 512) / 16 for _ in range(DEEP - 1)]
    return [(rng.randint(-32, 32) / 4, a, a + rng.randint(1, 64) / 16) for a in starts]


def _deep_case(kind):
    """(text, values on GRID, monotone domain, its expected pieces)."""
    if kind == "t_sum":
        return " + ".join(["t"] * DEEP), DEEP * GRID, (0.5, 2.0), [Interval(0.5, 2.0)]
    if kind == "negations":
        return "-" * DEEP + "t", GRID, (0.5, 2.0), [Interval(0.5, 2.0)]
    if kind == "product":
        want = functools.reduce(operator.mul, [GRID] * 1000)
        return "*".join(["t"] * 1000), want, (0.5, 2.0), [Interval(0.5, 2.0)]
    terms = _deep_indicator_terms()
    text = " + ".join(f"{k}*indicator({a},{b})" for k, a, b in terms)
    want = functools.reduce(operator.add, [k * ((GRID >= a) & (GRID <= b)) for k, a, b in terms])
    # the cut at 0 is read off the tape; this window keeps the sampling to
    # two chunks, as the cost of sampling grows with the cuts in the domain
    return text, want, (-1.0, 0.03), [Interval(-1.0, 0.0), Interval(0.0, 0.03)]


@pytest.mark.parametrize("kind", ["t_sum", "indicator_sum", "negations", "product"])
def test_deep_expressions_parse_evaluate_and_analyse(kind):
    # 10^4 terms or negations, 10^3 factors: the tape has no recursion
    text, want, domain, pieces = _deep_case(kind)
    e = parse_fn_expr(text)
    got = e(GRID)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert float(e(float(GRID[64]))) == float(want[64])    # a scalar point
    assert monotone_pieces(e, domain) == pieces
    step = step_literal(e)
    if kind != "indicator_sum":
        assert step is None
        return
    exact = sum(Fraction(k) * (Fraction(b) - Fraction(a)) for k, a, b in _deep_indicator_terms())
    assert integrate_step(step) == exact


def test_nesting_past_the_cap_points_at_the_opening_token():
    for opening, col in (("(", 101), ("sqrt(", 501)):
        for depth in (101, DEEP):
            with pytest.raises(DslSyntaxError) as exc:
                parse_fn_expr(opening * depth + "t" + ")" * depth)
            assert (exc.value.col, exc.value.found) == (col, opening[:-1] or "(")
        assert float(parse_fn_expr(opening * 100 + "t" + ")" * 100)(1.0)) == 1.0


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


def test_step_literal_sums_many_terms_in_one_cut_like_the_fold():
    # decimal coefficients: each cell must add its terms in term order,
    # as folding the terms through linear_combine one by one does
    rng = random.Random(900)
    terms = [(round(rng.uniform(-9, 9), 3), a, a + rng.randint(1, 50) / 16)
             for a in (rng.randint(0, 200) / 16 for _ in range(900))]
    e = parse_fn_expr(" + ".join(f"{k}*indicator({a},{b})" for k, a, b in terms))
    start = time.perf_counter()
    f = step_literal(e)
    assert time.perf_counter() - start < 1.0
    fold = zero_function(f.ambient)
    for k, a, b in terms:
        fold = linear_combine(1.0, fold, k, indicator(Interval(a, b), f.ambient))
    assert f.pieces == fold.pieces and f == fold


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
