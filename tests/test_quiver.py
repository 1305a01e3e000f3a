"""Gentle quivers: validation, threads, Koszul duals, global dimension.

Everything combinatorial is cross-checked against the brute-force scanners
in conftest, which never touch the library's thread machinery.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from stepquiver import (
    AlgebraElement,
    Arrow,
    BijectionFailureError,
    DuplicateArrowError,
    GentlePresentation,
    InfiniteDimensionalError,
    InfiniteGlobalDimensionError,
    MethodDisagreementError,
    NonComposableRelationError,
    NonFiniteError,
    NonQuadraticRelationError,
    NotGentleError,
    NotPermittedError,
    PathNotInPresentationError,
    Quiver,
    QuiverDoc,
    StepQuiverError,
    Thread,
    UnknownArrowError,
    UnknownVertexError,
    ValidationReport,
    enumerate_threads,
    forb_perm_bijection,
    gldim_report,
    global_dimension,
    koszul_dual,
    path_length_via_integral,
    path_source_weights,
    validate_gentle,
    vertex_hom,
    vertex_hom_q,
    w_projection,
)
from stepquiver import integrate, quiver
from stepquiver.integrate import stieltjes_integrate
from stepquiver.quiver import _log_unit, _stieltjes_length, integer_from_float

from conftest import (
    EXPECTED_GLDIM,
    INFINITE_GLDIM,
    brute_cycle_arrows,
    brute_dual_relations,
    brute_global_dimension,
    brute_second_link,
    brute_threads,
    brute_violation_conditions,
    corpus_names,
    gentle_presentations,
    load_doc,
    load_presentation,
)


def chain(n: int) -> Quiver:
    """The A_{n+1} chain quiver with arrows a1: 1 -> 2, ..., an: n -> n+1."""
    vs = tuple(str(i) for i in range(1, n + 2))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n + 1))
    return Quiver(vs, arrows)


def full_chain_relations(n: int) -> list[tuple[str, str]]:
    return [(f"a{i}", f"a{i + 1}") for i in range(1, n)]


def shim_doc(pres: GentlePresentation) -> SimpleNamespace:
    """Re-pack a presentation as the plain-attribute shape the oracles read."""
    return SimpleNamespace(
        arrows=[SimpleNamespace(name=a.name, source=a.source, target=a.target)
                for a in pres.quiver.arrows],
        relations=sorted(pres.relations),
    )


# ---------------------------------------------------------------------------
# quiver and relation well-formedness
# ---------------------------------------------------------------------------

def test_quiver_rejects_duplicate_arrow_names():
    with pytest.raises(DuplicateArrowError):
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")))


def test_quiver_rejects_undeclared_vertices():
    with pytest.raises(UnknownVertexError):
        Quiver(("1", "2"), (Arrow("a", "1", "3"),))


def test_quiver_dedupes_vertices_preserving_order():
    q = Quiver(("2", "1", "2", "1"), ())
    assert q.vertices == ("2", "1"), f"got {q.vertices}"


@pytest.mark.parametrize("arrows, quiver_error, doc_error", [
    # a duplicate declared before an arrow with an undeclared vertex
    ((("a", "1", "2"), ("a", "2", "1"), ("b", "1", "9")), "duplicate", "duplicate"),
    # the reverse order
    ((("a", "1", "9"), ("b", "1", "2"), ("b", "2", "1")), "unknown", "unknown"),
    # two arrows of one name, the first with an undeclared vertex: the
    # document's sort must keep them in input order, as a sort of whole
    # triples would not
    ((("a", "1", "9"), ("a", "1", "2")), "unknown", "unknown"),
    # a document checks its arrows in canonical order, a quiver as given
    ((("b", "1", "9"), ("a", "1", "2"), ("a", "2", "1")), "unknown", "duplicate"),
])
def test_the_first_bad_arrow_raises(arrows, quiver_error, doc_error):
    errors = {"duplicate": (DuplicateArrowError, "arrow name 'a' declared twice"),
              "unknown": (UnknownVertexError, r"arrow '\w' uses undeclared vertex '9'")}
    for build, which in ((lambda: Quiver(("1", "2"), arrows), quiver_error),
                         (lambda: QuiverDoc("x", ("1", "2"), arrows, ()), doc_error)):
        error, message = errors[which]
        with pytest.raises(error, match=f"^{message}$"):
            build()


@pytest.mark.parametrize("vertices, arrows", [
    ((1, "2"), (("a", 1, "2"),)),        # sorting mixed names raised a builtin TypeError
    ((1, 2), (("a", 1, 2),)),            # all ints were accepted until emit_dsl
    (("1", ["2"]), ()),                  # unhashable
    (("1", "2"), ((7, "1", "2"),)),      # an arrow name
])
def test_a_name_that_is_not_a_string_is_typed(vertices, arrows):
    for build in (lambda: validate_gentle(Quiver(vertices, arrows), []),
                  lambda: QuiverDoc("x", vertices, arrows, ())):
        with pytest.raises(StepQuiverError, match=r"^(vertex|arrow) name .* is not a string$"):
            build()


@pytest.mark.parametrize("source, target, bad", [("1", ["2"], "['2']"), (["1"], "2", "['1']"),
                                                 ("1", 2, "2")])
def test_an_arrow_end_that_is_not_a_declared_name_is_typed(source, target, bad):
    with pytest.raises(UnknownVertexError) as err:
        Quiver(("1", "2"), (("a", source, target),))
    assert str(err.value) == f"arrow 'a' uses undeclared vertex {bad}"


def test_relation_must_name_known_arrows():
    q = chain(2)
    with pytest.raises(UnknownArrowError):
        validate_gentle(q, [("a1", "zz")])


def test_validate_gentle_builds_the_presentation_once(monkeypatch):
    checks = []
    post_init = GentlePresentation.__post_init__

    def counting(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(GentlePresentation, "__post_init__", counting)
    p = validate_gentle(chain(3), full_chain_relations(3))
    assert isinstance(p, GentlePresentation) and p.validated
    assert len(checks) == 1 and checks[0] is p


@pytest.mark.parametrize("rel", ["ab", ("a",), ("a", "b", "c"), 7, None])
def test_a_relation_that_is_not_a_pair_of_names_is_typed(rel):
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    with pytest.raises(NonQuadraticRelationError):
        validate_gentle(q, [rel])
    with pytest.raises(NonQuadraticRelationError):
        GentlePresentation(q, frozenset([rel]))


@pytest.mark.parametrize("arrow", [("a", "1"), ("a", "1", "2", "3"), "a12", 7])
def test_an_arrow_that_is_not_a_triple_is_typed(arrow):
    with pytest.raises(StepQuiverError):
        Quiver(("1", "2"), (Arrow("b", "1", "2"), arrow))


def test_equality_hash_and_repr_ignore_the_integer_form():
    # one side has been validated, the other not; the duals are built from
    # integers, not from names
    q, rels = chain(3), full_chain_relations(3)
    fresh = Quiver(q.vertices, q.arrows)
    p = validate_gentle(q, rels)
    assert (q == fresh, hash(q) == hash(fresh), repr(q) == repr(fresh)) == (True,) * 3
    assert repr(q) == f"Quiver(vertices={q.vertices!r}, arrows={q.arrows!r})"
    twin = GentlePresentation(fresh, frozenset(rels))
    assert (p == twin, hash(p) == hash(twin), repr(p) == repr(twin)) == (True,) * 3
    assert repr(p) == (f"GentlePresentation(quiver={q!r}, relations={p.relations!r}, "
                       "validated=True)")
    assert [f.name for f in fields(GentlePresentation) if f.compare or f.repr] == \
        ["quiver", "relations", "validated"]
    dual = koszul_dual(p)
    assert dual == validate_gentle(Quiver(q.vertices, dual.quiver.arrows), dual.relations,
                                   allow_infinite_dimensional=True)
    assert koszul_dual(dual) == p and hash(koszul_dual(dual)) == hash(p)


def test_relation_must_be_composable():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "1", "3")))
    with pytest.raises(NonComposableRelationError):
        validate_gentle(q, [("a", "b")])


def test_validation_reports_fan_violations():
    # three arrows out of 1 and three into 2: condition (1) twice
    q = Quiver(("1", "2"), tuple(Arrow(n, "1", "2") for n in "xyz"))
    rep = validate_gentle(q, [])
    assert isinstance(rep, ValidationReport) and not rep.ok
    conds = [v.condition for v in rep.violations]
    assert conds.count("1") == 2, f"expected two fan violations, got {conds}"


def test_a_wide_fan_is_reported_without_walking_its_pairs(monkeypatch):
    # 10^4 loops at one vertex make 10^8 composable pairs; condition (1)
    # reads the vertex's groups, so no successor pass may run at all
    passes = []
    link = quiver._link
    monkeypatch.setattr(quiver, "_link", lambda *a: passes.append(a) or link(*a))
    k = 10_000
    q = Quiver(("v",), tuple(Arrow(f"x{i}", "v", "v") for i in range(k)))
    rep = validate_gentle(q, [])
    assert isinstance(rep, ValidationReport)
    assert [(v.condition, v.witness.split(":")[0]) for v in rep.violations] == [
        ("1", f"vertex 'v' has {k} incoming arrows"),
        ("1", f"vertex 'v' has {k} outgoing arrows")]
    assert passes == []


class _CountingKeys(frozenset):
    def __contains__(self, key):
        self.steps += 1
        return frozenset.__contains__(self, key)


def test_a_successor_pass_stops_at_its_first_clash():
    # outside the ideal, the first loop's second continuation is a second
    # link: the pass ends there instead of meeting all 10^6 pairs
    k = 1000
    q = Quiver(("v",), tuple(Arrow(f"x{i:04}", "v", "v") for i in range(k)))
    keys = _CountingKeys()
    keys.steps = 0
    s = quiver._link(q._ints, keys, False)
    assert s.clash == (0, 1) and keys.steps == 2
    with pytest.raises(NotGentleError, match=r"^x0000\*x0001 is a second composition"):
        enumerate_threads(GentlePresentation(q, frozenset()), "permitted")


def test_validation_reports_parallel_continuation_violations():
    # two arrows into 3 continued by one arrow out: exactly one of the two
    # compositions must lie in the ideal, so "both" and "neither" each fail
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "3"), Arrow("b", "2", "3"), Arrow("c", "3", "4")))
    for rels, word in ([("a", "c"), ("b", "c")], "both"), ([], "neither"):
        rep = validate_gentle(q, rels)
        assert isinstance(rep, ValidationReport) and not rep.ok
        v = next(v for v in rep.violations if v.condition == "2")
        assert word in v.witness, f"{word!r} not cited in {v.witness!r}"
    ok = validate_gentle(q, [("a", "c")])
    assert isinstance(ok, GentlePresentation)


def test_validation_reports_branching_violations():
    # one arrow in, two arrows out of 2: same exactly-one rule, condition (3)
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")))
    rep = validate_gentle(q, [("a", "b"), ("a", "c")])
    assert isinstance(rep, ValidationReport)
    assert any(v.condition == "3" for v in rep.violations), rep.to_json()


def test_strict_rule_set_labels_its_violations():
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "3"), Arrow("b", "2", "3"), Arrow("c", "3", "4")))
    rep = validate_gentle(q, [("a", "c"), ("b", "c")], strict=True)
    assert isinstance(rep, ValidationReport)
    rule_sets = {v.rule_set for v in rep.violations}
    assert rule_sets == {"paper", "strict"}, f"got {rule_sets}"
    assert any(v.condition == "at-most-one-relation-into" for v in rep.violations)


def test_corpus_passes_strict_validation():
    for name in sorted(EXPECTED_GLDIM):
        doc = load_doc(name)
        p = validate_gentle(doc.quiver(), doc.relations, strict=True)
        assert isinstance(p, GentlePresentation), f"{name}: {p}"
        assert p.validated


def test_validate_rejects_infinite_dimensional_algebra():
    doc = load_doc("cycle3_free")
    with pytest.raises(InfiniteDimensionalError):
        validate_gentle(doc.quiver(), doc.relations)
    p = validate_gentle(doc.quiver(), doc.relations,
                        allow_infinite_dimensional=True)
    assert isinstance(p, GentlePresentation)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

def test_thread_requires_nonempty_arrows_and_known_kind():
    with pytest.raises(PathNotInPresentationError):
        Thread((), "forbidden")
    with pytest.raises(NotPermittedError):
        Thread(("a",), "sideways")


def test_enumerate_threads_rejects_unknown_kind():
    with pytest.raises(NotPermittedError):
        enumerate_threads(load_presentation("a3_full"), "sideways")


def test_a3_threads_by_hand():
    p = load_presentation("a3_full")
    forb = enumerate_threads(p, "forbidden")
    perm = enumerate_threads(p, "permitted")
    assert {t.arrows for t in forb} == {("a", "b")}
    assert {t.arrows for t in perm} == {("a",), ("b",)}
    assert all(t.length == len(t.arrows) for t in forb + perm)


def test_branch_relation_threads_by_hand():
    p = load_presentation("branch_relation")
    assert {t.arrows for t in enumerate_threads(p, "forbidden")} == \
        {("a", "b"), ("c",)}
    assert {t.arrows for t in enumerate_threads(p, "permitted")} == \
        {("a", "c"), ("b",)}


@pytest.mark.parametrize("name", sorted(EXPECTED_GLDIM) + sorted({"cycle3_free"}))
@pytest.mark.parametrize("kind", ["forbidden", "permitted"])
def test_threads_match_brute_force(name, kind):
    doc = load_doc(name)
    p = load_presentation(name)
    if name == "cycle3_free" and kind == "permitted":
        with pytest.raises(InfiniteDimensionalError):
            enumerate_threads(p, kind)
        with pytest.raises(ValueError):
            brute_threads(doc, kind)
        return
    got = enumerate_threads(p, kind)
    assert {t.arrows for t in got} == brute_threads(doc, kind), f"{name}/{kind}"
    assert len({t.arrows for t in got}) == len(got), "duplicate threads"
    assert all(t.kind == kind for t in got)


@pytest.mark.parametrize("name", sorted(INFINITE_GLDIM))
def test_forbidden_cycles_raise(name):
    p = load_presentation(name)
    with pytest.raises(InfiniteGlobalDimensionError):
        enumerate_threads(p, "forbidden")
    with pytest.raises(InfiniteGlobalDimensionError):
        global_dimension(p, "threads")
    # the permitted side of these presentations is still finite
    assert enumerate_threads(p, "permitted")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_threads_match_brute_force_on_random_chains(data):
    # chains have at most one arrow per vertex end, so every relation
    # subset is a gentle pair and the scanner stays cheap
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = [(f"a{i}", f"a{i+1}") for i in range(1, n)]
    rels = [p for p in pairs if data.draw(st.booleans())]
    p = validate_gentle(chain(n), rels)
    assert isinstance(p, GentlePresentation)
    doc = shim_doc(p)
    for kind in ("forbidden", "permitted"):
        got = {t.arrows for t in enumerate_threads(p, kind)}
        assert got == brute_threads(doc, kind), f"{kind} differ for rels={rels}"


def test_thread_walk_rejects_a_non_gentle_presentation():
    # built directly, so no validation ran: condition (3) fails at vertex 2
    # (a continues outside the ideal by both b and c), condition (2) at 3
    branch = Quiver(("1", "2", "3", "4"),
                    (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")))
    with pytest.raises(NotGentleError):
        enumerate_threads(GentlePresentation(branch, frozenset()), "permitted")
    merge = Quiver(("1", "2", "3", "4"),
                   (Arrow("a", "1", "3"), Arrow("b", "2", "3"), Arrow("c", "3", "4")))
    with pytest.raises(NotGentleError):
        enumerate_threads(GentlePresentation(merge, {("a", "c"), ("b", "c")}), "forbidden")


def test_a_second_link_is_named_in_declaration_order():
    # the walk meets a's continuations in the order the arrows were
    # declared, so the second one named is b here, not the later name c
    branch = Quiver(("1", "2", "3", "4"),
                    (Arrow("a", "1", "2"), Arrow("c", "2", "4"), Arrow("b", "2", "3")))
    with pytest.raises(NotGentleError) as info:
        enumerate_threads(GentlePresentation(branch, frozenset()), "permitted")
    assert str(info.value) == "a*b is a second composition out of 'a' or into 'b'"


def assert_cycle_witness(exc, on_cycles: set, doc, kind: str) -> None:
    """The message names the cycle through the least arrow on any cycle."""
    text = str(exc).split("cycle through arrows ", 1)[1].split(";")[0]
    walk = text.split(" -> ")
    assert walk[0] == walk[-1] == min(on_cycles), text
    assert len(set(walk)) == len(walk) - 1 and set(walk) <= on_cycles, text
    ends = {a.name: (a.source, a.target) for a in doc.arrows}
    for a, b in zip(walk, walk[1:]):
        assert ends[a][1] == ends[b][0], text
        assert ((a, b) in doc.relations) == (kind == "forbidden"), text


def assert_gentle_matches_brute_force(q: Quiver, rels) -> None:
    """Validation, cycle witnesses, threads of both kinds, the Koszul dual
    and gl.dim by every route on a presentation that meets conditions
    (1)-(3), each against the brute-force scanners."""
    doc = SimpleNamespace(arrows=q.arrows, relations=sorted(rels))
    p = validate_gentle(q, rels, allow_infinite_dimensional=True)
    assert isinstance(p, GentlePresentation), p
    permitted_cycles = brute_cycle_arrows(doc, "permitted")
    if permitted_cycles:
        with pytest.raises(InfiniteDimensionalError) as info:
            validate_gentle(q, rels)
        assert_cycle_witness(info.value, permitted_cycles, doc, "permitted")
    else:
        assert validate_gentle(q, rels) == p

    for kind, error in (("forbidden", InfiniteGlobalDimensionError),
                        ("permitted", InfiniteDimensionalError)):
        on_cycles = brute_cycle_arrows(doc, kind)
        if on_cycles:
            with pytest.raises(error) as info:
                enumerate_threads(p, kind)
            assert_cycle_witness(info.value, on_cycles, doc, kind)
        else:
            got = [t.arrows for t in enumerate_threads(p, kind)]
            assert got == sorted(brute_threads(doc, kind)), kind

    d = koszul_dual(p)
    assert d.quiver.arrows == tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
    assert set(d.relations) == brute_dual_relations(doc)

    for method in ("threads", "integral", "stieltjes", "all"):
        if brute_cycle_arrows(doc, "forbidden"):
            with pytest.raises(InfiniteGlobalDimensionError):
                global_dimension(p, method)
        else:
            assert global_dimension(p, method) == brute_global_dimension(doc), method


@settings(max_examples=150, deadline=None)
@given(gentle_presentations())
def test_random_gentle_presentations_match_brute_force(qr):
    assert_gentle_matches_brute_force(*qr)


def random_presentation(rng: random.Random) -> tuple[Quiver, set]:
    """A random quiver of up to seven vertices and a relation set, in one of
    three shapes: ``gentle`` (at most two arrows at each vertex end and
    relations matched as conditions (2)/(3) ask), ``pairs`` (the same
    degrees and a random half of the composable pairs) or ``fan`` (the
    gentle shape plus three more arrows out of one vertex).  Branches,
    cycles and loops all occur.  Arrow names are drawn out of declaration
    order, and ``a10`` sorts before ``a9``."""
    vs = [f"v{i}" for i in range(rng.randint(1, 7))]
    ins: dict[str, list[str]] = {v: [] for v in vs}
    outs: dict[str, list[str]] = {v: [] for v in vs}
    names = iter(f"a{k}" for k in rng.sample(range(40), 40))
    arrows = []
    for _ in range(rng.randint(0, 2 * len(vs) + 1)):
        s, t = rng.choice(vs), rng.choice(vs)
        if len(outs[s]) < 2 and len(ins[t]) < 2:
            arrows.append(Arrow(next(names), s, t))
            outs[s].append(arrows[-1].name)
            ins[t].append(arrows[-1].name)
    shape = rng.choice(("gentle", "pairs", "fan"))
    rels = set()
    if shape == "pairs":
        rels = {(a, b) for v in vs for a in ins[v] for b in outs[v] if rng.random() < 0.5}
    else:
        for v in vs:
            a_in, a_out = ins[v], outs[v]
            if len(a_in) == 2 and len(a_out) == 2:
                b1, b2 = rng.sample(a_out, 2)
                rels |= {(a_in[0], b1), (a_in[1], b2)}
            elif len(a_in) == 2 and len(a_out) == 1:
                rels.add((rng.choice(a_in), a_out[0]))
            elif len(a_in) == 1 and len(a_out) == 2:
                rels.add((a_in[0], rng.choice(a_out)))
            elif len(a_in) == 1 and len(a_out) == 1 and rng.random() < 0.5:
                rels.add((a_in[0], a_out[0]))
    if shape == "fan":
        v = rng.choice(vs)
        arrows += [Arrow(next(names), v, rng.choice(vs)) for _ in range(3)]
    rng.shuffle(arrows)
    return Quiver(tuple(vs), tuple(arrows)), rels


def test_seeded_random_presentations_match_brute_force():
    # gentle, non-gentle, infinite-dimensional and infinite-gl.dim inputs,
    # in both rule sets; the gentle ones go through every entry point
    shapes = Counter()
    for seed in range(400):
        q, rels = random_presentation(random.Random(seed))
        doc = SimpleNamespace(arrows=q.arrows, relations=sorted(rels))
        for strict in (False, True):
            labels = brute_violation_conditions(doc, strict)
            got = validate_gentle(q, rels, strict=strict, allow_infinite_dimensional=True)
            if labels:
                assert isinstance(got, ValidationReport), (seed, strict)
                assert sorted(v.condition for v in got.violations) == labels, (seed, strict)
            else:
                assert isinstance(got, GentlePresentation), (seed, strict)
        if not brute_violation_conditions(doc):
            shapes["gentle"] += 1
            shapes["infinite"] += bool(brute_cycle_arrows(doc, "permitted")
                                       or brute_cycle_arrows(doc, "forbidden"))
            assert_gentle_matches_brute_force(q, rels)
            continue
        shapes["not gentle"] += 1
        # built without validation: the walks refuse a second link, the
        # dual fails its own check, and a kind with no second link still
        # walks to the scanner's threads
        p = GentlePresentation(q, rels)
        with pytest.raises(MethodDisagreementError):
            koszul_dual(p)
        for kind in ("forbidden", "permitted"):
            if brute_second_link(doc, kind):
                with pytest.raises(NotGentleError):
                    enumerate_threads(p, kind)
            elif brute_cycle_arrows(doc, kind):
                with pytest.raises((InfiniteDimensionalError, InfiniteGlobalDimensionError)):
                    enumerate_threads(p, kind)
            else:
                got = [t.arrows for t in enumerate_threads(p, kind)]
                assert got == sorted(brute_threads(doc, kind)), (seed, kind)
    assert min(shapes.values()) >= 40, shapes


@pytest.mark.parametrize("n", [1500, 20_000])
@pytest.mark.parametrize("full", [False, True], ids=["free", "full"])
def test_long_chains_have_no_recursion_limit(n, full):
    names = tuple(f"a{i}" for i in range(1, n + 1))
    singles = sorted((a,) for a in names)
    p = validate_gentle(chain(n), full_chain_relations(n) if full else [])
    assert isinstance(p, GentlePresentation)
    forb = [t.arrows for t in enumerate_threads(p, "forbidden")]
    perm = [t.arrows for t in enumerate_threads(p, "permitted")]
    assert (forb, perm) == (([names], singles) if full else (singles, [names]))
    dual = koszul_dual(p)
    assert set(dual.relations) == (
        set() if full else {(b, a) for a, b in full_chain_relations(n)})
    gldim = n if full else 1
    routes = ("threads", "integral") + (("stieltjes",) if gldim <= 1500 else ())
    for method in routes:
        assert global_dimension(p, method) == gldim, method


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_integer_from_float_refuses_non_finite_values(value):
    with pytest.raises(NonFiniteError):
        integer_from_float(value)


@pytest.mark.parametrize("l", [1100, 10_000])
def test_stieltjes_length_of_long_threads_is_an_integer(l):
    assert integer_from_float(_stieltjes_length(l), 1e-9) == l


def test_stieltjes_route_on_the_full_chain_of_a_hundred_thousand_arrows():
    n = 100_000
    p = validate_gentle(chain(n), full_chain_relations(n))
    for method in ("stieltjes", "all"):
        assert global_dimension(p, method) == n, method


def test_stieltjes_route_integrates_once_whatever_the_lengths(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return stieltjes_integrate(*args)

    # the route imports stieltjes_integrate from stepquiver.integrate per call
    monkeypatch.setattr(integrate, "stieltjes_integrate", counted)
    _log_unit.cache_clear()
    for n in (3, 40, 500):
        p = validate_gentle(chain(n), full_chain_relations(n))
        assert global_dimension(p, "stieltjes") == n
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Koszul duals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_GLDIM) + ["cycle3_free"])
def test_koszul_dual_reverses_arrows_and_complements_relations(name):
    doc = load_doc(name)
    p = load_presentation(name)
    d = koszul_dual(p)
    assert d.quiver.arrows == tuple(Arrow(a.name, a.target, a.source)
                                    for a in p.quiver.arrows)
    assert set(d.relations) == brute_dual_relations(doc), name


@pytest.mark.parametrize("name", sorted(EXPECTED_GLDIM))
def test_koszul_dual_is_an_involution(name):
    p = load_presentation(name)
    dd = koszul_dual(koszul_dual(p))
    assert dd.quiver.arrows == p.quiver.arrows
    assert dd.relations == p.relations


@settings(max_examples=150, deadline=None)
@given(gentle_presentations())
def test_gldim_report_writes_the_dual_that_koszul_dual_returns(qr):
    q, rels = qr
    p = validate_gentle(q, rels, allow_infinite_dimensional=True)
    dual = koszul_dual(p)
    # the same dual, interned again from its names
    named = GentlePresentation(Quiver(q.vertices, dual.quiver.arrows), dual.relations)
    assert dual.to_json() == named.to_json()
    try:
        rep = gldim_report(p)
    except (InfiniteDimensionalError, InfiniteGlobalDimensionError):
        return
    assert rep["dual"] == dual.to_json()
    assert rep["threads"] == {kind: [t.to_json() for t in enumerate_threads(p, kind)]
                              for kind in ("forbidden", "permitted")}


def test_bijection_and_w_projection_keep_their_results_and_messages(monkeypatch):
    q = Quiver(("1", "2", "3"), (Arrow("b", "1", "2"), Arrow("a", "2", "3"),
                                 Arrow("c", "1", "3")))
    p = validate_gentle(q, [("b", "a")])
    assert forb_perm_bijection(p) == (
        (Thread(("b", "a"), "forbidden"), Thread(("a", "b"), "permitted")),
        (Thread(("c",), "forbidden"), Thread(("c",), "permitted")))
    dual = koszul_dual(p)
    x = AlgebraElement(dual, {"1": 1.0}, {("a", "b"): 2.5, ("c",): 4.0})
    assert w_projection(dual, Thread(("a", "b"), "permitted"), x) == 2.5
    assert w_projection(dual, ("c",), x) == 4.0
    for path, text in ((("b", "a"), "b*a"), (("b",), "b"), (("zz",), "zz"), ((), "")):
        with pytest.raises(NotPermittedError,
                           match=f"^path {re.escape(text)} is not a permitted thread$"):
            w_projection(dual, path, x)
    # cyclic presentations, built without validation: the walks raise first
    def unvalidated(name):
        doc = load_doc(name)
        return GentlePresentation(doc.quiver(), doc.relations)

    for name, arrows in (("cycle3_full", "a -> b -> c -> a"), ("loop_square", "x -> x")):
        with pytest.raises(InfiniteGlobalDimensionError,
                           match=f"^forbidden compositions cycle through arrows {arrows}$"):
            forb_perm_bijection(unvalidated(name))
    free = unvalidated("cycle3_free")
    with pytest.raises(InfiniteDimensionalError,
                       match="^permitted compositions cycle through arrows a -> b -> c -> a$"):
        w_projection(free, ("a",), AlgebraElement(free))
    loop = unvalidated("loop_square")
    assert w_projection(loop, ("x",), AlgebraElement(loop, path_coeffs={("x",): 3.0})) == 3.0
    # a dual that lost its relations no longer matches: both sides are named
    real = quiver._dual
    monkeypatch.setattr(quiver, "_dual", lambda lk: quiver._Links(real(lk).ix, frozenset()))
    with pytest.raises(BijectionFailureError, match=re.escape(
            "thread correspondence failed; unmatched forbidden reversals: "
            "[('a',), ('b',), ('c',)], unmatched dual permitted: [('c', 'b', 'a')]")):
        forb_perm_bijection(load_presentation("a4_free"))


def test_forb_perm_bijection_matches_brute_force():
    for name in sorted(EXPECTED_GLDIM) + ["cycle3_free"]:
        doc = load_doc(name)
        p = load_presentation(name)
        pairs = forb_perm_bijection(p)
        forb_expected = brute_threads(doc, "forbidden")
        perm_expected = brute_threads(shim_doc(koszul_dual(p)), "permitted")
        assert {f.arrows for f, _ in pairs} == forb_expected, name
        assert {g.arrows for _, g in pairs} == perm_expected, name
        for f, g in pairs:
            assert g.arrows == tuple(reversed(f.arrows)), (name, f.arrows)
            assert f.length == g.length
        assert len(pairs) == len(forb_expected) == len(perm_expected)


# ---------------------------------------------------------------------------
# algebra elements and the vertex homomorphisms
# ---------------------------------------------------------------------------

def test_ideal_paths_vanish_at_construction():
    p = load_presentation("a3_full")
    x = AlgebraElement(p, path_coeffs={("a", "b"): 3.0, ("a",): 2.0})
    assert x.path_coeffs == {("a",): 2.0}, f"got {x.path_coeffs}"


def test_algebra_element_rejects_malformed_paths():
    p = load_presentation("a3_full")
    with pytest.raises(PathNotInPresentationError):
        AlgebraElement(p, path_coeffs={("b", "a"): 1.0})  # not composable
    with pytest.raises(PathNotInPresentationError):
        AlgebraElement(p, path_coeffs={("zz",): 1.0})
    with pytest.raises(PathNotInPresentationError):
        AlgebraElement(p, path_coeffs={(): 1.0})
    with pytest.raises(UnknownVertexError):
        AlgebraElement(p, vertex_coeffs={"9": 1.0})
    other = load_presentation("a4_free")
    with pytest.raises(PathNotInPresentationError):
        AlgebraElement(p, vertex_coeffs={"1": 1.0}) + \
            AlgebraElement(other, vertex_coeffs={"1": 1.0})


def test_algebra_element_linear_operations():
    p = load_presentation("a3_free")
    x = AlgebraElement(p, {"1": 2.0}, {("a", "b"): 1.5})
    y = AlgebraElement(p, {"1": -2.0, "2": 1.0}, {("a", "b"): 0.25, ("b",): 1.0})
    s = x + y
    assert s.vertex_coeffs == {"2": 1.0}, "cancelled coefficients must drop"
    assert s.path_coeffs == {("a", "b"): 1.75, ("b",): 1.0}
    d = 2.0 * x
    assert d.vertex_coeffs == {"1": 4.0} and d.path_coeffs == {("a", "b"): 3.0}


def test_vertex_hom_values():
    p = load_presentation("a3_free")
    x = AlgebraElement(p, {"1": 2.0, "2": 5.0, "3": 7.0})
    assert vertex_hom(x) == 14.0
    # along a path the weights are the coefficients at each arrow source
    assert vertex_hom_q(x, ("a", "b")) == 2.0 + 5.0
    assert vertex_hom_q(x, ("b",)) == 5.0


@settings(max_examples=80, deadline=None)
@given(
    ks=st.tuples(*[st.integers(min_value=-8, max_value=8) for _ in range(3)]),
    ls=st.tuples(*[st.integers(min_value=-8, max_value=8) for _ in range(3)]),
    c=st.integers(min_value=-4, max_value=4),
)
def test_vertex_homs_are_linear(ks, ls, c):
    p = load_presentation("a3_free")
    x = AlgebraElement(p, dict(zip("123", map(float, ks))))
    y = AlgebraElement(p, dict(zip("123", map(float, ls))))
    assert vertex_hom(x + y) == vertex_hom(x) + vertex_hom(y)
    assert vertex_hom(float(c) * x) == c * vertex_hom(x)
    q = ("a", "b")
    assert vertex_hom_q(x + y, q) == vertex_hom_q(x, q) + vertex_hom_q(y, q)
    assert vertex_hom_q(float(c) * x, q) == c * vertex_hom_q(x, q)


def test_path_source_weights_count_multiplicity():
    p = load_presentation("a4_free")
    assert path_source_weights(p, ("a", "b", "c")) == {"1": 1, "2": 1, "3": 1}
    cyc = load_presentation("cycle3_free")
    assert path_source_weights(cyc, ("a", "b", "c", "a")) == \
        {"1": 2, "2": 1, "3": 1}


def test_path_length_via_integral_recovers_arrow_count():
    cases = [
        ("a5_full", ("a", "b", "c", "d")),
        ("a3_free", ("a", "b")),
        ("loop_square", ("x", "x", "x")),
        ("cycle3_free", ("a", "b", "c", "a", "b")),
        ("kronecker", ("b",)),
    ]
    for name, path in cases:
        p = load_presentation(name)
        got = path_length_via_integral(p, path)
        assert got == len(path), f"{name}:{path} gave {got}"


def test_w_projection_reads_thread_coefficients():
    dual = koszul_dual(load_presentation("a3_full"))
    x = AlgebraElement(dual, {"1": 9.0}, {("b", "a"): 2.5})
    assert w_projection(dual, ("b", "a"), x) == 2.5
    y = AlgebraElement(dual, {"1": 9.0})
    assert w_projection(dual, ("b", "a"), y) == 0.0
    with pytest.raises(NotPermittedError):
        w_projection(dual, ("a",), x)  # a proper sub-path, not a thread


# ---------------------------------------------------------------------------
# global dimension, three ways
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_GLDIM))
def test_global_dimension_routes_agree(name):
    doc = load_doc(name)
    p = load_presentation(name)
    expected = EXPECTED_GLDIM[name]
    assert brute_global_dimension(doc) == expected, "oracle disagrees"
    for method in ("threads", "integral", "stieltjes", "all"):
        got = global_dimension(p, method)
        assert got == expected, f"{name}/{method}: {got} != {expected}"


def test_global_dimension_rejects_unknown_method():
    with pytest.raises(NotPermittedError):
        global_dimension(load_presentation("a3_full"), "guesswork")


def test_relation_free_members_have_global_dimension_one():
    free = [n for n in EXPECTED_GLDIM if not load_doc(n).relations]
    assert len(free) >= 2, f"corpus should keep relation-free members: {free}"
    for name in free:
        assert EXPECTED_GLDIM[name] == 1, name


def test_gldim_report_is_json_ready():
    rep = gldim_report(load_presentation("square_half"))
    assert rep["gldim"] == 2
    assert rep["method_values"] == {"threads": 2, "integral": 2, "stieltjes": 2}
    kinds = {t["kind"] for t in rep["threads"]["forbidden"]}
    assert kinds == {"forbidden"}
    assert {a["name"] for a in rep["dual"]["arrows"]} == {"a", "b", "c", "d"}
