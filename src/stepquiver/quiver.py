"""Quivers with quadratic monomial relations: gentle pairs, threads,
Koszul duals, vertex homomorphisms, and global dimension three ways.

Thread maximality uses the composable reading of the extension conditions:
a forbidden thread ``a_1 ... a_l`` (all consecutive products in the ideal)
is maximal iff no arrow ``α`` with ``t(α) = s(a_1)`` has ``α a_1`` in the
ideal and no arrow ``β`` with ``s(β) = t(a_l)`` has ``a_l β`` in the ideal;
permitted threads dually with "in" replaced by "not in".  Under this
reading single arrows are threads in the relation-free case and the
forbidden/dual-permitted correspondence is a bijection — both of which are
enforced by tests against a brute-force scanner.

Gentle conditions (2)/(3) leave every arrow at most one successor and at
most one predecessor under each predicate, so the threads of one kind are
disjoint chains (Avella-Alaminos–Geiss, JPAA 2008).  The work is done on
integers.  A quiver interns its names once, at construction: vertex and
arrow ids are ranks in plain ``sorted`` name order, so every order read from
the ids is name order, and the pass that fills them checks the names.  It
keeps each arrow's source and target id, and the arrows into and out of each
vertex as flat lists grouped by vertex, in declaration order within a group.
A presentation keeps its relations as ints ``a·A + b`` (``A`` arrows) and,
on first use of each predicate, a successor array (the arrow after ``a``
inside the ideal, or outside it; −1 for none) from one pass over the
composable pairs that stops at the first arrow with a second successor or
predecessor.  Conditions (1)–(3) read the per-vertex groups and walk no
pairs; threads and cycle witnesses walk the arrays, and the chains of one
kind come out end to end in one flat list; the integral route counts source
multiplicities on vertex ids; the Koszul dual swaps sources and targets,
takes its relations ``(b, a)`` from the composable pairs ``(a, b)`` outside
the ideal and passes the same gentle check, keeping the arrow ids.  Names
come back only for what a call returns or prints: threads, witnesses and
JSON.  So the gl.dim report writes the dual's JSON from its integer form;
the forbidden/permitted bijection matches the chains by arrow id and names
only the pairs it returns, or the unmatched chains of its error; and a path
in an algebra element is checked, reduced and weighed on ids.  On gentle
input, validation, threads and the dual are linear in the number of arrows,
with no recursion limit on the length of a chain.

Global dimension routes (must agree):

* ``threads`` — sup of forbidden-thread lengths (0 for an empty set);
* ``integral`` — twice the weighted unit-box integral of the source-vertex
  multiplicities of each forbidden thread at t = 1;
* ``stieltjes`` — sup over permitted threads of the Koszul dual of
  ``∫_1^2 x d(ℓ·ln x) = ℓ·∫_1^2 x d(ln x)`` (one unit integral per process),
  each value within 1e-9 of the thread length.

The first two routes are exact integer arithmetic: their helpers
:func:`multiple_integral_affine_unit_box` and :func:`integer_from_float`
live here.  The module imports no numeric layer; the Stieltjes route loads
:mod:`stepquiver.integrate` and :mod:`stepquiver.measure`, and numpy with
them, on its first call, so the other routes and everything the ``.qv``
format needs run without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, filterfalse, pairwise, repeat
from operator import add, itemgetter, mul, ne
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import (
    BijectionFailureError,
    DuplicateArrowError,
    EmptyWeightsError,
    InfiniteDimensionalError,
    InfiniteGlobalDimensionError,
    MethodDisagreementError,
    NonComposableRelationError,
    NonFiniteError,
    NonIntegerResultError,
    NonQuadraticRelationError,
    NotGentleError,
    NotPermittedError,
    OrderViolationError,
    OutOfDomainError,
    PathNotInPresentationError,
    StepQuiverError,
    UnknownArrowError,
    UnknownVertexError,
)

PERMITTED = "permitted"
FORBIDDEN = "forbidden"


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


def _arrow(a) -> Arrow:
    if type(a) is Arrow:
        return a
    if not isinstance(a, str):
        try:
            return Arrow(*a)
        except TypeError:
            pass
    raise StepQuiverError(f"arrow {a!r} is not a (name, source, target) triple")


def _relation(r) -> tuple[str, str]:
    if type(r) is tuple and len(r) == 2 and type(r[0]) is str and type(r[1]) is str:
        return r  # already a pair of names: kept, not copied
    if not isinstance(r, str):
        try:
            a, b = r
            return str(a), str(b)
        except (TypeError, ValueError):
            pass
    raise NonQuadraticRelationError(f"relation {r!r} is not a pair of two arrow names")


# ---------------------------------------------------------------------------
# the integer form
# ---------------------------------------------------------------------------

class _Ints(NamedTuple):
    """A quiver on integer ids, each id the rank of its name in sorted order.

    The arrows into vertex ``v`` are ``ins[in_at[v]:in_at[v + 1]]`` and the
    arrows out of it ``outs[out_at[v]:out_at[v + 1]]``, in declaration
    order: flat lists, not one list per vertex."""

    vertex_names: tuple[str, ...]
    vertex_id: dict
    arrow_names: tuple[str, ...]
    arrow_id: dict
    src: list[int]              # by arrow id
    tgt: list[int]
    decl: list[int]             # arrow ids in declaration order
    ins: list[int]
    in_at: list[int]
    outs: list[int]
    out_at: list[int]

    def arrows_into(self, v: int) -> list[int]:
        return self.ins[self.in_at[v]:self.in_at[v + 1]]

    def arrows_from(self, v: int) -> list[int]:
        return self.outs[self.out_at[v]:self.out_at[v + 1]]

    def opposite(self) -> "_Ints":
        return self._replace(src=self.tgt, tgt=self.src, ins=self.outs, in_at=self.out_at,
                             outs=self.ins, out_at=self.in_at)

    def to_json(self) -> dict:
        vn = self.vertex_names
        return {
            "vertices": list(vn),
            "arrows": [{"name": n, "source": vn[s], "target": vn[t]}
                       for n, s, t in zip(self.arrow_names, self.src, self.tgt)],
        }


class _Succ(NamedTuple):
    """Each arrow's successor under one predicate (−1 for none), whether
    some arrow precedes it, and the first pair that gave an arrow a second
    successor or predecessor (``None`` while gentle)."""

    succ: list[int]
    has_pred: bytearray
    clash: Optional[tuple[int, int]]


class _Links:
    """A presentation on integer ids: its relations as ``a·A + b`` (``A``
    arrows) and the successors under each predicate, linked on first use.
    Conditions (1)–(3) read only ``ix`` and ``rel``, so a report on a
    non-gentle quiver walks no composable pairs."""

    def __init__(self, ix: _Ints, rel: frozenset):
        self.ix, self.rel = ix, rel
        self._succ = [None, None]   # [in_ideal]

    def succ(self, in_ideal: bool) -> _Succ:
        s = self._succ[in_ideal]
        if s is None:
            s = self._succ[in_ideal] = _link(self.ix, self.rel, in_ideal)
        return s

    def pairs(self) -> list[tuple[str, str]]:
        """The relations as name pairs, in name order: ids are name ranks."""
        names = self.ix.arrow_names
        return [(names[a], names[b]) for a, b in map(divmod, sorted(self.rel), repeat(len(names)))]

    def to_json(self) -> dict:
        out = self.ix.to_json()
        out["relations"] = list(map(list, self.pairs()))
        return out


def _link(ix: _Ints, rel: frozenset, in_ideal: bool) -> _Succ:
    """The successors under one predicate, from one pass over the
    composable pairs: arrows in declaration order, each followed by the
    arrows out of its target in declaration order.  The pass stops at the
    first pair that gives an arrow a second successor or predecessor, so a
    second link is reported as the first such pair in declaration order,
    and outside the ideal the pass meets at most two pairs per arrow
    besides the relations, whatever the vertex degrees."""
    tgt, outs, out_at, n = ix.tgt, ix.outs, ix.out_at, len(ix.arrow_names)
    succ, has_pred = [-1] * n, bytearray(n)
    for a in ix.decl:
        t = tgt[a]
        for b in outs[out_at[t]:out_at[t + 1]]:
            if (a * n + b in rel) == in_ideal:
                if succ[a] >= 0 or has_pred[b]:
                    return _Succ(succ, has_pred, (a, b))
                succ[a] = b
                has_pred[b] = 1
    return _Succ(succ, has_pred, None)


def _raise_for_bad_relation(ix: _Ints, rels: list) -> None:
    """Raise for the first relation in name order that names an unknown
    arrow or does not compose."""
    aid, vn = ix.arrow_id, ix.vertex_names
    a, b = min(r for r in rels if r[0] not in aid or r[1] not in aid
               or ix.tgt[aid[r[0]]] != ix.src[aid[r[1]]])
    if a not in aid or b not in aid:
        missing = a if a not in aid else b
        raise UnknownArrowError(f"relation {a}*{b} names unknown arrow {missing!r}")
    raise NonComposableRelationError(
        f"relation {a}*{b} is not composable: "
        f"t({a}) = {vn[ix.tgt[aid[a]]]!r}, s({b}) = {vn[ix.src[aid[b]]]!r}"
    )


# ---------------------------------------------------------------------------
# quivers and presentations
# ---------------------------------------------------------------------------

def _set(obj, **fields):
    """``obj`` with ``fields`` set, past a frozen dataclass's guard."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _names(vertices, arrows) -> tuple[tuple, tuple[Arrow, ...], tuple]:
    """The vertices, ``Arrow``s and arrow names; raises for a name not a ``str``."""
    vertices, arrows = tuple(vertices), tuple(map(_arrow, arrows))
    names = tuple(map(itemgetter(0), arrows))
    for what, group in (("vertex", vertices), ("arrow", names)):
        for bad in filterfalse(str.__instancecheck__, group):
            raise StepQuiverError(f"{what} name {bad!r} is not a string")
    return vertices, arrows, names


def _intern(q: "Quiver", vertices: tuple, arrows: tuple[Arrow, ...], names: tuple) -> "Quiver":
    """``q`` with its vertices deduplicated and its integer form interned."""
    vertices = tuple(dict.fromkeys(vertices))
    vertex_names, arrow_names = tuple(sorted(vertices)), tuple(sorted(names))
    vid = dict(zip(vertex_names, range(len(vertex_names))))
    aid = dict(zip(arrow_names, range(len(arrow_names))))
    decl = list(map(aid.__getitem__, names))
    # one pass in declaration order: a repeated name finds its id's source
    # already set, and the first bad arrow raises
    src, tgt = [-1] * len(decl), [-1] * len(decl)
    n_in, n_out = [0] * len(vertices), [0] * len(vertices)
    for a, (name, s, t) in zip(decl, arrows):
        if src[a] >= 0:
            raise DuplicateArrowError(f"arrow name {name!r} declared twice")
        try:
            src[a] = i = vid[s]
            tgt[a] = j = vid[t]
        except (KeyError, TypeError):   # TypeError: an unhashable end
            bad = t if src[a] >= 0 else s
            raise UnknownVertexError(f"arrow {name!r} uses undeclared vertex {bad!r}") from None
        n_out[i] += 1
        n_in[j] += 1
    # stable sorts: declaration order among the arrows at one vertex
    return _set(q, vertices=vertices, arrows=arrows, _ints=_Ints(
        vertex_names, vid, arrow_names, aid, src, tgt, decl,
        sorted(decl, key=tgt.__getitem__), list(accumulate(n_in, initial=0)),
        sorted(decl, key=src.__getitem__), list(accumulate(n_out, initial=0))))


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _ints: _Ints = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _intern(self, *_names(self.vertices, self.arrows))

    def to_json(self) -> dict:
        return self._ints.to_json()


@dataclass(frozen=True)
class GentlePresentation:
    """A quiver plus a set of composable arrow pairs generating the ideal."""

    quiver: Quiver
    relations: frozenset[tuple[str, str]]
    validated: bool = True
    _links: _Links = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rels = list(map(_relation, self.relations))
        ix = self.quiver._ints
        heads = list(map(ix.arrow_id.get, map(itemgetter(0), rels)))
        tails = list(map(ix.arrow_id.get, map(itemgetter(1), rels)))
        if None in heads or None in tails or any(
                map(ne, map(ix.tgt.__getitem__, heads), map(ix.src.__getitem__, tails))):
            _raise_for_bad_relation(ix, rels)
        lk = _Links(ix, frozenset(map(add, map(mul, heads, repeat(len(ix.arrow_names))), tails)))
        # inserted in name order, so equal sets also iterate (and repr) alike
        _set(self, relations=frozenset(lk.pairs()), _links=lk)

    def in_ideal(self, a: str, b: str) -> bool:
        return (a, b) in self.relations

    def to_json(self) -> dict:
        return self._links.to_json()


@dataclass
class GentleViolation:
    condition: str
    witness: str
    rule_set: str = "paper"

    def to_json(self) -> dict:
        return {"condition": self.condition, "witness": self.witness,
                "rule_set": self.rule_set}


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


def _paper_condition_violations(lk: _Links) -> list[GentleViolation]:
    ix, rels = lk.ix, lk.rel
    names, n, in_at, out_at = ix.arrow_names, len(ix.arrow_names), ix.in_at, ix.out_at
    out: list[GentleViolation] = []

    def exactly_one(condition, x1, y1, x2, y2):
        flags = (x1 * n + y1 in rels, x2 * n + y2 in rels)
        if flags[0] == flags[1]:
            kind = "both" if flags[0] else "neither"
            out.append(GentleViolation(
                condition, f"{kind} of {names[x1]}*{names[y1]}, "
                           f"{names[x2]}*{names[y2]} lie in the ideal"))

    for i, v in enumerate(ix.vertex_names):
        if in_at[i + 1] - in_at[i] < 2 and out_at[i + 1] - out_at[i] < 2:
            continue
        ins, outs = sorted(ix.arrows_into(i)), sorted(ix.arrows_from(i))
        for ends, way in ((ins, "incoming"), (outs, "outgoing")):
            if len(ends) > 2:
                out.append(GentleViolation("1", f"vertex {v!r} has {len(ends)} {way} "
                                                f"arrows: {[names[a] for a in ends]}"))
        if len(ins) == 2:
            for b in outs:
                exactly_one("2", ins[0], b, ins[1], b)
        if len(outs) == 2:
            for a in ins:
                exactly_one("3", a, outs[0], a, outs[1])
    # condition (4) — quadratic monomial generators — holds by data type;
    # composability of each generator is enforced by GentlePresentation.
    return out


def _strict_condition_violations(lk: _Links) -> list[GentleViolation]:
    ix, rels = lk.ix, lk.rel
    names, n = ix.arrow_names, len(ix.arrow_names)
    out: list[GentleViolation] = []
    for b in range(n):
        ins, outs = ix.arrows_into(ix.src[b]), ix.arrows_from(ix.tgt[b])
        groups = (
            ("at-most-one-relation-into", [a for a in ins if a * n + b in rels]),
            ("at-most-one-relation-out-of", [c for c in outs if b * n + c in rels]),
            ("at-most-one-composition-into", [a for a in ins if a * n + b not in rels]),
            ("at-most-one-composition-out-of", [c for c in outs if b * n + c not in rels]),
        )
        for label, items in groups:
            if len(items) > 1:
                out.append(GentleViolation(
                    label, f"arrow {names[b]!r}: {[names[a] for a in sorted(items)]}",
                    rule_set="strict"))
    return out


class _Chains(NamedTuple):
    """Disjoint arrow-id chains laid end to end: chain ``i`` is
    ``order[cuts[i]:cuts[i + 1]]``.  One flat list, however many chains."""

    order: list[int]
    cuts: list[int]

    def each(self) -> Iterator[list[int]]:
        return (self.order[i:j] for i, j in pairwise(self.cuts))

    def lengths(self) -> Iterator[int]:
        return (j - i for i, j in pairwise(self.cuts))


def _chains(lk: _Links, in_ideal: bool) -> tuple[_Chains, Optional[list[int]]]:
    """Walk the successor array of ``in_ideal`` from every arrow without a
    predecessor, in id (that is, name) order.

    Returns the maximal chains and, when some arrows lie on none of them
    (they then form cycles), the cycle through the least such arrow,
    closed by repeating that arrow.  Raises ``NotGentleError`` when an
    arrow has a second successor or a second predecessor: gentle
    conditions (2)/(3) rule both out.
    """
    succ, has_pred, clash = lk.succ(in_ideal)
    if clash is not None:
        a, b = map(lk.ix.arrow_names.__getitem__, clash)
        what = "relation" if in_ideal else "composition"
        raise NotGentleError(f"{a}*{b} is a second {what} out of {a!r} or into {b!r}")
    order, cuts = [], [0]
    append = order.append
    for s, pred in enumerate(has_pred):
        if pred:
            continue
        append(s)
        b = succ[s]
        while b >= 0:
            append(b)
            b = succ[b]
        cuts.append(len(order))
    if len(order) == len(succ):
        return _Chains(order, cuts), None
    on_chain = bytearray(len(succ))
    for a in order:
        on_chain[a] = 1
    start = on_chain.index(0)
    cycle = [start]
    b = succ[start]
    while b != start:
        cycle.append(b)
        b = succ[b]
    return _Chains(order, cuts), cycle + [start]


def _cycle_text(lk: _Links, cycle: list[int]) -> str:
    return " -> ".join(map(lk.ix.arrow_names.__getitem__, cycle))


def _report(lk: _Links, strict: bool, allow_infinite_dimensional: bool
            ) -> Optional[ValidationReport]:
    """The gentle conditions on ``lk``: a report of what fails, ``None``
    when all hold, or ``InfiniteDimensionalError``."""
    violations = _paper_condition_violations(lk)
    if strict:
        violations = violations + _strict_condition_violations(lk)
    if violations:
        return ValidationReport(ok=False, violations=violations)
    if not allow_infinite_dimensional:
        _, cycle = _chains(lk, in_ideal=False)
        if cycle is not None:
            raise InfiniteDimensionalError(
                f"non-relation compositions cycle through arrows {_cycle_text(lk, cycle)}; "
                "the quotient algebra is infinite-dimensional"
            )
    return None


def validate_gentle(q: Quiver, rels: Iterable, strict: bool = False,
                    allow_infinite_dimensional: bool = False
                    ) -> Union[GentlePresentation, ValidationReport]:
    """Check the gentle-pair conditions; return the presentation or a report.

    Conditions checked: (1) at most two arrows in and out of each vertex;
    (2)/(3) where two parallel continuations exist, exactly one composition
    lies in the ideal; (4) relations are composable length-two monomials
    (enforced structurally).  With ``strict=True`` the standard
    "at most one relation / at most one non-relation per arrow end"
    formulation is additionally checked and reported under its own label.

    A presentation passing the conditions is still rejected with
    ``InfiniteDimensionalError`` when some non-relation composition chain
    cycles (the quotient algebra has paths of every length), unless
    ``allow_infinite_dimensional`` is set (used for Koszul duals).
    """
    # built once: it leaves this function only after every check passed
    pres = GentlePresentation(q, rels)
    return _report(pres._links, strict, allow_infinite_dimensional) or pres


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thread:
    """A maximal chain of arrows under one of the two pair-predicates."""

    arrows: tuple[str, ...]
    kind: str

    def __post_init__(self):
        if not self.arrows:
            raise PathNotInPresentationError("threads are nonempty")
        if self.kind not in (PERMITTED, FORBIDDEN):
            raise NotPermittedError(f"unknown thread kind {self.kind!r}")

    @property
    def length(self) -> int:
        return len(self.arrows)

    def to_json(self) -> dict:
        return {"arrows": list(self.arrows), "kind": self.kind, "length": self.length}


def _threads(lk: _Links, kind: str) -> _Chains:
    """The threads of ``kind`` as arrow-id chains, in name order."""
    if kind not in (PERMITTED, FORBIDDEN):
        raise NotPermittedError(f"unknown thread kind {kind!r}")
    in_ideal = kind == FORBIDDEN
    chains, cycle = _chains(lk, in_ideal)
    if cycle is not None:
        msg = f"{kind} compositions cycle through arrows {_cycle_text(lk, cycle)}"
        if in_ideal:
            raise InfiniteGlobalDimensionError(msg)
        raise InfiniteDimensionalError(msg)
    return chains


def _named_threads(lk: _Links, chains: _Chains, kind: str) -> tuple[Thread, ...]:
    name = lk.ix.arrow_names.__getitem__
    # chains start at distinct arrows taken in name order, so they are sorted
    return tuple(Thread(tuple(map(name, c)), kind) for c in chains.each())


def enumerate_threads(p: GentlePresentation, kind: str) -> tuple[Thread, ...]:
    """All maximal chains for the pair-predicate of ``kind``, sorted.

    ``forbidden`` chains have every consecutive product in the ideal;
    ``permitted`` chains have none.  A cycle in the respective composition
    graph means there is no finite maximal chain: forbidden cycles raise
    ``InfiniteGlobalDimensionError``, permitted cycles
    ``InfiniteDimensionalError``.
    """
    return _named_threads(p._links, _threads(p._links, kind), kind)


# ---------------------------------------------------------------------------
# Koszul dual
# ---------------------------------------------------------------------------

def _dual(lk: _Links) -> _Links:
    """The Koszul dual's integer form, checked by the gentle conditions:
    sources and targets swap, and ``(b, a)`` is a relation for each
    composable pair ``(a, b)`` outside the ideal."""
    ix, rel, n = lk.ix, lk.rel, len(lk.ix.arrow_names)
    outs, out_at = ix.outs, ix.out_at
    keys = frozenset(b * n + a for a, t in enumerate(ix.tgt)
                     for b in outs[out_at[t]:out_at[t + 1]] if a * n + b not in rel)
    dual = _Links(ix.opposite(), keys)
    report = _report(dual, strict=False, allow_infinite_dimensional=True)
    if report is not None:
        raise MethodDisagreementError(
            f"Koszul dual failed gentle validation: {report.to_json()}"
        )
    return dual


def koszul_dual(p: GentlePresentation) -> GentlePresentation:
    """Reverse every arrow; relations are the reversals of the composable
    pairs *not* in the ideal: ``I^! = { b^! a^! : ab composable, ab ∉ I }``.
    """
    dual, q = _dual(p._links), p.quiver
    quiver = _set(object.__new__(Quiver), vertices=q.vertices, _ints=dual.ix,
                  arrows=tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
    return _set(object.__new__(GentlePresentation), quiver=quiver,
                relations=frozenset(dual.pairs()), validated=True, _links=dual)


# ---------------------------------------------------------------------------
# paths and algebra elements
# ---------------------------------------------------------------------------

def _check_path(p: GentlePresentation, q) -> list[int]:
    """The arrow ids of the path ``q`` (names, or a thread) in ``p``."""
    names = tuple(q.arrows) if isinstance(q, Thread) else tuple(q)
    if not names:
        raise PathNotInPresentationError("paths are nonempty arrow sequences")
    ix = p._links.ix
    ids = []
    for n in names:
        if n not in ix.arrow_id:
            raise PathNotInPresentationError(f"unknown arrow {n!r}")
        ids.append(ix.arrow_id[n])
    for a, b in pairwise(ids):
        if ix.tgt[a] != ix.src[b]:
            raise PathNotInPresentationError(
                f"arrows {ix.arrow_names[a]!r} and {ix.arrow_names[b]!r} do not compose"
            )
    return ids


class AlgebraElement:
    """``Σ k_v e_v + Σ k_℘ ℘`` with paths reduced modulo the ideal.

    Paths containing a relation pair are dropped at construction (monomial
    ideal), so only surviving paths carry coefficients.  Supports the linear
    operations needed by the homomorphism checks.
    """

    def __init__(self, presentation: GentlePresentation,
                 vertex_coeffs: Optional[dict] = None,
                 path_coeffs: Optional[dict] = None):
        self.presentation = presentation
        ix, rel = presentation._links.ix, presentation._links.rel
        vc = {}
        for v, k in (vertex_coeffs or {}).items():
            if v not in ix.vertex_id:
                raise UnknownVertexError(f"no vertex {v!r}")
            if k != 0.0:
                vc[v] = float(k)
        pc = {}
        for path, k in (path_coeffs or {}).items():
            ids = _check_path(presentation, path)
            key = tuple(map(ix.arrow_names.__getitem__, ids))
            if any(a * len(ix.arrow_names) + b in rel for a, b in pairwise(ids)):
                continue  # the path is 0 in the quotient
            if k != 0.0:
                pc[key] = pc.get(key, 0.0) + float(k)
        self.vertex_coeffs = vc
        self.path_coeffs = {k: v for k, v in pc.items() if v != 0.0}

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.presentation != other.presentation:
            raise PathNotInPresentationError("elements live over different presentations")
        vc = Counter(self.vertex_coeffs)
        vc.update(other.vertex_coeffs)
        pc = Counter(self.path_coeffs)
        pc.update(other.path_coeffs)
        return AlgebraElement(self.presentation, dict(vc), dict(pc))

    def __rmul__(self, k: float) -> "AlgebraElement":
        k = float(k)
        return AlgebraElement(
            self.presentation,
            {v: k * c for v, c in self.vertex_coeffs.items()},
            {p: k * c for p, c in self.path_coeffs.items()},
        )


def _path_sources(p: GentlePresentation, q) -> Iterator[str]:
    ix = p._links.ix
    return map(ix.vertex_names.__getitem__, map(ix.src.__getitem__, _check_path(p, q)))


def vertex_hom(x: AlgebraElement) -> float:
    """Sum of the trivial-path coefficients of ``x``."""
    return float(sum(x.vertex_coeffs.values()))


def vertex_hom_q(x: AlgebraElement, q) -> float:
    """``Σ_i k_{s(a_i)}`` over the arrows of the path ``q``, with repeats."""
    return float(sum(x.vertex_coeffs.get(v, 0.0) for v in _path_sources(x.presentation, q)))


def path_source_weights(p: GentlePresentation, q) -> dict:
    """Multiplicity of each source vertex along the path (the weights u_v)."""
    return dict(Counter(_path_sources(p, q)))


def multiple_integral_affine_unit_box(weights: Mapping, t: float) -> float:
    """``Σ_v u_v · t²/2`` — the iterated integral of the weighted sum of
    coordinates over ``[0, t]`` in each variable, normalized per variable.

    Weights are positive integer multiplicities.  The value at ``t = 1`` is
    half the total weight; values for ``t < 1`` follow the same quadratic
    convention (see the package notes on the convention at ``t != 1``).
    """
    if not weights:
        raise EmptyWeightsError("weights must be a nonempty map")
    total = 0
    for v, u in weights.items():
        if not (isinstance(u, (int, float)) and float(u).is_integer() and u >= 1):
            raise OrderViolationError(
                f"weight for {v!r} must be a positive integer, got {u!r}"
            )
        total += int(u)
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteError("t must be finite")
    if not 0.0 <= t <= 1.0:
        raise OutOfDomainError(f"t must lie in [0, 1], got {t}")
    return total * t * t / 2.0


def integer_from_float(value: float, tol: float = 1e-9) -> int:
    """Round a float that must be an integer; reject misses beyond tol."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{value!r} is not a finite number")
    r = round(value)
    if abs(value - r) > tol:
        raise NonIntegerResultError(f"{value!r} is not within {tol} of an integer")
    return int(r)


def _length_via_integral(weights: Mapping) -> int:
    return integer_from_float(2.0 * multiple_integral_affine_unit_box(weights, 1.0), 1e-9)


def path_length_via_integral(p: GentlePresentation, q) -> int:
    """Arrow count recovered as ``2 ∫`` of the source-weight sum at t = 1."""
    return _length_via_integral(path_source_weights(p, q))


def w_projection(p_dual: GentlePresentation, P, x: AlgebraElement) -> float:
    """Coefficient of the permitted thread ``P`` in ``x``."""
    key = tuple(P.arrows) if isinstance(P, Thread) else tuple(P)
    lk = p_dual._links
    permitted = set(map(tuple, _threads(lk, PERMITTED).each()))
    if tuple(map(lk.ix.arrow_id.get, key)) not in permitted:
        raise NotPermittedError(f"path {'*'.join(key)} is not a permitted thread")
    return float(x.path_coeffs.get(key, 0.0))


# ---------------------------------------------------------------------------
# global dimension, three ways
# ---------------------------------------------------------------------------

@cache
def _log_unit() -> float:
    """``∫_1^2 x d(ln x)`` from its density form, whose integrand ``x · 1/x``
    is constant, hence convex; the Stieltjes sums are cross-checked once.
    The only route that loads the numeric layers, and numpy with them."""
    from .integrate import convex_enclosure, stieltjes_integrate
    from .measure import log_power_measure

    unit = log_power_measure(1.0)
    stieltjes_integrate(lambda x: x, unit, (1.0, 2.0), 1e-9)
    return convex_enclosure(lambda x: x * unit.phi_prime(x), (1.0, 2.0), 1e-9).midpoint


def _stieltjes_length(l: int) -> float:
    return l * _log_unit()  # ∫_1^2 x d(l·ln x) is linear in the measure


def _gldim_threads(forb: _Chains) -> int:
    return max(forb.lengths(), default=0)


def _multiplicities(xs: Iterable) -> dict:
    # not ``Counter``: its constructor's overhead dominates on the short
    # threads most presentations are made of.  Per one-arrow thread the
    # dedup key below takes 2.7 µs with ``Counter`` and 0.9 µs with this
    # loop (free chain of 10^5 arrows, x86_64, CPython 3.11).
    out = {}
    for x in xs:
        out[x] = out.get(x, 0) + 1
    return out


def _gldim_integral(forb: _Chains, lk: _Links) -> int:
    # The source multiplicities of each thread, counted on vertex ids.  The
    # integral reads only the multiplicities, not which vertex has them, so
    # each distinct multiset is integrated once, as the Stieltjes route
    # integrates each distinct length once.  On the free chain of 10^5
    # arrows that is one integral instead of 10^5: the route takes 0.09 s,
    # against 0.54 s with one Counter and one integral per thread.
    src = lk.ix.src.__getitem__
    multisets = {tuple(sorted(_multiplicities(map(src, c)).values())) for c in forb.each()}
    return max((_length_via_integral(dict(enumerate(u))) for u in multisets), default=0)


def _gldim_stieltjes(dual: _Links) -> int:
    lengths = sorted(set(_threads(dual, PERMITTED).lengths()))
    return max((integer_from_float(_stieltjes_length(l), 1e-9) for l in lengths),
               default=0)


def _agreed_routes(lk: _Links, forb: _Chains, dual: _Links) -> dict:
    """All three routes from the forbidden threads (as arrow-id chains) and
    the Koszul dual; raises ``MethodDisagreementError`` unless they agree."""
    values = {
        "threads": _gldim_threads(forb),
        "integral": _gldim_integral(forb, lk),
        "stieltjes": _gldim_stieltjes(dual),
    }
    if len(set(values.values())) != 1:
        raise MethodDisagreementError(f"global-dimension routes disagree: {values}")
    return values


def global_dimension(p: GentlePresentation, method: str = "threads") -> int:
    """Global dimension by the chosen route, or the agreement of all three.

    Raises ``InfiniteGlobalDimensionError`` when forbidden compositions
    cycle (every route would diverge), and ``MethodDisagreementError`` if
    ``method='all'`` finds the routes disagreeing.
    """
    lk = p._links
    forb = _threads(lk, FORBIDDEN)  # also the infinite-gl.dim gate
    if method == "threads":
        return _gldim_threads(forb)
    if method == "integral":
        return _gldim_integral(forb, lk)
    if method == "stieltjes":
        return _gldim_stieltjes(_dual(lk))
    if method == "all":
        return _agreed_routes(lk, forb, _dual(lk))["threads"]
    raise NotPermittedError(f"unknown method {method!r}")


def gldim_report(p: GentlePresentation) -> dict:
    """JSON-ready report: value, per-route values, threads, and the dual."""
    lk = p._links
    forb, perm = _threads(lk, FORBIDDEN), _threads(lk, PERMITTED)
    dual = _dual(lk)
    values = _agreed_routes(lk, forb, dual)
    return {
        "gldim": values["threads"],
        "method_values": values,
        "threads": {kind: [t.to_json() for t in _named_threads(lk, chains, kind)]
                    for kind, chains in ((FORBIDDEN, forb), (PERMITTED, perm))},
        "dual": dual.to_json(),
    }


def forb_perm_bijection(p: GentlePresentation) -> tuple:
    """Pair each forbidden thread of ``p`` with a permitted thread of the
    dual via reversal; verified by enumerating both sides.  The dual keeps
    the arrow ids of ``p``, so the chains are matched as ids."""
    lk = p._links
    forb = _threads(lk, FORBIDDEN)
    perm = _threads(_dual(lk), PERMITTED)
    expected = {tuple(reversed(c)) for c in forb.each()}
    actual = set(map(tuple, perm.each()))
    if expected != actual:
        def named(chains):     # id order is name order, so this sorts by name
            return [tuple(map(lk.ix.arrow_names.__getitem__, c)) for c in sorted(chains)]
        raise BijectionFailureError(
            f"thread correspondence failed; unmatched forbidden reversals: "
            f"{named(expected - actual)}, unmatched dual permitted: {named(actual - expected)}"
        )
    return tuple((t, Thread(t.arrows[::-1], PERMITTED))
                 for t in _named_threads(lk, forb, FORBIDDEN))
