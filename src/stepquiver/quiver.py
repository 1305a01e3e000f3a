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
disjoint chains (Avella-Alaminos–Geiss, JPAA 2008).  Each quiver indexes
its arrows by source and by target once, and threads and cycle witnesses
come from iterative walks along a successor map.  Validation, threads and
the Koszul dual are therefore linear in the number of arrows, with no
recursion limit on the length of a chain.

Global dimension routes (must agree):

* ``threads`` — sup of forbidden-thread lengths (0 for an empty set);
* ``integral`` — twice the weighted unit-box integral of the source-vertex
  multiplicities of each forbidden thread at t = 1;
* ``stieltjes`` — sup over permitted threads of the Koszul dual of
  ``∫_1^2 x d(ℓ·ln x) = ℓ·∫_1^2 x d(ln x)`` (one unit integral per process),
  each value within 1e-9 of the thread length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    BijectionFailureError,
    DuplicateArrowError,
    InfiniteDimensionalError,
    InfiniteGlobalDimensionError,
    MethodDisagreementError,
    NonComposableRelationError,
    NotGentleError,
    NotPermittedError,
    PathNotInPresentationError,
    UnknownArrowError,
    UnknownVertexError,
)
from .integrate import (
    convex_enclosure,
    integer_from_float,
    multiple_integral_affine_unit_box,
    stieltjes_integrate,
)
from .measure import log_power_measure

PERMITTED = "permitted"
FORBIDDEN = "forbidden"


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(dict.fromkeys(self.vertices)))
        names = set()
        vset = set(self.vertices)
        arrows = tuple(Arrow(*a) for a in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        for a in arrows:
            if a.name in names:
                raise DuplicateArrowError(f"arrow name {a.name!r} declared twice")
            names.add(a.name)
            for v in (a.source, a.target):
                if v not in vset:
                    raise UnknownVertexError(
                        f"arrow {a.name!r} uses undeclared vertex {v!r}"
                    )

    @cached_property
    def arrow_map(self) -> dict:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _ends(self) -> tuple[dict, dict]:
        """Arrows by source and by target, each list in declaration order."""
        by_source: dict[str, list[Arrow]] = {}
        by_target: dict[str, list[Arrow]] = {}
        for a in self.arrows:
            by_source.setdefault(a.source, []).append(a)
            by_target.setdefault(a.target, []).append(a)
        return by_source, by_target

    def arrows_from(self, v: str) -> list[Arrow]:
        return list(self._ends[0].get(v, ()))

    def arrows_into(self, v: str) -> list[Arrow]:
        return list(self._ends[1].get(v, ()))

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "arrows": [
                {"name": a.name, "source": a.source, "target": a.target}
                for a in sorted(self.arrows)
            ],
        }


@dataclass(frozen=True)
class GentlePresentation:
    """A quiver plus a set of composable arrow pairs generating the ideal."""

    quiver: Quiver
    relations: frozenset[tuple[str, str]]
    validated: bool = True

    def __post_init__(self):
        object.__setattr__(self, "relations",
                           frozenset((str(a), str(b)) for a, b in self.relations))
        amap = self.quiver.arrow_map
        for a, b in sorted(self.relations):
            if a not in amap or b not in amap:
                missing = a if a not in amap else b
                raise UnknownArrowError(f"relation {a}*{b} names unknown arrow {missing!r}")
            if amap[a].target != amap[b].source:
                raise NonComposableRelationError(
                    f"relation {a}*{b} is not composable: "
                    f"t({a}) = {amap[a].target!r}, s({b}) = {amap[b].source!r}"
                )

    def in_ideal(self, a: str, b: str) -> bool:
        return (a, b) in self.relations

    def to_json(self) -> dict:
        out = self.quiver.to_json()
        out["relations"] = [[a, b] for a, b in sorted(self.relations)]
        return out


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


def _paper_condition_violations(q: Quiver, rels: frozenset) -> list[GentleViolation]:
    out: list[GentleViolation] = []
    for v in sorted(q.vertices):
        ins = sorted(a.name for a in q.arrows_into(v))
        outs = sorted(a.name for a in q.arrows_from(v))
        if len(ins) > 2:
            out.append(GentleViolation(
                "1", f"vertex {v!r} has {len(ins)} incoming arrows: {ins}"))
        if len(outs) > 2:
            out.append(GentleViolation(
                "1", f"vertex {v!r} has {len(outs)} outgoing arrows: {outs}"))
        if len(ins) == 2:
            a1, a2 = ins
            for b in outs:
                flags = ((a1, b) in rels, (a2, b) in rels)
                if flags == (True, True) or flags == (False, False):
                    kind = "both" if flags[0] else "neither"
                    out.append(GentleViolation(
                        "2", f"{kind} of {a1}*{b}, {a2}*{b} lie in the ideal"))
        if len(outs) == 2:
            b1, b2 = outs
            for a in ins:
                flags = ((a, b1) in rels, (a, b2) in rels)
                if flags == (True, True) or flags == (False, False):
                    kind = "both" if flags[0] else "neither"
                    out.append(GentleViolation(
                        "3", f"{kind} of {a}*{b1}, {a}*{b2} lie in the ideal"))
    # condition (4) — quadratic monomial generators — holds by data type;
    # composability of each generator is enforced by GentlePresentation.
    return out


def _strict_condition_violations(q: Quiver, rels: frozenset) -> list[GentleViolation]:
    out: list[GentleViolation] = []
    for b in sorted(a.name for a in q.arrows):
        arrow = q.arrow_map[b]
        ins = [a.name for a in q.arrows_into(arrow.source)]
        outs = [c.name for c in q.arrows_from(arrow.target)]
        groups = (
            ("at-most-one-relation-into", [a for a in ins if (a, b) in rels]),
            ("at-most-one-relation-out-of", [c for c in outs if (b, c) in rels]),
            ("at-most-one-composition-into", [a for a in ins if (a, b) not in rels]),
            ("at-most-one-composition-out-of", [c for c in outs if (b, c) not in rels]),
        )
        for label, items in groups:
            if len(items) > 1:
                out.append(GentleViolation(
                    label, f"arrow {b!r}: {sorted(items)}", rule_set="strict"))
    return out


def _next_arrow(p: GentlePresentation, in_ideal: bool) -> dict[str, str]:
    """Each arrow's successor ``b`` with ``(a, b) in I`` equal to ``in_ideal``.

    Raises ``NotGentleError`` when an arrow would get a second successor or
    a second predecessor: gentle conditions (2)/(3) rule both out.
    """
    nxt: dict[str, str] = {}
    has_pred: set[str] = set()
    for a in p.quiver.arrows:
        for b in p.quiver.arrows_from(a.target):
            if p.in_ideal(a.name, b.name) == in_ideal:
                if a.name in nxt or b.name in has_pred:
                    what = "relation" if in_ideal else "composition"
                    raise NotGentleError(f"{a.name}*{b.name} is a second {what} "
                                         f"out of {a.name!r} or into {b.name!r}")
                nxt[a.name] = b.name
                has_pred.add(b.name)
    return nxt


def _chains(nxt: dict[str, str], names: Iterable[str]
            ) -> tuple[list[list[str]], Optional[list[str]]]:
    """Walk ``nxt`` from every arrow without a predecessor, in name order.

    Returns the maximal chains and, when some arrows lie on none of them
    (they then form cycles), the cycle through the least such arrow,
    closed by repeating that arrow.
    """
    names = sorted(names)
    has_pred = set(nxt.values())
    chains = []
    for s in names:
        if s in has_pred:
            continue
        chain = [s]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        chains.append(chain)
    if sum(map(len, chains)) == len(names):
        return chains, None
    on_chain = {a for c in chains for a in c}
    start = next(a for a in names if a not in on_chain)
    cycle = [start, nxt[start]]
    while cycle[-1] != start:
        cycle.append(nxt[cycle[-1]])
    return chains, cycle


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
    pres = GentlePresentation(q, frozenset(tuple(r) for r in rels))
    violations = _paper_condition_violations(q, pres.relations)
    if strict:
        violations = violations + _strict_condition_violations(q, pres.relations)
    if violations:
        return ValidationReport(ok=False, violations=violations)
    if not allow_infinite_dimensional:
        _, cycle = _chains(_next_arrow(pres, in_ideal=False),
                           (a.name for a in q.arrows))
        if cycle is not None:
            raise InfiniteDimensionalError(
                "non-relation compositions cycle through arrows "
                f"{' -> '.join(cycle)}; the quotient algebra is infinite-dimensional"
            )
    return pres


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


def enumerate_threads(p: GentlePresentation, kind: str) -> tuple[Thread, ...]:
    """All maximal chains for the pair-predicate of ``kind``, sorted.

    ``forbidden`` chains have every consecutive product in the ideal;
    ``permitted`` chains have none.  A cycle in the respective composition
    graph means there is no finite maximal chain: forbidden cycles raise
    ``InfiniteGlobalDimensionError``, permitted cycles
    ``InfiniteDimensionalError``.
    """
    if kind not in (PERMITTED, FORBIDDEN):
        raise NotPermittedError(f"unknown thread kind {kind!r}")
    in_ideal = kind == FORBIDDEN
    chains, cycle = _chains(_next_arrow(p, in_ideal), (a.name for a in p.quiver.arrows))
    if cycle is not None:
        msg = f"{kind} compositions cycle through arrows {' -> '.join(cycle)}"
        if in_ideal:
            raise InfiniteGlobalDimensionError(msg)
        raise InfiniteDimensionalError(msg)
    # chains start at distinct arrows taken in name order, so they are sorted
    return tuple(Thread(tuple(c), kind) for c in chains)


# ---------------------------------------------------------------------------
# Koszul dual
# ---------------------------------------------------------------------------

def koszul_dual(p: GentlePresentation) -> GentlePresentation:
    """Reverse every arrow; relations are the reversals of the composable
    pairs *not* in the ideal: ``I^! = { b^! a^! : ab composable, ab ∉ I }``.
    """
    q = p.quiver
    dual_arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
    dual_q = Quiver(q.vertices, dual_arrows)
    dual_rels = set()
    for a in q.arrows:
        for b in q.arrows_from(a.target):
            if not p.in_ideal(a.name, b.name):
                dual_rels.add((b.name, a.name))
    result = validate_gentle(dual_q, dual_rels, allow_infinite_dimensional=True)
    if isinstance(result, ValidationReport):
        raise MethodDisagreementError(
            f"Koszul dual failed gentle validation: {result.to_json()}"
        )
    return result


# ---------------------------------------------------------------------------
# paths and algebra elements
# ---------------------------------------------------------------------------

def _check_path(p: GentlePresentation, q) -> tuple[Arrow, ...]:
    names = tuple(q.arrows) if isinstance(q, Thread) else tuple(q)
    if not names:
        raise PathNotInPresentationError("paths are nonempty arrow sequences")
    amap = p.quiver.arrow_map
    arrows = []
    for n in names:
        if n not in amap:
            raise PathNotInPresentationError(f"unknown arrow {n!r}")
        arrows.append(amap[n])
    for a, b in zip(arrows, arrows[1:]):
        if a.target != b.source:
            raise PathNotInPresentationError(
                f"arrows {a.name!r} and {b.name!r} do not compose"
            )
    return tuple(arrows)


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
        vset = set(presentation.quiver.vertices)
        vc = {}
        for v, k in (vertex_coeffs or {}).items():
            if v not in vset:
                raise UnknownVertexError(f"no vertex {v!r}")
            if k != 0.0:
                vc[v] = float(k)
        pc = {}
        for path, k in (path_coeffs or {}).items():
            arrows = _check_path(presentation, path)
            key = tuple(a.name for a in arrows)
            if any(presentation.in_ideal(a.name, b.name)
                   for a, b in zip(arrows, arrows[1:])):
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


def vertex_hom(x: AlgebraElement) -> float:
    """Sum of the trivial-path coefficients of ``x``."""
    return float(sum(x.vertex_coeffs.values()))


def vertex_hom_q(x: AlgebraElement, q) -> float:
    """``Σ_i k_{s(a_i)}`` over the arrows of the path ``q``, with repeats."""
    arrows = _check_path(x.presentation, q)
    return float(sum(x.vertex_coeffs.get(a.source, 0.0) for a in arrows))


def path_source_weights(p: GentlePresentation, q) -> dict:
    """Multiplicity of each source vertex along the path (the weights u_v)."""
    arrows = _check_path(p, q)
    return dict(Counter(a.source for a in arrows))


def path_length_via_integral(p: GentlePresentation, q) -> int:
    """Arrow count recovered as ``2 ∫`` of the source-weight sum at t = 1."""
    weights = path_source_weights(p, q)
    value = 2.0 * multiple_integral_affine_unit_box(weights, 1.0)
    return integer_from_float(value, 1e-9)


def w_projection(p_dual: GentlePresentation, P, x: AlgebraElement) -> float:
    """Coefficient of the permitted thread ``P`` in ``x``."""
    key = tuple(P.arrows) if isinstance(P, Thread) else tuple(P)
    permitted = {t.arrows for t in enumerate_threads(p_dual, PERMITTED)}
    if key not in permitted:
        raise NotPermittedError(f"path {'*'.join(key)} is not a permitted thread")
    return float(x.path_coeffs.get(key, 0.0))


# ---------------------------------------------------------------------------
# global dimension, three ways
# ---------------------------------------------------------------------------

@cache
def _log_unit() -> float:
    """``∫_1^2 x d(ln x)`` from its density form, whose integrand ``x · 1/x``
    is constant, hence convex; the Stieltjes sums are cross-checked once."""
    unit = log_power_measure(1.0)
    stieltjes_integrate(lambda x: x, unit, (1.0, 2.0), 1e-9)
    return convex_enclosure(lambda x: x * unit.phi_prime(x), (1.0, 2.0), 1e-9).midpoint


def _stieltjes_length(l: int) -> float:
    return l * _log_unit()  # ∫_1^2 x d(l·ln x) is linear in the measure


def _gldim_threads(forb: Sequence[Thread]) -> int:
    return max((t.length for t in forb), default=0)


def _gldim_integral(forb: Sequence[Thread], p: GentlePresentation) -> int:
    return max((path_length_via_integral(p, t) for t in forb), default=0)


def _gldim_stieltjes(dual: GentlePresentation) -> int:
    lengths = sorted({t.length for t in enumerate_threads(dual, PERMITTED)})
    return max((integer_from_float(_stieltjes_length(l), 1e-9) for l in lengths),
               default=0)


def _agreed_routes(p: GentlePresentation, forb: Sequence[Thread],
                   dual: GentlePresentation) -> dict:
    """All three routes from the forbidden threads and the Koszul dual;
    raises ``MethodDisagreementError`` unless they agree."""
    values = {
        "threads": _gldim_threads(forb),
        "integral": _gldim_integral(forb, p),
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
    forb = enumerate_threads(p, FORBIDDEN)  # also the infinite-gl.dim gate
    if method == "threads":
        return _gldim_threads(forb)
    if method == "integral":
        return _gldim_integral(forb, p)
    if method == "stieltjes":
        return _gldim_stieltjes(koszul_dual(p))
    if method == "all":
        return _agreed_routes(p, forb, koszul_dual(p))["threads"]
    raise NotPermittedError(f"unknown method {method!r}")


def gldim_report(p: GentlePresentation) -> dict:
    """JSON-ready report: value, per-route values, threads, and the dual."""
    forb = enumerate_threads(p, FORBIDDEN)
    perm = enumerate_threads(p, PERMITTED)
    dual = koszul_dual(p)
    values = _agreed_routes(p, forb, dual)
    return {
        "gldim": values["threads"],
        "method_values": values,
        "threads": {
            "forbidden": [t.to_json() for t in forb],
            "permitted": [t.to_json() for t in perm],
        },
        "dual": dual.to_json(),
    }


def forb_perm_bijection(p: GentlePresentation) -> tuple:
    """Pair each forbidden thread of ``p`` with a permitted thread of the
    dual via name-reversal; verified by enumerating both sides."""
    forb = enumerate_threads(p, FORBIDDEN)
    dual = koszul_dual(p)
    perm = enumerate_threads(dual, PERMITTED)
    expected = {tuple(reversed(t.arrows)): t for t in forb}
    actual = {t.arrows: t for t in perm}
    if set(expected) != set(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        raise BijectionFailureError(
            f"thread correspondence failed; unmatched forbidden reversals: "
            f"{missing}, unmatched dual permitted: {extra}"
        )
    pairs = []
    for key in sorted(expected, key=lambda k: expected[k].arrows):
        pairs.append((expected[key], actual[key]))
    return tuple(pairs)
