"""Gentle presentations end to end: one seeded presentation per op.

The op walks ``.qv`` text -> ``parse_quiver_dsl`` -> ``validate_gentle``
-> ``enumerate_threads`` (both kinds) -> ``koszul_dual`` ->
``global_dimension`` by each route -> ``emit_dsl`` round trip.  Inputs
are A_n chains (no, all or random relations), random gentle branch and
cycle shapes, non-gentle inputs, and a small share of chains with at
least 1000 arrows.  Every stage is checked against the path scanner in
``oracles``.
"""

from __future__ import annotations

from stepquiver import (
    GentlePresentation,
    StepQuiverError,
    ValidationReport,
    emit_dsl,
    enumerate_threads,
    global_dimension,
    koszul_dual,
    parse_quiver_dsl,
    validate_gentle,
)

from .. import oracles as orc
from ..common import OK, Op, OpClass, expect_ok, failed, wrong

SIZES = (100, 200, 400, 800)
LONG = (1000, 1100)            # chains in this range hit the recursion limit
ROUTES = ("threads", "integral", "stieltjes")
FAMILIES = ("free", "full", "mixed")


def chain(rng, n, family) -> orc.Pres:
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n + 1)]
    pairs = [(f"a{i}", f"a{i + 1}") for i in range(1, n)]
    rels = {"free": [], "full": pairs,
            "mixed": [p for p in pairs if rng.random() < 0.5]}[family]
    return orc.Pres(f"chain_{family}_{n}", [str(i) for i in range(1, n + 2)], arrows, rels)


def random_gentle(rng) -> orc.Pres:
    """Random quiver with at most two arrows in and out of each vertex, and
    relations chosen so that conditions (2) and (3) hold; branches, cycles
    and loops all occur."""
    nv = 6 + int(35 * rng.u)
    vs = [f"v{i}" for i in range(nv)]
    ins = {v: 0 for v in vs}
    outs = {v: 0 for v in vs}
    arrows = []
    for _ in range(int(nv * rng.uniform(0.9, 1.5))):
        s, t = rng.choice(vs), rng.choice(vs)
        if s == t and rng.random() < 0.8:
            continue
        if outs[s] < 2 and ins[t] < 2:
            arrows.append((f"x{len(arrows)}", s, t))
            outs[s] += 1
            ins[t] += 1
    rels = set()
    for v in vs:
        a_in = [a for a, _, t in arrows if t == v]
        a_out = [a for a, s, _ in arrows if s == v]
        if len(a_in) == 2 and len(a_out) == 2:
            b1, b2 = rng.sample(a_out, 2)
            rels |= {(a_in[0], b1), (a_in[1], b2)}
        elif len(a_in) == 2 and len(a_out) == 1:
            rels.add((rng.choice(a_in), a_out[0]))
        elif len(a_in) == 1 and len(a_out) == 2:
            rels.add((a_in[0], rng.choice(a_out)))
        elif len(a_in) == 1 and len(a_out) == 1 and rng.random() < 0.5:
            rels.add((a_in[0], a_out[0]))
    return orc.Pres(f"gentle_{nv}", vs, arrows, rels)


def non_gentle(rng) -> orc.Pres:
    """A random gentle presentation broken at one vertex: a third arrow
    out of it, or both compositions through a branch put in the ideal."""
    p = random_gentle(rng)
    v = rng.choice(p.vertices)
    extra = [(f"y{i}", v, rng.choice(p.vertices)) for i in range(3)]
    if rng.random() < 0.5:
        p.arrows += extra
        p.vertices = list(p.vertices)
    else:
        s, m, t = extra[0][2], v, extra[1][2]
        p.arrows += [("y0", s, m), ("y1", m, t), ("y2", m, t)]
        p.relations |= {("y0", "y1"), ("y0", "y2")}
    p.name = "broken_" + p.name
    return p


def _stage(out, key, calls, name, cls, fn, *args):
    try:
        out[key] = calls.call(name, cls, fn, *args)
    except StepQuiverError as exc:
        out[key] = exc
    return out[key]


def pipeline(calls, text, cls):
    out = {}
    doc = calls.call("dsl.parse_quiver_dsl", None, parse_quiver_dsl, text)
    out["doc"] = doc
    p = _stage(out, "validate", calls, "quiver.validate_gentle", cls,
               validate_gentle, doc.quiver(), doc.relations)
    if not isinstance(p, GentlePresentation):
        return out
    for kind in ("forbidden", "permitted"):
        _stage(out, kind, calls, "quiver.enumerate_threads", cls, enumerate_threads, p, kind)
    _stage(out, "koszul", calls, "quiver.koszul_dual", cls, koszul_dual, p)
    for m in ROUTES:
        _stage(out, m, calls, f"quiver.global_dimension.{m}", None, global_dimension, p, m)
    out["emitted"] = calls.call("dsl.emit_dsl", None, emit_dsl, doc)
    out["reparsed"] = calls.call("dsl.parse_quiver_dsl", None, parse_quiver_dsl,
                                 out["emitted"])
    return out


def _raised(value, name) -> bool:
    return isinstance(value, Exception) and type(value).__name__ == name


def judge(out, pres: orc.Pres, exp: dict, meta: dict):
    if not orc.same_presentation(out["doc"], pres):
        return wrong("parsed document differs from the generated presentation")
    v = out["validate"]
    status = exp["status"]
    if status == "not_gentle":
        if not (isinstance(v, ValidationReport) and not v.ok):
            return wrong(f"non-gentle input validated: {v!r}"[:200])
        got = sorted(x.condition for x in v.violations)
        return OK if got == exp["violations"] else wrong(f"violations {got} vs {exp['violations']}")
    if status == "infinite_dim":
        return OK if _raised(v, "InfiniteDimensionalError") else wrong(f"validate gave {v!r}"[:200])
    if not isinstance(v, GentlePresentation):
        return wrong(f"gentle input rejected: {v!r}"[:200])
    meta["counts"] = {"quiver.threads_out": sum(
        len(out[k]) for k in ("forbidden", "permitted") if isinstance(out[k], tuple))}
    if sorted(t.arrows for t in out["permitted"]) != exp["permitted"]:
        return wrong("permitted threads differ")
    dual = out["koszul"]
    if ({tuple(a) for a in dual.quiver.arrows} != set(exp["dual"].arrows)
            or set(dual.relations) != exp["dual"].relations):
        return wrong("Koszul dual differs")
    if status == "infinite_gldim":
        for k in ("forbidden",) + ROUTES:
            if not _raised(out[k], "InfiniteGlobalDimensionError"):
                return wrong(f"{k} gave {out[k]!r} on infinite gl.dim"[:200])
    else:
        if sorted(t.arrows for t in out["forbidden"]) != exp["forbidden"]:
            return wrong("forbidden threads differ")
        for m in ROUTES:
            if out[m] != exp["gldim"]:
                return wrong(f"gl.dim by {m} = {out[m]!r}, expected {exp['gldim']}")
    if not (orc.same_presentation(out["reparsed"], pres)
            and orc.same_presentation(orc.parse_qv(out["emitted"]), pres)):
        return wrong("emit_dsl round trip differs")
    return OK


def make_op(pres: orc.Pres, cls: str, long_chain: bool = False) -> Op:
    text = orc.emit_qv(pres)
    exp = orc.expect(pres)
    meta = {}

    def check(outcome):
        if long_chain and outcome[0] == "raised" and isinstance(outcome[1], RecursionError):
            return failed("RecursionError", known="chain_recursion")
        return expect_ok(outcome, lambda out: judge(out, pres, exp, meta))

    lengths = {len(t) for t in exp.get("forbidden", ())}
    return Op("quiver.pipeline", cls, lambda c: pipeline(c, text, cls), check,
              cache_keys=tuple(("stieltjes_length", n) for n in sorted(lengths)),
              meta=meta)


class Workload:
    name = "quiver_gldim"

    def __init__(self, seed: int):
        self.seed = seed
        self.classes = [OpClass(f"{fam}.n{n}", self._chain_maker(n, fam))
                        for n in SIZES for fam in FAMILIES]
        self.classes += [
            OpClass("random_gentle", lambda rng: make_op(random_gentle(rng), "rand")),
            OpClass("non_gentle", lambda rng: make_op(non_gentle(rng), "rand")),
            OpClass("long_chain", self._long_chain, defect=True),
        ]

    @staticmethod
    def _chain_maker(n, fam):
        def make(rng):
            # sizes vary by +-10% so Stieltjes lengths are not all one cache key
            m = int(n * (0.9 + 0.2 * rng.u))
            op = make_op(chain(rng, m, fam), f"n{n}")
            op.meta["n"] = m
            return op
        return make

    @staticmethod
    def _long_chain(rng):
        # relation-free or full: one unbroken run of a predicate, which the
        # recursive walks cannot finish (random relations break the run)
        n = rng.randint(*LONG)
        return make_op(chain(rng, n, "free" if rng.u < 0.5 else "full"),
                       f"n{LONG[0]}", long_chain=True)
