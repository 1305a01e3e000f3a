"""Shared fixtures: the corpus of bound quivers and brute-force oracles.

The oracles here deliberately avoid the library's thread machinery — they
work on plain (name, source, target) triples and relation pairs so they can
serve as an independent cross-check for thread enumeration, global
dimension, and the forbidden/permitted correspondence.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from stepquiver import (
    Arrow,
    DslSyntaxError,
    GentlePresentation,
    NonQuadraticRelationError,
    Quiver,
    QuiverDoc,
    box1,
    indicator,
    linear_combine,
    parse_quiver_dsl,
    validate_gentle,
    zero_function,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"

# Expected global dimensions for the finite-dimensional corpus members,
# confirmed independently by ``brute_global_dimension`` below.
EXPECTED_GLDIM = {
    "a2_full": 1,
    "a3_full": 2,
    "a4_full": 3,
    "a5_full": 4,
    "a6_full": 5,
    "a3_free": 1,
    "a4_free": 1,
    "kronecker": 1,
    "square_zero": 2,
    "square_half": 2,
    "branch_relation": 2,
}

# Corpus members whose algebra or global dimension is infinite; loading /
# thread enumeration must raise instead of looping.
INFINITE_GLDIM = {"cycle3_full", "loop_square"}
INFINITE_DIM = {"cycle3_free"}


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS_DIR.glob("*.qv"))


def load_doc(name: str):
    return parse_quiver_dsl((CORPUS_DIR / f"{name}.qv").read_text())


def load_presentation(name: str) -> GentlePresentation:
    doc = load_doc(name)
    allow = name in INFINITE_DIM
    p = validate_gentle(doc.quiver(), doc.relations,
                        allow_infinite_dimensional=allow)
    assert isinstance(p, GentlePresentation), f"{name} failed validation: {p}"
    return p


@pytest.fixture(scope="session")
def corpus_docs():
    return {name: load_doc(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def finite_corpus():
    return {name: load_presentation(name) for name in EXPECTED_GLDIM}


# ---------------------------------------------------------------------------
# reference .qv parser: a line-by-line tokenizer and a method-per-token
# cursor, kept as the oracle for the one-scan parser in stepquiver.qv
# ---------------------------------------------------------------------------

_REF_RESERVED = ("quiver", "vertices", "arrows", "relations")
_REF_QV_TOKEN = re.compile(r"->|[{}:,*]|[A-Za-z0-9_]+|\S")


@dataclass(frozen=True)
class _RefTok:
    text: str
    line: int
    col: int


def _ref_tokenize_qv(text: str) -> list[_RefTok]:
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _REF_QV_TOKEN.finditer(line):
            t = m.group(0)
            if t in "{}:,*" or t == "->" or re.fullmatch(r"[A-Za-z0-9_]+", t):
                toks.append(_RefTok(t, ln, m.start() + 1))
            else:
                raise DslSyntaxError(ln, m.start() + 1, "token", t)
    return toks


class _RefQvParser:
    def __init__(self, text: str):
        self.toks = _ref_tokenize_qv(text)
        self.pos = 0

    def _err(self, expected: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise DslSyntaxError(t.line, t.col, expected, t.text)
        last = self.toks[-1] if self.toks else _RefTok("", 1, 1)
        raise DslSyntaxError(last.line, last.col + len(last.text), expected,
                             "end of input")

    def peek(self) -> Optional[str]:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def peek2(self) -> Optional[str]:
        return self.toks[self.pos + 1].text if self.pos + 1 < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> _RefTok:
        if self.pos >= len(self.toks) or (expected is not None
                                          and self.toks[self.pos].text != expected):
            self._err(expected or "token")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def ident(self, what: str) -> str:
        t = self.peek()
        if t is None or not re.fullmatch(r"[A-Za-z0-9_]+", t) or t in _REF_RESERVED:
            self._err(what)
        return self.take().text

    def _at_clause(self, keyword: str) -> bool:
        return self.peek() == keyword and self.peek2() == ":"

    def parse(self) -> QuiverDoc:
        self.take("quiver")
        name = self.ident("quiver name")
        self.take("{")
        self.take("vertices")
        self.take(":")
        vertices = []
        while self.peek() not in (None, "}") and not (
                self._at_clause("arrows") or self._at_clause("relations")):
            vertices.append(self.ident("vertex name"))
        if not vertices:
            self._err("vertex name")
        arrows: list[Arrow] = []
        if self._at_clause("arrows"):
            self.take("arrows")
            self.take(":")
            while True:
                nm = self.ident("arrow declaration")
                self.take(":")
                src = self.ident("source vertex")
                self.take("->")
                dst = self.ident("target vertex")
                arrows.append(Arrow(nm, src, dst))
                if self.peek() == ",":
                    self.take(",")
                else:
                    break
        relations: list[tuple[str, str]] = []
        if self._at_clause("relations"):
            self.take("relations")
            self.take(":")
            while True:
                path = [self.ident("relation path")]
                while self.peek() == "*":
                    self.take("*")
                    path.append(self.ident("relation path"))
                if len(path) != 2:
                    raise NonQuadraticRelationError(
                        f"relation {'*'.join(path)} has length {len(path)}, not 2"
                    )
                relations.append((path[0], path[1]))
                if self.peek() == ",":
                    self.take(",")
                else:
                    break
        self.take("}")
        if self.pos != len(self.toks):
            self._err("end of input")
        return QuiverDoc(name, tuple(vertices), tuple(arrows), tuple(relations))


def reference_parse_qv(text: str) -> QuiverDoc:
    """What ``parse_quiver_dsl`` must return or raise on ``text``."""
    return _RefQvParser(text).parse()


# ---------------------------------------------------------------------------
# random gentle presentations
# ---------------------------------------------------------------------------

@st.composite
def gentle_presentations(draw):
    """A quiver with at most two arrows into and out of each vertex, and a
    relation set meeting gentle conditions (2)/(3): chains, branches,
    cycles and loops, with or without relations."""
    vs = [str(i) for i in range(draw(st.integers(min_value=1, max_value=6)))]
    ins: dict[str, list[str]] = {v: [] for v in vs}
    outs: dict[str, list[str]] = {v: [] for v in vs}
    arrows = []
    for k in range(draw(st.integers(min_value=0, max_value=2 * len(vs)))):
        s, t = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        if len(outs[s]) < 2 and len(ins[t]) < 2:
            arrows.append(Arrow(f"x{k}", s, t))
            outs[s].append(f"x{k}")
            ins[t].append(f"x{k}")
    rels = set()
    for v in vs:
        a_in, a_out = ins[v], outs[v]
        if len(a_in) == 2 and len(a_out) == 2:  # a matching of ins to outs
            b1, b2 = draw(st.permutations(a_out))
            rels |= {(a_in[0], b1), (a_in[1], b2)}
        elif len(a_in) == 2 and len(a_out) == 1:
            rels.add((draw(st.sampled_from(a_in)), a_out[0]))
        elif len(a_in) == 1 and len(a_out) == 2:
            rels.add((a_in[0], draw(st.sampled_from(a_out))))
        elif len(a_in) == 1 and len(a_out) == 1 and draw(st.booleans()):
            rels.add((a_in[0], a_out[0]))
    return Quiver(tuple(vs), tuple(arrows)), rels


# ---------------------------------------------------------------------------
# brute-force oracles (quiver side)
# ---------------------------------------------------------------------------

def doc_arrows(doc) -> list[tuple[str, str, str]]:
    return [(a.name, a.source, a.target) for a in doc.arrows]


def brute_paths(doc, max_len: int) -> list[tuple[str, ...]]:
    """All composable arrow sequences of length 1..max_len, by plain walk."""
    arrows = doc_arrows(doc)
    out: list[tuple[str, ...]] = []
    frontier = [((name,), target) for name, _, target in arrows]
    for _ in range(max_len):
        nxt = []
        for path, end in frontier:
            out.append(path)
            for name, source, target in arrows:
                if source == end:
                    nxt.append((path + (name,), target))
        frontier = nxt
    return out


def brute_threads(doc, kind: str) -> set[tuple[str, ...]]:
    """Maximal paths whose consecutive pairs all are (forbidden) / all avoid
    (permitted) the relation set.  Raises ValueError on a linked cycle."""
    rel = set(doc.relations)
    info = {name: (source, target) for name, source, target in doc_arrows(doc)}

    def linked(a: str, b: str) -> bool:
        if info[a][1] != info[b][0]:
            return False
        return ((a, b) in rel) == (kind == "forbidden")

    names = sorted(info)
    succ = {a: [b for b in names if linked(a, b)] for a in names}
    pred = {b: [a for a in names if linked(a, b)] for b in names}

    results: set[tuple[str, ...]] = set()

    def extend(path: tuple[str, ...]):
        if len(path) > len(names):
            raise ValueError(f"linked {kind} cycle through {path[:4]}...")
        tails = succ[path[-1]]
        if not tails:
            results.add(path)
            return
        for b in tails:
            extend(path + (b,))

    for a in names:
        if not pred[a]:
            extend((a,))
    # a cycle component has no pred-less arrow; sweep for unvisited arrows
    covered = {a for path in results for a in path}
    for a in names:
        if a not in covered and (pred[a] or succ[a]):
            raise ValueError(f"linked {kind} cycle through {a!r}")
    return results


def brute_cycle_arrows(doc, kind: str) -> set[str]:
    """Arrows from which linked (``kind``) compositions lead back to
    themselves, by plain reachability over all arrow pairs."""
    rel = set(doc.relations)
    info = {name: (source, target) for name, source, target in doc_arrows(doc)}
    succ = {a: [b for b in info if info[a][1] == info[b][0]
                and ((a, b) in rel) == (kind == "forbidden")] for a in info}
    out = set()
    for a in info:
        seen, todo = set(), list(succ[a])
        while todo:
            b = todo.pop()
            if b not in seen:
                seen.add(b)
                todo.extend(succ[b])
        if a in seen:
            out.add(a)
    return out


def brute_second_link(doc, kind: str) -> bool:
    """True when some arrow has two linked (``kind``) successors or two
    linked predecessors, by a scan over all arrow pairs."""
    rel = set(doc.relations)
    arrows = doc_arrows(doc)
    pairs = [(a, b) for a, _, ta in arrows for b, sb, _ in arrows
             if ta == sb and ((a, b) in rel) == (kind == "forbidden")]
    return any(n > 1 for n in Counter(a for a, _ in pairs).values()) or \
        any(n > 1 for n in Counter(b for _, b in pairs).values())


def brute_violation_conditions(doc, strict: bool = False) -> list[str]:
    """Sorted condition labels of every gentle-rule failure, one per
    offending vertex end or arrow end, by plain scans over the triples."""
    rel = set(doc.relations)
    arrows = doc_arrows(doc)
    out = []
    for v in {end for _, s, t in arrows for end in (s, t)}:
        ins = [a for a, _, t in arrows if t == v]
        outs = [a for a, s, _ in arrows if s == v]
        out += ["1"] * ((len(ins) > 2) + (len(outs) > 2))
        if len(ins) == 2:
            out += ["2" for b in outs if ((ins[0], b) in rel) == ((ins[1], b) in rel)]
        if len(outs) == 2:
            out += ["3" for a in ins if ((a, outs[0]) in rel) == ((a, outs[1]) in rel)]
    if strict:
        for b, sb, tb in arrows:
            ins = [a for a, _, t in arrows if t == sb]
            outs = [c for c, s, _ in arrows if s == tb]
            for label, count in (
                    ("at-most-one-relation-into", sum((a, b) in rel for a in ins)),
                    ("at-most-one-relation-out-of", sum((b, c) in rel for c in outs)),
                    ("at-most-one-composition-into", sum((a, b) not in rel for a in ins)),
                    ("at-most-one-composition-out-of", sum((b, c) not in rel for c in outs))):
                if count > 1:
                    out.append(label)
    return sorted(out)


def brute_global_dimension(doc) -> int:
    threads = brute_threads(doc, "forbidden")
    return max((len(t) for t in threads), default=0)


def brute_dual_relations(doc) -> set[tuple[str, str]]:
    """Relations of the opposite presentation: reversed composable pairs
    that do NOT come from original relations."""
    arrows = doc_arrows(doc)
    rel = set(doc.relations)
    out = set()
    for (na, _, ta), (nb, sb, _) in itertools.product(arrows, repeat=2):
        if ta == sb and (na, nb) not in rel:
            out.add((nb, na))
    return out


# ---------------------------------------------------------------------------
# brute-force oracle (box side)
# ---------------------------------------------------------------------------

def brute_overlap(boxes) -> bool:
    """True when two of ``boxes`` meet with positive measure.

    Tests every pair on plain endpoints: two boxes overlap when, on every
    axis, their factors share an interval of positive length.
    """
    for a, b in itertools.combinations(boxes, 2):
        if all(max(f.lo, g.lo) < min(f.hi, g.hi) for f, g in zip(a.factors, b.factors)):
            return True
    return False


# ---------------------------------------------------------------------------
# random step-function builders (shared by the analytic test files)
# ---------------------------------------------------------------------------

def random_step(rng: np.random.Generator, lo: float, hi: float,
                max_pieces: int = 5):
    """A random 1-D step function on [lo, hi].

    Coefficients are dyadic (multiples of 1/64) so that sums of a few of
    them are exact in binary floating point; breakpoints are arbitrary
    floats — the canonical grid only ever copies them.
    """
    amb = box1(lo, hi)
    n = int(rng.integers(0, max_pieces + 1))
    if n == 0:
        return zero_function(amb)
    cuts = np.sort(rng.uniform(lo, hi, size=2 * n))
    f = zero_function(amb)
    for i in range(n):
        a, b = float(cuts[2 * i]), float(cuts[2 * i + 1])
        if a == b:
            continue
        coeff = int(rng.integers(-256, 257)) / 64.0
        g = indicator(box1(a, b), amb, coeff)
        f = linear_combine(1.0, f, 1.0, g)
    return f
