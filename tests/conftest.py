"""Shared fixtures: the corpus of bound quivers and brute-force oracles.

The oracles here deliberately avoid the library's thread machinery — they
work on plain (name, source, target) triples and relation pairs so they can
serve as an independent cross-check for thread enumeration, global
dimension, and the forbidden/permitted correspondence.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from stepquiver import (
    GentlePresentation,
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
