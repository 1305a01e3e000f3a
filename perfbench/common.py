"""Operations, verdicts and the deck order shared by the workloads."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from . import oracles as orc


@dataclass
class Verdict:
    """How one operation ended, judged by an independent reference.

    ``failed``: raised, or exited non-zero, where success was expected.
    ``wrong``: returned a result the reference rejects.
    ``known``: the failure or wrong result is a documented seed defect
    (see ``KNOWN_DEFECTS``); it is still counted, but does not make the
    run incorrect.
    """

    failed: bool = False
    wrong: bool = False
    unconverged: bool = False
    known: Optional[str] = None
    detail: str = ""

    @property
    def bad(self) -> bool:
        return self.failed or self.wrong


OK = Verdict()


def wrong(detail: str, known: Optional[str] = None) -> Verdict:
    return Verdict(wrong=True, known=known, detail=detail)


def failed(detail: str, known: Optional[str] = None) -> Verdict:
    return Verdict(failed=True, known=known, detail=detail)


# Seed defects the benchmark keeps as a fixed share of its inputs.  Each
# entry names the exact outcome that is tolerated; any other failure on
# the same input still makes the run incorrect.
KNOWN_DEFECTS = {
    "chain_recursion": "A_n chains with >= 1000 arrows raise RecursionError "
                       "(recursive _find_cycle / extend)",
    "logpower_1e5": "stieltjes_integrate(t, 1e5*ln t) raises "
                    "ToleranceUnreachedError (CLI: exit 1)",
    "convex_quadratic_miss": "convex_enclosure(c + k*t^2) brackets miss the "
                             "exact value by at most 4 ulps of the nearer bound "
                             "(round-to-nearest sums)",
}


@dataclass
class Op:
    """One closed-loop operation.

    ``run(calls)`` does the package work (timed); ``check(outcome)`` judges
    it afterwards (untimed), where ``outcome`` is ``("ok", value)`` or
    ``("raised", exception)``.  ``cache_keys`` names the module caches the
    op touches, as the benchmark derives them from its own inputs.
    """

    kind: str
    cls: str
    run: Callable[[Any], Any]
    check: Callable[[tuple], Verdict]
    cache_keys: tuple = ()
    meta: dict = field(default_factory=dict)


def expect_ok(outcome: tuple, judge: Callable[[Any], Verdict]) -> Verdict:
    if outcome[0] == "raised":
        exc = outcome[1]
        return failed(f"{type(exc).__name__}: {exc}")
    return judge(outcome[1])


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, label...), so one class's inputs do
    not depend on how classes interleave."""
    key = "/".join(str(x) for x in (seed,) + labels)
    return random.Random(zlib.crc32(key.encode()) ^ (seed * 0x9E3779B1))


@dataclass
class OpClass:
    """A class of operations: ``make(rng)`` builds the next fresh op.

    ``defect`` marks a class whose inputs hit a known seed defect: it is
    left out of the traced coverage and of ``op_latency_ms``.
    """

    name: str
    make: Callable[[random.Random], Op]
    defect: bool = False


def midpoint(k: int, jitter: float) -> float:
    """The k-th point of a dyadic midpoint sequence on [0, 1): 1/2, then
    1/4, 3/4, then 1/8, 5/8, 3/8, 7/8, ...  Every odd-length prefix holds
    as many points below 1/2 as above, so the median of a class's ops sits
    at the middle of its range.  ``jitter`` in [0, 1) moves the point by at
    most 1/128 of its level's spacing, so the seed barely moves the cost
    a class's median op sees."""
    level = (k + 1).bit_length() - 1
    r = k + 1 - (1 << level)
    rev = int(format(r, f"0{level}b")[::-1], 2) if level else 0
    return (2 * rev + 1 + (jitter - 0.5) / 32) / (1 << (level + 1))


def decks(classes: list[OpClass], seed: int, label: str):
    """Endless stream of ``(class, op)``: deck after deck, each deck one op
    of every class in list order.  The seed only changes the inputs.

    Before each ``make``, ``rng.u`` is set to the class's next point of the
    seeded ``midpoint`` sequence, so the ops of a class in any number of
    decks spread evenly over its main input range.
    """
    rngs = [rng_for(seed, label, c.name) for c in classes]
    k = 0
    while True:
        for c, rng in zip(classes, rngs):
            rng.u = midpoint(k, rng.random())
            yield c, c.make(rng)
        k += 1


def coverage(classes: list[OpClass], seed: int):
    """One op of every class, for the traced per-layer table."""
    for c in classes:
        if not c.defect:
            rng = rng_for(seed, "coverage", c.name)
            rng.u = rng.random()
            yield c.make(rng)


def value_verdict(value: float, ref, tol: float) -> Verdict:
    """A float documented to lie within ``tol`` of the exact ``ref``."""
    if orc.within(value, ref, tol):
        return OK
    return wrong(f"{value!r} is {float(Fraction(value) - ref):.3g} from {ref}")
