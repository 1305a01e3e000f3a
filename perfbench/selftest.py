"""Show the checkers catch a miss before a run trusts them.

Each checker is fed a real result twice: with its true reference, where
it must pass, and with a deliberately wrong one, where it must report a
wrong result.  A checker that fails either way stops the run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from stepquiver import Enclosure, StepFunction, ln_cat

from . import oracles as orc
from .common import value_verdict
from .tracer import Calls
from .workloads import cli_corpus, enclosures, quiver_gldim, stepfn_algebra as sa


class CheckerBroken(RuntimeError):
    pass


def _expect(verdict, should_pass: bool, what: str) -> None:
    if verdict.bad == should_pass:
        state = "rejected a correct result" if should_pass else "accepted a wrong reference"
        raise CheckerBroken(f"checker for {what} {state}")


def selftest() -> None:
    rng = random.Random(7)

    # step functions: exact piece lists
    pieces = sa.tiling(rng, 12)
    f = StepFunction(sa.AMB, sa.to_pkg(pieces))
    good = [(lo, hi, Fraction(v)) for lo, hi, v in pieces]
    bad = good[:-1] + [(good[-1][0], good[-1][1], good[-1][2] + 1)]
    _expect(sa.same_pieces(f, good, {}), True, "step-function pieces")
    _expect(sa.same_pieces(f, bad, {}), False, "step-function pieces")

    # enclosures: strict containment, one ulp outside is a miss
    enc = ln_cat(3.0, 1e-9)
    ref = orc.ln(3.0)
    _expect(enclosures.judge_enclosure(enc, ref, 1e-9, {}), True, "enclosures")
    below = float(ref)
    if orc.Decimal(below) >= ref:
        below = math.nextafter(below, -math.inf)
    outside = Enclosure(below - 1e-9, below, enc.converged)   # one ulp short
    _expect(enclosures.judge_enclosure(outside, ref, 1e-9, {}), False, "enclosures")
    # a known-defect miss is tolerated only within its ulp allowance
    if enclosures.judge_enclosure(outside, ref, 1e-9, {}, known_ulps=4).known is None:
        raise CheckerBroken("a one-ulp convex miss is not taken as the known defect")
    far = Enclosure(below - 1e-9, below - 1e-12, enc.converged)
    if enclosures.judge_enclosure(far, ref, 1e-9, {}, known_ulps=4).known is not None:
        raise CheckerBroken("a wide miss is taken as the known convex defect")
    _expect(value_verdict(2.0, Fraction(2), 1e-9), True, "Stieltjes values")
    _expect(value_verdict(2.0 + 1e-8, Fraction(2), 1e-9), False, "Stieltjes values")

    # quivers: a gl.dim off by one must be caught
    pres = quiver_gldim.chain(rng, 5, "full")
    exp = orc.expect(pres)
    op_out = quiver_gldim.pipeline(Calls(False), orc.emit_qv(pres), "n5")
    _expect(quiver_gldim.judge(op_out, pres, exp, {}), True, "quiver pipeline")
    _expect(quiver_gldim.judge(op_out, pres, dict(exp, gldim=exp["gldim"] + 1), {}), False,
            "quiver pipeline")

    # CLI text: the expected line must match byte for byte
    r = cli_corpus.Result(0, "gl.dim = 4 (threads=4, integral=4, stieltjes=4)\n", "")
    four = orc.expect(quiver_gldim.chain(rng, 4, "full"))
    _expect(cli_corpus.judge_quiver("gldim", "text", pres, four, r), True, "CLI gldim")
    _expect(cli_corpus.judge_quiver("gldim", "text", pres, exp, r), False, "CLI gldim")

