"""The ``stepquiver`` command: one subprocess per op.

Every ``corpus/*.qv`` goes through ``validate``, ``threads``, ``koszul``
and ``gldim`` in text and ``--json`` form, next to every CLI example in
the README and seeded variants of the numeric subcommands.  Outputs are
checked against the path scanner and exact references in ``oracles``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import NamedTuple

from .. import oracles as orc
from ..common import OK, Op, OpClass, Verdict, expect_ok, failed, rng_for, value_verdict, wrong
from .enclosures import DEFECT_L

CORPUS = ("a2_full", "a3_free", "a3_full", "a4_free", "a4_full", "a5_full", "a6_full",
          "branch_relation", "cycle3_free", "cycle3_full", "kronecker", "loop_square",
          "square_half", "square_zero")
QUIVER_CMDS = ("validate", "threads", "koszul", "gldim")
TIMEOUT_S = 120


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = os.path.abspath("src")
    e["OMP_NUM_THREADS"] = e["OPENBLAS_NUM_THREADS"] = "1"
    return e


def run_child(argv, capture=True):
    """Run ``python ARGV`` to its end and return (code, stdout, stderr).

    The wait blocks; ``subprocess.run(timeout=...)`` would instead poll
    with sleeps that grow to 50 ms, and so round a call's wall time up to
    its next poll.  A timer kills a child that outlives ``TIMEOUT_S``.
    """
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen([sys.executable, *argv], stdout=pipe, stderr=pipe, text=True,
                            env=env())
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out, err


def run_cli(argv):
    """Run ``python -m stepquiver.cli`` and return (code, stdout, stderr)."""
    return run_child(["-m", "stepquiver.cli", *argv])


class Result(NamedTuple):
    code: int
    out: str
    err: str


def cli_op(cmd: str, argv: list, judge) -> Op:
    """``judge(Result) -> Verdict``; a non-zero exit the judge did not
    expect is a failure."""
    def run(calls):
        return Result(*calls.call(f"cli.{cmd}", None, run_cli, argv))
    return Op(f"cli.{cmd}", cmd, run, lambda outcome: expect_ok(outcome, judge))


def exit_ok(r: Result):
    if r.code != 0:
        return failed(f"exit {r.code}: {r.err.strip()[:200]}")
    return None


def exit_domain_error(r: Result) -> Verdict:
    """A specified domain error: exit 1 with a message on stderr."""
    if r.code == 1 and r.err.startswith("error:"):
        return OK
    return wrong(f"expected exit 1 with an error message, got exit {r.code}")


# --- quiver subcommands ------------------------------------------------------

def _threads_json(ts, kind):
    return [{"arrows": list(t), "kind": kind, "length": len(t)} for t in ts]


def _dual_json(d: orc.Pres):
    return {"vertices": sorted(d.vertices),
            "arrows": [{"name": a, "source": s, "target": t} for a, s, t in sorted(d.arrows)],
            "relations": [list(r) for r in sorted(d.relations)]}


def judge_quiver(cmd, fmt, pres: orc.Pres, exp: dict, r: Result) -> Verdict:
    status = exp["status"]
    if status == "infinite_dim" or (status == "infinite_gldim" and cmd in ("threads", "gldim")):
        return exit_domain_error(r)
    bad = exit_ok(r)
    if bad:
        return bad
    js = json.loads(r.out) if fmt == "json" else None
    if cmd == "validate":
        counts = (len(pres.vertices), len(pres.arrows), len(pres.relations))
        if js is not None:
            want = {"ok": True, "violations": [], "vertices": counts[0],
                    "arrows": counts[1], "relations": counts[2]}
            return OK if js == want else wrong(f"validate json {js}")
        want = (f"{pres.name}: gentle presentation ({counts[0]} vertices, "
                f"{counts[1]} arrows, {counts[2]} relations)\n")
        return OK if r.out == want else wrong(f"validate said {r.out!r}")
    if cmd == "threads":
        kinds = (("forbidden", exp["forbidden"]), ("permitted", exp["permitted"]))
        if js is not None:
            want = {k: _threads_json(ts, k) for k, ts in kinds}
            return OK if js == want else wrong("threads json differs")
        want = "".join(f"{k} ({len(ts)}):\n" + "".join(f"  {'*'.join(t)}\n" for t in ts)
                       for k, ts in kinds)
        return OK if r.out == want else wrong("threads text differs")
    if cmd == "koszul":
        dual = exp["dual"]
        if js is not None:
            want = dict(_dual_json(dual), name=pres.name + "_dual")
            return OK if js == want else wrong("koszul json differs")
        got = orc.parse_qv(r.out)
        same = got.name == dual.name and orc.same_presentation(got, dual)
        return OK if same else wrong("koszul text differs")
    g = exp["gldim"]
    if js is not None:
        want = {"gldim": g, "method_values": {"threads": g, "integral": g, "stieltjes": g},
                "threads": {k: _threads_json(exp[k], k) for k in ("forbidden", "permitted")},
                "dual": _dual_json(exp["dual"])}
        return OK if js == want else wrong("gldim json differs")
    want = f"gl.dim = {g} (threads={g}, integral={g}, stieltjes={g})\n"
    return OK if r.out == want else wrong(f"gldim said {r.out!r}")


def corpus_op(cmd, name, fmt):
    path = os.path.join("corpus", name + ".qv")
    with open(path, encoding="utf-8") as fh:
        pres = orc.parse_qv(fh.read())
    exp = orc.expect(pres)
    argv = [cmd, path] + (["--json"] if fmt == "json" else [])
    return cli_op(cmd, argv, lambda r: judge_quiver(cmd, fmt, pres, exp, r))


# --- numeric subcommands -----------------------------------------------------

_ENC = re.compile(r"enclosure = \[(\S+), (\S+)\]  width = \S+  converged = (true|false)\n$")


def enclosure_of(r: Result, fmt="text"):
    if fmt == "json":
        js = json.loads(r.out)
        return js["lower"], js["upper"], js["converged"]
    m = _ENC.match(r.out)
    if m is None:
        raise ValueError(f"unreadable enclosure {r.out!r}")
    return float(m.group(1)), float(m.group(2)), m.group(3) == "true"


def judge_contains(ref, fmt="text", exact=False):
    def judge(r: Result) -> Verdict:
        bad = exit_ok(r)
        if bad:
            return bad
        lo, hi, conv = enclosure_of(r, fmt)
        if exact and not (lo == hi == ref):
            return wrong(f"[{lo!r}, {hi!r}] is not exactly {ref}")
        if not orc.contains(lo, hi, ref):
            return wrong(f"[{lo!r}, {hi!r}] misses {ref}")
        return Verdict(unconverged=not conv)
    return judge


def judge_value(ref, tol):
    def judge(r: Result) -> Verdict:
        return exit_ok(r) or value_verdict(float(r.out.split("=", 1)[1]), ref, tol)
    return judge


def judge_text(want):
    def judge(r: Result) -> Verdict:
        bad = exit_ok(r)
        if bad:
            return bad
        return OK if r.out == want else wrong(f"said {r.out!r}, expected {want!r}")
    return judge


def judge_json(want):
    def judge(r: Result) -> Verdict:
        bad = exit_ok(r)
        if bad:
            return bad
        return OK if json.loads(r.out) == want else wrong(f"said {r.out!r}")
    return judge


def readme_ops():
    """Every CLI example in the README, with its exact expected result."""
    ops = [corpus_op("validate", "a3_full", "text"),
           cli_op("validate", ["validate", "corpus/a3_full.qv", "--strict"],
                  judge_text("a3_full: gentle presentation (3 vertices, 2 arrows, 1 relations)\n")),
           corpus_op("threads", "branch_relation", "text"),
           corpus_op("koszul", "a4_full", "text"),
           corpus_op("gldim", "a5_full", "text"),
           cli_op("gldim", ["gldim", "corpus/square_zero.qv", "--method", "integral", "--json"],
                  judge_json({"gldim": 2, "method_values": {"integral": 2}})),
           cli_op("integrate", ["integrate", "--fn", "2*indicator(0,1)+3*indicator(1,2)",
                                "--domain", "0", "2"], judge_contains(Fraction(5), exact=True)),
           cli_op("integrate", ["integrate", "--fn", "sqrt(t)", "--domain", "0", "1",
                                "--tol", "1e-6"], judge_contains(Fraction(2, 3))),
           cli_op("integrate", ["integrate", "--fn", "1/t", "--domain", "0", "1", "--truncate"],
                  judge_contains(-orc.ln(0.0 + 1e-8))),
           cli_op("integrate", ["integrate", "--fn", "1/t", "--domain", "0", "1"],
                  exit_domain_error),
           cli_op("stieltjes", ["stieltjes", "--fn", "t", "--domain", "1", "2",
                                "--log-power", "4"], judge_value(Fraction(4), 1e-9)),
           cli_op("elemfn", ["elemfn", "--name", "K", "--tol", "1e-3"],
                  judge_contains(orc.pi() / 2)),
           cli_op("elemfn", ["elemfn", "--name", "asin", "--at", "0.5", "--json"],
                  judge_contains(orc.asin(0.5), "json")),
           cli_op("iposet-add", ["iposet-add", "--fn", "indicator(0,4)", "--first", "0", "2",
                                 "--second", "1", "3"],
                  judge_text("case = OverlapLeft\nvalue = 4.0\nset = [0.0, 3.0]\n"))]
    return ops


def _step_literal(rng):
    """Random 'k*indicator(a,b)+...' on quarter-grid endpoints, with its
    exact grid pieces (units of 1/4)."""
    cuts = sorted(rng.sample(range(0, 33), rng.randint(3, 6)))
    pieces = [(a, b, rng.randint(1, 6)) for a, b in zip(cuts, cuts[1:])]
    text = "+".join(f"{v}*indicator({a / 4!r},{b / 4!r})" for a, b, v in pieces)
    return text, pieces


def case_of(u, v, s, t):
    if s <= u and v <= t:
        return "ContainedIn"
    if u <= s and t <= v:
        return "Contains"
    if v < s:
        return "DisjointLeft"
    if t < u:
        return "DisjointRight"
    return "OverlapLeft" if (u <= s and v <= t) else "OverlapRight"


def integrate_variant(rng):
    if rng.random() < 0.5:
        text, pieces = _step_literal(rng)
        lo, hi = pieces[0][0], pieces[-1][1]
        return cli_op("integrate", ["integrate", "--fn", text, "--domain", str(lo / 4),
                                    str(hi / 4)],
                      judge_contains(orc.integral(pieces, lo, hi, grid=4), exact=True))
    c, k = rng.randint(0, 4), rng.randint(1, 4)
    lo, hi = sorted(rng.sample(range(0, 9), 2))
    ref = c * Fraction(hi - lo, 4) + k * Fraction(hi ** 3 - lo ** 3, 3 * 64)
    return cli_op("integrate", ["integrate", "--fn", f"{c} + {k}*t^2", "--domain",
                                str(lo / 4), str(hi / 4), "--tol", "1e-6"],
                  judge_contains(ref))


def stieltjes_variant(rng):
    l = rng.randint(1, 100)
    lo, hi = sorted(rng.sample(range(4, 13), 2))
    ref = Fraction(l * (hi - lo), 4)          # ∫ t d(l ln t) = l (b - a)
    return cli_op("stieltjes", ["stieltjes", "--fn", "t", "--domain", str(lo / 4),
                                str(hi / 4), "--log-power", str(l)],
                  judge_value(ref, 1e-9))


def elemfn_variant(rng):
    name = rng.choice(("asin", "acos", "sin", "cos", "ln", "exp", "K"))
    fmt = rng.choice(("text", "json"))
    x = {"asin": rng.uniform(-0.9, 0.9), "acos": rng.uniform(-0.9, 0.9),
         "sin": rng.uniform(-6, 6), "cos": rng.uniform(-6, 6),
         "ln": rng.uniform(0.1, 50), "exp": rng.uniform(-4, 4), "K": None}[name]
    ref = {"asin": orc.asin, "acos": orc.acos, "sin": orc.sin, "cos": orc.cos,
           "ln": orc.ln, "exp": orc.exp, "K": lambda _: orc.pi() / 2}[name](x)
    argv = ["elemfn", "--name", name, "--tol", "1e-6"]
    if x is not None:
        argv += ["--at", repr(x)]
    return cli_op("elemfn", argv + (["--json"] if fmt == "json" else []),
                  judge_contains(ref, fmt))


def iposet_variant(rng):
    text, pieces = _step_literal(rng)
    lo, hi = pieces[0][0], pieces[-1][1]
    u, v = sorted(rng.sample(range(lo, hi + 1), 2))
    s, t = sorted(rng.sample(range(lo, hi + 1), 2))
    value = orc.integral(pieces, u, v, grid=4) + orc.integral(pieces, s, t, grid=4)
    want = (f"case = {case_of(u, v, s, t)}\nvalue = {float(value)!r}\n"
            f"set = [{min(u, s) / 4!r}, {max(v, t) / 4!r}]\n")
    return cli_op("iposet-add", ["iposet-add", "--fn", text, "--first", str(u / 4), str(v / 4),
                                 "--second", str(s / 4), str(t / 4)], judge_text(want))


def defect_op(rng):
    """The CLI form of ``enclosures.defect_op``: the seed exits 1."""
    exact = judge_value(Fraction(int(DEFECT_L)), 1e-9)

    def judge(r: Result) -> Verdict:
        if r.code == 1 and "did not settle" in r.err:
            return failed(r.err.strip(), known="logpower_1e5")
        return exact(r)
    return cli_op("stieltjes", ["stieltjes", "--fn", "t", "--domain", "1", "2",
                                "--log-power", str(int(DEFECT_L))], judge)


def _draw(items_fn, seed_rng):
    """Draw without replacement from a fixed list, reshuffling when spent."""
    bag = []

    def make(rng):
        if not bag:
            bag.extend(items_fn())
            seed_rng.shuffle(bag)
        return bag.pop()()
    return make


class Workload:
    name = "cli_corpus"

    def __init__(self, seed: int):
        self.seed = seed
        self.classes = []
        for cmd in QUIVER_CMDS:
            for fmt in ("text", "json"):
                def items(cmd=cmd, fmt=fmt):
                    return [lambda n=n: corpus_op(cmd, n, fmt) for n in CORPUS]
                self.classes.append(OpClass(f"corpus.{cmd}.{fmt}",
                                            _draw(items, rng_for(seed, "corpus", cmd, fmt))))
        self.classes += [
            OpClass("readme", _draw(lambda: [lambda o=o: o for o in readme_ops()],
                                    rng_for(seed, "readme"))),
            OpClass("integrate", integrate_variant),
            OpClass("stieltjes", stieltjes_variant),
            OpClass("elemfn", elemfn_variant),
            OpClass("iposet-add", iposet_variant),
            OpClass("stieltjes_logpower_1e5", defect_op, defect=True),
        ]


def time_python(code: str) -> float:
    """Wall time of ``python -c CODE`` in a fresh interpreter."""
    t0 = time.perf_counter()
    status = run_child(["-c", code], capture=False)[0]
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}")
    return elapsed
