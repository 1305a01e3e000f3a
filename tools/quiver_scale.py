"""Time the quiver pipeline stage by stage on long A_n chains.

    python3 tools/quiver_scale.py CHECKOUT [--label NAME] [--sizes 1000 10000 100000] > rows.json

For each size n and each relation pattern (``free``: none, ``full``: every
composable pair) a fresh interpreter imports ``stepquiver`` from
``CHECKOUT/src``, writes the canonical ``.qv`` text of the chain
``a1: 1 -> 2, ..., an: n -> n+1`` and runs the pipeline ``REPEAT`` times
from that text.  Each run times the stages in order:

    parse     parse_quiver_dsl(text)
    validate  validate_gentle(doc.quiver(), doc.relations)
    forbidden, permitted   enumerate_threads of each kind
    koszul    koszul_dual
    threads, integral, stieltjes   global_dimension by each route
    emit      emit_dsl(doc)

Every run starts from the text, so no stage reuses a cache filled by an
earlier run, and the objects of the last run are collected before the
next.  A stage that raises a ``StepQuiverError`` is timed up to the raise
and its row names the error.  The output is a JSON list of rows
``{checkout, n, relations, stage, median_s, min_s, runs, raised,
peak_rss_mb}``; ``peak_rss_mb`` is the child's peak resident set size
(``getrusage(RUSAGE_SELF).ru_maxrss``) after all its runs, the same on
every row of one child.  The checkout is named by ``--label`` (default:
its path).  ``--sizes`` picks a part of the ladder, so that a comparison
of two checkouts can alternate them size by size, one call per size;
``--sizes 1000000`` runs the 10⁶-arrow chains, whose children peak at
about 1.0 GB (free) and 1.3 GB (full) on x86_64 with CPython 3.11.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STAGES = ("parse", "validate", "forbidden", "permitted", "koszul",
          "threads", "integral", "stieltjes", "emit")
SIZES = (1000, 10000, 100000)
REPEAT = 3


def chain_text(n: int, full: bool) -> str:
    lines = ["quiver chain {",
             "  vertices: " + " ".join(str(i) for i in range(1, n + 2)),
             "  arrows: " + ", ".join(f"a{i}: {i} -> {i + 1}" for i in range(1, n + 1))]
    if full:
        lines.append("  relations: " + ", ".join(f"a{i}*a{i + 1}" for i in range(1, n)))
    return "\n".join(lines + ["}"]) + "\n"


def child(checkout: str, n: int, relations: str) -> list:
    """Run in a fresh interpreter: the stage times of ``REPEAT`` runs."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from stepquiver import (StepQuiverError, emit_dsl, enumerate_threads,
                            global_dimension, koszul_dual, parse_quiver_dsl,
                            validate_gentle)

    text = chain_text(n, relations == "full")
    times = {s: [] for s in STAGES}
    raised = dict.fromkeys(STAGES)

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except StepQuiverError as exc:
            out, raised[stage] = None, type(exc).__name__
        times[stage].append(time.perf_counter() - t0)
        return out

    for _ in range(REPEAT):
        doc = timed("parse", parse_quiver_dsl, text)
        p = timed("validate", lambda: validate_gentle(doc.quiver(), doc.relations))
        for kind in ("forbidden", "permitted"):
            timed(kind, enumerate_threads, p, kind)
        timed("koszul", koszul_dual, p)
        for route in ("threads", "integral", "stieltjes"):
            timed(route, global_dimension, p, route)
        if timed("emit", emit_dsl, doc) != text:
            raise SystemExit(f"emit_dsl changed the text of the {relations} A_{n + 1} chain")
        # the last run's objects would slow the cyclic collector in this one
        doc = p = None
        gc.collect()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return [{"n": n, "relations": relations, "stage": s,
             "median_s": round(statistics.median(ts), 6), "min_s": round(min(ts), 6),
             "runs": len(ts), "raised": raised[s], "peak_rss_mb": round(peak_mb, 1)}
            for s, ts in times.items()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--label", default=None)
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--child", nargs=2, metavar=("N", "RELATIONS"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        n, relations = args.child
        json.dump(child(args.checkout, int(n), relations), sys.stdout)
        return
    rows = []
    for n in args.sizes:
        for relations in ("free", "full"):
            cmd = [sys.executable, __file__, args.checkout, "--child", str(n), relations]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for row in json.loads(out):
                rows.append({"checkout": args.label or args.checkout, **row})
                print(row["n"], relations, row["stage"], row["median_s"], row["raised"] or "",
                      row["peak_rss_mb"], file=sys.stderr)
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
