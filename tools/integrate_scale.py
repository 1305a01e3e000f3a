"""Time the integrate layer's enclosures at three tolerances.

    python3 tools/integrate_scale.py CHECKOUT [--label NAME] > rows.json

For each call and tolerance (1.5e-6, 1.5e-9 and 1.5e-12) a fresh
interpreter imports ``stepquiver`` from ``CHECKOUT/src`` and times one
call ``REPEATS`` times with ``time.perf_counter``.  The calls are those the
``enclosures`` workload of perfbench makes:

* ``integrate_enclosure`` on its three Darboux integrands, parsed by
  ``parse_fn_expr``: a cubic with coefficients adding up to 4 on [0, 1],
  ``1/(1 + t)`` and ``3*sqrt(t)`` on [0, 2], with no declared pieces;
* ``convex_enclosure`` of ``1/t`` on [0.5, 8];
* ``stieltjes_integrate`` of ``2*t`` against the identity measure on
  [0, 1], which adds a Darboux cross-check of the density to its midpoint
  sums.

The integrand is wrapped in a counter, so each row records the integrand
calls (``calls``) and the points they evaluated (``points``) of one call;
every repeat makes the same calls.  The output is a JSON list of rows,
one per call and tolerance: ``{checkout, call, tol, repeats, median_s,
min_s, calls, points, converged, lower, upper}``; a Stieltjes row has
``converged`` null and its value as both bounds.  The checkout is named by
``--label`` (default: its path).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALLS = {
    "darboux_poly": ("darboux", "0.5 + 1.0*t^1 + 1.5*t^2 + 1.5*t^3", (0.0, 1.0)),
    "darboux_recip": ("darboux", "1/(1 + t)", (0.0, 2.0)),
    "darboux_sqrt": ("darboux", "3*sqrt(t)", (0.0, 2.0)),
    "convex_recip": ("convex", None, (0.5, 8.0)),
    "stieltjes_identity": ("stieltjes", "2*t", (0.0, 1.0)),
}
TOLS = (1.5e-6, 1.5e-9, 1.5e-12)
REPEATS = 5


def child(checkout: str, name: str, tol: float) -> dict:
    """Run in a fresh interpreter: one row."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import numpy as np
    from stepquiver import (convex_enclosure, identity_measure, integrate_enclosure,
                            parse_fn_expr, stieltjes_integrate)

    kind, text, domain = CALLS[name]
    g = parse_fn_expr(text) if text else (lambda t: 1.0 / t)
    sizes = []

    def f(xs):
        sizes.append(np.size(xs))
        return g(xs)

    def call():
        if kind == "darboux":
            return integrate_enclosure(f, domain, None, tol)
        if kind == "convex":
            return convex_enclosure(f, domain, tol)
        return stieltjes_integrate(f, identity_measure(), domain, tol)

    seconds = []
    for _ in range(REPEATS):
        sizes.clear()
        t0 = time.perf_counter()
        out = call()
        seconds.append(time.perf_counter() - t0)
    enc = out if kind != "stieltjes" else None
    return {"call": name, "tol": tol, "repeats": REPEATS,
            "median_s": round(statistics.median(seconds), 6), "min_s": round(min(seconds), 6),
            "calls": len(sizes), "points": int(sum(sizes)),
            "converged": enc.converged if enc else None,
            "lower": enc.lower if enc else out, "upper": enc.upper if enc else out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--label", default=None)
    ap.add_argument("--child", nargs=2, metavar=("CALL", "TOL"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        name, tol = args.child
        json.dump(child(args.checkout, name, float(tol)), sys.stdout)
        return
    rows = []
    for name in CALLS:
        for tol in TOLS:
            cmd = [sys.executable, __file__, args.checkout, "--child", name, repr(tol)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            row = {"checkout": args.label or args.checkout, **json.loads(out)}
            rows.append(row)
            print(name, tol, row["median_s"], row["calls"], row["points"], row["converged"],
                  file=sys.stderr)
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
