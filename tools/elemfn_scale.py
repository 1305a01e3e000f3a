"""Time sin, cos, exp and ln across their argument ranges at tight tolerances.

    python3 tools/elemfn_scale.py CHECKOUT [--label NAME] > rows.json

For each function and tolerance (``sin_cat`` on [-10, 10], ``cos_cat`` on
[-9, 11], ``exp_cat`` on [-5, 5] and ``ln_cat`` at ``y = 2^u`` for u on
[-10, 20], each at 1.5e-9 and 1.5e-12) a fresh interpreter imports
``stepquiver`` from ``CHECKOUT/src`` and calls the function at ``POINTS``
arguments spaced evenly over the range (cell midpoints, so no argument sits
on a range end; for ln the row's ``xs`` are the exponents u).  Before timing
it makes one untimed call of the row's function at the range's upper end
and the row's tolerance, which fills the quarter-period reference that
every sin and cos call shares and, for exp and ln, the one ln 2 enclosure
a process makes (``elemfn._ln2``), so the timed calls pay for neither.
Each call is timed with ``time.perf_counter`` and its integrand
evaluations are counted by wrapping ``elemfn._circle`` and
``elemfn._recip``: ``calls`` is the number of integrand calls, one per
cell-rule call, which holds one cell or the two halves of a bisection;
``points`` is the number of points they evaluated.  ``warm_points``
counts the untimed call's points: the quarter-period reference and the
ln 2 enclosure, for the functions that read them.

The output is a JSON list of rows, one per function and tolerance:
``{checkout, fn, tol, n, median_s, max_s, total_s, calls, points,
converged, warm_points, xs, seconds, points_per_x, converged_per_x}``; the
checkout is named by ``--label`` (default: its path).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RANGES = {"sin": (-10.0, 10.0), "cos": (-9.0, 11.0), "exp": (-5.0, 5.0), "ln": (-10.0, 20.0)}
TOLS = (1.5e-9, 1.5e-12)
POINTS = 21


def child(checkout: str, fn: str, tol: float) -> dict:
    """Run in a fresh interpreter: one row."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import numpy as np
    from stepquiver import elemfn

    cat = getattr(elemfn, f"{fn}_cat")

    def call(x, tol):
        return cat(2.0 ** x if fn == "ln" else x, tol)

    counts = []
    for name in ("_circle", "_recip"):
        real = getattr(elemfn, name)

        def counted(ts, real=real):
            counts.append(np.size(ts))
            return real(ts)
        setattr(elemfn, name, counted)

    lo, hi = RANGES[fn]
    call(hi, tol)
    warm_points = sum(counts)
    xs = [lo + (hi - lo) * (i + 0.5) / POINTS for i in range(POINTS)]
    seconds, evals, calls, converged = [], [], 0, []
    for x in xs:
        counts.clear()
        t0 = time.perf_counter()
        enc = call(x, tol)
        seconds.append(time.perf_counter() - t0)
        evals.append(sum(counts))
        calls += len(counts)
        converged.append(enc.converged)
    return {"fn": fn, "tol": tol, "n": POINTS,
            "median_s": round(statistics.median(seconds), 6), "max_s": round(max(seconds), 6),
            "total_s": round(sum(seconds), 6), "calls": calls, "points": sum(evals),
            "converged": sum(converged), "warm_points": warm_points,
            "xs": [round(x, 6) for x in xs],
            "seconds": [round(s, 6) for s in seconds], "points_per_x": evals,
            "converged_per_x": converged}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--label", default=None)
    ap.add_argument("--child", nargs=2, metavar=("FN", "TOL"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        fn, tol = args.child
        json.dump(child(args.checkout, fn, float(tol)), sys.stdout)
        return
    rows = []
    for fn in RANGES:
        for tol in TOLS:
            cmd = [sys.executable, __file__, args.checkout, "--child", fn, repr(tol)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            row = {"checkout": args.label or args.checkout, **json.loads(out)}
            rows.append(row)
            print(fn, tol, row["median_s"], row["max_s"], row["points"], row["converged"],
                  row["warm_points"], file=sys.stderr)
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
