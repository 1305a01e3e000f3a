"""Time the step-function writes on 1-D tilings and 2-D grids of growing size.

    python3 tools/stepfn_scale.py OUT.json CHECKOUT [CHECKOUT ...]

Each row is one operation at one size on one checkout, timed ``REPEAT``
times, each time in a fresh interpreter that imports ``stepquiver`` from
``CHECKOUT/src``, so no run inherits another's heap or caches.  Rows go
size by size and operation by operation; each repeat runs on every checkout
in turn, in reversed order on every other repeat, so that two checkouts are
compared under the same load.  The inputs are seeded and the same on every
checkout:

    1d n   f and g tile [0, 1] with n pieces each, breakpoints on the 2**-24
           grid, integer values 1..5 (``SIZES_1D``)
    2d k   f is the k x k grid of cells of [0, 1]^2, g the (k+1) x (k+1)
           grid, integer values 1..5 (``SIZES_2D``)

and the operations, each timed once per interpreter with ``time.perf_counter``:

    build           StepFunction(ambient, pieces of f)
    linear_combine  linear_combine(1.0, f, -2.0, g)
    linear_combine+pieces
                    the same, then reading the result's ``pieces``: a
                    function builds its boxes only on that first read
    restrict        restrict(f, [0.25, 0.75]^dim)
    locate          locate(f, x) at ``LOCATE_POINTS`` seeded points, one call
                    timed as a whole
    integrate_step  integrate_step(f, [0.25, 0.75]^dim)
    add_elements    add_elements of f on [0.1, 0.6] and g on [0.3, 0.8] (1d
                    only: integral posets are one-dimensional)
    juxtapose       juxtapose of the four entries (f, f, f, f) on the halves
                    of both axes (2d only)
    normalize_set   normalize_set(every other box of f and of g)
    measurable_set  measurable_set(the boxes of f)

A row with an interpreter that runs past ``LIMIT_S`` seconds is kept with
``"dropped": "over 60 s"`` in place of its times, and its later repeats are
skipped.  OUT.json is a JSON list of rows ``{checkout, shape, size, op,
median_s, min_s, runs, pieces_in, pieces_out, dropped}``; ``pieces_out`` is
the size of a function or set result (None for a number), which must agree
across checkouts.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES_1D = (1000, 10_000, 20_000, 100_000)
SIZES_2D = (32, 100, 200)
OPS = ("build", "linear_combine", "linear_combine+pieces", "restrict", "locate",
       "integrate_step", "add_elements", "juxtapose", "normalize_set", "measurable_set")
ONLY = {"add_elements": "1d", "juxtapose": "2d"}
LOCATE_POINTS = 1000
REPEAT = 3
LIMIT_S = 60


def inputs(sq, shape: str, size: int):
    """The ambient, f's pieces, f and g, built the same on every checkout."""
    rng = random.Random(f"{shape}-{size}")
    if shape == "1d":
        amb = sq.box1(0.0, 1.0)
        grid = 1 << 24

        def tiling():
            pts = [0] + sorted(rng.sample(range(1, grid), size - 1)) + [grid]
            return tuple((sq.box1(a / grid, b / grid), float(rng.randint(1, 5)))
                         for a, b in zip(pts, pts[1:]))
        pf, pg = tiling(), tiling()
    else:
        amb = sq.box(sq.make_interval(0.0, 1.0), sq.make_interval(0.0, 1.0))

        def lattice(k):
            return tuple((sq.box(sq.make_interval(i / k, (i + 1) / k),
                                 sq.make_interval(j / k, (j + 1) / k)), float(rng.randint(1, 5)))
                         for i in range(k) for j in range(k))
        pf, pg = lattice(size), lattice(size + 1)
    return amb, pf, sq.StepFunction(amb, pf), sq.StepFunction(amb, pg)


def child(checkout: str, shape: str, size: int, op: str) -> dict:
    """Run in a fresh interpreter: one timed call."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import stepquiver as sq

    amb, pf, f, g = inputs(sq, shape, size)
    window = sq.Box((sq.make_interval(0.25, 0.75),) * amb.dim)
    every_other = [b for b, _ in f.pieces[::2]] + [b for b, _ in g.pieces[1::2]]
    rng = random.Random(f"{shape}-{size}-points")
    points = [tuple(rng.random() for _ in range(amb.dim)) for _ in range(LOCATE_POINTS)]
    if op == "add_elements":
        e1 = sq.poset_element(f, sq.make_interval(0.1, 0.6))
        e2 = sq.poset_element(g, sq.make_interval(0.3, 0.8))
    halves = (sq.DyadicScheme(sq.make_interval(0.0, 1.0)),) * amb.dim
    calls = {  # op: (number of input pieces or boxes, the call)
        "build": (len(pf), lambda: sq.StepFunction(amb, pf)),
        "linear_combine": (len(f.pieces) + len(g.pieces),
                           lambda: sq.linear_combine(1.0, f, -2.0, g)),
        "linear_combine+pieces": (len(f.pieces) + len(g.pieces),
                                  lambda: sq.linear_combine(1.0, f, -2.0, g).pieces),
        "restrict": (len(f.pieces), lambda: sq.restrict(f, window)),
        "locate": (len(f.pieces), lambda: [sq.locate(f, x) for x in points]),
        "integrate_step": (len(f.pieces), lambda: sq.integrate_step(f, window)),
        "add_elements": (len(f.pieces) + len(g.pieces), lambda: sq.add_elements(e1, e2)),
        "juxtapose": (4 * len(f.pieces),
                      lambda: sq.juxtapose(halves, sq.FunctionTuple((f, f, f, f)))),
        "normalize_set": (len(every_other), lambda: sq.normalize_set(every_other)),
        "measurable_set": (len(f.pieces), lambda: sq.measurable_set([b for b, _ in f.pieces])),
    }
    pieces_in, call = calls[op]
    t0 = time.perf_counter()
    out = call()
    seconds = time.perf_counter() - t0
    result = getattr(out, "pieces", getattr(out, "boxes", out))
    return {"s": seconds, "pieces_in": pieces_in,
            "pieces_out": len(result) if isinstance(result, tuple) else None}


def main():
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        _, _, checkout, shape, size, op = sys.argv
        json.dump(child(checkout, shape, int(size), op), sys.stdout)
        return
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    out_path, checkouts = sys.argv[1], sys.argv[2:]
    rows = []
    ladder = [("1d", n) for n in SIZES_1D] + [("2d", k) for k in SIZES_2D]
    rows_to_run = [(s, n, op) for s, n in ladder for op in OPS if ONLY.get(op, s) == s]
    for shape, size, op in rows_to_run:
        runs = {checkout: [] for checkout in checkouts}
        for r in range(REPEAT):
            for checkout in checkouts if r % 2 == 0 else checkouts[::-1]:
                if None in runs[checkout]:
                    continue
                cmd = [sys.executable, __file__, "--child", checkout, shape, str(size), op]
                try:
                    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                          timeout=LIMIT_S)
                    runs[checkout].append(json.loads(proc.stdout))
                except subprocess.TimeoutExpired:
                    runs[checkout].append(None)
        for checkout, got in runs.items():
            times = [run["s"] for run in got if run]
            row = {"median_s": None, "min_s": None, "runs": 0, "pieces_in": None,
                   "pieces_out": None, "dropped": f"over {LIMIT_S} s"}
            if None not in got:
                row = {"median_s": round(statistics.median(times), 6),
                       "min_s": round(min(times), 6), "runs": len(times),
                       "pieces_in": got[0]["pieces_in"], "pieces_out": got[0]["pieces_out"],
                       "dropped": None}
            rows.append({"checkout": checkout, "shape": shape, "size": size, "op": op, **row})
            print(checkout, shape, size, op, row["median_s"], row["pieces_out"],
                  row["dropped"] or "", file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
