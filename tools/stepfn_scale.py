"""Time the step-function writes on 1-D tilings and 2-D grids of growing size.

    python3 tools/stepfn_scale.py OUT.json CHECKOUT [CHECKOUT ...]

Each row is one operation at one size on one checkout, run in a fresh
interpreter that imports ``stepquiver`` from ``CHECKOUT/src``.  Rows go size
by size and operation by operation, each operation running on every checkout
in turn, in reversed order on every other operation, so that two checkouts
are compared under the same load.  The inputs are seeded
and the same on every checkout:

    1d n   f and g tile [0, 1] with n pieces each, breakpoints on the 2**-24
           grid, integer values 1..5 (``SIZES_1D``)
    2d k   f is the k x k grid of cells of [0, 1]^2, g the (k+1) x (k+1)
           grid, integer values 1..5 (``SIZES_2D``)

and the operations, each timed ``REPEAT`` times with ``time.perf_counter``:

    build           StepFunction(ambient, pieces of f)
    linear_combine  linear_combine(1.0, f, -2.0, g)
    restrict        restrict(f, [0.25, 0.75]^dim)
    normalize_set   normalize_set(every other box of f and of g)
    measurable_set  measurable_set(the boxes of f)

A row whose interpreter runs past ``LIMIT_S`` seconds is killed and kept
with ``"dropped": "over 60 s"`` in place of its times.  OUT.json is a JSON
list of rows ``{checkout, shape, size, op, median_s, min_s, runs, pieces_in,
pieces_out, dropped}``; ``pieces_out`` is the size of the result, which
must agree across checkouts.
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
OPS = ("build", "linear_combine", "restrict", "normalize_set", "measurable_set")
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
    """Run in a fresh interpreter: one row."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import stepquiver as sq

    amb, pf, f, g = inputs(sq, shape, size)
    window = sq.Box((sq.make_interval(0.25, 0.75),) * amb.dim)
    every_other = [b for b, _ in f.pieces[::2]] + [b for b, _ in g.pieces[1::2]]
    calls = {  # op: (number of input pieces or boxes, the call)
        "build": (len(pf), lambda: sq.StepFunction(amb, pf)),
        "linear_combine": (len(f.pieces) + len(g.pieces),
                           lambda: sq.linear_combine(1.0, f, -2.0, g)),
        "restrict": (len(f.pieces), lambda: sq.restrict(f, window)),
        "normalize_set": (len(every_other), lambda: sq.normalize_set(every_other)),
        "measurable_set": (len(f.pieces), lambda: sq.measurable_set([b for b, _ in f.pieces])),
    }
    pieces_in, call = calls[op]
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    result = out.pieces if hasattr(out, "pieces") else out.boxes
    return {"median_s": round(statistics.median(times), 6), "min_s": round(min(times), 6),
            "runs": REPEAT, "pieces_in": pieces_in, "pieces_out": len(result), "dropped": None}


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
    for i, (shape, size, op) in enumerate((s, n, op) for s, n in ladder for op in OPS):
        for checkout in checkouts if i % 2 == 0 else checkouts[::-1]:
            cmd = [sys.executable, __file__, "--child", checkout, shape, str(size), op]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                      timeout=LIMIT_S)
                row = json.loads(proc.stdout)
            except subprocess.TimeoutExpired:
                row = {"median_s": None, "min_s": None, "runs": 0, "pieces_in": None,
                       "pieces_out": None, "dropped": f"over {LIMIT_S} s"}
            rows.append({"checkout": checkout, "shape": shape, "size": size, "op": op, **row})
            print(checkout, shape, size, op, row["median_s"], row["pieces_out"],
                  row["dropped"] or "", file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
