"""Time the quiver subcommands end to end, one fresh process per call, on
long A_n chains, for one or more checkouts.

    python3 tools/cli_scale.py CHECKOUT [CHECKOUT ...] [--label NAME ...] \\
        [--sizes 1000 10000 100000] > rows.json

For each size n and each relation pattern (``free``: none, ``full``: every
composable pair) the canonical ``.qv`` text of the chain ``a1: 1 -> 2, ...,
an: n -> n+1`` (``tools/quiver_scale.py``) is written to a temporary file,
and each command in ``COMMANDS`` runs on it as ``python -m stepquiver.cli``
with ``CHECKOUT/src`` on ``PYTHONPATH``: from process start to exit, the
time a user waits.  Each command runs ``REPEAT`` times per checkout, the
checkouts taking turns (reversed order on odd rounds), so that a slow
spell of the machine falls on both sides.

The output is a JSON list of rows ``{checkout, n, relations, command,
median_s, min_s, runs, exit, stdout_sha256, same_stdout, peak_rss_mb}``.
``stdout_sha256`` hashes the last run's output (every run must print the
same); ``same_stdout`` says whether every checkout printed the same bytes
and exit code for that command, so one comparison of two checkouts also
checks their output is byte-identical.  ``peak_rss_mb`` is the largest
peak resident set size of the command's runs (``wait4`` rusage).  The
checkouts are named by ``--label`` (default: their paths).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from quiver_scale import chain_text

COMMANDS = (("validate",), ("threads",), ("threads", "--json"), ("koszul",), ("koszul", "--json"),
            ("gldim",), ("gldim", "--json"), ("gldim", "--method", "threads"),
            ("gldim", "--method", "stieltjes"))
SIZES = (1000, 10000, 100000)
REPEAT = 3


def run_once(checkout: str, args: list, out_path: Path):
    """One ``stepquiver`` process: wall seconds, exit code, the sha256 of
    its stdout, its peak RSS in MB and the first line of its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    cmd = [sys.executable, "-m", "stepquiver.cli", *args]
    with open(out_path, "wb") as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        first_err = err.read().decode(errors="replace").partition("\n")[0]
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    peak_mb = usage.ru_maxrss / 1024    # ru_maxrss is in KiB on Linux
    return wall, proc.returncode, digest, peak_mb, first_err


def summarise(runs: list, labels: list, n: int, relations: str, command: str) -> list:
    outcomes = {(exit_, digest) for rs in runs for _, exit_, digest, _, _ in rs}
    rows = []
    for label, rs in zip(labels, runs):
        if len({(exit_, digest) for _, exit_, digest, _, _ in rs}) != 1:
            raise SystemExit(f"{label}: {command} on {relations} n={n} printed differently "
                             "from one run to the next")
        walls = [r[0] for r in rs]
        _, exit_, digest, _, first_err = rs[-1]
        rows.append({"checkout": label, "n": n, "relations": relations, "command": command,
                     "median_s": round(statistics.median(walls), 4),
                     "min_s": round(min(walls), 4), "runs": len(rs), "exit": exit_,
                     "stdout_sha256": digest, "same_stdout": len(outcomes) == 1,
                     "peak_rss_mb": round(max(r[3] for r in rs), 1)})
        print(n, relations, f"{command:24}", label, rows[-1]["median_s"], exit_,
              rows[-1]["peak_rss_mb"], "" if len(outcomes) == 1 else "OUTPUT DIFFERS",
              first_err, file=sys.stderr)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+")
    ap.add_argument("--label", nargs="+", default=None)
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    args = ap.parse_args()
    labels = args.label or args.checkouts
    if len(labels) != len(args.checkouts):
        ap.error("give one --label per checkout")
    rows = []
    with tempfile.TemporaryDirectory(prefix="cli_scale-") as tmp:
        out_path = Path(tmp) / "stdout"
        for n in args.sizes:
            for relations in ("free", "full"):
                qv = Path(tmp) / f"chain_{n}_{relations}.qv"
                qv.write_text(chain_text(n, relations == "full"))
                for command in COMMANDS:
                    runs = [[] for _ in args.checkouts]     # the same checkout may come twice
                    sides = list(zip(args.checkouts, runs))
                    for r in range(REPEAT):
                        for c, rs in (sides if r % 2 == 0 else sides[::-1]):
                            rs.append(run_once(c, [*command, str(qv)], out_path))
                    rows += summarise(runs, labels, n, relations, " ".join(command))
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
