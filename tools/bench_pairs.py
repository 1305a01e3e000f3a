"""Run perfbench on two checkouts in alternating pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json \\
        --pairs enclosures=1301-1310 --pairs cli_corpus=1311-1313 \\
        [--trace enclosures=1321] [--seconds 15] [--label "what changed"]

Each checkout is first copied into a fresh temporary directory (without
``.git`` and caches), and every run uses that copy, so a long-lived
checkout's warm files cannot favour one side; the copies are removed at the
end.  Each ``--pairs WORKLOAD=FIRST-LAST`` runs ``perfbench/run.py`` once
per seed on each side, one run at a time, the parent first on even pair
indices and the change first on odd ones.  Giving the same checkout twice
is an A/A control.  Per side and end-to-end metric the file
holds the median, the quartiles (numpy linear percentiles 25 / 75),
``spread_frac = (q3 - q1) / median`` and the raw runs, with failed, wrong
and unconverged counts; ``change_wins`` counts pairs where the change read
lower.  ``--trace`` adds one ``--trace 1`` run per side with every metric.
"""

import argparse
import json
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

E2E = ("setup_s", "op_latency_ms", "peak_rss_mb")
COUNTS = re.compile(r"ops attempted (\d+), failed (\d+), wrong (\d+), unconverged (\d+)")


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    res["wrong"], res["unconverged"] = map(int, COUNTS.search(out).groups()[2:])
    return res


def side_summary(runs):
    out = {}
    for m in E2E:
        xs = [r["metrics"][m]["value"] for r in runs]
        q1, med, q3 = np.percentile(xs, [25, 50, 75])
        out[m] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                  "spread_frac": round((q3 - q1) / med, 4)}
    out["runs"] = {m: [round(r["metrics"][m]["value"], 4) for r in runs] for m in E2E}
    for key in ("failed", "attempted", "wrong", "unconverged"):
        out[f"{key}_runs"] = [r[key] for r in runs]
    out["failed_share"] = round(sum(out["failed_runs"]) / sum(out["attempted_runs"]), 4)
    out["correct_runs"] = [r["correct"] for r in runs]
    out["correct_all"] = all(out["correct_runs"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=FIRST-LAST")
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD=SEED")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {}
        for side in ("parent", "change"):
            roots[side] = Path(tmp) / side
            shutil.copytree(getattr(args, side), roots[side], ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        doc = bench(args, roots)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def bench(args, roots) -> dict:
    doc = {"change": args.label,
           "host": f"{platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}",
           "method": "tools/bench_pairs.py: perfbench/run.py from the root of a fresh copy "
                     f"of each checkout, --seconds {args.seconds:g} --trace 0, one run at a "
                     "time; the parent runs first on even pair indices",
           "workloads": {}, "trace": {}}
    for spec in args.pairs:
        workload, span = spec.split("=")
        first, last = map(int, span.split("-"))
        seeds = list(range(first, last + 1))
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run(roots[side], workload, seed, args.seconds, 0))
                print(workload, seed, side, runs[side][-1]["correct"],
                      runs[side][-1]["metrics"]["op_latency_ms"]["value"], file=sys.stderr)
        wins = {m: sum(c["metrics"][m]["value"] < p["metrics"][m]["value"]
                       for p, c in zip(runs["parent"], runs["change"])) for m in E2E}
        doc["workloads"][workload] = {
            "seeds": seeds, "pairs": len(seeds),
            "sides": {side: side_summary(rs) for side, rs in runs.items()},
            "change_wins": {m: f"{w}/{len(seeds)}" for m, w in wins.items()}}
    for spec in args.trace:
        workload, seed = spec.split("=")
        entry = {"seed": int(seed)}
        for side in ("parent", "change"):
            r = run(roots[side], workload, int(seed), args.seconds, 1)
            entry[side] = {"correct": r["correct"], "attempted": r["attempted"],
                           "failed": r["failed"], "wrong": r["wrong"],
                           **{k: v["value"] for k, v in r["metrics"].items()}}
        doc["trace"][workload] = entry
    return doc


if __name__ == "__main__":
    main()
