"""One pass of one workload in a fresh interpreter.

    python -m perfbench.worker --workload NAME --seed N --seconds S [--trace SPANS]

Runs the workload's decks closed-loop (one op at a time) until the time
is up and an odd number of decks is complete, checks every result, and
prints one JSON object as its last line.  ``--trace`` records spans around every
package call, then runs one op of every class of every workload, so the
per-layer table is complete whatever the workload, and writes the spans
to SPANS.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

from .common import coverage, decks
from .tracer import Calls
from .workloads import cli_corpus, enclosures, quiver_gldim, stepfn_algebra

WORKLOADS = {m.Workload.name: m.Workload
             for m in (cli_corpus, stepfn_algebra, quiver_gldim, enclosures)}

# On a shared host the machine's speed drifts by 10-20 % within seconds, in
# CPU time as in wall time.  A fixed piece of interpreter work is timed
# between consecutive ops; an op's time, times CAL_REF_S over the mean of
# the two calibration times beside it, is its time on a machine where that
# work takes CAL_REF_S, and the drift cancels out.
CAL_REF_S = 0.004


def calibration_s() -> float:
    """Wall time of a fixed mix of dict, tuple, list and sort traffic."""
    t0 = time.perf_counter()
    d: dict = {}
    acc = []
    for i in range(5_000):
        key = (i % 101, "k")
        d[key] = d.get(key, 0.0) + i * 0.5
        acc.append(sorted((i % 13, i % 7, i % 5))[1])
    return time.perf_counter() - t0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; a failed op is +inf and sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(op, calls, records, seen_keys, op_class=None):
    calls.op_id += 1                   # spans of one op share this id
    t0 = time.perf_counter()
    try:
        outcome = ("ok", op.run(calls))
    except Exception as exc:           # judged below; only the checker decides
        outcome = ("raised", exc)
    latency = time.perf_counter() - t0
    verdict = op.check(outcome)
    repeat = any(k in seen_keys for k in op.cache_keys)
    seen_keys.update(op.cache_keys)
    records.append({"kind": op.kind, "cls": op.cls,
                    "class": op_class and op_class.name,
                    "defect_class": bool(op_class and op_class.defect),
                    "latency": math.inf if verdict.failed else latency, "busy": latency,
                    "scaled": None,
                    "failed": verdict.failed, "wrong": verdict.wrong,
                    "unconverged": verdict.unconverged, "known": verdict.known,
                    "repeat": repeat, "detail": verdict.detail, "meta": op.meta})
    return records[-1]


def summarize(records) -> dict:
    unknown = [r for r in records if (r["failed"] or r["wrong"]) and not r["known"]]
    known: dict = {}
    for r in records:
        if (r["failed"] or r["wrong"]) and r["known"]:
            known[r["known"]] = known.get(r["known"], 0) + 1
    # op_latency_s: the mean over classes of each class's median scaled op
    # time, the known-defect classes left out (their ops fail fast at the
    # seed, so fixing one must not read as a slowdown)
    by_class: dict = {}
    for r in records:
        if r["class"] and not r["defect_class"]:
            by_class.setdefault(r["class"], []).append(r["scaled"])
    latencies = [r["latency"] for r in records]
    return {
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "wrong": sum(r["wrong"] for r in records),
        "unconverged": sum(r["unconverged"] for r in records),
        "repeat": sum(r["repeat"] for r in records),
        "scaled_s": sum(r["scaled"] or 0.0 for r in records),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "op_latency_s": (statistics.fmean(statistics.median(v) for v in by_class.values())
                         if by_class else math.nan),
        "class_samples": min((len(v) for v in by_class.values()), default=0),
        "known_defects": known,
        "unexpected": [f"{r['kind']}[{r['cls']}]: {r['detail']}" for r in unknown][:20],
    }


def coverage_counts(records) -> dict:
    out = {"stepfn.pieces_out": 0, "quiver.threads_out": 0, "integrate.evals": 0,
           "integrate.misses": 0, "width_over_tol": []}
    for r in records:
        meta = r["meta"]
        for k, v in meta.get("counts", {}).items():
            out[k] += v
        if r["kind"].startswith("integrate."):
            out["integrate.evals"] += meta.get("evals", 0)
            out["integrate.misses"] += meta.get("miss", 0)
            if meta.get("width_over_tol", 0) > 0:
                out["width_over_tol"].append(meta["width_over_tol"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", metavar="SPANS", default=None)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    calls = Calls(args.trace is not None)
    records: list = []
    seen: set = set()
    # an odd number of whole decks: every class has as many ops below the
    # middle of its range as above (``common.midpoint``), so its median op
    # sits at the middle however many decks fit in the run
    deck = len(workload.classes)
    deadline = time.perf_counter() + args.seconds
    cal = calibration_s()
    for op_class, op in decks(workload.classes, args.seed, workload.name):
        if time.perf_counter() >= deadline and len(records) % (2 * deck) == deck:
            break
        rec = run_op(op, calls, records, seen, op_class)
        after = calibration_s()
        rec["scaled"] = rec["busy"] * CAL_REF_S / ((cal + after) / 2)
        cal = after
    result = summarize(records)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_corpus" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if args.trace is not None:
        cov: list = []
        for name, cls in WORKLOADS.items():
            wl = workload if name == args.workload else cls(args.seed)
            for op in coverage(wl.classes, args.seed):
                run_op(op, calls, cov, set())
        result["coverage_unexpected"] = summarize(cov)["unexpected"]
        result["counts"] = coverage_counts(cov)
        result["spans"] = [list(s) for s in calls.self_times()]
        calls.write(args.trace)
    sys.stdout.write(json.dumps(result, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
