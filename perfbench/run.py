"""stepquiver benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing is installed, the package is
imported from ``src``.  ``--trace 0`` measures the end-to-end metrics with
tracing off.  ``--trace 1`` gives the per-layer table: an untraced and a
traced pass of the workload (half the time each, so the tracing overhead
shows), then one traced op of every class of every workload.  Either way
a table goes to stdout, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 8
WORKER_TIMEOUT_S = 170


def declared_units() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and of the per-layer metrics, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def start_times(code: str, reps: int) -> list:
    """Wall times of ``python -c CODE``, each scaled for machine speed as the
    worker scales an op's time (``worker.calibration_s``)."""
    from perfbench.worker import CAL_REF_S, calibration_s
    from perfbench.workloads.cli_corpus import time_python
    out = []
    cal = calibration_s()
    for _ in range(reps):
        t = time_python(code)
        after = calibration_s()
        out.append(t * CAL_REF_S / ((cal + after) / 2))
        cal = after
    return out


def run_worker(workload, seed, seconds, *flags) -> dict:
    from perfbench.workloads.cli_corpus import env
    e = env()
    e["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=e, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(names, traced: dict, untraced: dict, interp: list, imported: list) -> dict:
    from perfbench import metrics as M
    by_key: dict = {}
    for name, cls, self_s in traced["spans"]:
        for key in {(name, cls), (name, None)}:     # per class and over all classes
            by_key.setdefault(key, []).append(self_s)
    counts = traced["counts"]
    p50 = {k: statistics.median(v) for k, v in by_key.items()}
    values = {}
    for name in names:
        if name.endswith(".p50_s"):
            parts = name[:-len(".p50_s")].split(".")
            cls = parts[-1] if parts[-1] in M.CLASSES else None
            span = ".".join(parts[:-1] if cls else parts)
            values[name] = p50[(span, cls)]
    for name, (span, lo, hi) in M.GROWTH.items():
        values[name] = (math.log(p50[(span, f"n{hi}")] / p50[(span, f"n{lo}")])
                        / math.log(hi / lo))
    for name in M.COUNTS:
        values[name] = counts[name]
    wot = counts["width_over_tol"]
    values["integrate.width_over_tol.gmean"] = math.exp(
        sum(math.log(x) for x in wot) / len(wot))
    values["cli.interpreter_s"] = statistics.median(interp)
    values["cli.import_s"] = statistics.median(imported) - statistics.median(interp)
    # mean scaled op time of the traced pass over that of the untraced one
    # (same seed, so the same ops); the p50 of a half-length pass is too noisy
    values["trace.overhead_frac"] = ((traced["scaled_s"] / traced["attempted"])
                                     / (untraced["scaled_s"] / untraced["attempted"]) - 1.0)
    n = untraced["attempted"]
    values["e2e.failed_frac"] = untraced["failed"] / n
    values["e2e.wrong_frac"] = untraced["wrong"] / n
    values["e2e.unconverged_frac"] = untraced["unconverged"] / n
    values["e2e.cache_repeat_frac"] = untraced["repeat"] / n
    values["e2e.latency_p50_s"] = untraced["latency_p50_s"]
    values["e2e.latency_p90_s"] = untraced["latency_p90_s"]
    values["e2e.latency_samples"] = n
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.common import KNOWN_DEFECTS
    # set-up is timed before and after the workload, so a run samples the
    # machine at two moments
    imported = start_times("import stepquiver", SETUP_REPS // 2)
    if not trace:
        res = run_worker(name, seed, seconds)
        imported += start_times("import stepquiver", SETUP_REPS - SETUP_REPS // 2)
        values = {"setup_s": statistics.median(imported),
                  "op_latency_ms": 1e3 * res["op_latency_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = declared_units()[0]
        samples = {"setup_s": len(imported),
                   "op_latency_ms": f"{res['class_samples']} per class", "peak_rss_mb": 1}
        print_also = {k: res[k] for k in ("latency_p50_s", "latency_p90_s")}
        unexpected = res["unexpected"]
        passes = [res]
    else:
        interp = start_times("pass", SETUP_REPS)
        untraced = run_worker(name, seed, seconds / 2)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        traced = run_worker(name, seed, seconds / 2, "--trace",
                            str(out_dir / f"spans-{name}-{seed}.jsonl"))
        imported += start_times("import stepquiver", SETUP_REPS - SETUP_REPS // 2)
        units = declared_units()[1]
        values = layer_metrics(units, traced, untraced, interp, imported)
        samples, print_also = {}, {}
        unexpected = (untraced["unexpected"] + traced["unexpected"]
                      + traced["coverage_unexpected"])
        res = untraced
        passes = [untraced, traced]
    if set(units) != set(values):
        raise RuntimeError("metrics BENCHMARK.json declares but the run did not produce: "
                           f"{sorted(set(units) - set(values))}; produced but not declared: "
                           f"{sorted(set(values) - set(units))}")

    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    for key in units:
        extra = f"  (n={samples[key]})" if key in samples else ""
        print(f"  {key:44s} {values[key]!r:>24} {units[key]}{extra}")
    for key, v in print_also.items():
        print(f"  {key:44s} {v!r:>24} s  (n={res['attempted']}, failed ops count as inf)")
    n = res["attempted"]
    print(f"  ops attempted {n}, failed {res['failed']}, wrong {res['wrong']}, "
          f"unconverged {res['unconverged']}, repeat a cache key {res['repeat']}")
    for p in passes:
        for family, count in sorted(p["known_defects"].items()):
            print(f"  known seed defect {family}: {count} op(s); {KNOWN_DEFECTS[family]}")
    for line in unexpected:
        print(f"  UNEXPECTED {line}")
    return {"correct": not unexpected, "attempted": n, "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stepquiver" / "__init__.py").is_file() or \
            not (ROOT / "corpus").is_dir():
        sys.stderr.write(f"perfbench: no stepquiver sources under {ROOT}; "
                         "run from the root of a checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.selftest import selftest
    from perfbench.worker import WORKLOADS
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        ap.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    selftest()
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
