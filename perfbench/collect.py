"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10]
                                 [--trace-seed N]
                                 [--baseline perfbench/baseline.json]

Runs ``run.py`` once per workload and seed for ``run_seconds``, one run at
a time, and prints per end-to-end metric the median, the quartiles, and
their distance as a share of the median, next to a third of the metric's
bound in ``BENCHMARK.json``.  ``--trace-seed`` adds one traced run per workload.
``--baseline`` writes every run's figures and the summaries to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, stamp


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}"
                           f"\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    report = {"stamp": stamp(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0)
                for seed in args.seeds]
        entry = {"runs": runs, "summary": {}}
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(not r['correct'] for r in runs)} incorrect")
        for name, bound in bounds.items():
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = summary
            ok = name == "setup_s" or summary["spread"] < bound / 3
            steady &= ok
            print(f"  {name:<12} median {summary['median']:<10.4g} "
                  f"q1 {summary['q1']:<10.4g} q3 {summary['q3']:<10.4g} "
                  f"spread {summary['spread']:.3f} "
                  f"(bound/3 {bound / 3:.3f}){'' if ok else '  UNSTEADY'}")
        if args.trace_seed is not None:
            entry["trace"] = run_once(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
