"""Run the benchmark over several seeds and save every run's output.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
                               [--trace 0|1]

Runs ``perfbench/run.py`` once per workload and seed (seeds outermost,
so load drift touches every workload alike) with BENCHMARK.json's
``run_seconds``, writes each run's stdout to ``DIR/<workload>-s<seed>-
t<trace>.out``, then prints per workload and metric the median, the
quartile spread as a share of the median, and the bound.  Compare two
such directories with ``run.py --compare``.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for seed in seed_list(args.seeds):
        for workload in args.workloads.split(","):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            name = "%s-s%d-t%d.out" % (workload, seed, args.trace)
            with open(os.path.join(args.out, name), "w") as handle:
                handle.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else (
                "exit %d: %s" % (proc.returncode, proc.stderr[-500:]))
            print("%s seed %d: %s" % (workload, seed, status), flush=True)

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    runs = compare.load_runs(args.out)
    for workload in args.workloads.split(","):
        results = [r for _, r in runs.get((workload, args.trace), [])]
        if not results:
            continue
        print("%s: %d runs, failed %s" % (
            workload, len(results), compare.failed_share(
                [(None, r) for r in results])))
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results]
            q1, median, q3 = compare.quartiles(values)
            bound = metric.get("bound")
            print("  %-34s median %-12.6g spread %6.2f%%%s" % (
                metric["name"], median,
                100 * compare.spread(values),
                "  bound %g%%" % (100 * bound) if bound else ""))


if __name__ == "__main__":
    main()
