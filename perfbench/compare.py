"""Compare two sets of saved benchmark runs: the parent's and a change's.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds one file per run with that run's whole stdout
(sweep.py writes them).  For every workload and end-to-end metric it
prints each side's median and quartiles, the share of seed-paired runs
the change wins, and a verdict against the metric's bound in
BENCHMARK.json:

* ``improved``: the change wins at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's quartile spread;
* ``unresolved``: either side's quartile spread is wider than the bound,
  and not every change run beats every parent run;
* ``worse``: the change's median is worse by more than the bound;
* ``no worse``: otherwise.

It also prints each side's share of failed operations.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, trace): [(seed, result), ...]} from saved outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines()
                     if line.strip()]
        if len(lines) < 2:
            continue
        try:
            header = json.loads(lines[-2])["perfbench"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            continue
        key = (header["workload"], header["trace"])
        runs.setdefault(key, []).append((header["seed"], result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def pairs(parent, change):
    """Seed-paired values when the seeds match, else index-paired."""
    parent_by_seed = dict(parent)
    if sorted(parent_by_seed) == sorted(dict(change)):
        return [(parent_by_seed[seed], value) for seed, value in change]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    _, c_med, _ = quartiles(c_values)

    def better(a, b):
        return a < b if lower else a > b

    paired = pairs(parent, change)
    wins = sum(1 for p, c in paired if better(c, p))
    win_rate = wins / len(paired) if paired else 0.0
    worsening = (c_med - p_med) / p_med if p_med else 0.0
    if not lower:
        worsening = -worsening
    all_better = all(better(c, p) for c in c_values for p in p_values)
    if (win_rate >= 0.9 and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        word = "improved"
    elif ((spread(p_values) > bound or spread(c_values) > bound)
          and not all_better):
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    else:
        word = "no worse"
    return win_rate, worsening, word


def failed_share(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    return "%d/%d" % (failed, attempted)


def main(argv):
    parent_dir, change_dir = argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parent_runs = load_runs(parent_dir)
    change_runs = load_runs(change_dir)
    print("%-13s %-12s %-29s %-29s %5s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "worse%", "verdict"))
    worst = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        parent = parent_runs.get((workload, 0), [])
        change = change_runs.get((workload, 0), [])
        if not parent or not change:
            print("%-13s (no runs on one side)" % workload)
            worst = 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [(seed, r["metrics"][name]["value"]) for seed, r in parent]
            c = [(seed, r["metrics"][name]["value"]) for seed, r in change]
            win_rate, worsening, word = verdict(metric, p, c)
            pq = quartiles([v for _, v in p])
            cq = quartiles([v for _, v in c])
            print("%-13s %-12s %9.4g [%8.4g, %8.4g] %9.4g [%8.4g, %8.4g] "
                  "%4.0f%% %+6.1f%%  %s" % (
                      workload, name, pq[1], pq[0], pq[2], cq[1], cq[0],
                      cq[2], 100 * win_rate, 100 * worsening, word))
            if word == "worse":
                worst = 1
        print("%-13s failed operations: parent %s, change %s" % (
            workload, failed_share(parent), failed_share(change)))
    return worst
