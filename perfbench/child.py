"""The timed part of one benchmark run, in an interpreter of its own.

run.py starts this script with a fixed host hash seed and a clean
``REPRO_*`` environment.  It runs whole rounds of the workload until
their timed walls add up to about ``--seconds``, stopping at the round
boundary nearest to it (at least one round), and
writes one JSON document to ``--out``: per round its wall seconds,
simulated instructions, (with ``--trace 1``) per-layer metrics and per
job the facts run.py checks, plus the peak resident memory.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import time

import layers
import workloads


def _record(result, language):
    """The facts of one simulated run that run.py checks."""
    windows = result.phase_windows or []
    return {
        "program": result.program,
        "language": language,
        "vm": result.vm_kind,
        "n": result.n,
        "backend": result.backend,
        "output": result.output,
        "instructions": result.instructions,
        "cycles": repr(result.cycles),
        "truncated": bool(result.truncated),
        "phase_instructions": sum(w.instructions for w in windows),
    }


def _one_round(runner, store, jobs, store_dir):
    """Run one round; return (wall seconds, records)."""
    if len(jobs) == 1:
        program, language, vm, n = jobs[0]
        start = time.perf_counter()
        result = runner.run_program(program, vm, n=n, language=language,
                                    use_cache=False)
        wall = time.perf_counter() - start
        return wall, [_record(result, language)]
    # The suite: a cold run_many from an empty private result store.
    os.environ["REPRO_STORE_DIR"] = store_dir
    store.reset_default_store()
    runner.clear_cache()
    specs = [runner.job(program, vm, n=n, language=language)
             for program, language, vm, n in jobs]
    start = time.perf_counter()
    results = runner.run_many(specs, workers=workloads.suite_workers())
    wall = time.perf_counter() - start
    records = [_record(r, job[1]) for r, job in zip(results, jobs)]
    runner.clear_cache()
    shutil.rmtree(store_dir, ignore_errors=True)
    return wall, records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tally = layers.install() if args.trace else None
    from repro.harness import runner, store

    jobs = workloads.jobs_for(args.workload)
    workers = workloads.suite_workers() if len(jobs) > 1 else 1
    rounds = []
    timed = 0.0
    while True:
        if tally is not None:
            tally.reset()
        wall, round_records = _one_round(
            runner, store, jobs,
            os.path.join(args.work, "store-%d" % len(rounds)))
        instructions = sum(r["instructions"] for r in round_records)
        entry = {"wall_s": wall, "instructions": instructions,
                 "records": round_records}
        if tally is not None:
            entry["layers"] = layers.round_metrics(
                tally.snapshot(), instructions, wall, workers)
        rounds.append(entry)
        gc.collect()
        timed += wall
        # Stop at the round boundary nearest to --seconds.
        if timed + wall / 2 >= args.seconds:
            break

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = self_kib + (workers * child_kib if workers > 1 else 0)
    with open(args.out, "w") as handle:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_kib / 1024.0},
                  handle)


if __name__ == "__main__":
    main()
