"""Benchmark of the simulator: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Run from the root of a source checkout.  A run primes the default
backend (the one-off native build, when native is the default), takes
set-up samples in fresh interpreters, runs the timed part in an
interpreter of its own under a fixed host hash seed, checks every
output apart from the simulator, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it names the workload, seeds and backend.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--compare`` reads two directories of saved run outputs (see
sweep.py) and prints compare.py's verdicts.  README.md has the details.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

# Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 8
# Whole-run budget in seconds; every child process gets what is left.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def hermetic_env(hash_seed, store_dir):
    """The simulator's default configuration: no ``REPRO_*`` knob set,
    except private store and native-cache directories."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_STORE_DIR"] = store_dir
    env["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "native")
    return env


def _descendants(pid):
    """Every live descendant of ``pid``, from the parent ids in /proc."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                stat = handle.read()
        except OSError:
            continue
        # The field after the parenthesised command is the state, then
        # the parent id.
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    found = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


class Runner(object):
    """Starts child processes and stops them, within the budget."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s
        self.live = []

    def start(self, script, args, env):
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script)] + list(args),
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.live.append(proc)
        return proc

    def finish(self, proc):
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise BenchError("%s ran out of time" % " ".join(proc.args[1:3]))
        self.live.remove(proc)
        if proc.returncode != 0:
            raise BenchError("%s exited %d:\n%s" % (
                " ".join(proc.args[1:3]), proc.returncode, err[-3000:]))
        return out

    def run(self, script, args, env):
        return self.finish(self.start(script, args, env))

    def kill(self, proc):
        """Stop ``proc`` and its descendants (worker pools, forked
        replay jobs); wait for ``proc``."""
        for pid in [proc.pid] + _descendants(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.communicate()
        self.live.remove(proc)

    def close(self):
        for proc in list(self.live):
            self.kill(proc)


def setup_sample(runner, env, program):
    """One fresh-interpreter set-up: seconds to the first instruction."""
    name, language, vm, n = program
    start = time.monotonic()
    out = runner.run("probe.py", [name, language, vm, str(n)], env)
    sample = json.loads(out.strip().splitlines()[-1])
    sample["setup_s"] = sample["first_insn"] - start
    return sample


def source_digest():
    """Digest of the interpreter version, the simulator source and the
    benchmark's own files."""
    digest = hashlib.sha1(sys.version.encode())
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".rkt")):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def hash_dependent(first, second):
    """Programs whose replayed counters differ between the two hash
    seeds (rows of replay.py: program, language, vm, n, insns, cycles)."""
    return sorted("%s/%s" % (a[0], a[2]) for a, b in zip(first, second)
                  if a != b)


def upper_quartile(values):
    """The upper quartile of a run's round walls.

    The host's speed switches between levels for seconds to minutes at a
    time (identical ref-interp rounds took from 1.07 to 1.87 s within one
    run), so a run's median depends on the mix of levels in its window.
    The upper quartile follows the slower level most rounds see: in the
    sets of ten runs measured for it, it spread 7-15% on the one-process
    workloads where the median of the same runs spread 8-23%.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def median_metrics(rows):
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def bench(args, runner, run_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    env = hermetic_env(workloads.HASH_SEED, os.path.join(run_dir, "store"))
    program = workloads.SETUP_PROGRAM[args.workload]
    # Prime: write bytecode caches and build the native runtime when it
    # is the default, so no sample below pays a one-off cost.
    prime = setup_sample(runner, env, program)
    # Half the set-up samples are taken before the timed part and half
    # after it, so their median spans the run.
    samples = [setup_sample(runner, env, program)
               for _ in range(SETUP_SAMPLES // 2)]

    timed_out = os.path.join(run_dir, "timed.json")
    runner.run("child.py", [
        "--workload", args.workload,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", run_dir, "--out", timed_out], env)
    with open(timed_out) as handle:
        timed = json.load(handle)
    rounds = timed["rounds"]
    records = [r for entry in rounds for r in entry["records"]]

    samples += [setup_sample(runner, env, program)
                for _ in range(SETUP_SAMPLES - len(samples))]

    # Untimed checks, side by side: the host references and, for the
    # suite, one replay under each of the two hash seeds.  A replay is a
    # pure function of the source, so it is made once per source digest
    # and kept.
    replays = []
    if len(rounds[0]["records"]) > 1:
        digest = source_digest()
        for name in os.listdir(WORK):
            if name.startswith("replay-") and digest not in name:
                os.unlink(os.path.join(WORK, name))
        for hash_seed in (workloads.HASH_SEED, workloads.REPLAY_HASH_SEED):
            kept = os.path.join(WORK, "replay-%s-h%d-%s.json" % (
                args.workload, hash_seed, digest))
            proc = None
            if not os.path.exists(kept):
                proc = runner.start(
                    "replay.py", [args.workload, kept + ".tmp"],
                    hermetic_env(hash_seed, os.path.join(
                        run_dir, "replay-store-%d" % hash_seed)))
            replays.append((proc, kept))
    host_outputs = json.loads(runner.run(
        "hostref.py", checks.host_requests(records), env))
    replayed = []
    for proc, kept in replays:
        if proc is not None:
            runner.finish(proc)
            os.replace(kept + ".tmp", kept)
        with open(kept) as handle:
            replayed.append(json.load(handle))
    dependent = hash_dependent(*replayed) if replayed else []

    errors = []
    for record in records:
        if "%s/%s" % (record["program"], record["vm"]) not in dependent:
            errors.extend(checks.check_record(record, host_outputs))

    if args.trace:
        metrics = median_metrics([entry["layers"] for entry in rounds])
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in samples)
        metrics["backend.load_s"] = statistics.median(
            s["load_s"] for s in samples)
        metrics["backend.build_s"] = prime["load_s"]
    else:
        wall = upper_quartile([entry["wall_s"] for entry in rounds])
        instructions = statistics.median(e["instructions"] for e in rounds)
        metrics = {
            "wall_s": wall,
            "sim_mips": instructions / wall / 1e6,
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": timed["peak_rss_mb"],
        }

    header = {"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "round_walls": [entry["wall_s"] for entry in rounds],
        "setup_samples": [s["setup_s"] for s in samples],
        "hash_seed": workloads.HASH_SEED,
        "replay_hash_seed": workloads.REPLAY_HASH_SEED,
        "backend": sorted({r["backend"] for r in records}),
        "hash_dependent": dependent, "errors": errors}}
    for error in errors:
        print("check failed: %s" % error, file=sys.stderr)
    print(json.dumps(header))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(rounds) * len(dependent),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "harness",
                                       "runner.py")):
        print("perfbench: no simulator source (src/repro) under %s" % ROOT,
              file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    runner = Runner(BUDGET_S)
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        bench(args, runner, run_dir)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
