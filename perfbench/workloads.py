"""The benchmark's three workloads: what each one runs, and at what size.

Every workload runs the simulator's *default* configuration (no
``REPRO_*`` knob is set), so a later change of default shows up as a
change of the measured numbers.  README.md says why each was chosen.
"""

import os

# Host hash seeds.  Timed and traced runs use HASH_SEED, so their
# timings and counts repeat; the suite's untimed replay runs every
# program once more under REPLAY_HASH_SEED to find simulated counters
# that depend on the host's string hashing.
HASH_SEED = 1
REPLAY_HASH_SEED = 2

# Worker processes of the suite's run_many, never more than the host's
# CPUs.
SUITE_WORKERS = 2

# (program, language, vm, n) of the one-program workloads.
JIT_STEADY = ("richards", "tinypy", "pypy", 16)
REF_INTERP = ("crypto_pyaes", "tinypy", "cpython", 5)

NAMES = ("jit-steady", "ref-interp", "suite-warmup")

# The program whose set-up (imports, guest compile, VM construction up
# to the first simulated instruction) each workload's setup_s measures.
SETUP_PROGRAM = {
    "jit-steady": JIT_STEADY,
    "ref-interp": REF_INTERP,
    "suite-warmup": ("binarytrees", "tinyrkt", "pycket", 5),
}


def suite_workers():
    return max(1, min(SUITE_WORKERS, len(os.sched_getaffinity(0))))


def suite_jobs():
    """Every TinyPy pypy-suite program and every TinyRkt program at its
    ``small_n``, each on its JIT VM, in registry order (the order the
    table and figure drivers hand to run_many)."""
    from repro.benchprogs import registry

    jobs = [(p.name, "tinypy", "pypy", p.small_n)
            for p in registry.pypy_suite()]
    jobs += [(p.name, "tinyrkt", "pycket", p.small_n)
             for p in registry.RKT_PROGRAMS]
    return jobs


def jobs_for(workload):
    """The (program, language, vm, n) jobs of one round of ``workload``.

    The benchmark's ``--seed`` does not enter here: a simulated run is a
    pure function of program and size, both fixed above, and a
    seed-drawn job order would change how the suite's jobs pack onto the
    worker pool, moving its wall time by load imbalance alone.
    """
    if workload == "jit-steady":
        return [JIT_STEADY]
    if workload == "ref-interp":
        return [REF_INTERP]
    if workload == "suite-warmup":
        return suite_jobs()
    raise KeyError(workload)
