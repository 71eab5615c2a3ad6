"""Untimed replay for the hash-seed independence check.

Runs every job of a workload once, each in a process forked from this
one before any simulation ran, so no job sees state a previous job left
in the process.  run.py starts two of these side by side, under two
fixed host hash seeds, and counts a program whose instructions or
cycles differ between them as failed.  Usage:
``replay.py WORKLOAD OUT``; writes ``[[program, language, vm, n,
instructions, cycles], ...]`` as JSON to ``OUT``.
"""

import json
import multiprocessing
import sys

import workloads


def _simulate(conn, job):
    from repro.harness import runner

    program, language, vm, n = job
    result = runner.run_program(program, vm, n=n, language=language,
                                use_cache=False)
    conn.send([result.instructions, repr(result.cycles)])
    conn.close()


def main():
    workload, out = sys.argv[1], sys.argv[2]
    # Import before forking, so each job starts from the same clean,
    # already-imported interpreter.
    from repro.harness import runner  # noqa: F401

    context = multiprocessing.get_context("fork")
    rows = []
    for job in sorted(workloads.jobs_for(workload)):
        receive, send = context.Pipe(duplex=False)
        proc = context.Process(target=_simulate, args=(send, job))
        proc.start()
        send.close()
        try:
            rows.append(list(job) + receive.recv())
        except EOFError:
            raise SystemExit("replay of %s/%s died" % (job[0], job[2]))
        finally:
            proc.join()
    with open(out, "w") as handle:
        json.dump(rows, handle)


if __name__ == "__main__":
    main()
