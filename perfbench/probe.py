"""One set-up sample: a fresh interpreter up to the first simulated
instruction.

It imports ``repro``, loads the default backend's machine class (the
native runtime, when that is the default), then compiles the guest
program and builds the VM and machine through ``run_program`` with a
one-instruction limit, so the simulation stops at its first limit
check.  It prints one JSON line: ``time.monotonic()`` at that moment
(run.py subtracts the moment it started this process) and the host
seconds of the import and backend-load steps.
"""

import json
import sys
import time


def main():
    program, language, vm, n = sys.argv[1], sys.argv[2], sys.argv[3], \
        int(sys.argv[4])
    start = time.perf_counter()
    from repro.core.config import SystemConfig
    from repro.harness import runner
    imported = time.perf_counter()
    from repro import backend
    backend.machine_class(SystemConfig().sim_backend)
    loaded = time.perf_counter()
    result = runner.run_program(program, vm, n=n, language=language,
                                max_instructions=1, use_cache=False)
    first = time.monotonic()
    if not result.truncated or result.instructions < 1:
        raise SystemExit("probe did not reach the first instruction")
    print(json.dumps({"first_insn": first, "import_s": imported - start,
                      "load_s": loaded - imported}))


if __name__ == "__main__":
    main()
