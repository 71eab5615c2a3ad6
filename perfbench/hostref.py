"""Reference outputs from host CPython, made apart from the simulator.

TinyPy programs are valid host Python, so host CPython running the same
source at the same ``N`` gives the stdout a correct guest run must
print.  Usage: ``hostref.py NAME:N [NAME:N ...]``; prints one JSON object
mapping each ``NAME:N`` to its stdout.  Only the registry's source-text
reader is used from ``repro``; no simulator code runs.
"""

import contextlib
import io
import json
import sys


def host_stdout(source, name):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(compile(source, name, "exec"), {"__name__": "__main__"})
    return buffer.getvalue()


def main():
    from repro.benchprogs import registry

    outputs = {}
    for item in sys.argv[1:]:
        name, n = item.rsplit(":", 1)
        program = registry.py_program(name)
        outputs[item] = host_stdout(program.source(n=int(n)),
                                    program.filename)
    print(json.dumps(outputs))


if __name__ == "__main__":
    main()
