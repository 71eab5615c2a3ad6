"""Correctness checks of simulated runs, made apart from the simulator.

* A TinyPy program's guest stdout must equal host CPython's stdout for
  the same source at the same ``N`` (hostref.py).
* A TinyRkt program is checked against the host run of the TinyPy port
  of the same algorithm where one exists (exactly, or to the port's
  printed precision for the float programs), otherwise against a value
  computed here.
* Every run must satisfy the method's own properties: not truncated,
  instructions > 0, and phase-window instructions summing to the
  machine total.

No check compares against stored counters.
"""

# TinyRkt programs whose TinyPy port prints the same text.
RKT_PORT_EXACT = ("fannkuch", "mandelbrot", "pidigits")
# TinyRkt programs whose TinyPy port prints its floats rounded.
RKT_PORT_NUMERIC = ("nbody", "spectralnorm")

_MOD = 1000000007


def host_requests(records):
    """The ``NAME:N`` host-CPython references the records need."""
    wanted = set()
    for record in records:
        if (record["language"] == "tinypy"
                or record["program"] in RKT_PORT_EXACT + RKT_PORT_NUMERIC):
            wanted.add("%s:%d" % (record["program"], record["n"]))
    return sorted(wanted)


def binarytrees_expected(max_depth):
    """Check sums of the CLBG binary-trees output: a perfect tree of
    depth d has 2^(d+1) - 1 nodes."""
    lines = ["stretch tree of depth %d check: %d"
             % (max_depth + 1, 2 ** (max_depth + 2) - 1)]
    for depth in range(4, max_depth + 1, 2):
        iterations = 2 ** (max_depth - depth + 4)
        lines.append("%d trees of depth %d check: %d"
                     % (iterations, depth, iterations * (2 ** (depth + 1) - 1)))
    lines.append("long lived tree of depth %d check: %d"
                 % (max_depth, 2 ** (max_depth + 1) - 1))
    return "\n".join(lines) + "\n"


def _checksum(text, checksum):
    for char in text:
        checksum = (checksum * 31 + ord(char)) % _MOD
    return checksum


def fasta_expected(n):
    """Host port of the TinyRkt fasta checksums."""
    alu = ("GGCCGGGCGCGGTGGCTCACGCCTGTAATCCCAGCACTTTGG"
           "GAGGCCGAGGCGGGCGGATCACCTGAGGTCAGGAGTTCGAGA"
           "CCAGCCTGGCCAACATGGTGAAACCCCGTCTCTACTAAAAAT")
    codes = "acgtBDHKMNRSVWY"
    buffer = alu + alu
    written = pos = repeat = 0
    while written < 2 * n:
        line_len = min(60, 2 * n - written)
        repeat = _checksum(buffer[pos:pos + line_len], repeat)
        pos += line_len
        if pos >= len(alu):
            pos -= len(alu)
        written += line_len
    seed = 42
    random_sum = 0
    for _ in range(3 * n):
        seed = (seed * 3877 + 29573) % 139968
        r = float(seed) / 139968.0
        i, acc = 0, 0.27
        while not (i >= 14 or r < acc):
            acc += 0.12 if i < 3 else 0.02
            i += 1
        random_sum = (random_sum * 31 + ord(codes[i])) % _MOD
    return "fasta %d %d\n" % (repeat, random_sum)


def _numeric_match(guest, port):
    """Same words, and each number equal to the port's last printed
    decimal."""
    guest_lines = guest.splitlines()
    port_lines = port.splitlines()
    if len(guest_lines) != len(port_lines):
        return False
    for guest_line, port_line in zip(guest_lines, port_lines):
        guest_words = guest_line.split()
        port_words = port_line.split()
        if len(guest_words) != len(port_words):
            return False
        for g, p in zip(guest_words, port_words):
            if g == p:
                continue
            try:
                decimals = len(p.split(".", 1)[1]) if "." in p else 0
                if abs(float(g) - float(p)) > 10.0 ** -decimals:
                    return False
            except ValueError:
                return False
    return True


def check_output(record, host_outputs):
    """None when the record's stdout is right, else why it is not."""
    name = record["program"]
    key = "%s:%d" % (name, record["n"])
    output = record["output"]
    if record["language"] == "tinypy" or name in RKT_PORT_EXACT:
        expected = host_outputs[key]
        if output != expected:
            return "stdout %r != host %r" % (output[:200], expected[:200])
        return None
    if name in RKT_PORT_NUMERIC:
        if not _numeric_match(output, host_outputs[key]):
            return "stdout %r does not match port %r" % (
                output[:200], host_outputs[key][:200])
        return None
    if name == "binarytrees":
        expected = binarytrees_expected(record["n"])
    elif name == "fasta":
        expected = fasta_expected(record["n"])
    else:
        return "no independent check for TinyRkt program %s" % name
    if output != expected:
        return "stdout %r != expected %r" % (output[:200], expected[:200])
    return None


def check_properties(record):
    """None when the run satisfies the method's properties."""
    if record["truncated"]:
        return "truncated"
    if record["instructions"] <= 0:
        return "no instructions retired"
    if record["phase_instructions"] != record["instructions"]:
        return "phase windows sum to %d, machine total %d" % (
            record["phase_instructions"], record["instructions"])
    return None


def check_record(record, host_outputs):
    """All failures of one record, as strings."""
    errors = []
    for problem in (check_properties(record),
                    check_output(record, host_outputs)):
        if problem is not None:
            errors.append("%s/%s n=%d: %s" % (
                record["program"], record["vm"], record["n"], problem))
    return errors
