"""Per-layer host-time tracing, installed from outside the simulator.

:func:`install` wraps the public entry points of each simulator layer
(the machine, the pintool listeners, the trace executor, the JIT
driver, AOT calls, the guest interpreters and compilers, the simulated
GC and the harness store) in spans recorded into one :class:`Tally`.
Nothing under ``src/`` changes: the wrappers replace class attributes
and module globals of the already-imported modules before any VM is
built, so the bound methods the VMs and the generated trace code cache
at construction time are the wrapped ones.

A span counts one *entry* when a call enters its layer from another
layer; a call that stays inside the layer (the machine's ``annot_run``
calling ``annot``) passes straight through.  A span's self time is its
duration minus the time of the spans opened inside it.  ``run_many``
workers record into their own forked copy of the tally and ship it back
inside the job payload, where the parent merges it.
"""

import functools
import pickle
import sys
import time
import types

# Payload key under which a run_many worker ships its tally back.
_PAYLOAD_KEY = "__perfbench_tally__"

# Machine methods that configure or read the machine rather than
# simulate: not counted as calls into the layer.
_MACHINE_SKIP = frozenset({
    "add_annot_listener", "remove_annot_listener", "add_tag_listener",
    "remove_tag_listener", "reset", "counters", "respecialize",
})


class Tally(object):
    """Span self times, layer entries and event counts of one process."""

    def __init__(self):
        self.self_ns = {}
        self.incl_ns = {}
        self.entries = {}
        self.counts = {}
        # Stacks of the open spans' names and of their children's time.
        self.open = [None]
        self.child = [0]

    def reset(self):
        for table in (self.self_ns, self.incl_ns, self.entries,
                      self.counts):
            table.clear()
        del self.open[1:]
        del self.child[1:]
        self.child[0] = 0

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self):
        return {"self_ns": dict(self.self_ns), "incl_ns": dict(self.incl_ns),
                "entries": dict(self.entries), "counts": dict(self.counts)}

    def merge(self, snap):
        for field in ("self_ns", "incl_ns", "entries", "counts"):
            table = getattr(self, field)
            for name, value in snap[field].items():
                table[name] = table.get(name, 0) + value


def span(tally, name, fn):
    """Wrap ``fn`` in a span of layer ``name``."""
    opened = tally.open
    child = tally.child
    self_ns = tally.self_ns
    incl_ns = tally.incl_ns
    entries = tally.entries
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if opened[-1] == name:
            return fn(*args, **kwargs)
        entries[name] = entries.get(name, 0) + 1
        opened.append(name)
        child.append(0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            opened.pop()
            inner = child.pop()
            self_ns[name] = self_ns.get(name, 0) + duration - inner
            incl_ns[name] = incl_ns.get(name, 0) + duration
            child[-1] += duration

    return wrapper


def counted(tally, name, fn):
    """Wrap ``fn`` so each call that returns adds one to count ``name``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tally.count(name)
        return result

    return wrapper


def _patch_method(cls, name, wrap):
    setattr(cls, name, wrap(vars(cls)[name]))


def _patch_function(module, name, wrap):
    """Replace ``module.name`` in every repro module that bound it."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, name, None) is original):
            setattr(mod, name, wrapped)
    return original


def _wrap_machine(tally, machine_cls):
    """Count and time every simulating method of the machine class, and
    the per-instance kernels the compiled backends install."""
    for klass in machine_cls.__mro__:
        for name, attr in list(vars(klass).items()):
            if (not name.startswith("_") and name not in _MACHINE_SKIP
                    and isinstance(attr, types.FunctionType)):
                setattr(klass, name, span(tally, "uarch", attr))

    def wrap_instance_kernels(specialize):
        @functools.wraps(specialize)
        def wrapper(self, *args, **kwargs):
            result = specialize(self, *args, **kwargs)
            for klass in type(self).__mro__:
                for name in vars(klass).get("__slots__", ()):
                    if name.startswith("_") or name in _MACHINE_SKIP:
                        continue
                    kernel = getattr(self, name, None)
                    if callable(kernel) and not hasattr(kernel,
                                                        "__wrapped__"):
                        setattr(self, name, span(tally, "uarch", kernel))
            return result

        return wrapper

    for klass in machine_cls.__mro__:
        for hook in ("respecialize", "_specialize"):
            if hook in vars(klass):
                _patch_method(klass, hook, wrap_instance_kernels)


def install():
    """Wrap every layer's entry points; return the process's Tally."""
    from repro import backend
    from repro.core.config import SystemConfig
    from repro.gc.heap import SimGC
    from repro.harness import runner, store
    from repro.interp.aot import AotFunction
    from repro.interp.jitdriver import JitDriver
    from repro.jit import executor, optimizer
    from repro.jit.tracer import MetaTracer
    from repro.pintool.aotcalls import AotCallProfiler
    from repro.pintool.bcrate import BytecodeRateTracker
    from repro.pintool.irprofile import IrNodeProfiler
    from repro.pintool.phases import PhaseTracker
    from repro.pylang import compiler as py_compiler
    from repro.pylang.cpref import CpRef
    from repro.pylang.interp import PyVM
    from repro.rktlang import compiler as rkt_compiler
    from repro.rktlang.vm import RktVM

    tally = Tally()
    _wrap_machine(tally, backend.machine_class(SystemConfig().sim_backend))

    def layer(name):
        return lambda fn: span(tally, name, fn)

    def count(name):
        return lambda fn: counted(tally, name, fn)

    # pintool: the listener invocations.
    for cls, names in ((PhaseTracker, ("on_annot",)),
                       (BytecodeRateTracker,
                        ("on_annot", "on_dispatch", "on_dispatch_count",
                         "on_dispatch_run")),
                       (AotCallProfiler, ("on_annot",)),
                       (IrNodeProfiler, ("on_annot",))):
        for name in names:
            _patch_method(cls, name, layer("pintool"))

    # jit: trace execution (the generated bodies run inside execute),
    # deoptimization resume, first codegen of each trace, the optimizer
    # and the tracer's outcomes.
    _patch_function(executor, "execute",
                    lambda fn: counted(tally, "jit.deopts",
                                       span(tally, "jit.exec", fn)))

    def wrap_get_compiled(original):
        codegen = span(tally, "jit.codegen", original)

        @functools.wraps(original)
        def get_compiled(ctx, trace):
            if getattr(trace, "_fn", None) is None:
                return codegen(ctx, trace)
            return original(ctx, trace)

        return get_compiled

    _patch_function(executor, "get_compiled", wrap_get_compiled)
    _patch_function(optimizer, "optimize_trace", layer("jit.optimize"))
    _patch_method(JitDriver, "_apply_deopt", layer("jit.resume"))
    _patch_method(MetaTracer, "begin", count("jit.traces_started"))
    _patch_method(MetaTracer, "abort", count("jit.trace_aborts"))
    for name in ("close_loop", "close_to_trace"):
        _patch_method(MetaTracer, name, count("jit.traces_compiled"))

    # interp: the JIT driver hooks the guest interpreters call.
    for name in ("loop_header", "trace_dispatch"):
        _patch_method(JitDriver, name, layer("interp.jitdriver"))

    # rlib: calls through AotFunction.
    _patch_method(AotFunction, "call", layer("rlib.aot"))

    # Guest interpreters and compilers.
    _patch_method(PyVM, "run_source", layer("pylang.interp"))
    _patch_method(RktVM, "run_source", layer("rktlang.interp"))
    _patch_method(CpRef, "run_source", layer("pylang.cpref"))
    _patch_function(py_compiler, "compile_source", layer("pylang.compile"))
    _patch_function(rkt_compiler, "compile_rkt", layer("rktlang.compile"))

    # gc: allocation and collections.
    _patch_method(SimGC, "allocate", layer("gc"))
    for name in ("minor_collect", "major_collect"):
        _patch_method(SimGC, name,
                      lambda fn: counted(tally, "gc.collections",
                                         span(tally, "gc", fn)))

    # harness: store writes, payload serialisation, simulations and the
    # worker pool.
    _patch_method(store.ResultStore, "put",
                  lambda fn: counted(tally, "harness.store_writes",
                                     span(tally, "harness.store_put", fn)))

    def wrap_to_payload(original):
        timed = span(tally, "harness.payload", original)

        @functools.wraps(original)
        def to_payload(result):
            payload = timed(result)
            start = time.perf_counter_ns()
            size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            tally.count("harness.payload_bytes", size)
            # Measuring the size is tracing work: keep it out of the
            # enclosing span's self time.
            tally.child[-1] += time.perf_counter_ns() - start
            return payload

        return to_payload

    _patch_function(runner, "_result_to_payload", wrap_to_payload)
    _patch_function(runner, "run_program", layer("harness.run_program"))
    _patch_function(runner, "run_many", layer("harness.run_many"))

    def wrap_run_job(original):
        @functools.wraps(original)
        def run_job(spec):
            # Runs in a forked worker: record this job alone.
            tally.reset()
            payload = original(spec)
            payload[_PAYLOAD_KEY] = tally.snapshot()
            return payload

        return run_job

    def wrap_from_payload(original):
        @functools.wraps(original)
        def from_payload(payload):
            snap = payload.pop(_PAYLOAD_KEY, None)
            if snap is not None:
                tally.merge(snap)
            return original(payload)

        return from_payload

    _patch_function(runner, "_run_job", wrap_run_job)
    _patch_function(runner, "_result_from_payload", wrap_from_payload)
    return tally


def _s(ns):
    return ns / 1e9


def round_metrics(snap, instructions, wall_s, workers):
    """Per-layer metrics of one traced round (see README.md)."""
    self_ns = snap["self_ns"]
    incl_ns = snap["incl_ns"]
    entries = snap["entries"]
    counts = snap["counts"]
    kinsn = instructions / 1000.0

    def per_kinsn(n):
        return n / kinsn if kinsn else 0.0

    uarch_calls = entries.get("uarch", 0)
    started = counts.get("jit.traces_started", 0)
    compiled = counts.get("jit.traces_compiled", 0)
    pool_overhead = 0.0
    if "harness.run_many" in incl_ns:
        simulating = incl_ns.get("harness.run_program", 0) / max(1, workers)
        pool_overhead = _s(incl_ns["harness.run_many"] - simulating)
    return {
        "uarch.calls_per_kinsn": per_kinsn(uarch_calls),
        "uarch.self_s": _s(self_ns.get("uarch", 0)),
        "uarch.ns_per_call": (self_ns.get("uarch", 0) / uarch_calls
                              if uarch_calls else 0.0),
        "pintool.callbacks_per_kinsn": per_kinsn(entries.get("pintool", 0)),
        "pintool.self_s": _s(self_ns.get("pintool", 0)),
        "jit.trace_entries_per_kinsn": per_kinsn(entries.get("jit.exec", 0)),
        "jit.trace_exec_self_s": _s(self_ns.get("jit.exec", 0)),
        "jit.deopts": counts.get("jit.deopts", 0),
        "jit.resume_s": _s(self_ns.get("jit.resume", 0)),
        "jit.traces_compiled": compiled,
        "jit.trace_aborts": counts.get("jit.trace_aborts", 0),
        "jit.compile_yield": compiled / started if started else 0.0,
        "jit.optimize_s": _s(self_ns.get("jit.optimize", 0)),
        "jit.codegen_s": _s(self_ns.get("jit.codegen", 0)),
        "interp.jitdriver_calls_per_kinsn":
            per_kinsn(entries.get("interp.jitdriver", 0)),
        "interp.jitdriver_self_s": _s(self_ns.get("interp.jitdriver", 0)),
        "rlib.aot_calls_per_kinsn": per_kinsn(entries.get("rlib.aot", 0)),
        "rlib.self_s": _s(self_ns.get("rlib.aot", 0)),
        "pylang.cpref_self_s": _s(self_ns.get("pylang.cpref", 0)),
        "pylang.interp_self_s": _s(self_ns.get("pylang.interp", 0)),
        "pylang.compile_s": _s(self_ns.get("pylang.compile", 0)),
        "rktlang.interp_self_s": _s(self_ns.get("rktlang.interp", 0)),
        "rktlang.compile_s": _s(self_ns.get("rktlang.compile", 0)),
        "gc.collections": counts.get("gc.collections", 0),
        "gc.self_s": _s(self_ns.get("gc", 0)),
        "harness.store_put_s": _s(self_ns.get("harness.store_put", 0)),
        "harness.store_writes": counts.get("harness.store_writes", 0),
        "harness.payload_s": _s(self_ns.get("harness.payload", 0)),
        "harness.payload_bytes": counts.get("harness.payload_bytes", 0),
        "harness.pool_overhead_s": pool_overhead,
        "trace.wall_s": wall_s,
    }
