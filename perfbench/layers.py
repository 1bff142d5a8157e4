"""Traced-pass instrumentation: per-layer call counts and self times.

``worker.py --trace`` calls :func:`install` before it builds anything.  It
wraps the public entry points of each simulator layer, class by class, in
timing shims owned by this file; nothing under ``src/`` changes.  The
wrappers live for the rest of the worker process, which runs one pass and
exits.

Two kinds of record are kept in memory and handed back when the pass ends:

* spans for the coarse stages (build, trace-run, analyze, annotate, then
  one ``run:<variant>`` or ``explore`` span per timing stage), each with
  its parent, start and end;
* per-boundary aggregates ``[calls, self_ns]``, keyed by the innermost open
  span, so one variant's counters can be checked against that variant's
  ``RunResult``.  Per-call boundaries are aggregated, never recorded one
  span per call.

Self time is a call's duration minus the durations of the wrapped calls
nested inside it: ``machine`` is ``Machine.run`` minus interpreter,
coherence, network and event-bus time, and ``events.publish`` is
``EventBus.publish`` minus its handlers.  The wrappers' own cost lands in
the caller's self time; the benchmark reports the whole cost as
``tracing.overhead_frac``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


def _layer_of(module: str) -> str:
    """The layer an event handler belongs to, by its defining module."""
    for prefix, layer in (
        ("repro.verify", "verify"),
        ("repro.trace", "trace"),
        ("repro.obs", "obs"),
    ):
        if module.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Spans, per-span aggregates and the self-time stack of one pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.stage = "pass"
        #: (stage, boundary) -> [calls, self_ns]
        self.timed: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        #: (stage, counter) -> count, for counts that are not calls
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        #: stage -> distinct model-checker states returned by canonical()
        self.states: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_ns": _now(),
            "end_ns": None,
        })
        self._open.append(index)
        outer, self.stage = self.stage, name
        try:
            yield
        finally:
            self.spans[index]["end_ns"] = _now()
            self._open.pop()
            self.stage = outer

    def enter(self) -> int:
        self._stack.append(0)
        return _now()

    def leave(self, key: str, start: int) -> None:
        dur = _now() - start
        stack = self._stack
        nested = stack.pop()
        if stack:
            stack[-1] += dur
        rec = self.timed[self.stage, key]
        rec[0] += 1
        rec[1] += dur - nested

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.stage, key] += n

    def export(self) -> dict:
        """Plain-data form: spans plus ``{stage: {key: value}}`` tables."""
        timed: dict[str, dict] = defaultdict(dict)
        for (stage, key), rec in self.timed.items():
            timed[stage][key] = list(rec)
        counts: dict[str, dict] = defaultdict(dict)
        for (stage, key), n in self.counts.items():
            counts[stage][key] = n
        for stage, keys in self.states.items():
            counts[stage]["mc.states"] = len(keys)
        return {"spans": self.spans, "timed": dict(timed), "counts": dict(counts)}


class _TimedKernel:
    """Times each ``next()`` into one node's interpreter generator."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        start = tracer.enter()
        key = "interp"
        try:
            return next(self._gen)
        except StopIteration:
            key = "interp.end"  # the final call yields no machine event
            raise
        finally:
            tracer.leave(key, start)


def count_directives(program) -> int:
    """CICO directive statements in ``program``."""
    from repro.lang.ast import Annot, walk_stmts

    return sum(
        isinstance(stmt, Annot)
        for func in program.functions.values()
        for stmt in walk_stmts(func.body)
    )


def install(tracer: Tracer) -> None:
    """Wrap every measured layer boundary for the rest of the process."""
    from repro.cachier.annotator import Cachier
    from repro.coherence.protocol import AccessKind, Dir1SWProtocol
    from repro.harness import variants
    from repro.lang.interp import Interpreter
    from repro.machine.machine import Machine
    from repro.mc.model import ProtocolModel
    from repro.network.model import Network
    from repro.obs.events import EventBus
    from repro.obs.session import Observer
    from repro.verify import InvariantChecker

    enter, leave = tracer.enter, tracer.leave

    def timed(key, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(key, start)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def spanned(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # repro.lang.interp: the time inside next() of each node's kernel
    kernel = Interpreter.kernel
    Interpreter.kernel = lambda self, node: _TimedKernel(kernel(self, node), tracer)

    # repro.machine: Machine.run; its self time is the scheduler loop,
    # barriers, locks and event construction
    Machine.run = timed("machine", Machine.run)

    # repro.coherence: hits, slow-path transactions, directives, flushes
    def access(fn):
        @functools.wraps(fn)
        def wrapper(self, node, block, now=0):
            start = enter()
            key = "coherence.txn"
            try:
                result = fn(self, node, block, now)
                if result.kind is AccessKind.HIT:
                    # a demand access that waited on an in-flight prefetch
                    # is a hit, but the protocol does not count it in hits
                    key = "coherence.hit_pf" if result.detail else "coherence.hit"
                return result
            finally:
                leave(key, start)

        return wrapper

    def checkout_acquired(cycles, proto, *args, **kwargs):
        # a check-out that fetched the block counts as a miss or fault in
        # the protocol's stats, like a read/write transaction
        if cycles > proto.cost.directive_cycles:
            tracer.count("coherence.checkout_acquire")

    Dir1SWProtocol.read = access(Dir1SWProtocol.read)
    Dir1SWProtocol.write = access(Dir1SWProtocol.write)
    Dir1SWProtocol.check_out = timed(
        "coherence.directive", Dir1SWProtocol.check_out, checkout_acquired
    )
    Dir1SWProtocol.check_in = timed("coherence.directive", Dir1SWProtocol.check_in)
    Dir1SWProtocol.prefetch = timed("coherence.directive", Dir1SWProtocol.prefetch)
    Dir1SWProtocol.flush_node = timed("coherence.flush", Dir1SWProtocol.flush_node)

    # repro.network
    Network.send = timed(
        "network.send", Network.send,
        lambda _out, _net, _kind, count=1: tracer.count("network.msgs", count),
    )

    # repro.obs.events: publish minus handlers; every handler is timed and
    # credited to the layer whose module defines it
    EventBus.publish = timed("events.publish", EventBus.publish)
    subscribe = EventBus.subscribe

    def timed_subscribe(self, kinds, handler):
        owner = getattr(handler, "__self__", None)
        module = type(owner).__module__ if owner is not None else handler.__module__
        key = _layer_of(module) + ".handler"

        def timed_handler(event):
            start = enter()
            try:
                handler(event)
            finally:
                leave(key, start)

        return subscribe(self, kinds, timed_handler)

    EventBus.subscribe = timed_subscribe
    Observer.finalize = timed("obs.finalize", Observer.finalize)
    InvariantChecker.finalize = timed("verify.finalize", InvariantChecker.finalize)

    # repro.trace: the trace-mode run build_variants makes
    trace_program = variants.trace_program

    def traced_trace_program(*args, **kwargs):
        with tracer.span("trace-run"):
            trace = trace_program(*args, **kwargs)
            tracer.count("trace.records", len(trace.misses) + len(trace.barriers))
        return trace

    variants.trace_program = traced_trace_program

    # repro.cachier
    Cachier.__init__ = spanned(
        "analyze", timed("cachier.analyze", Cachier.__init__)
    )
    Cachier.annotate = spanned("annotate", timed(
        "cachier.annotate", Cachier.annotate,
        lambda res, *_a, **_k: tracer.count(
            "cachier.directives", count_directives(res.program)
        ),
    ))

    # repro.mc
    ProtocolModel.materialize = timed("mc.materialize", ProtocolModel.materialize)
    ProtocolModel.apply = timed("mc.apply", ProtocolModel.apply)
    ProtocolModel.canonical = timed(
        "mc.canonical", ProtocolModel.canonical,
        lambda key, *_a: tracer.states[tracer.stage].add(key),
    )
