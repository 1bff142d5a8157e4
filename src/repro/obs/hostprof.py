"""Host-performance profiling: where the *simulator's own* wall-clock goes.

Every other layer of ``repro.obs`` measures simulated cycles; this one
measures the host.  It is the enabler for the ROADMAP's "10×+ simulator
core speedup" item: before vectorising the interpreter hot paths we need
to know which subsystem actually burns the time, and afterwards we need
proof the win stuck (:mod:`repro.obs.history` keeps that proof).

A :class:`HostProfiler` does *phase accounting* (deterministic, exactly
conserved).  Hot layers carry lightweight instrumentation points — the
machine step loop, the protocol slow path, the network send path, cache
flushes, the event-bus publish path and the invariant checker — that
push/pop named *phases* on the active profiler.  Accounting is exclusive
self-time over a region stack: every interval between two consecutive
``perf_counter_ns`` readings is credited to exactly one (phase, epoch)
cell, so the subsystem × epoch breakdown sums to total wall time *exactly*
(integer nanoseconds, no tolerance needed — a property the tests pin).
:func:`host_trace_events` lays that breakdown out as a host-time
Chrome-trace track (:data:`HOST_PID`) alongside the simulated-time tracks.

Function-level hot spots are stdlib cProfile's job::

    python -m cProfile -s tottime -m repro.obs.cli run --workload matmul

Zero-cost disabled mode
-----------------------
Instrumentation points read the module global :data:`ACTIVE`; when no
profiler is active that is one attribute load plus an ``is None`` test and
nothing else — no timestamps, no allocation.  Publishers use the pattern::

    prof = hostprof.ACTIVE
    if prof is not None:
        prof.push("protocol")
    try:
        ...slow path...
    finally:
        if prof is not None:
            prof.pop()

or, on low-frequency paths, ``with hostprof.perf_region("cache"): ...``
(which returns a shared no-op context manager while disabled).
"""

from __future__ import annotations

from time import perf_counter_ns

HOSTPROF_VERSION = 1

#: canonical phase names, in display order ("other" is the implicit bottom
#: of the region stack: setup, finalize, exporters — anything outside the
#: instrumented layers)
PHASES = (
    "machine", "protocol", "network", "cache", "obs", "verify", "other",
)

#: pid of the host-time track in exported Chrome traces (sorts after every
#: simulated node track and the network track, see obs/export.py)
HOST_PID = 1 << 21

#: the profiler instrumentation points consult (None = disabled)
ACTIVE: "HostProfiler | None" = None


class _NullRegion:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


class _Region:
    """Context manager pushing one phase on one profiler."""

    __slots__ = ("_prof", "_phase")

    def __init__(self, prof: "HostProfiler", phase: str):
        self._prof = prof
        self._phase = phase

    def __enter__(self):
        self._prof.push(self._phase)
        return self

    def __exit__(self, *exc):
        self._prof.pop()
        return False


def perf_region(phase: str):
    """A context manager crediting the enclosed host time to ``phase`` on
    the active profiler — or a shared no-op when profiling is off."""
    prof = ACTIVE
    if prof is None:
        return _NULL_REGION
    return _Region(prof, phase)


def activate(prof: "HostProfiler") -> None:
    """Make ``prof`` the profiler the instrumentation points feed."""
    global ACTIVE
    ACTIVE = prof


def deactivate(prof: "HostProfiler | None" = None) -> None:
    """Clear :data:`ACTIVE` (only if it still is ``prof``, when given —
    an old profiler leaked past an exception must not tear down a newer
    run's accounting)."""
    global ACTIVE
    if prof is None or ACTIVE is prof:
        ACTIVE = None


class HostProfiler:
    """Exactly-conserved phase accounting.

    Use as a context manager around the code under measurement (the
    harness wraps ``machine.run``)::

        prof = HostProfiler()
        with prof.running():
            machine.run(...)
        report = prof.report()

    ``running()`` activates the profiler for the instrumentation points
    and guarantees deactivation on exceptions.
    """

    def __init__(self):
        #: (phase, epoch) -> exclusive self-time in integer ns
        self.cells: dict[tuple[str, int], int] = {}
        self.epoch = 0
        self._stack: list[str] = []
        self._last = 0  # ns timestamp of the most recent credit
        self._started = False
        self._total_ns = 0

    # --------------------------------------------------------- accounting
    def _credit(self, now: int) -> None:
        key = (self._stack[-1], self.epoch)
        cells = self.cells
        cells[key] = cells.get(key, 0) + (now - self._last)
        self._last = now

    def start(self) -> None:
        """Open the accounting window (idempotent)."""
        if self._started:
            return
        self._started = True
        self._stack = ["other"]
        self._last = perf_counter_ns()
        self._t0 = self._last

    def stop(self) -> None:
        """Close the window: credit the open region and freeze the total
        (idempotent; safe after exceptions mid-region)."""
        if not self._started:
            return
        now = perf_counter_ns()
        # Unwind whatever the exception left on the stack: each level's
        # remaining time goes to the level itself, preserving conservation.
        while self._stack:
            self._credit(now)
            self._stack.pop()
        self._total_ns += now - self._t0
        self._started = False

    def push(self, phase: str) -> None:
        self._credit(perf_counter_ns())
        self._stack.append(phase)

    def pop(self) -> None:
        self._credit(perf_counter_ns())
        self._stack.pop()

    def set_epoch(self, epoch: int) -> None:
        """Epoch boundary: split the open region at this instant so the
        per-epoch columns conserve exactly too."""
        self._credit(perf_counter_ns())
        self.epoch = epoch

    def running(self):
        """start() + activate() on entry; stop() + deactivate() on exit."""
        return _Running(self)

    # ------------------------------------------------------------ reports
    @property
    def total_ns(self) -> int:
        return self._total_ns

    def phase_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (phase, _epoch), ns in self.cells.items():
            totals[phase] = totals.get(phase, 0) + ns
        return totals

    def report(self) -> dict:
        """The JSON-able host-profile report.

        ``conserved`` is computed, not asserted: the sum of every cell must
        equal ``total_ns`` to the nanosecond.
        """
        phases = self.phase_totals()
        epochs: dict[int, dict[str, int]] = {}
        for (phase, epoch), ns in self.cells.items():
            epochs.setdefault(epoch, {})[phase] = ns
        return {
            "version": HOSTPROF_VERSION,
            "total_ns": self._total_ns,
            "phases": {k: phases[k] for k in sorted(phases)},
            "epochs": [
                {
                    "epoch": epoch,
                    "ns": sum(cells.values()),
                    "phases": {k: cells[k] for k in sorted(cells)},
                }
                for epoch, cells in sorted(epochs.items())
            ],
            "conserved": sum(phases.values()) == self._total_ns,
        }


class _Running:
    __slots__ = ("_prof",)

    def __init__(self, prof: HostProfiler):
        self._prof = prof

    def __enter__(self):
        self._prof.start()
        activate(self._prof)
        return self._prof

    def __exit__(self, *exc):
        deactivate(self._prof)
        self._prof.stop()
        return False


# ---------------------------------------------------------- chrome track
def host_trace_events(report: dict, run_name: str = "run") -> list[dict]:
    """The host-time Chrome-trace track for one hostprof report.

    One process (:data:`HOST_PID`) whose thread 0 carries the per-epoch
    phase spans of the deterministic accounting.  Timestamps are host *microseconds*
    from profiler start — a different clock than the simulated-cycle
    tracks, which is fine: the track rides alongside them so relative host
    cost per phase/epoch is visible next to the simulated activity.
    """
    events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 0,
            "args": {"name": f"{run_name}: host time (us)"},
        },
        {
            "name": "process_sort_index", "ph": "M", "pid": HOST_PID,
            "tid": 0, "args": {"sort_index": HOST_PID},
        },
        {
            "name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": 0,
            "args": {"name": "phase accounting"},
        },
    ]
    # Phase accounting: per epoch, one span per phase, laid end to end in
    # display order — the epoch's host cost decomposed on one timeline.
    ts_us = 0.0
    order = {phase: i for i, phase in enumerate(PHASES)}
    for epoch in report.get("epochs", ()):
        phases = epoch.get("phases", {})
        for phase in sorted(phases, key=lambda p: order.get(p, len(order))):
            dur_us = phases[phase] / 1000.0
            events.append({
                "name": phase, "cat": "host", "ph": "X",
                "ts": round(ts_us, 3), "dur": round(dur_us, 3),
                "pid": HOST_PID, "tid": 0,
                "args": {"epoch": epoch["epoch"], "ns": phases[phase]},
            })
            ts_us += dur_us
    return events


# ------------------------------------------------------------- rendering
def render_hostprof(report: dict, workload: str = "") -> str:
    """Terminal table: phase totals plus the per-epoch decomposition."""
    from repro.harness.reporting import render_table

    total = report["total_ns"] or 1
    phases = report["phases"]
    order = {phase: i for i, phase in enumerate(PHASES)}
    names = sorted(phases, key=lambda p: order.get(p, len(order)))
    rows = [
        [name, round(phases[name] / 1e6, 3),
         f"{phases[name] / total:.1%}"]
        for name in names
    ]
    rows.append(["total", round(report["total_ns"] / 1e6, 3), "100.0%"])
    title = "host time by subsystem"
    if workload:
        title += f" ({workload})"
    parts = [render_table(["phase", "host_ms", "share"], rows, title=title)]
    epochs = report.get("epochs", ())
    if epochs:
        erows = [
            [e["epoch"], round(e["ns"] / 1e6, 3)]
            + [round(e["phases"].get(name, 0) / 1e6, 3) for name in names]
            for e in epochs
        ]
        parts.append(render_table(
            ["epoch", "host_ms"] + [f"{n}_ms" for n in names], erows,
            title="host time by epoch (exactly conserved)",
        ))
    conserved = "yes" if report.get("conserved") else "NO"
    parts.append(f"conservation: sum(phases) == total_ns: {conserved}")
    return "\n".join(parts)


__all__ = [
    "ACTIVE",
    "HOSTPROF_VERSION",
    "HOST_PID",
    "PHASES",
    "HostProfiler",
    "activate",
    "deactivate",
    "host_trace_events",
    "perf_region",
    "render_hostprof",
]
