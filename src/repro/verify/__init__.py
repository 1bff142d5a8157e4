"""Online coherence invariant checker (the robustness counterpart of obs).

:class:`InvariantChecker` subscribes to a run's
:class:`~repro.obs.events.EventBus` and checks, *while the run executes*,
that the simulated machine never leaves its legal envelope.  The coherence
invariants themselves are defined once, in :mod:`repro.verify.invariants`,
and shared with the model checker (:mod:`repro.mc`):

* **SWMR** — at every write, the writer holds the only copy of the block
  (single-writer/multiple-reader, the definition of coherence);
* **post-conditions** — after a read miss or a check-out the issuer holds
  the block (EXCLUSIVE after ``check_out_X``), after a check-in it does not;
* **directory/cache agreement** — at every barrier, the directory's sharer
  sets, counts and states match what the caches actually hold (the full
  bidirectional scan :meth:`Dir1SWProtocol.invariant_check`, which also
  rules out an EXCLUSIVE copy coexisting with any other copy);
* **CICO discipline** — under Performance CICO a checked-in block should not
  be touched again before a new check-out, and an explicit check-out should
  be balanced by a check-in before the epoch's barrier.  Violations are
  *performance* bugs, not correctness bugs (the paper's Performance policy
  makes annotations hints), so they are collected as warnings by default and
  only raise under ``strict_cico``;
* **barrier epoch consistency** — epochs arrive in order 0,1,2,..., virtual
  time is monotone, the resume clock is ``vt + barrier_cycles``, and every
  not-yet-finished node participates in every barrier;
* **event/metric conservation** — at finalize, the events the bus delivered
  must reconcile exactly with the run's counters: traps, recalls, messages,
  barriers, node completions and cache hits.  A mismatch means an event was
  dropped or double-counted somewhere between the protocol and the bus.

Failures raise :class:`~repro.errors.VerifyError` carrying the node, epoch
and block involved plus the recent event chain — per-node ring buffers
joined with the slow-path transaction ids — so a violation names the
history that led to it, not just the instant it was noticed.

The checker reads the protocol's state as ground truth but never mutates
it, and costs nothing when not subscribed (the bus's ``wants`` guards).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.coherence.protocol import AccessKind
from repro.errors import ProtocolError, VerifyError
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIRECTIVE_NAMES,
)
from repro.obs import hostprof
from repro.obs.events import EventBus, EventKind
from repro.verify.invariants import Finding, post_condition

__all__ = ["InvariantChecker", "VerifyReport", "verify_run"]

_OUT = "out"
_IN = "in"


# ------------------------------------------------------- lazy event records
#
# The evidence-chain ring buffers are written on *every* bus event but read
# only when a violation is raised — which is never, on a healthy run.  So
# the hot path stores ``(tag, event, ...)`` tuples (events are frozen
# dataclasses, safe to retain) and the formatting below runs only inside
# ``_chain``.  This is most of what makes always-on ``--verify``
# affordable; the rendered text is unchanged.

def _fmt_access(r):
    _, ev, block = r
    result = ev.result
    text = (
        f"t={ev.t} node={ev.node} {'WRITE' if ev.write else 'READ'} "
        f"addr={ev.addr:#x} block={block} pc={ev.pc} -> {result.kind.value}"
    )
    if result.detail:
        text += f"/{result.detail}"
    if result.txn >= 0:
        text += f" txn={result.txn}"
    return text


_RECORD_FORMATS = {
    "access": _fmt_access,
    "trap": lambda r: (
        f"t={r[1].t} node={r[1].node} TRAP block={r[1].block} "
        f"copies={r[1].copies} txn={r[1].txn}"
    ),
    "recall": lambda r: (
        f"t={r[1].t} node={r[1].node} RECALL block={r[1].block} "
        f"owner={r[1].owner} txn={r[1].txn}"
    ),
    "msg": lambda r: (
        f"t={r[1].t} node={r[1].node} MSG {r[1].msg.value} "
        f"x{r[1].count} txn={r[1].txn}"
    ),
    "done": lambda r: f"t={r[1].t} node={r[1].node} DONE",
    "lock": lambda r: (
        f"t={r[1].t} node={r[1].node} {r[1].kind.name} addr={r[1].addr:#x}"
    ),
    "directive": lambda r: (
        f"t={r[1].t} node={r[1].node} DIRECTIVE {r[2]} "
        f"blocks={list(r[3])} pc={r[1].pc}"
    ),
}


def _format_record(rec: tuple) -> str:
    return _RECORD_FORMATS[rec[0]](rec)


def _record_txn(rec: tuple) -> int:
    """The slow-path transaction a logged record belongs to (cold path)."""
    event = rec[1]
    if rec[0] == "access":
        return event.result.txn
    return getattr(event, "txn", -1)


@dataclass
class VerifyReport:
    """Outcome of one checked run (JSON-able via :meth:`as_dict`)."""

    label: str = ""
    ok: bool = True
    error: str | None = None
    #: how many of each check actually executed (a clean report with zero
    #: checks means the checker was never wired up — treat as suspicious)
    checks: dict[str, int] = field(default_factory=dict)
    #: events seen on the bus, by kind
    events: dict[str, int] = field(default_factory=dict)
    #: CICO discipline findings (warnings unless strict_cico)
    warnings: list[str] = field(default_factory=list)
    #: always ``{}``; kept so readers of the report format keep working
    cache: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "error": self.error,
            "checks": dict(self.checks),
            "events": dict(self.events),
            "warnings": list(self.warnings),
            "cache": dict(self.cache),
        }


class InvariantChecker:
    """Subscribe me to a machine's bus *before* the run starts.

    ``finalize(result)`` must be called with the finished
    :class:`~repro.machine.machine.RunResult` to run the conservation
    checks and obtain the :class:`VerifyReport`.
    """

    def __init__(
        self,
        protocol,
        *,
        strict_cico: bool = False,
        chain_depth: int = 24,
        label: str = "",
    ):
        self.protocol = protocol
        self.strict_cico = strict_cico
        self.label = label
        self._shift = protocol.block_size.bit_length() - 1
        n = protocol.num_nodes
        # CICO discipline state, reset at every barrier: block -> _OUT | _IN
        self._cico: list[dict[int, str]] = [{} for _ in range(n)]
        self._done: set[int] = set()
        self._epoch = 0
        self._last_vt = 0
        # recent-event ring buffers: per node, plus one global bounded log
        # of txn-tagged records (filtered by txn id on failure — a flat
        # deque append is far cheaper per event than per-txn dict upkeep)
        self._recent: list[deque[tuple]] = [
            deque(maxlen=chain_depth) for _ in range(n)
        ]
        self._txn_log: deque[tuple] = deque(maxlen=16 * chain_depth)
        self._counts = {
            "accesses": 0, "hits": 0, "traps": 0, "recalls": 0,
            "messages": 0, "barriers": 0, "directives": 0, "node_done": 0,
        }
        self._checks = {
            "swmr": 0, "dir-cache-agreement": 0, "cico-discipline": 0,
            "epoch-consistency": 0, "conservation": 0,
        }
        self.warnings: list[str] = []
        self._finalized = False

    # -------------------------------------------------------------- wiring
    def subscribe(self, bus: EventBus) -> int:
        """Listen to every event kind; returns the primary bus token.

        The two hot kinds — ACCESS and MESSAGE — get dedicated handlers
        that skip the dispatch chain entirely; like the catch-all handler
        they stay registered for the bus's lifetime (nothing unsubscribes
        a checker mid-run).
        """
        bus.subscribe((EventKind.ACCESS,), self._on_access)
        bus.subscribe((EventKind.MESSAGE,), self._on_message)
        rest = [
            kind for kind in EventKind
            if kind not in (EventKind.ACCESS, EventKind.MESSAGE)
        ]
        return bus.subscribe(rest, self._handle)

    def _handle(self, event) -> None:
        # Credit checker time to the "verify" host phase (it otherwise hides
        # inside "obs", the bus-dispatch region the publish wraps us in).
        prof = hostprof.ACTIVE
        if prof is None:
            self._dispatch(event)
            return
        prof.push("verify")
        try:
            self._dispatch(event)
        finally:
            prof.pop()

    def _on_message(self, event) -> None:
        # One call per protocol message — second-hottest path.  Count for
        # conservation, log for txn evidence; deliberately no hostprof
        # bracket (the body is thinner than the bracketing would be).
        self._counts["messages"] += event.count
        if event.txn >= 0:
            self._txn_log.append(("msg", event))

    def _dispatch(self, event) -> None:
        kind = event.kind
        if kind is EventKind.DIRECTIVE:
            self._on_directive(event)
        elif kind is EventKind.BARRIER:
            self._on_barrier(event)
        elif kind is EventKind.TRAP:
            self._counts["traps"] += 1
            self._remember(event.node, event.txn, ("trap", event))
        elif kind is EventKind.RECALL:
            self._counts["recalls"] += 1
            self._remember(event.node, event.txn, ("recall", event))
        elif kind is EventKind.NODE_DONE:
            self._counts["node_done"] += 1
            self._done.add(event.node)
            self._remember(event.node, -1, ("done", event))
        # lock events only feed the ring buffers
        elif kind in (EventKind.LOCK_ACQUIRE, EventKind.LOCK_CONTEND,
                      EventKind.LOCK_RELEASE):
            self._remember(event.node, -1, ("lock", event))

    # ------------------------------------------------------- event history
    def _remember(self, node: int, txn: int, rec: tuple) -> None:
        if 0 <= node < len(self._recent):
            self._recent[node].append(rec)
        if txn >= 0:
            self._txn_log.append(rec)

    def _chain(self, node: int | None, txn: int = -1) -> tuple[str, ...]:
        """The evidence attached to a VerifyError: the node's recent events
        plus, when the violation sits in a slow-path transaction, every
        recent event that transaction raised (possibly on other nodes).
        Records are rendered here, on failure — never on the hot path."""
        chain: list[str] = []
        if node is not None and 0 <= node < len(self._recent):
            chain.extend(_format_record(r) for r in self._recent[node])
        if txn >= 0:
            for rec in self._txn_log:
                if _record_txn(rec) != txn:
                    continue
                text = _format_record(rec)
                if text not in chain:
                    chain.append(text)
        return tuple(chain)

    # ------------------------------------------------------------- access
    def _on_access(self, ev) -> None:
        # The hottest handler (one per shared reference), subscribed
        # directly so the bus's dispatch is the only indirection.
        prof = hostprof.ACTIVE
        if prof is not None:
            prof.push("verify")
        try:
            counts = self._counts
            counts["accesses"] += 1
            result = ev.result
            hit = result.kind is AccessKind.HIT
            if hit and result.detail != "prefetched":
                counts["hits"] += 1
            block = ev.addr >> self._shift
            rec = ("access", ev, block)
            self._recent[ev.node].append(rec)
            if result.txn >= 0:
                self._txn_log.append(rec)
            if ev.write:
                self._checks["swmr"] += 1
                finding = post_condition(self.protocol, ev.node, "write", block)
                if finding is not None:
                    self._fail(finding, ev, block, result.txn)
            elif not hit:
                # A read HIT needs no recheck: the protocol reported HIT
                # precisely because lookup found the line in the same
                # structure we would re-read.  Miss/fault results carry a
                # real claim — the slow path installed the line — so those
                # are verified.
                finding = post_condition(self.protocol, ev.node, "read", block)
                if finding is not None:
                    self._fail(finding, ev, block, result.txn)
            # Performance-CICO discipline: touching a block this node
            # explicitly checked in earlier means a premature check-in.
            marks = self._cico[ev.node]
            if marks.get(block) == _IN:
                self._checks["cico-discipline"] += 1
                self._cico_finding(
                    f"node {ev.node} accessed block {block} (pc {ev.pc}) "
                    f"after checking it in — premature check-in",
                    node=ev.node, epoch=ev.epoch, block=block,
                    txn=result.txn,
                )
                del marks[block]  # the access implicitly re-checked it out
        finally:
            if prof is not None:
                prof.pop()

    def _fail(self, finding: Finding, ev, block: int, txn: int = -1) -> None:
        """Raise ``finding`` for ``ev`` with its evidence chain."""
        raise VerifyError(
            finding.invariant, finding.message,
            node=ev.node, epoch=ev.epoch, block=block,
            chain=self._chain(ev.node, txn),
        )

    # ---------------------------------------------------------- directives
    def _on_directive(self, ev) -> None:
        self._counts["directives"] += 1
        name = DIRECTIVE_NAMES.get(ev.dkind, str(ev.dkind))
        self._remember(ev.node, -1, (
            "directive", ev, name, tuple(ev.blockset),
        ))
        if ev.dkind not in (DIR_CHECK_OUT_S, DIR_CHECK_OUT_X, DIR_CHECK_IN):
            return  # prefetches are non-binding hints: no post-condition
        proto = self.protocol
        marks = self._cico[ev.node]
        mark = _IN if ev.dkind == DIR_CHECK_IN else _OUT
        # The machine issues the blockset in order, so a later block of this
        # directive that maps to the same cache set may have evicted an
        # earlier one; only the last block of each set must stay resident.
        set_index = proto.caches[ev.node].set_index
        last_in_set = {set_index(block): block for block in ev.blockset}
        for block in ev.blockset:
            marks[block] = mark
            finding = post_condition(
                proto, ev.node, name, block,
                resident=last_in_set[set_index(block)] == block,
            )
            if finding is not None:
                self._fail(finding, ev, block)

    def _cico_finding(self, message, *, node, epoch, block, txn=-1) -> None:
        if self.strict_cico:
            raise VerifyError(
                "cico-discipline", message,
                node=node, epoch=epoch, block=block,
                chain=self._chain(node, txn),
            )
        self.warnings.append(f"epoch {epoch}: {message}")

    # -------------------------------------------------------------- barrier
    def _on_barrier(self, ev) -> None:
        self._counts["barriers"] += 1
        self._checks["epoch-consistency"] += 1
        if ev.epoch != self._epoch:
            raise VerifyError(
                "epoch-consistency",
                f"barrier carries epoch {ev.epoch}, expected {self._epoch}",
                epoch=ev.epoch, chain=self._chain(None),
            )
        if ev.vt < self._last_vt:
            raise VerifyError(
                "epoch-consistency",
                f"barrier virtual time went backwards: {ev.vt} after "
                f"{self._last_vt}",
                epoch=ev.epoch,
            )
        expected_resume = ev.vt + self.protocol.cost.barrier_cycles
        if ev.resume != expected_resume:
            raise VerifyError(
                "epoch-consistency",
                f"barrier resume clock is {ev.resume}, expected vt + "
                f"barrier_cycles = {expected_resume}",
                epoch=ev.epoch,
            )
        if ev.node_clocks and max(ev.node_clocks.values()) != ev.vt:
            raise VerifyError(
                "epoch-consistency",
                f"barrier vt {ev.vt} is not the max waiter clock "
                f"{max(ev.node_clocks.values())}",
                epoch=ev.epoch,
            )
        expected_waiters = set(range(self.protocol.num_nodes)) - self._done
        if set(ev.node_pcs) != expected_waiters:
            missing = sorted(expected_waiters - set(ev.node_pcs))
            raise VerifyError(
                "epoch-consistency",
                f"nodes {missing} did not participate in the barrier",
                epoch=ev.epoch,
                node=missing[0] if missing else None,
            )
        self._last_vt = ev.vt
        self._epoch = ev.epoch + 1
        self._scan_state(ev.epoch)
        # Performance CICO: explicit check-outs should be balanced by a
        # check-in before the barrier (Section 4.1's whole point — keeping
        # the sharer counter low is what dodges the Dir1SW trap).
        for node, marks in enumerate(self._cico):
            for block, mark in marks.items():
                if mark == _OUT:
                    self._checks["cico-discipline"] += 1
                    self._cico_finding(
                        f"node {node} checked out block {block} but never "
                        f"checked it in before the barrier",
                        node=node, epoch=ev.epoch, block=block,
                    )
            marks.clear()

    def _scan_state(self, epoch: int) -> None:
        """The full directory/cache cross-check.

        A passing :meth:`Dir1SWProtocol.invariant_check` also establishes
        cache-side SWMR (see :mod:`repro.verify.invariants`), so it counts
        as a check of both.
        """
        self._checks["dir-cache-agreement"] += 1
        try:
            self.protocol.invariant_check()
        except ProtocolError as exc:
            raise VerifyError(
                "dir-cache-agreement", str(exc), epoch=epoch,
                chain=self._chain(None),
            ) from exc
        self._checks["swmr"] += 1

    # ------------------------------------------------------------- finalize
    def finalize(self, result) -> VerifyReport:
        """Conservation checks against the finished run's counters."""
        self._finalized = True
        self._checks["conservation"] += 1
        c = self._counts
        pairs = (
            ("software traps", c["traps"], result.sw_traps),
            ("recalls", c["recalls"], result.recalls),
            ("network messages", c["messages"], result.total_messages),
            ("barriers", c["barriers"], result.epochs),
            ("node completions", c["node_done"], self.protocol.num_nodes),
            ("cache hits", c["hits"], result.stats.hits),
        )
        for what, observed, counted in pairs:
            if observed != counted:
                raise VerifyError(
                    "conservation",
                    f"bus delivered {observed} {what} but the run counted "
                    f"{counted} — an event was dropped or double-counted",
                )
        return self.report()

    def report(self) -> VerifyReport:
        return VerifyReport(
            label=self.label,
            ok=True,
            checks=dict(self._checks),
            events=dict(self._counts),
            warnings=list(self.warnings),
        )

    def failure_report(self, exc: VerifyError) -> VerifyReport:
        rep = self.report()
        rep.ok = False
        rep.error = str(exc)
        return rep


def verify_run(
    program,
    config,
    params_fn=None,
    *,
    faults_seed: int | None = None,
    strict_cico: bool = False,
    label: str = "",
) -> tuple[VerifyReport, "object"]:
    """Run ``program`` with an attached checker; returns (report, RunResult).

    A :class:`~repro.errors.VerifyError` propagates to the caller; the
    convenience exists for the CLI and tests, the harness runner wires the
    checker itself via ``run_program(..., verify=True)``.
    """
    from repro.harness.runner import run_program

    result, _store = run_program(
        program, config, params_fn,
        faults_seed=faults_seed, verify=True, strict_verify=strict_cico,
        verify_label=label,
    )
    return result.extra["verify_report"], result
