"""Canonical state abstraction + transition relation for the model checker.

The model drives the *production* :class:`~repro.coherence.protocol.Dir1SWProtocol`
— not a re-implementation — so what gets proved is the code that simulates.
A model state is the architectural part of a machine at rest (no protocol
operation in flight): per-node cache lines, directory entries, in-flight
prefetch sets, plus the exploration bookkeeping (epoch, per-node remaining
op budget, barrier arrival flags, remaining fault budget).  Everything a
state omits is deliberately *timing*: clocks, stall cycles, stats, traffic
counts, transaction ids, and cache LRU order — small configs are sized so
the fully-associative per-node cache holds every block and never evicts,
which is what makes LRU order irrelevant and the abstraction exact.

A transition is one node performing one action: a shared read or write, a
CICO directive (``check_out_S/X``, ``check_in``, ``prefetch_S/X``) or a
barrier arrival; when every live node has arrived, the barrier releases
within the same transition (epoch advances, op budgets refill).  Any
action may additionally fire in *fault mode*: the operation runs under a
scripted worst-case fault tape (a transient NACK + retry on the slow path,
every message duplicated — the deterministic skeleton of
:mod:`repro.faults`) and the checker asserts the architectural result is
identical to the clean application, which is exactly the barrier-deferred
stall contract PR 4 promises.

Safety properties checked on every transition are the online checker's
own definitions from :mod:`repro.verify.invariants` — the access and
directive post-conditions (:func:`post_condition`) and the
directory/cache state scan (:meth:`Dir1SWProtocol.invariant_check`) —
plus fault invariance and protocol self-consistency (an op that raises
:class:`~repro.errors.ProtocolError`).  The caches here never evict, so
every read and check-out must leave its line resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.coherence.directory import DirEntry, DirState
from repro.coherence.protocol import Dir1SWProtocol, _Pending
from repro.errors import McError, ProtocolError
from repro.verify.invariants import post_condition

#: the full op alphabet (excludes "barrier", which is always available)
OPS = (
    "read",
    "write",
    "check_out_S",
    "check_out_X",
    "check_in",
    "prefetch_S",
    "prefetch_X",
)

BARRIER = "barrier"


@dataclass(frozen=True, slots=True)
class Action:
    """One transition: ``node`` performs ``op`` (on ``block``, for ops)."""

    node: int
    op: str
    block: int = -1  # -1 for barrier
    fault: bool = False  # run under the scripted worst-case fault tape

    def label(self) -> str:
        if self.op == BARRIER:
            return f"node{self.node} barrier"
        text = f"node{self.node} {self.op} block{self.block}"
        return text + (" +fault" if self.fault else "")

    def as_dict(self) -> dict:
        out = {"node": self.node, "op": self.op}
        if self.op != BARRIER:
            out["block"] = self.block
        if self.fault:
            out["fault"] = True
        return out

    @staticmethod
    def from_dict(raw: dict) -> "Action":
        try:
            return Action(
                node=int(raw["node"]),
                op=str(raw["op"]),
                block=int(raw.get("block", -1)),
                fault=bool(raw.get("fault", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise McError(f"malformed schedule action {raw!r}: {exc}") from None


@dataclass(frozen=True)
class MCConfig:
    """One exploration problem: the machine geometry and the budgets."""

    nodes: int = 2
    blocks: int = 1
    epochs: int = 1
    ops_per_epoch: int = 2
    ops: tuple[str, ...] = OPS
    faults: bool = True  # explore fault-mode variants of every op
    fault_budget: int = 2  # max fault-mode transitions along one path
    symmetry: bool = False  # dedup modulo node-id permutation
    max_states: int = 500_000
    max_depth: int = 128  # transition-fairness bound (livelock guard)
    block_size: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.nodes <= 4:
            raise McError(f"mc nodes must be 1..4 (small configs), got {self.nodes}")
        if not 1 <= self.blocks <= 4:
            raise McError(f"mc blocks must be 1..4 (small configs), got {self.blocks}")
        if not 1 <= self.epochs <= 3:
            raise McError(f"mc epochs must be 1..3 (small configs), got {self.epochs}")
        if self.ops_per_epoch < 0:
            raise McError(f"ops_per_epoch must be >= 0, got {self.ops_per_epoch}")
        bad = [op for op in self.ops if op not in OPS]
        if bad:
            raise McError(f"unknown op(s) {bad}; alphabet is {OPS}")
        if self.max_states < 1 or self.max_depth < 1:
            raise McError("max_states and max_depth must be >= 1")

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "blocks": self.blocks,
            "epochs": self.epochs,
            "ops_per_epoch": self.ops_per_epoch,
            "ops": list(self.ops),
            "faults": self.faults,
            "fault_budget": self.fault_budget,
            "symmetry": self.symmetry,
            "max_states": self.max_states,
            "max_depth": self.max_depth,
            "block_size": self.block_size,
        }

    @staticmethod
    def from_dict(raw: dict) -> "MCConfig":
        try:
            kwargs = dict(raw)
            if "ops" in kwargs:
                kwargs["ops"] = tuple(kwargs["ops"])
            return MCConfig(**kwargs)
        except TypeError as exc:
            raise McError(f"malformed mc config {raw!r}: {exc}") from None


@dataclass(frozen=True)
class Violation:
    """A safety property that failed on some transition."""

    invariant: str  # swmr / dir-cache-agreement / directive-postcondition /
    #               # protocol-state / fault-invariance / deadlock
    message: str
    node: int | None = None
    block: int | None = None

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "node": self.node,
            "block": self.block,
        }

    @staticmethod
    def from_dict(raw: dict) -> "Violation":
        return Violation(
            invariant=str(raw.get("invariant", "?")),
            message=str(raw.get("message", "")),
            node=raw.get("node"),
            block=raw.get("block"),
        )


class _ScriptedFaults:
    """The deterministic worst-case fault tape for fault-mode transitions.

    Mirrors the :class:`~repro.faults.FaultInjector` interface the protocol
    and network consult, but with every probabilistic choice pinned to its
    most adversarial deterministic value: every slow-path operation is
    NACKed once and retried, and every message is delivered twice.  Latency
    penalties are swallowed (the model has no clock) — what matters is that
    the *architectural* outcome must match the clean application.
    """

    def transient_nacks(self, node: int) -> int:
        return 1

    def retry_penalty(self, nacks: int, hop_latency: int) -> int:
        return nacks * 2 * hop_latency

    def owe(self, node: int, cycles: int) -> None:
        pass  # no clock to charge

    def on_message(self, node: int, kind, count: int, hop_latency: int) -> int:
        return count  # duplicate everything

    def barrier_stall(self, node: int) -> int:
        return 0

    def final_stall(self, node: int) -> int:
        return 0


# State key layout (all nested tuples, fully ordered and hashable):
#   (epoch,
#    ops_left:  (int, ...) per node,
#    at_barrier:(bool, ...) per node,
#    faults_left,
#    caches:    ((block, state, dirty), ...) per node, sorted by block,
#    directory: ((block, state, count, ptr|-1, (sharers...)), ...) by block,
#    pending:   ((block, exclusive), ...) per node, sorted)
StateKey = tuple


class ProtocolModel:
    """``enabled_actions`` / ``apply`` / ``canonical`` over protocol states."""

    def __init__(self, config: MCConfig, mutate: str | None = None):
        self.config = config
        self.mutate = mutate
        # fully-associative cache sized to hold every block: no evictions,
        # so dropping LRU order from the state key loses nothing
        cap = 1
        while cap < config.blocks:
            cap <<= 1
        self._cache_assoc = cap
        self._cache_size = config.block_size * cap

    # ------------------------------------------------------------- states
    def initial_key(self) -> StateKey:
        cfg = self.config
        n = cfg.nodes
        return (
            0,
            (cfg.ops_per_epoch,) * n,
            (False,) * n,
            cfg.fault_budget if cfg.faults else 0,
            ((),) * n,
            (),
            ((),) * n,
        )

    def is_final(self, key: StateKey) -> bool:
        return key[0] >= self.config.epochs

    def materialize(self, key: StateKey) -> Dir1SWProtocol:
        """Build a live protocol engine in exactly this architectural state."""
        cfg = self.config
        proto = Dir1SWProtocol(
            num_nodes=cfg.nodes,
            cache_size=self._cache_size,
            block_size=cfg.block_size,
            assoc=self._cache_assoc,
        )
        _epoch, _ops, _atb, _faults, caches, directory, pending = key
        for node, lines in enumerate(caches):
            proto.caches[node].restore_lines(
                [(block, state, dirty) for block, state, dirty in lines]
            )
        entries = proto.directory.entries()
        for block, state, count, ptr, sharers in directory:
            entries[block] = DirEntry(
                state=DirState(state),
                count=count,
                ptr=None if ptr < 0 else ptr,
                sharers=set(sharers),
            )
        for node, pend in enumerate(pending):
            proto._pending[node] = {
                block: _Pending(arrival=0, exclusive=bool(excl))
                for block, excl in pend
            }
        if self.mutate is not None:
            from repro.mc.mutations import apply_mutation

            apply_mutation(proto, self.mutate)
        return proto

    def _arch(self, proto: Dir1SWProtocol) -> tuple:
        """The architectural part of a key, read back from a live protocol."""
        caches = tuple(
            tuple(sorted(
                (line.block, line.state.value, line.dirty)
                for line in cache.lines()
            ))
            for cache in proto.caches
        )
        directory = tuple(sorted(
            (
                block,
                entry.state.value,
                entry.count,
                -1 if entry.ptr is None else entry.ptr,
                tuple(sorted(entry.sharers)),
            )
            for block, entry in proto.directory.entries().items()
            if entry.state is not DirState.IDLE or entry.sharers
        ))
        pending = tuple(
            tuple(sorted((block, bool(p.exclusive)) for block, p in per.items()))
            for per in proto._pending
        )
        return caches, directory, pending

    # ------------------------------------------------------------ actions
    def enabled_actions(self, key: StateKey) -> list[Action]:
        cfg = self.config
        epoch, ops_left, at_barrier, faults_left = key[0], key[1], key[2], key[3]
        if epoch >= cfg.epochs:
            return []
        actions: list[Action] = []
        for node in range(cfg.nodes):
            if at_barrier[node]:
                continue
            if ops_left[node] > 0:
                for op in cfg.ops:
                    for block in range(cfg.blocks):
                        actions.append(Action(node, op, block))
                        if cfg.faults and faults_left > 0:
                            actions.append(Action(node, op, block, fault=True))
            actions.append(Action(node, BARRIER))
        return actions

    def is_enabled(self, key: StateKey, action: Action) -> bool:
        """Cheap applicability test (used by replay and ddmin)."""
        cfg = self.config
        epoch, ops_left, at_barrier, faults_left = key[0], key[1], key[2], key[3]
        if epoch >= cfg.epochs:
            return False
        if not 0 <= action.node < cfg.nodes or at_barrier[action.node]:
            return False
        if action.op == BARRIER:
            return True
        return (
            action.op in cfg.ops
            and 0 <= action.block < cfg.blocks
            and ops_left[action.node] > 0
            and (not action.fault or (cfg.faults and faults_left > 0))
        )

    # -------------------------------------------------------------- apply
    def apply(
        self, key: StateKey, action: Action
    ) -> tuple[StateKey | None, Violation | None]:
        """One transition.  Returns (successor, None) or (None, violation).

        The successor is a canonical *actual* key (symmetry reduction is
        the explorer's concern, not apply's) and the application is a pure
        function of (key, action) — the determinism replay relies on.
        """
        if not self.is_enabled(key, action):
            raise McError(
                f"action {action.label()!r} is not enabled in this state "
                f"(stale or hand-edited schedule?)"
            )
        epoch, ops_left, at_barrier, faults_left = key[0], key[1], key[2], key[3]
        cfg = self.config

        if action.op == BARRIER:
            atb = list(at_barrier)
            atb[action.node] = True
            if all(atb):
                # barrier release happens inside the same transition
                proto = self.materialize(key)
                violation = self._scan(proto)
                if violation is not None:
                    return None, violation
                return (
                    epoch + 1,
                    (cfg.ops_per_epoch,) * cfg.nodes,
                    (False,) * cfg.nodes,
                    faults_left,
                    *self._arch(proto),
                ), None
            return (
                epoch, ops_left, tuple(atb), faults_left, *key[4:]
            ), None

        proto = self.materialize(key)
        violation = self._apply_op(proto, action)
        if violation is not None:
            return None, violation
        arch = self._arch(proto)

        if action.fault:
            # The fault-mode application must land in the same architectural
            # state as the clean one: faults may change timing, never state.
            clean = self.materialize(key)
            clean_violation = self._apply_op(clean, Action(
                action.node, action.op, action.block, fault=False
            ))
            if clean_violation is not None:
                return None, clean_violation
            if self._arch(clean) != arch:
                return None, Violation(
                    "fault-invariance",
                    f"{action.label()} reached a different architectural "
                    f"state than its clean application — fault events must "
                    f"only change timing",
                    node=action.node,
                    block=action.block,
                )
            faults_left -= 1

        ops = list(ops_left)
        ops[action.node] -= 1
        return (epoch, tuple(ops), at_barrier, faults_left, *arch), None

    # ----------------------------------------------------------- checking
    def _apply_op(self, proto: Dir1SWProtocol, action: Action) -> Violation | None:
        """Run one protocol op + its post-condition + the full state scan."""
        node, block = action.node, action.block
        if action.fault:
            injector = _ScriptedFaults()
            proto.faults = injector
            proto.network.faults = injector
        try:
            if action.op == "read":
                proto.read(node, block)
            elif action.op == "write":
                proto.write(node, block)
            elif action.op == "check_out_S":
                proto.check_out(node, block, exclusive=False)
            elif action.op == "check_out_X":
                proto.check_out(node, block, exclusive=True)
            elif action.op == "check_in":
                proto.check_in(node, block)
            elif action.op == "prefetch_S":
                proto.prefetch(node, block, exclusive=False)
            elif action.op == "prefetch_X":
                proto.prefetch(node, block, exclusive=True)
            else:  # pragma: no cover - guarded by is_enabled
                raise McError(f"unknown op {action.op!r}")
        except ProtocolError as exc:
            return Violation(
                "protocol-state",
                f"{action.label()} raised ProtocolError: {exc}",
                node=node,
                block=block,
            )
        finding = post_condition(proto, node, action.op, block)
        if finding is not None:
            return Violation(
                finding.invariant, f"{action.label()}: {finding.message}",
                node=node, block=block,
            )
        return self._scan(proto)

    def _scan(self, proto: Dir1SWProtocol) -> Violation | None:
        """The directory/cache state scan of :mod:`repro.verify.invariants`."""
        try:
            proto.invariant_check()
        except ProtocolError as exc:
            return Violation("dir-cache-agreement", str(exc))
        return None

    # ----------------------------------------------------------- symmetry
    def canonical(self, key: StateKey) -> StateKey:
        """The dedup representative: minimum over node-id permutations when
        symmetry reduction is on, the key itself otherwise."""
        cfg = self.config
        if not cfg.symmetry or cfg.nodes == 1:
            return key
        best = None
        for perm in permutations(range(cfg.nodes)):
            candidate = self._permute(key, perm)
            if best is None or candidate < best:
                best = candidate
        return best

    def _permute(self, key: StateKey, perm: tuple[int, ...]) -> StateKey:
        """Rename node ``i`` to ``perm[i]`` throughout the key."""
        epoch, ops_left, at_barrier, faults_left, caches, directory, pending = key
        n = self.config.nodes
        ops = [0] * n
        atb = [False] * n
        cach: list[tuple] = [()] * n
        pend: list[tuple] = [()] * n
        for i in range(n):
            ops[perm[i]] = ops_left[i]
            atb[perm[i]] = at_barrier[i]
            cach[perm[i]] = caches[i]
            pend[perm[i]] = pending[i]
        dirs = tuple(sorted(
            (
                block,
                state,
                count,
                -1 if ptr < 0 else perm[ptr],
                tuple(sorted(perm[s] for s in sharers)),
            )
            for block, state, count, ptr, sharers in directory
        ))
        return (
            epoch, tuple(ops), tuple(atb), faults_left,
            tuple(cach), dirs, tuple(pend),
        )
