"""Dir1SW protocol engine: caches + directory + network + cost model.

This is the layer the simulated machine talks to.  Every shared reference of
every node funnels through :meth:`Dir1SWProtocol.read` /
:meth:`Dir1SWProtocol.write`; CICO directives arrive via
:meth:`check_out`, :meth:`check_in`, and :meth:`prefetch`.

Design notes
------------
* **Implicit check-outs.**  As in Dir1SW, a read miss implicitly checks the
  block out shared and a write miss checks it out exclusive; explicit
  ``check_out`` directives therefore only pay off when they *change* the mode
  (e.g. ``check_out_X`` before a read that precedes a write, killing the
  later upgrade fault) — otherwise they just add issue overhead.  This is the
  exact trade Section 4.1 describes.
* **Check-in is fire-and-forget.**  It costs the issuer only the directive
  overhead; its value is that the sharer counter drops, so a later writer
  finds count==0/1 and avoids the Dir1SW software trap, and a dirty block is
  already home so a later reader avoids the 4-hop recall.
* **Prefetch.**  Performs the coherence transition at issue time and records
  an arrival time ``now + latency``; a demand access before arrival stalls
  for the remainder, one at or after arrival is a hit.  At most
  ``cost.max_outstanding_prefetch`` prefetches may be in flight per node;
  excess issues are dropped (counted, still paying issue overhead).
* **Replacements notify the directory** (a ``DECREMENT`` or ``WRITEBACK``
  message) so the sharer counter never drifts — Dir1SW requires this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.sa_cache import SetAssociativeCache
from repro.cache.state import CacheLine, LineState
from repro.cache.stats import CacheStats
from repro.coherence.costs import CostModel
from repro.coherence.directory import Directory, DirEntry, DirState
from repro.coherence.messages import MessageKind
from repro.errors import ProtocolError
from repro.network.model import Network
from repro.obs import hostprof
from repro.obs.events import EventBus, EventKind, RecallEvent, TrapEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector


class AccessKind(enum.Enum):
    HIT = "hit"
    READ_MISS = "read_miss"
    WRITE_MISS = "write_miss"
    WRITE_FAULT = "write_fault"


@dataclass(frozen=True, slots=True)
class AccessResult:
    cycles: int
    kind: AccessKind
    detail: str = ""  # memory / recall / inv1 / trap / upgrade_fast / prefetched
    #: slow-path transaction id joining this access to the TrapEvent /
    #: RecallEvent / MessageEvents it caused (-1 for hits)
    txn: int = -1


@dataclass(slots=True)
class ProtocolStats:
    """Machine-wide protocol event counts (beyond per-cache stats)."""

    sw_traps: int = 0
    recalls: int = 0
    hw_invalidations: int = 0
    bcast_invalidations: int = 0  # individual copies killed by traps
    prefetch_dropped: int = 0


@dataclass(slots=True)
class _Pending:
    arrival: int
    exclusive: bool


class Dir1SWProtocol:
    def __init__(
        self,
        num_nodes: int,
        cache_size: int,
        block_size: int,
        assoc: int,
        cost: CostModel | None = None,
        network: Network | None = None,
        bus: EventBus | None = None,
        faults: "FaultInjector | None" = None,
    ):
        if num_nodes <= 0:
            raise ProtocolError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.block_size = block_size
        self.cost = cost or CostModel()
        self.bus = bus
        self.faults = faults
        self.network = network or Network(hop_latency=self.cost.net_hop, bus=bus)
        if faults is not None:
            self.network.faults = faults
        self.caches = [
            SetAssociativeCache(cache_size, block_size, assoc) for _ in range(num_nodes)
        ]
        self.stats = [CacheStats() for _ in range(num_nodes)]
        self.proto_stats = ProtocolStats()
        self.directory = Directory()
        self._txn_next = 0  # machine-unique slow-path transaction ids
        self._pending: list[dict[int, _Pending]] = [{} for _ in range(num_nodes)]
        # Per-home-node directory occupancy (contention model; see
        # CostModel.dir_occupancy_cycles).  Blocks are distributed round-
        # robin across home nodes by block number.
        self._home_free = [0] * num_nodes

    def _contend(self, block: int, now: int) -> int:
        """Queueing delay at the block's home directory, if modelled."""
        service = self.cost.dir_occupancy_cycles
        if not service:
            return 0
        home = block % self.num_nodes
        start = max(now, self._home_free[home])
        self._home_free[home] = start + service
        return start - now

    def _begin_txn(self, node: int, now: int) -> int:
        """Open a slow-path transaction: allocate its id and stamp the
        network context so every message/trap/recall it raises is joinable.

        This is also the protocol's retry slow path: with a fault injector
        attached the operation may be transiently NACKed up to its retry
        bound before being accepted.  Each bounce costs the requester the
        bounced round trip plus exponential backoff; the latency is charged
        as barrier-deferred stall (see :mod:`repro.faults`) so the retries
        never perturb the epoch's interleaving, only its length.
        """
        txn = self._txn_next
        self._txn_next += 1
        self.network.begin(node=node, t=now, txn=txn)
        faults = self.faults
        if faults is not None:
            nacks = faults.transient_nacks(node)
            if nacks:
                self.network.send(MessageKind.NACK, nacks)
                faults.owe(
                    node, faults.retry_penalty(nacks, self.cost.net_hop)
                )
        return txn

    def set_epoch(self, epoch: int) -> None:
        """Tell the traffic accounting which epoch is running (machine calls
        this at every barrier crossing)."""
        self.network.epoch = epoch

    # ------------------------------------------------------------------ util
    def totals(self) -> CacheStats:
        out = CacheStats()
        for stats in self.stats:
            out.merge(stats)
        return out

    def _evict(self, node: int, victim: CacheLine) -> None:
        """Directory bookkeeping for a replaced line (off the critical path)."""
        self._pending[node].pop(victim.block, None)
        if victim.dirty:
            self.network.send(MessageKind.WRITEBACK)
            self.stats[node].writebacks += 1
        else:
            self.network.send(MessageKind.DECREMENT)
        self.directory.drop(victim.block, node)
        self.stats[node].evictions += 1

    def _insert(self, node: int, block: int, state: LineState, dirty: bool) -> None:
        victim = self.caches[node].insert(block, state, dirty)
        if victim is not None:
            self._evict(node, victim)

    # -------------------------------------------------------- acquisitions
    def _acquire_shared(self, node: int, block: int) -> tuple[int, str]:
        """Obtain a SHARED copy for a node that has no copy.  Returns
        (latency, detail) and performs all state transitions."""
        entry = self.directory.entry(block)
        if entry.state is DirState.RW:
            owner = entry.ptr
            assert owner is not None
            if owner == node:
                raise ProtocolError(f"node {node} read-missed its own RW block {block}")
            # Recall: owner downgrades to SHARED, dirty data goes home.
            self.network.send(MessageKind.GET_S)
            self.network.send(MessageKind.RECALL)
            was_dirty = self.caches[owner].downgrade(block)
            self.network.send(MessageKind.WRITEBACK if was_dirty else MessageKind.ACK)
            if was_dirty:
                self.stats[owner].writebacks += 1
            self.network.send(MessageKind.DATA)
            entry.state = DirState.RO  # owner stays as a sharer
            entry.ptr = owner
            self.directory.add_reader(block, node)
            self.proto_stats.recalls += 1
            bus = self.bus
            if bus is not None and bus.wants(EventKind.RECALL):
                net = self.network
                bus.publish(RecallEvent(
                    node=node, owner=owner, block=block,
                    dirty=was_dirty, exclusive=False, t=net.t, txn=net.txn,
                ))
            return self.cost.miss_with_recall(), "recall"
        # IDLE or RO: memory supplies the data.
        self.network.send(MessageKind.GET_S)
        self.network.send(MessageKind.DATA)
        self.directory.add_reader(block, node)
        return self.cost.miss_from_memory(), "memory"

    def _acquire_exclusive(self, node: int, block: int) -> tuple[int, str]:
        """Obtain an EXCLUSIVE copy for a node that has no copy."""
        entry = self.directory.entry(block)
        if entry.state is DirState.IDLE:
            self.network.send(MessageKind.GET_X)
            self.network.send(MessageKind.DATA)
            self.directory.make_owner(block, node)
            return self.cost.miss_from_memory(), "memory"
        if entry.state is DirState.RW:
            owner = entry.ptr
            assert owner is not None
            if owner == node:
                raise ProtocolError(f"node {node} write-missed its own RW block {block}")
            self.network.send(MessageKind.GET_X)
            self.network.send(MessageKind.RECALL)
            line = self.caches[owner].invalidate(block)
            self._pending[owner].pop(block, None)
            dirty = bool(line and line.dirty)
            self.network.send(MessageKind.WRITEBACK if dirty else MessageKind.ACK)
            if dirty:
                self.stats[owner].writebacks += 1
            self.network.send(MessageKind.DATA)
            self.directory.drop(block, owner)
            self.directory.make_owner(block, node)
            self.proto_stats.recalls += 1
            bus = self.bus
            if bus is not None and bus.wants(EventKind.RECALL):
                net = self.network
                bus.publish(RecallEvent(
                    node=node, owner=owner, block=block,
                    dirty=dirty, exclusive=True, t=net.t, txn=net.txn,
                ))
            return self.cost.miss_with_recall(), "recall"
        # RO: sharers must be invalidated first.
        self.network.send(MessageKind.GET_X)
        if entry.count == 1:
            # Hardware pointer knows the single sharer (cannot be ``node``:
            # a node with a copy takes the fault path, not the miss path).
            sharer = entry.ptr
            assert sharer is not None and sharer != node
            self.network.send(MessageKind.INV)
            self.network.send(MessageKind.ACK)
            self.caches[sharer].invalidate(block)
            self._pending[sharer].pop(block, None)
            self.directory.drop(block, sharer)
            self.directory.make_owner(block, node)
            self.network.send(MessageKind.DATA)
            self.proto_stats.hw_invalidations += 1
            return self.cost.invalidate_single(), "inv1"
        # count > 1: Dir1SW software trap, broadcast invalidation.
        count = entry.count
        self.network.send(MessageKind.BCAST_INV, count)
        self.network.send(MessageKind.ACK, count)
        holders = self.directory.clear_all_holders(block)
        for holder in holders:
            self.caches[holder].invalidate(block)
            self._pending[holder].pop(block, None)
        self.directory.make_owner(block, node)
        self.network.send(MessageKind.DATA)
        self.proto_stats.sw_traps += 1
        self.proto_stats.bcast_invalidations += count
        bus = self.bus
        if bus is not None and bus.wants(EventKind.TRAP):
            net = self.network
            bus.publish(TrapEvent(node=node, block=block, copies=count,
                                  upgrade=False, t=net.t, txn=net.txn,
                                  holders=tuple(sorted(holders))))
        return self.cost.sw_trap(count) + self.cost.mem_cycles, "trap"

    def _upgrade(self, node: int, block: int) -> tuple[int, str]:
        """Write fault: ``node`` holds SHARED, needs EXCLUSIVE."""
        entry = self.directory.entry(block)
        if entry.state is not DirState.RO or node not in entry.sharers:
            raise ProtocolError(
                f"write fault on block {block} but directory is {entry}"
            )
        self.network.send(MessageKind.UPGRADE)
        if entry.count == 1:
            # We are the lone (pointer-known) sharer: fast hardware upgrade.
            self.network.send(MessageKind.ACK)
            self.directory.drop(block, node)
            self.directory.make_owner(block, node)
            return self.cost.upgrade_fast(), "upgrade_fast"
        others = entry.count - 1
        self.network.send(MessageKind.BCAST_INV, others)
        self.network.send(MessageKind.ACK, others)
        holders = self.directory.clear_all_holders(block)
        for holder in holders:
            if holder != node:
                self.caches[holder].invalidate(block)
                self._pending[holder].pop(block, None)
        self.directory.make_owner(block, node)
        self.proto_stats.sw_traps += 1
        self.proto_stats.bcast_invalidations += others
        bus = self.bus
        if bus is not None and bus.wants(EventKind.TRAP):
            net = self.network
            bus.publish(TrapEvent(node=node, block=block, copies=others,
                                  upgrade=True, t=net.t, txn=net.txn,
                                  holders=tuple(sorted(
                                      h for h in holders if h != node))))
        return self.cost.sw_trap(others), "trap"

    # ------------------------------------------------------------- accesses
    def _pending_wait(self, node: int, block: int, now: int) -> int | None:
        """If a prefetch is in flight for ``block``, cycles still to wait."""
        pend = self._pending[node].get(block)
        if pend is None:
            return None
        del self._pending[node][block]
        self.stats[node].prefetch_useful += 1
        return max(0, pend.arrival - now)

    def read(self, node: int, block: int, now: int = 0) -> AccessResult:
        stats = self.stats[node]
        line = self.caches[node].touch(block)
        if line is not None:
            wait = self._pending_wait(node, block, now)
            if wait is not None:
                stats.stall_cycles += wait
                return AccessResult(
                    self.cost.hit_cycles + wait, AccessKind.HIT, "prefetched"
                )
            stats.hits += 1
            return AccessResult(self.cost.hit_cycles, AccessKind.HIT)
        self._pending[node].pop(block, None)  # stale pending (line was stolen)
        # slow path from here: host phase accounting charges it to
        # "protocol" (hits above stay instrumentation-free — they are the
        # hot path the disabled-mode zero-cost contract protects)
        prof = hostprof.ACTIVE
        if prof is not None:
            prof.push("protocol")
        try:
            txn = self._begin_txn(node, now)
            cycles, detail = self._acquire_shared(node, block)
            cycles += self._contend(block, now)
            self._insert(node, block, LineState.SHARED, dirty=False)
        finally:
            if prof is not None:
                prof.pop()
        stats.read_misses += 1
        stats.stall_cycles += cycles
        return AccessResult(cycles, AccessKind.READ_MISS, detail, txn)

    def write(self, node: int, block: int, now: int = 0) -> AccessResult:
        stats = self.stats[node]
        line = self.caches[node].touch(block)
        if line is not None and line.state is LineState.EXCLUSIVE:
            wait = self._pending_wait(node, block, now)
            line.dirty = True
            if wait is not None:
                stats.stall_cycles += wait
                return AccessResult(
                    self.cost.hit_cycles + wait, AccessKind.HIT, "prefetched"
                )
            stats.hits += 1
            return AccessResult(self.cost.hit_cycles, AccessKind.HIT)
        prof = hostprof.ACTIVE
        if line is not None:  # SHARED: write fault (upgrade)
            wait = self._pending_wait(node, block, now) or 0
            if prof is not None:
                prof.push("protocol")
            try:
                txn = self._begin_txn(node, now)
                cycles, detail = self._upgrade(node, block)
                cycles += self._contend(block, now)
            finally:
                if prof is not None:
                    prof.pop()
            line.state = LineState.EXCLUSIVE
            line.dirty = True
            stats.write_faults += 1
            stats.stall_cycles += cycles + wait
            return AccessResult(
                cycles + wait, AccessKind.WRITE_FAULT, detail, txn
            )
        self._pending[node].pop(block, None)
        if prof is not None:
            prof.push("protocol")
        try:
            txn = self._begin_txn(node, now)
            cycles, detail = self._acquire_exclusive(node, block)
            cycles += self._contend(block, now)
            self._insert(node, block, LineState.EXCLUSIVE, dirty=True)
        finally:
            if prof is not None:
                prof.pop()
        stats.write_misses += 1
        stats.stall_cycles += cycles
        return AccessResult(cycles, AccessKind.WRITE_MISS, detail, txn)

    # ------------------------------------------------------------ directives
    def check_out(self, node: int, block: int, exclusive: bool, now: int = 0) -> int:
        """Explicit CICO check-out.  Blocking; returns total cycles."""
        with hostprof.perf_region("protocol"):
            return self._check_out(node, block, exclusive, now)

    def _check_out(self, node: int, block: int, exclusive: bool, now: int) -> int:
        stats = self.stats[node]
        stats.checkouts += 1
        cycles = self.cost.directive_cycles
        line = self.caches[node].touch(block)
        if exclusive:
            if line is not None and line.state is LineState.EXCLUSIVE:
                return cycles  # already checked out: pure overhead
            if line is not None:  # SHARED -> upgrade now, off the write path
                self._begin_txn(node, now)
                up_cycles, _ = self._upgrade(node, block)
                up_cycles += self._contend(block, now)
                line.state = LineState.EXCLUSIVE
                stats.write_faults += 1
                stats.stall_cycles += up_cycles
                return cycles + up_cycles
            self._begin_txn(node, now)
            acq_cycles, _ = self._acquire_exclusive(node, block)
            acq_cycles += self._contend(block, now)
            self._insert(node, block, LineState.EXCLUSIVE, dirty=False)
            stats.write_misses += 1
            stats.stall_cycles += acq_cycles
            return cycles + acq_cycles
        if line is not None:
            return cycles  # any copy satisfies check_out_S
        self._begin_txn(node, now)
        acq_cycles, _ = self._acquire_shared(node, block)
        acq_cycles += self._contend(block, now)
        self._insert(node, block, LineState.SHARED, dirty=False)
        stats.read_misses += 1
        stats.stall_cycles += acq_cycles
        return cycles + acq_cycles

    def check_in(self, node: int, block: int, now: int = 0) -> int:
        """Explicit CICO check-in: flush our copy back to the directory."""
        with hostprof.perf_region("protocol"):
            stats = self.stats[node]
            stats.checkins += 1
            line = self.caches[node].invalidate(block)
            self._pending[node].pop(block, None)
            if line is not None:
                self._begin_txn(node, now)
                self.network.send(MessageKind.CHECKIN)
                if line.dirty:
                    stats.writebacks += 1
                self.directory.drop(block, node)
            return self.cost.directive_cycles

    def prefetch(self, node: int, block: int, exclusive: bool, now: int = 0) -> int:
        """Non-binding prefetch; returns issue cycles only.

        A prefetch is a *hint*: it never disturbs other caches.  The home
        directory satisfies it only when that is free of side effects —
        data from memory for an IDLE (or, for shared prefetches, RO) block,
        or a silent upgrade when the requester is already the sole sharer.
        Anything that would require a recall, an invalidation, or a
        software trap NACKs the prefetch; the later demand access pays the
        normal price.  (Letting prefetches steal exclusive copies would
        turn them into free asynchronous invalidations.)"""
        with hostprof.perf_region("protocol"):
            return self._prefetch(node, block, exclusive, now)

    def _prefetch(self, node: int, block: int, exclusive: bool, now: int) -> int:
        stats = self.stats[node]
        stats.prefetches += 1
        cycles = self.cost.directive_cycles
        line = self.caches[node].lookup(block)
        if line is not None and (not exclusive or line.state is LineState.EXCLUSIVE):
            return cycles  # already adequate
        if len(self._pending[node]) >= self.cost.max_outstanding_prefetch:
            self.proto_stats.prefetch_dropped += 1
            return cycles
        entry = self.directory.entry(block)
        self._begin_txn(node, now)
        self.network.send(MessageKind.PREFETCH)
        if exclusive:
            if line is not None:
                # SHARED held: silent upgrade only if we are the lone sharer.
                if entry.count != 1:
                    self.proto_stats.prefetch_dropped += 1
                    return cycles
                latency, _ = self._upgrade(node, block)
                line.state = LineState.EXCLUSIVE
            else:
                if entry.state is not DirState.IDLE:
                    self.proto_stats.prefetch_dropped += 1
                    return cycles
                latency, _ = self._acquire_exclusive(node, block)
                self._insert(node, block, LineState.EXCLUSIVE, dirty=False)
        else:
            if entry.state is DirState.RW:
                self.proto_stats.prefetch_dropped += 1
                return cycles
            latency, _ = self._acquire_shared(node, block)
            self._insert(node, block, LineState.SHARED, dirty=False)
        self._pending[node][block] = _Pending(arrival=now + latency, exclusive=exclusive)
        return cycles

    # ------------------------------------------------------------- flushing
    def flush_node(self, node: int, now: int = 0) -> int:
        """Invalidate every line (trace-mode barrier flush).  Returns the
        number of lines flushed; costs nothing (instrumentation artefact)."""
        with hostprof.perf_region("protocol"):
            return self._flush_node(node, now)

    def _flush_node(self, node: int, now: int) -> int:
        self.network.begin(node=node, t=now, txn=-1)
        lines = self.caches[node].flush_all()
        for line in lines:
            if line.dirty:
                self.network.send(MessageKind.WRITEBACK)
                self.stats[node].writebacks += 1
            else:
                self.network.send(MessageKind.DECREMENT)
            self.directory.drop(line.block, node)
        self._pending[node].clear()
        return len(lines)

    # ------------------------------------------------------------ checking
    def invariant_check(self) -> None:
        """Cross-check caches against the directory; raise ProtocolError.

        The one directory/cache state scan: the online checker runs it at
        every barrier and the model checker after every transition (see
        :mod:`repro.verify.invariants`).
        """
        for block, entry in self.directory.entries().items():
            entry.check()
            for holder in entry.sharers:
                line = self.caches[holder].lookup(block)
                if line is None:
                    raise ProtocolError(
                        f"directory lists node {holder} for block {block} "
                        f"but its cache has no line"
                    )
                want = (
                    LineState.EXCLUSIVE
                    if entry.state is DirState.RW
                    else LineState.SHARED
                )
                if line.state is not want:
                    raise ProtocolError(
                        f"block {block}: node {holder} line is {line.state}, "
                        f"directory says {entry.state}"
                    )
        for node, cache in enumerate(self.caches):
            for line in cache.lines():
                entry = self.directory.peek(line.block)
                if entry is None or node not in entry.sharers:
                    raise ProtocolError(
                        f"node {node} caches block {line.block} unknown to directory"
                    )

    # ----------------------------------------------------------- checkpoint
    def snapshot_state(self) -> dict:
        """JSON-able architectural + accounting state for barrier-aligned
        checkpoints (see :meth:`Machine.snapshot`)."""
        return {
            "caches": [cache.snapshot_lines() for cache in self.caches],
            "directory": {
                str(block): {
                    "state": entry.state.value,
                    "count": entry.count,
                    "ptr": entry.ptr,
                    "sharers": sorted(entry.sharers),
                }
                for block, entry in self.directory.entries().items()
                if entry.state is not DirState.IDLE
            },
            "stats": [stats.as_dict() for stats in self.stats],
            "proto_stats": {
                name: getattr(self.proto_stats, name)
                for name in ProtocolStats.__dataclass_fields__
            },
            "traffic": self.network.snapshot_traffic(),
            "txn_next": self._txn_next,
            "home_free": list(self._home_free),
            "pending": [
                {
                    str(block): [pend.arrival, pend.exclusive]
                    for block, pend in per_node.items()
                }
                for per_node in self._pending
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the protocol from :meth:`snapshot_state` output."""
        if len(state["caches"]) != self.num_nodes:
            raise ProtocolError(
                f"snapshot has {len(state['caches'])} caches, machine has "
                f"{self.num_nodes} nodes"
            )
        for cache, lines in zip(self.caches, state["caches"]):
            cache.restore_lines(lines)
        entries = self.directory.entries()
        entries.clear()
        for block, raw in state["directory"].items():
            entries[int(block)] = DirEntry(
                state=DirState(raw["state"]),
                count=int(raw["count"]),
                ptr=None if raw["ptr"] is None else int(raw["ptr"]),
                sharers=set(int(n) for n in raw["sharers"]),
            )
        self.stats = [
            CacheStats(**{k: int(v) for k, v in raw.items()})
            for raw in state["stats"]
        ]
        for name, value in state["proto_stats"].items():
            setattr(self.proto_stats, name, int(value))
        self.network.restore_traffic(state["traffic"])
        self._txn_next = int(state["txn_next"])
        self._home_free = [int(v) for v in state["home_free"]]
        self._pending = [
            {
                int(block): _Pending(arrival=int(arr), exclusive=bool(excl))
                for block, (arr, excl) in per_node.items()
            }
            for per_node in state["pending"]
        ]
