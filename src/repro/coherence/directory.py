"""The Dir1SW directory.

Dir1SW (Hill et al., "Cooperative Shared Memory", TOCS 1993) keeps, per
block, *one* hardware pointer plus a sharer *counter*:

* ``IDLE``    — no cached copies; memory is the only copy.
* ``RO``      — one or more read-only copies.  The counter says how many;
  the pointer identifies the sharer **only while the count is exactly 1**.
  With more sharers the hardware no longer knows who they are, so an
  invalidation must trap to system software and broadcast (the "SW" in
  Dir1SW).  Check-ins and replacement notices decrement the counter — that
  is precisely how CICO check-ins save later traps.
* ``RW``      — a single writable (possibly dirty) copy; pointer = owner.

For simulation we must still invalidate the *right* caches when software
broadcasts, so each entry also carries the oracle sharer set.  Costs are
computed only from the hardware-visible fields (state, count, pointer); the
oracle set never influences timing, mirroring the real machine where the
broadcast reaches everyone but only actual sharers ack with work done.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProtocolError


class DirState(enum.Enum):
    IDLE = "Idle"
    RO = "RO"
    RW = "RW"


@dataclass(slots=True)
class DirEntry:
    state: DirState = DirState.IDLE
    count: int = 0  # RO sharer counter (hardware)
    ptr: int | None = None  # valid iff (RO and count == 1) or RW
    sharers: set[int] = field(default_factory=set)  # oracle, for simulation

    # -- invariants ---------------------------------------------------------
    def check(self) -> None:
        if self.state is DirState.IDLE:
            if self.count or self.sharers or self.ptr is not None:
                raise ProtocolError(f"bad IDLE entry: {self}")
        elif self.state is DirState.RO:
            if self.count != len(self.sharers) or self.count < 1:
                raise ProtocolError(f"bad RO entry: {self}")
            if self.count == 1 and self.ptr not in self.sharers:
                raise ProtocolError(f"RO count==1 but ptr wrong: {self}")
        else:  # RW
            if self.ptr is None or self.sharers != {self.ptr} or self.count != 1:
                raise ProtocolError(f"bad RW entry: {self}")

    @property
    def ptr_valid(self) -> bool:
        """Does the hardware know the identity of every copy-holder?"""
        return self.state is DirState.RW or (
            self.state is DirState.RO and self.count == 1
        )


class Directory:
    """All directory entries of the machine, created on demand."""

    def __init__(self) -> None:
        self._entries: dict[int, DirEntry] = {}

    def entry(self, block: int) -> DirEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = DirEntry()
            self._entries[block] = entry
        return entry

    def peek(self, block: int) -> DirEntry | None:
        """Entry if it exists (untracked blocks are implicitly IDLE)."""
        return self._entries.get(block)

    def entries(self) -> dict[int, DirEntry]:
        return self._entries

    # -- transitions (state only; costs are the protocol layer's job) -------
    def add_reader(self, block: int, node: int) -> DirEntry:
        entry = self.entry(block)
        if entry.state is DirState.RW:
            raise ProtocolError(f"add_reader on RW block {block}")
        entry.sharers.add(node)
        entry.count = len(entry.sharers)
        entry.state = DirState.RO
        entry.ptr = node if entry.count == 1 else None
        return entry

    def make_owner(self, block: int, node: int) -> DirEntry:
        """Give ``node`` the sole writable copy (callers already emptied it)."""
        entry = self.entry(block)
        if entry.sharers - {node}:
            raise ProtocolError(
                f"make_owner({block}, {node}) with live sharers {entry.sharers}"
            )
        entry.state = DirState.RW
        entry.sharers = {node}
        entry.count = 1
        entry.ptr = node
        return entry

    def drop(self, block: int, node: int) -> DirEntry:
        """Remove one copy-holder (check-in, replacement, invalidation)."""
        entry = self.entry(block)
        if node not in entry.sharers:
            raise ProtocolError(f"drop({block}, {node}): not a holder ({entry})")
        entry.sharers.discard(node)
        entry.count = len(entry.sharers)
        if entry.count == 0:
            entry.state = DirState.IDLE
            entry.ptr = None
        else:
            entry.state = DirState.RO
            entry.ptr = next(iter(entry.sharers)) if entry.count == 1 else None
        return entry

    def clear_all_holders(self, block: int) -> set[int]:
        """Empty the entry (broadcast invalidation); return prior holders."""
        entry = self.entry(block)
        holders = set(entry.sharers)
        entry.sharers.clear()
        entry.count = 0
        entry.state = DirState.IDLE
        entry.ptr = None
        return holders
