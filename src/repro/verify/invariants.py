"""The coherence invariants, each defined once.

Both checkers hold the simulator to the same contract and share these
definitions; they differ only in how a finding is reported.  The online
:class:`~repro.verify.InvariantChecker` raises it as a
:class:`~repro.errors.VerifyError` with the run's evidence chain, the
model checker (:mod:`repro.mc.model`) returns it as a
:class:`~repro.mc.model.Violation`.

* **State scan** — :meth:`Dir1SWProtocol.invariant_check`: every
  directory entry is well formed, every listed sharer holds the line in
  the entry's state, and every cached line is listed in its entry's
  sharer set.  A failure is ``dir-cache-agreement``.  A passing scan also
  implies cache-side SWMR: each cached line is a sharer of its entry, and
  an RW entry has exactly one sharer, so no block is EXCLUSIVE in one
  cache while another cache holds it.
* **Post-conditions** — :func:`post_condition`, what one completed access
  or CICO directive must leave behind.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.state import LineState
from repro.coherence.directory import DirState
from repro.verify.format import format_cache_line, format_dir_entry

__all__ = ["Finding", "post_condition"]


class Finding(NamedTuple):
    """A failed invariant: its name and a one-line diagnosis."""

    invariant: str
    message: str


def post_condition(
    proto, node: int, op: str, block: int, *, resident: bool = True
) -> Finding | None:
    """Check the state ``node``'s just-completed ``op`` on ``block`` left.

    ``op`` is ``read``, ``write`` or a directive name; prefetches are
    non-binding hints and have no post-condition.  The checks, by name:

    * ``write`` — ``swmr``: the writer holds the block EXCLUSIVE, the
      directory records it as the RW owner, and no other cache holds it;
    * ``read`` / ``check_out_S`` — ``dir-cache-agreement``: the issuer
      holds the block;
    * ``check_out_X`` — ``directive-postcondition``: the issuer holds the
      block EXCLUSIVE;
    * ``check_in`` — ``directive-postcondition``: the issuer no longer
      holds the block.

    ``resident=False`` accepts an absent line after a read or check-out.
    The caller passes it only for a block that a later block of the same
    directive may have evicted; a line that is present must still be in
    the required state.
    """
    line = proto.caches[node].lookup(block)
    if op == "write":
        if line is None or line.state is not LineState.EXCLUSIVE:
            return Finding(
                "swmr",
                f"after a write the writer must hold the block EXCLUSIVE, "
                f"found {format_cache_line(line)}",
            )
        entry = proto.directory.peek(block)
        if entry is None or entry.state is not DirState.RW or entry.ptr != node:
            return Finding(
                "swmr",
                f"after a write the directory must record the writer as "
                f"exclusive owner, found {format_dir_entry(entry)}",
            )
        for other, cache in enumerate(proto.caches):
            if other != node and cache.lookup(block) is not None:
                return Finding(
                    "swmr",
                    f"node {other} still holds a copy of a block node "
                    f"{node} just wrote",
                )
    elif op == "read":
        if line is None and resident:
            return Finding(
                "dir-cache-agreement",
                "after a read miss the reader's cache must hold the "
                "installed block",
            )
    elif op == "check_out_S":
        if line is None and resident:
            return Finding(
                "dir-cache-agreement",
                "after check_out_S the issuer's cache must hold the block",
            )
    elif op == "check_out_X":
        if (line is None and resident) or (
            line is not None and line.state is not LineState.EXCLUSIVE
        ):
            return Finding(
                "directive-postcondition",
                f"after check_out_X the held line must be EXCLUSIVE, "
                f"found {format_cache_line(line)}",
            )
    elif op == "check_in":
        if line is not None:
            return Finding(
                "directive-postcondition",
                "after check_in the issuer must no longer hold the block",
            )
    return None
