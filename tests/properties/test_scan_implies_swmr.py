"""Property: a state that passes the directory/cache scan satisfies SWMR.

Both checkers rely on :meth:`Dir1SWProtocol.invariant_check` alone at
barriers; neither runs a separate cache-side "block held EXCLUSIVE while
other nodes have copies" scan.  That is sound only if the scan implies
it: every cached line must sit in its entry's sharer set, an RW entry has
exactly one sharer, and an RO entry wants every holder SHARED.  Hypothesis
generates arbitrary small directory + cache states, many of them corrupt,
and checks the implication on each.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.state import LineState
from repro.coherence.directory import DirEntry, DirState
from repro.coherence.protocol import Dir1SWProtocol
from repro.errors import ProtocolError

MAX_BLOCKS = 4
BLOCK_SIZE = 32


@st.composite
def states(draw):
    nodes = draw(st.integers(2, 3))
    blocks = draw(st.integers(1, MAX_BLOCKS))
    node_ids = st.integers(0, nodes - 1)
    caches = [
        draw(st.dictionaries(
            st.integers(0, blocks - 1),
            st.sampled_from([LineState.SHARED, LineState.EXCLUSIVE]),
        ))
        for _ in range(nodes)
    ]
    # the directory the caches imply (passes the scan unless some block is
    # held EXCLUSIVE next to another copy), one field of one entry
    # corrupted, or drawn at random
    mode = draw(st.sampled_from(["implied", "one-corrupt", "random"]))
    corrupt = draw(st.integers(0, blocks - 1))
    directory = {}
    for block in range(blocks):
        if mode == "random":
            directory[block] = DirEntry(
                state=draw(st.sampled_from(list(DirState))),
                count=draw(st.integers(0, nodes)),
                ptr=draw(st.none() | node_ids),
                sharers=draw(st.sets(node_ids)),
            )
            continue
        holders = {n for n, lines in enumerate(caches) if block in lines}
        exclusive = holders and all(
            caches[n][block] is LineState.EXCLUSIVE for n in holders
        )
        entry = DirEntry(
            state=(
                DirState.RW if exclusive
                else DirState.RO if holders else DirState.IDLE
            ),
            count=len(holders),
            ptr=next(iter(holders)) if len(holders) == 1 else None,
            sharers=set(holders),
        )
        if mode == "one-corrupt" and block == corrupt:
            field = draw(st.sampled_from(["state", "count", "ptr", "sharers"]))
            if field == "state":
                entry.state = draw(st.sampled_from(list(DirState)))
            elif field == "count":
                entry.count = draw(st.integers(0, nodes))
            elif field == "ptr":
                entry.ptr = draw(st.none() | node_ids)
            else:
                entry.sharers = draw(st.sets(node_ids))
        directory[block] = entry
    return nodes, caches, directory


def _protocol(nodes, caches, directory) -> Dir1SWProtocol:
    proto = Dir1SWProtocol(
        num_nodes=nodes,
        cache_size=BLOCK_SIZE * MAX_BLOCKS,
        block_size=BLOCK_SIZE,
        assoc=MAX_BLOCKS,  # fully associative: every generated line fits
    )
    for node, lines in enumerate(caches):
        for block, state in lines.items():
            proto.caches[node].insert(block, state)
    proto.directory.entries().update(directory)
    return proto


@settings(max_examples=400, deadline=None)
@given(states())
def test_passing_scan_implies_no_exclusive_copy_is_shared(state):
    proto = _protocol(*state)
    try:
        proto.invariant_check()
    except ProtocolError:
        return  # a corrupt state: the scan caught it, nothing to show
    for block in {line.block for cache in proto.caches for line in cache.lines()}:
        held = [
            line.state for cache in proto.caches
            if (line := cache.lookup(block)) is not None
        ]
        assert not (len(held) > 1 and LineState.EXCLUSIVE in held), (
            f"block {block} passed the scan while held {held}"
        )
