"""Differential test: the online checker and the model checker agree.

Each case re-breaks one protocol operation with a small instance-level
shim, then drives the same operations through both checkers — a live
two-node :class:`~repro.machine.machine.Machine` watched by
:class:`~repro.verify.InvariantChecker`, and a
:class:`~repro.mc.model.ProtocolModel` replay of the same schedule.  Both
must name the same invariant, node and block, because both take their
definitions from :mod:`repro.verify.invariants`.
"""

from __future__ import annotations

import pytest

from repro.cache.state import LineState
from repro.errors import VerifyError
from repro.machine.config import MachineConfig
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    EV_BARRIER,
    EV_DIRECTIVE,
    EV_REF,
)
from repro.machine.machine import Machine
from repro.mc import MUTATIONS
from repro.mc.counterexample import replay_schedule
from repro.mc.model import Action, MCConfig
from repro.verify import InvariantChecker

BLOCK_SIZE = 32
DIRECTIVES = {
    "check_out_S": DIR_CHECK_OUT_S,
    "check_out_X": DIR_CHECK_OUT_X,
    "check_in": DIR_CHECK_IN,
}


def _after(method: str, effect):
    """Shim: run the real ``method``, then ``effect(proto, node, block)``."""

    def shim(proto):
        real = getattr(proto, method)

        def broken(node, block, *args, **kwargs):
            out = real(node, block, *args, **kwargs)
            effect(proto, node, block)
            return out

        setattr(proto, method, broken)

    return shim


def _keep_line_on_check_in(proto):
    """check_in reports the line but never removes it."""
    for cache in proto.caches:
        cache.invalidate = cache.lookup


# case id -> (shim, schedule of node 0's ops on block 0, expected name/node/block)
CASES = {
    "write": (
        _after("write", lambda p, n, b: p.caches[1 - n].insert(b, LineState.SHARED)),
        ["write"], ("swmr", 0, 0),
    ),
    "read-miss": (
        _after("read", lambda p, n, b: p.caches[n].invalidate(b)),
        ["read"], ("dir-cache-agreement", 0, 0),
    ),
    "check_out_S": (
        _after("check_out", lambda p, n, b: p.caches[n].invalidate(b)),
        ["check_out_S"], ("dir-cache-agreement", 0, 0),
    ),
    "check_out_X": (
        _after("check_out", lambda p, n, b: p.caches[n].downgrade(b)),
        ["check_out_X"], ("directive-postcondition", 0, 0),
    ),
    "check_in": (
        _keep_line_on_check_in,
        ["read", "check_in"], ("directive-postcondition", 0, 0),
    ),
    "barrier-state": (
        _after("read", lambda p, n, b: p.directory.add_reader(b, 1 - n)),
        ["read"], ("dir-cache-agreement", None, None),
    ),
}


def _online(shim, ops) -> VerifyError:
    config = MachineConfig(
        num_nodes=2, cache_size=1024, block_size=BLOCK_SIZE, assoc=2
    )
    machine = Machine(config)
    shim(machine.protocol)
    InvariantChecker(machine.protocol, label="differential").subscribe(machine.bus)

    def kernel(nid):
        if nid == 0:
            for pc, op in enumerate(ops):
                if op in DIRECTIVES:
                    yield (EV_DIRECTIVE, 0, DIRECTIVES[op], [0], pc)
                else:
                    yield (EV_REF, 1, 0, op == "write", pc)
        yield (EV_BARRIER, 0, 100 + nid)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    return excinfo.value


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_checkers_name_the_same_violation(case, monkeypatch):
    shim, ops, expected = CASES[case]
    online = _online(shim, ops)

    monkeypatch.setitem(MUTATIONS, "differential", shim)
    config = MCConfig(nodes=2, blocks=1, faults=False)
    schedule = [Action(0, op, 0) for op in ops]
    violation = replay_schedule(config, schedule, mutate="differential").violation

    assert violation is not None, f"{case}: the model checker found nothing"
    assert (online.invariant, online.node, online.block) == expected
    assert (violation.invariant, violation.node, violation.block) == expected
