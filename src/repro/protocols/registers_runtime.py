"""Run normal-form protocols on *raw registers* instead of native snapshots.

The paper's model is registers; atomic snapshots are assumed w.l.o.g.
because of the [AAD+93] construction.  This module closes the loop by
executing protocols against :class:`~repro.memory.afek.AfekMWSnapshot` —
the m-register multi-writer construction — so an entire execution bottoms
out in nothing but atomic reads and writes, and the space accounting is
literally a register count.

Because the construction is linearizable (machine-checked in
tests/analysis/test_linearizability.py), decisions under any schedule are
decisions the native-snapshot semantics could also produce; tests verify
task safety directly on register-level runs.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.errors import ValidationError
from repro.memory.afek import AfekMWSnapshot
from repro.protocols.base import (
    DECIDE,
    DECISION_TAG,
    SCAN,
    Protocol,
    poised_update,
)
from repro.runtime.events import Annotate
from repro.runtime.process import Process
from repro.runtime.scheduler import Scheduler
from repro.runtime.system import ExecutionResult, System


def register_protocol_body(
    protocol: Protocol,
    index: int,
    value: Any,
    snapshot: AfekMWSnapshot,
    max_own_ops: int = 10_000,
):
    """A process body driving one protocol process over the register-level
    snapshot construction (every scan/update becomes many register steps)."""
    protocol.check_index(index)

    def body(proc: Process):
        state = protocol.initial_state(index, value)
        ops = 0
        while ops < max_own_ops:
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                yield Annotate(
                    DECISION_TAG,
                    {"protocol": protocol.name, "index": index,
                     "value": payload},
                )
                return payload
            if kind == SCAN:
                view = yield from snapshot.scan(proc.pid)
                state = protocol.advance(state, view)
            else:
                component, written = poised_update(
                    protocol, index, kind, payload
                )
                yield from snapshot.update(proc.pid, component, written)
                state = protocol.advance(state, None)
            ops += 1
        return None

    return body


def run_protocol_on_registers(
    protocol: Protocol,
    inputs: Sequence[Any],
    scheduler: Scheduler,
    max_steps: int = 1_000_000,
    snapshot_name: str = "M",
) -> Tuple[System, ExecutionResult, AfekMWSnapshot]:
    """Execute a protocol instance with M built from m raw registers.

    Returns ``(system, result, snapshot)``; ``snapshot.register_count()``
    is exactly ``protocol.m`` — the space-complexity measure of the paper,
    observed on real registers.
    """
    if len(inputs) > protocol.n:
        raise ValidationError(
            f"{protocol.name} supports n={protocol.n}, got {len(inputs)}"
        )
    system = System()
    snapshot = AfekMWSnapshot(snapshot_name, components=protocol.m)
    for index, value in enumerate(inputs):
        system.add_process(
            register_protocol_body(protocol, index, value, snapshot),
            name=f"{protocol.name}[{index}]@registers",
        )
    result = system.run(scheduler, max_steps=max_steps)
    return system, result, snapshot
