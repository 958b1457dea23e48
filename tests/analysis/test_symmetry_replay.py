"""Symmetry counterexamples replay through the real runtime.

Property (the tentpole's witness contract, satellite of ISSUE 7): for
every corpus protocol where the *unreduced* explorer finds a violation —
including the DiamondTrap depth-bound gadget — symmetry-reduced
exploration also finds one, and its counterexample schedule, replayed
through :mod:`repro.runtime.replay` on a real system (processes built
with :func:`~repro.protocols.base.protocol_body`, decisions read back
from trace annotations), reproduces a task violation.  The explorer and
the runtime agree step-for-step on schedule semantics, so explorer
schedules are runtime schedules verbatim.
"""

import pytest

from repro.analysis import explore_protocol
from repro.memory.snapshot import AtomicSnapshot
from repro.protocols import (
    AnonymousSweepConsensus,
    KSetAgreementTask,
    RacingConsensus,
    TruncatedProtocol,
)
from repro.protocols.base import decided_values, protocol_body
from repro.runtime.replay import replay_run
from repro.runtime.system import System
from tests.gadgets import DiamondTrap, LastConfigBad

CASES = [
    (lambda: TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=20)),
    (lambda: RacingConsensus(2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=50_000, max_steps=14)),
    (lambda: DiamondTrap(), [0, 1],
     KSetAgreementTask(1), dict(max_configs=200_000, max_steps=3)),
    (lambda: LastConfigBad(), [0],
     KSetAgreementTask(1), dict(max_configs=2, max_steps=None)),
    (lambda: AnonymousSweepConsensus(2, m=2, decision_round=1), [0, 1],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=12)),
    (lambda: AnonymousSweepConsensus(3, m=2, decision_round=1), [0, 1, 1],
     KSetAgreementTask(1), dict(max_configs=300_000, max_steps=12)),
]


def _runtime_violations(protocol, inputs, task, schedule):
    """Replay a schedule on a real system; return the task verdict."""

    def build():
        system = System()
        snapshot = AtomicSnapshot("M", components=protocol.m)
        for index, value in enumerate(inputs):
            system.add_process(protocol_body(protocol, index, value, snapshot))
        return system

    system, _result = replay_run(build, list(schedule))
    return task.check(list(inputs), decided_values(system))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_reduced_counterexample_replays_in_runtime(case):
    factory, inputs, task, bounds = CASES[case]
    protocol = factory()
    unreduced = explore_protocol(protocol, inputs, task, **bounds)
    reduced = explore_protocol(
        factory(), inputs, task, symmetry=True, **bounds
    )
    assert reduced.safe == unreduced.safe
    if unreduced.safe:
        pytest.skip("corpus case is safe within the bounds")
    assert reduced.counterexample is not None
    assert _runtime_violations(
        protocol, inputs, task, reduced.counterexample
    )


@pytest.mark.parametrize("case", range(len(CASES)))
def test_unreduced_counterexample_replays_in_runtime(case):
    """Baseline for the property above: unreduced counterexamples
    replay too (the schedule semantics really are shared)."""
    factory, inputs, task, bounds = CASES[case]
    protocol = factory()
    report = explore_protocol(protocol, inputs, task, **bounds)
    if report.safe:
        pytest.skip("corpus case is safe within the bounds")
    assert _runtime_violations(
        protocol, inputs, task, report.counterexample
    )
