"""Burns–Lynch covering machinery.

A *covering* is a configuration in which a set of processes are each poised
to update ("cover") distinct components of memory: releasing them performs a
block write that obliterates those components.  Covering arguments [BL93]
build ever-larger coverings to force protocols to use ever-more registers —
the classical technique whose limits (per [AAE+18]) motivated the paper's
revisionist simulation, and which the covering *simulators* of Section 4
perform "inside" the reduction.

:func:`build_covering` is the constructive engine: starting from a fresh
instance, it schedules processes one at a time, running each until it is
poised to update a component not yet covered.  For protocols whose solo
executions must write fresh components (any correct consensus protocol, by
the paper's own Theorem 3 machinery), the covering grows to the requested
size; protocols that decide early or re-use components are reported as such
rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.protocols.base import DECIDE, SCAN, Protocol, apply_step


@dataclass
class CoveringReport:
    """Result of :func:`build_covering`.

    Attributes:
        covered: component -> process index poised to update it.
        poised_values: process index -> the (component, value) it covers.
        blocked: processes that decided (or hit the step bound) before
            covering a fresh component, with reasons.
        memory: M's contents in the covering configuration.
        steps_used: total protocol steps spent building the covering.
    """

    covered: Dict[int, int] = field(default_factory=dict)
    poised_values: Dict[int, Tuple[int, Any]] = field(default_factory=dict)
    blocked: Dict[int, str] = field(default_factory=dict)
    memory: Tuple = ()
    steps_used: int = 0
    #: process index -> the reserving execution that drove it here: the
    #: exact steps it took, each ``("scan",)``, ``("update", j, v)`` or
    #: ``("rmw", j, op, args)`` for a write that *landed* (the frozen
    #: write is withheld and lives in ``poised_values``).  Derived data
    #: for certificates; excluded from equality and repr so recording it
    #: never changes report comparisons.
    executions: Dict[int, Tuple[Tuple, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: Witness certificates (:mod:`repro.certify`); excluded likewise.
    certificates: List[Any] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return len(self.covered)


def build_covering(
    protocol: Protocol,
    inputs: Sequence[Any],
    target: Optional[int] = None,
    per_process_budget: int = 10_000,
    certificates: bool = False,
) -> CoveringReport:
    """Drive processes until ``target`` distinct components are covered.

    Process i runs (solo, observing real memory) until poised to update a
    component not yet covered; then it is frozen there and the next process
    runs.  Frozen processes' pending writes are *withheld* — exactly the
    hidden block write of a covering argument.

    Each process's *reserving execution* — the exact scan and
    landed-update steps that drove it to its covering position — is
    recorded in ``report.executions``, which is what a covering
    certificate replays (:mod:`repro.certify`).

    Args:
        protocol: protocol under test.
        inputs: inputs for the participating processes.
        target: covering size to build (default: min(len(inputs), m)).
        per_process_budget: step bound per process before reporting it
            blocked.
        certificates: emit a covering certificate on the report;
            requires a registered protocol descriptor.
    """
    if target is None:
        target = min(len(inputs), protocol.m)
    if target > protocol.m:
        raise ValidationError(
            f"cannot cover {target} components: protocol uses m={protocol.m}"
        )
    report = CoveringReport()
    memory: Tuple[Any, ...] = (None,) * protocol.m
    for index, value in enumerate(inputs):
        if report.size >= target:
            break
        state = protocol.initial_state(index, value)
        steps = 0
        log: List[Tuple] = []
        while steps < per_process_budget:
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                report.blocked[index] = f"decided {payload!r} before covering"
                break
            new_state, new_memory, step = apply_step(protocol, state, memory)
            if kind != SCAN and step[1] not in report.covered:
                # A write to a fresh component: freeze here, withholding
                # it (an RMW's withheld value is the one the contents
                # determine at freeze time).
                report.covered[step[1]] = index
                report.poised_values[index] = (step[1], new_memory[step[1]])
                break
            # A scan, or a write to a covered component: it lands.
            log.append((SCAN,) if kind == SCAN else step[:4])
            state, memory = new_state, new_memory
            steps += 1
        else:
            report.blocked[index] = (
                f"no fresh component within {per_process_budget} steps"
            )
        report.executions[index] = tuple(log)
        report.steps_used += steps
    report.memory = memory
    if certificates:
        from repro.certify.emit import covering_certificate

        report.certificates = [
            covering_certificate(
                protocol, inputs, report, target, per_process_budget
            )
        ]
    return report


def release_covering(report: CoveringReport) -> Tuple:
    """Apply the withheld block write of a covering; returns new contents.

    The covering's poised updates are performed together, obliterating the
    covered components — the paper's "block update completely obliterates
    the contents of M" step.
    """
    memory = list(report.memory)
    for _index, (component, value) in report.poised_values.items():
        memory[component] = value
    return tuple(memory)
