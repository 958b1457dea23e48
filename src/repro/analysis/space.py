"""Space measurement: the paper's complexity measure, observed.

The space complexity of a protocol is the maximum number of registers used
in any execution.  This module measures the observable proxy on concrete
executions — how many distinct components of M are actually written — and
aggregates it over schedule families, so the E2 bound tables can be set
against what executions genuinely touch.

Two subtleties the reports surface:

* a protocol's *declared* m is an upper bound; particular executions
  (e.g. solo runs) may touch far fewer components — space complexity is a
  max over executions, which is why lower-bound proofs must construct
  adversarial ones;
* the simulation's own space (the augmented snapshot's H plus the touched
  helping cells) is an implementation cost of the *reduction*, not of the
  protocol — reported separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.protocols.base import (
    DECIDE,
    RMW,
    SCAN,
    Protocol,
    apply_step,
    check_schedule,
)
from repro.runtime.system import System


@dataclass
class SpaceReport:
    """Aggregated space usage over a family of executions."""

    declared_m: int
    per_run: List[int] = field(default_factory=list)

    @property
    def max_used(self) -> int:
        return max(self.per_run, default=0)

    @property
    def min_used(self) -> int:
        return min(self.per_run, default=0)

    @property
    def mean_used(self) -> float:
        return sum(self.per_run) / len(self.per_run) if self.per_run else 0.0


def replay_steps(
    protocol: Protocol,
    inputs: Sequence[Any],
    schedule: Sequence[int],
    on_step: Optional[Callable[[Tuple], Any]] = None,
) -> Tuple[Tuple, Tuple]:
    """Replay ``schedule`` from the initial configuration.

    Returns the final ``(states, memory)``.  Each entry takes one
    :func:`~repro.protocols.base.apply_step` of its process and hands the
    step record to ``on_step``; steps by decided processes are no-ops,
    matching replay semantics everywhere else.  An entry outside
    ``range(len(inputs))`` is a :class:`~repro.errors.ValidationError`
    naming it and its position.
    """
    check_schedule(protocol, len(inputs), schedule)
    states = [protocol.initial_state(i, v) for i, v in enumerate(inputs)]
    memory: Tuple = (None,) * protocol.m
    for index in schedule:
        if protocol.poised(states[index])[0] == DECIDE:
            continue
        states[index], memory, step = apply_step(
            protocol, states[index], memory
        )
        if on_step is not None:
            on_step(step)
    return tuple(states), memory


def components_written(
    protocol: Protocol, inputs: Sequence[Any], schedule: Sequence[int]
) -> Set[int]:
    """The set of components written when replaying ``schedule``.

    An RMW writes its component, so it counts like an update.
    """
    steps: List[Tuple] = []
    replay_steps(protocol, inputs, schedule, steps.append)
    return {step[1] for step in steps if step[0] != SCAN}


def base_object_profile(
    protocol: Protocol, inputs: Sequence[Any], schedule: Sequence[int]
) -> Dict[str, int]:
    """Step counts by base-object operation when replaying ``schedule``.

    The space falsifier's companion measure for the multi-primitive
    substrate: how many scan, update, and read-modify-write steps (the
    latter split per operation — ``swap`` / ``test_and_set`` /
    ``compare_and_swap``) the schedule performs.
    """
    steps: List[Tuple] = []
    replay_steps(protocol, inputs, schedule, steps.append)
    return dict(Counter(
        step[2] if step[0] == RMW else step[0] for step in steps
    ))


def measure_protocol_space(
    protocol: Protocol,
    inputs: Sequence[Any],
    schedules: Sequence[Sequence[int]],
) -> SpaceReport:
    """Components written across a family of replayed schedules."""
    report = SpaceReport(declared_m=protocol.m)
    for schedule in schedules:
        report.per_run.append(
            len(components_written(protocol, inputs, schedule))
        )
    return report


def measure_system_registers(system: System) -> Dict[str, int]:
    """Registers used per shared object in a finished system run."""
    return {
        name: obj.register_count() for name, obj in system.objects.items()
    }
