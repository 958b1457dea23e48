"""FLP valence analysis, made finite by bounds.

Fischer–Lynch–Paterson's impossibility proof classifies configurations of a
consensus protocol by *valence*: the set of values decidable from them.  A
configuration is bivalent if both 0 and 1 remain possible.  The existence of
a bivalent initial configuration plus the ability to keep executions
bivalent forever is the engine of the classic proof — and of the covering
arguments the paper contrasts its simulation with.

Here valence is computed by bounded-exhaustive search over the pure
configuration space of a normal-form protocol (states × memory), the same
representation :mod:`repro.analysis.explore` uses.  For the racing
protocols, valence within a generous bound is the practically meaningful
notion: a configuration reported bivalent comes with concrete schedules
deciding each value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ValidationError
from repro.protocols.base import DECIDE, Protocol, apply_step


@dataclass
class ValenceReport:
    """Result of :func:`classify_valence`.

    Attributes:
        values: decided values reachable from the configuration.
        truncated: True if the bound cut the search (values is then a
            lower estimate).
        witnesses: value -> schedule (process indices) reaching a
            configuration where some process decided that value.
    """

    values: Set[Any] = field(default_factory=set)
    truncated: bool = False
    witnesses: Dict[Any, List[int]] = field(default_factory=dict)
    #: Witness certificates (:mod:`repro.certify`); excluded from
    #: equality and repr so carrying them never changes comparisons.
    certificates: List[Any] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def bivalent(self) -> bool:
        return len(self.values) >= 2

    @property
    def univalent(self) -> bool:
        return len(self.values) == 1 and not self.truncated


Configuration = Tuple[Tuple, Tuple]  # (process states, memory)


def initial_configuration(
    protocol: Protocol, inputs: Sequence[Any]
) -> Configuration:
    """The configuration where every process holds its input, M is fresh."""
    states = tuple(protocol.initial_state(i, v) for i, v in enumerate(inputs))
    return states, (None,) * protocol.m


def step_configuration(
    protocol: Protocol, config: Configuration, index: int
) -> Configuration:
    """Apply one step of process ``index`` to a configuration (pure).

    This is :func:`~repro.protocols.base.apply_step` on its state and M.
    """
    states, memory = config
    new_state, new_memory, _step = apply_step(protocol, states[index], memory)
    return states[:index] + (new_state,) + states[index + 1:], new_memory


def classify_valence(
    protocol: Protocol,
    inputs: Sequence[Any],
    config: Optional[Configuration] = None,
    max_configs: int = 100_000,
    certificates: bool = False,
) -> ValenceReport:
    """Compute the set of decidable values from a configuration.

    Stops early once both more-than-one value is found and witnesses are
    recorded (bivalence is established); otherwise explores until the bound.

    With ``certificates=True`` the report carries a valence witness
    certificate (:mod:`repro.certify`).  Certificates describe witness
    schedules from the *initial* configuration, so they can only be
    emitted when ``config`` is ``None``.
    """
    from_initial = config is None
    if certificates and not from_initial:
        raise ValidationError(
            "valence certificates can only be emitted for the initial "
            "configuration (witness schedules are replayed from it)"
        )
    if config is None:
        config = initial_configuration(protocol, inputs)
    report = ValenceReport()
    seen = set()
    # Breadth-first: protocols with unbounded round numbers have infinite
    # deep branches, but decisions (e.g. a solo run) live at shallow depth —
    # BFS finds them before the budget burns on one deep branch.
    from collections import deque

    queue: deque = deque([(config, ())])
    while queue:
        current, schedule = queue.popleft()
        if current in seen:
            continue
        seen.add(current)
        if len(seen) > max_configs:
            report.truncated = True
            break
        states, _memory = current
        undecided = []
        for index, state in enumerate(states):
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                if payload not in report.values:
                    report.values.add(payload)
                    report.witnesses[payload] = list(schedule)
            else:
                undecided.append(index)
        if report.bivalent:
            # Both values witnessed; for consensus that settles bivalence.
            break
        for index in undecided:
            queue.append(
                (step_configuration(protocol, current, index),
                 schedule + (index,))
            )
    if certificates and report.witnesses:
        from repro.certify.emit import valence_certificate

        report.certificates = [
            valence_certificate(protocol, inputs, report)
        ]
    return report


def bivalent_initial_configurations(
    protocol: Protocol,
    input_vectors: Sequence[Sequence[Any]],
    max_configs: int = 100_000,
) -> List[Tuple[Tuple, ValenceReport]]:
    """Classify a family of initial input vectors; returns the bivalent ones.

    The FLP Lemma-style result: for any (correct, register-based) consensus
    protocol, some adjacent pair of input vectors yields a bivalent initial
    configuration.  This harness makes that statement checkable for concrete
    protocols.
    """
    bivalent = []
    for vector in input_vectors:
        report = classify_valence(protocol, vector, max_configs=max_configs)
        if report.bivalent:
            bivalent.append((tuple(vector), report))
    return bivalent
