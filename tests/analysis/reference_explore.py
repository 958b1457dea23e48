"""Slow reference explorer: the pre-optimization code path, verbatim.

This module preserves the naively pure-functional explorer exactly as it
stood before the transition-cache/interning/parent-pointer optimization
of the production engine in :mod:`repro.analysis.explore`: ``poised`` is
re-called on every visit, ``_step`` rebuilds full state/memory tuples,
every frontier node carries an O(depth) schedule copy, and the memo
re-hashes wide configuration tuples.  It exists so the differential
property tests (``tests/analysis/test_reference_differential.py``) can
prove the optimized engine emits byte-identical
:class:`~repro.analysis.explore.ExplorationReport` objects — serial and
sharded — across the protocol corpus.

The one later addition is the read-modify-write poised kind in
:func:`_step`.  Its semantics come from the certificate verifier's own
:func:`~repro.certify.replay.verifier_rmw`, never from the
:func:`~repro.memory.rmw.apply_rmw` table the explorer uses, so the
RMW protocol families are checked against an independent definition.

Keep this file dumb on purpose.  Do not optimize it; its value is that
it computes the report the obvious way.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore import (
    ExplorationReport,
    effective_prefix_depth,
    unit_budget,
)
from repro.certify.replay import verifier_rmw
from repro.errors import ValidationError
from repro.protocols.base import DECIDE, RMW, SCAN, Protocol


def _decisions(protocol: Protocol, states: Tuple) -> Dict[int, Any]:
    out = {}
    for index, state in enumerate(states):
        kind, payload = protocol.poised(state)
        if kind == DECIDE:
            out[index] = payload
    return out


def _step(
    protocol: Protocol, states: Tuple, memory: Tuple, index: int
) -> Tuple[Tuple, Tuple]:
    """Apply one step of (undecided) process ``index``; pure."""
    kind, payload = protocol.poised(states[index])
    if kind == SCAN:
        new_state = protocol.advance(states[index], memory)
        new_memory = memory
    elif kind == RMW:
        component, op, args = payload
        new_value, result = verifier_rmw(op, memory[component], args)
        new_state = protocol.advance(states[index], result)
        new_memory = memory[:component] + (new_value,) + memory[component + 1:]
    else:
        component, value = payload
        new_state = protocol.advance(states[index], None)
        new_memory = memory[:component] + (value,) + memory[component + 1:]
    return states[:index] + (new_state,) + states[index + 1:], new_memory


def reference_schedule_prefixes(
    protocol: Protocol, inputs: Sequence[Any], depth: int
) -> Tuple[Tuple[int, ...], ...]:
    """All viable schedule prefixes of length ``depth``, in lex order
    (recursive formulation)."""
    states = tuple(
        protocol.initial_state(i, v) for i, v in enumerate(inputs)
    )
    memory: Tuple = (None,) * protocol.m
    prefixes: List[Tuple[int, ...]] = []

    def extend(states: Tuple, memory: Tuple, prefix: Tuple[int, ...]) -> None:
        if len(prefix) == depth:
            prefixes.append(prefix)
            return
        viable = [
            i for i in range(len(inputs))
            if protocol.poised(states[i])[0] != DECIDE
        ]
        if not viable:
            prefixes.append(prefix)
            return
        for index in viable:
            new_states, new_memory = _step(protocol, states, memory, index)
            extend(new_states, new_memory, prefix + (index,))

    extend(states, memory, ())
    return tuple(prefixes)


def _check_config(
    report: ExplorationReport,
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    states: Tuple,
    schedule: Tuple[int, ...],
    stop_at_first_violation: bool,
) -> Tuple[Dict[int, Any], bool]:
    """Safety-check one configuration against the task."""
    decided = _decisions(protocol, states)
    if not decided:
        return decided, False
    found = task.check(list(inputs), decided)
    if not found:
        return decided, False
    for violation in found:
        if violation not in report.violations:
            report.violations.append(violation)
    as_list = list(schedule)
    if report.counterexample is None or as_list < report.counterexample:
        report.counterexample = as_list
    return decided, stop_at_first_violation


def _explore_unit(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    prefix: Tuple[int, ...],
    max_configs: int,
    max_steps: Optional[int],
    stop_at_first_violation: bool,
) -> ExplorationReport:
    """Explore the interleaving subtree below one schedule prefix."""
    report = ExplorationReport()
    best_depth: Dict[Tuple, int] = {}

    # Pass 1: walk the prefix, recording the path and whether each step
    # took the least viable index (the ownership rule needs the suffix).
    states = tuple(
        protocol.initial_state(i, v) for i, v in enumerate(inputs)
    )
    memory: Tuple = (None,) * protocol.m
    path: List[Tuple[Tuple, Tuple]] = []
    least_viable: List[bool] = []
    for index in prefix:
        path.append((states, memory))
        viable = [
            i for i in range(len(inputs))
            if protocol.poised(states[i])[0] != DECIDE
        ]
        least_viable.append(bool(viable) and index == viable[0])
        states, memory = _step(protocol, states, memory, index)
    owned_from = len(prefix)
    for flag in reversed(least_viable):
        if not flag:
            break
        owned_from -= 1

    # Pass 2: seed the memo with the path configurations and check the
    # owned interior ones.
    for depth, (p_states, p_memory) in enumerate(path):
        key = (p_states, p_memory)
        if key in best_depth:
            continue
        best_depth[key] = depth
        if depth < owned_from:
            continue
        report.configurations += 1
        _decided, stop = _check_config(
            report, protocol, inputs, task, p_states, prefix[:depth],
            stop_at_first_violation,
        )
        if stop:
            report.violations.sort()
            return report
        if report.configurations >= max_configs:
            report.truncated = True
            report.violations.sort()
            return report

    # Pass 3: frontier exploration below the prefix.
    frontier: List[Tuple[Tuple, Tuple, int, Tuple[int, ...]]] = [
        (states, memory, len(prefix), prefix)
    ]
    while frontier:
        states, memory, depth, schedule = frontier.pop()
        key = (states, memory)
        prior = best_depth.get(key)
        if prior is not None and depth >= prior:
            continue
        first_visit = prior is None
        best_depth[key] = depth
        if first_visit:
            report.configurations += 1

        decided, stop = _check_config(
            report, protocol, inputs, task, states, schedule,
            stop_at_first_violation,
        )
        if stop:
            break
        all_decided = len(decided) == len(inputs)
        if all_decided and first_visit:
            report.fully_decided += 1
        if report.configurations >= max_configs:
            report.truncated = True
            break
        if all_decided:
            continue
        if max_steps is not None and depth >= max_steps:
            report.truncated = True
            continue

        for index in range(len(inputs)):
            if index in decided:
                continue
            new_states, new_memory = _step(protocol, states, memory, index)
            frontier.append(
                (new_states, new_memory, depth + 1, schedule + (index,))
            )
    report.violations.sort()
    return report


def reference_explore_prefix_range(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    prefixes: Sequence[Tuple[int, ...]],
    start: int,
    stop: int,
    max_configs: int = 200_000,
    max_steps: Optional[int] = None,
    stop_at_first_violation: bool = True,
) -> ExplorationReport:
    """Explore units ``start..stop-1`` of a prefix decomposition."""
    budget = unit_budget(max_configs, len(prefixes))
    report = ExplorationReport()
    for prefix in prefixes[start:stop]:
        report = report.merge(
            _explore_unit(
                protocol, inputs, task, tuple(prefix), budget, max_steps,
                stop_at_first_violation,
            )
        )
    return report


def reference_explore_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    max_configs: int = 200_000,
    max_steps: Optional[int] = None,
    stop_at_first_violation: bool = True,
    prefix_depth: int = 0,
) -> ExplorationReport:
    """Explore every interleaving of a protocol instance, checking safety."""
    if len(inputs) > protocol.n:
        raise ValidationError(
            f"{protocol.name} supports n={protocol.n}, got {len(inputs)} inputs"
        )
    depth = effective_prefix_depth(prefix_depth, max_steps)
    prefixes = reference_schedule_prefixes(protocol, inputs, depth)
    return reference_explore_prefix_range(
        protocol, inputs, task, prefixes, 0, len(prefixes),
        max_configs=max_configs, max_steps=max_steps,
        stop_at_first_violation=stop_at_first_violation,
    )
