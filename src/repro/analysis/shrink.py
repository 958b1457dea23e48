"""Counterexample shrinking for protocol schedules.

A violating schedule found by the model checker or the fuzzer is rarely
minimal; this module delta-debugs it down to a locally minimal one — every
single-step removal breaks the violation — which is what you want to stare
at when diagnosing a protocol bug (the racing-consensus round-1 bug in
this repository's history was diagnosed from an 8-step shrunken schedule).

Schedules are sequences of process indices.  Replay semantics match the
explorer's: an index whose process has already decided is a no-op, so
removals never make a schedule ill-formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.explore import ExplorationContext, _check_context
from repro.protocols.base import Protocol


def replay_schedule(
    protocol: Protocol,
    inputs: Sequence[Any],
    schedule: Sequence[int],
    context: Optional[ExplorationContext] = None,
) -> Dict[int, Any]:
    """Run a schedule over fresh protocol state; returns decisions map.

    Replays go through an :class:`~repro.analysis.explore.ExplorationContext`
    so repeated replays (shrinking, fuzz campaigns) share transition
    caches; pass ``context`` to reuse one across calls — one built for
    another protocol or inputs is a :class:`~repro.errors.ValidationError`,
    as is a schedule entry outside ``range(len(inputs))``.  Decisions
    with a ``None`` payload are not reported (they are "undecided" to a
    task checker), matching the direct-replay semantics this function
    always had.
    """
    if context is not None:
        _check_context(context, protocol, inputs)
    ctx = context if context is not None else ExplorationContext(
        protocol, inputs
    )
    return {
        index: value
        for index, value in ctx.decided_of(ctx.replay(schedule)).items()
        if value is not None
    }


def violates(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    schedule: Sequence[int],
    context: Optional[ExplorationContext] = None,
) -> bool:
    """Does replaying ``schedule`` produce a task violation?

    ``context`` is checked as in :func:`replay_schedule`.
    """
    return bool(
        task.check(
            list(inputs),
            replay_schedule(protocol, inputs, schedule, context=context),
        )
    )


@dataclass
class ShrinkResult:
    original: List[int]
    minimized: List[int]
    replays: int

    @property
    def removed(self) -> int:
        return len(self.original) - len(self.minimized)


def shrink_schedule(
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    schedule: Sequence[int],
    max_replays: int = 50_000,
    context: Optional[ExplorationContext] = None,
) -> ShrinkResult:
    """Minimize a violating schedule (ddmin-style, then 1-minimal pass).

    Raises ``ValueError`` if the input schedule does not violate.  All
    replays share one exploration context (``context`` or a fresh one),
    so candidate schedules re-walk cached transitions; a supplied one
    built for another protocol or inputs is a
    :class:`~repro.errors.ValidationError`.
    """
    if context is not None:
        _check_context(context, protocol, inputs)
    current = list(schedule)
    replays = 0
    ctx = context if context is not None else ExplorationContext(
        protocol, inputs, task
    )

    def still_violates(candidate: List[int]) -> bool:
        nonlocal replays
        replays += 1
        return violates(protocol, inputs, task, candidate, context=ctx)

    if not still_violates(current):
        raise ValueError("schedule does not violate the task")

    # Phase 1: exponentially shrinking chunk removal.
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and replays < max_replays:
        position = 0
        while position < len(current) and replays < max_replays:
            candidate = current[:position] + current[position + chunk:]
            if candidate and still_violates(candidate):
                current = candidate
            else:
                position += chunk
        chunk //= 2

    # Phase 2: guarantee 1-minimality.
    changed = True
    while changed and replays < max_replays:
        changed = False
        for position in range(len(current)):
            candidate = current[:position] + current[position + 1:]
            if candidate and still_violates(candidate):
                current = candidate
                changed = True
                break
    return ShrinkResult(
        original=list(schedule), minimized=current, replays=replays
    )
