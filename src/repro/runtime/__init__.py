"""Asynchronous shared-memory runtime.

This package realizes the computation model of Section 2 of the paper: a set
of sequential processes that communicate only through atomic operations on
shared objects, scheduled by an adversary.  Processes are Python generators
that ``yield`` operation requests; a :class:`~repro.runtime.system.System`
paired with a :class:`~repro.runtime.scheduler.Scheduler` drives them one
atomic step at a time.  Because every interleaving decision flows through the
scheduler, executions are deterministic given a scheduler seed/script and can
be replayed, which is what lets the analysis tools (linearizability checking,
the Lemma 28 correspondence checker) treat executions as data.
"""

from repro.runtime.events import Annotate, Event, Invoke
from repro.runtime.process import CRASHED, DONE, READY, Process
from repro.runtime.scheduler import (
    AdversarialScheduler,
    CrashAfterScheduler,
    ObstructionScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    SoloScheduler,
)
from repro.runtime.system import ExecutionResult, System

__all__ = [
    "Annotate",
    "Event",
    "Invoke",
    "Process",
    "READY",
    "DONE",
    "CRASHED",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "CrashAfterScheduler",
    "SoloScheduler",
    "ObstructionScheduler",
    "AdversarialScheduler",
    "System",
    "ExecutionResult",
]
